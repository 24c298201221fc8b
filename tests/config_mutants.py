"""Seeded text mutants of the benchmark's configs, for the loader's
differential test.

Each mutant is one of the four workloads' configs, written as the
benchmark writes it (yaml.safe_dump with sorted keys), with one to three
edits: a piece inserted, one to three characters deleted, or one
character replaced by a piece. The pieces are the characters on which
libyaml's parser and PyYAML's pure-Python one are known to part or to
word their errors apart (tab, CR, NUL, a BOM, block scalar headers, flow
indicators), plus digits and letters, which keep many mutants valid.
"""

import importlib.util
import os
import random
import sys

import yaml

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("flow_euclid", "flow_curvature", "verify_replay",
             "discrete_compare")
#: "\udcff" is written as the lone byte 0xff, which is not UTF-8
PIECES = ("\t", "\r", "\r\n", "\x00", "\ufeff", "\udcff", "é", "|#",
          "|", ">-", ">", ": ", ":", "- ", "#", " #", "[", "]", "{", "}",
          ",", "'", '"', "&a ", "*a", "!", "? ", "%", "@", "`", "\\",
          " ", "  ", "\n", "\n  ", "0", "1", "7", ".", "e", "-", "+",
          "a", "x", "_", "~", "null", "true", ".inf")


def workload_texts(work_dir):
    """The text of every config of the four workloads at seed 0."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(ROOT, "perfbench",
                                            "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look it up there
    spec.loader.exec_module(workloads)
    return [yaml.safe_dump(doc, sort_keys=True)
            for name in WORKLOADS
            for doc in workloads.build(name, 0, work_dir).configs.values()]


def mutants(texts, count, seed):
    """count mutants of texts, the same for the same seed."""
    rng = random.Random(seed)
    for _ in range(count):
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(text) + 1)
            edit = rng.randrange(3)
            if edit == 0:
                text = text[:at] + rng.choice(PIECES) + text[at:]
            elif edit == 1:
                text = text[:at] + text[at + rng.randint(1, 3):]
            else:
                text = text[:at] + rng.choice(PIECES) + text[at + 1:]
        yield text


def file_bytes(text):
    """text as the mutant's file holds it."""
    return text.encode("utf-8", "surrogateescape")
