import dataclasses
import io
import itertools
import json
import math
import os
import threading
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accelflow.control import (
    MinPStar,
    nesterov_flow_controller,
    polyak_controller,
)
from accelflow import csvtext
from accelflow.csvtext import _FIELD, _csv_text, _csv_values
from accelflow.discrete import (
    IterateSequence,
    cg_iterate,
    constant,
    heavy_ball_iterate,
)
from accelflow.export import (
    _READ_CHUNK,
    BLOCK_VALUES,
    _read_rows,
    _read_table,
    decade_label,
    discrete_summary,
    flow_summary,
    read_trajectory_csv,
    trajectory_from_arrays,
    trajectory_header,
    write_compare_csv,
    write_iterates_csv,
    write_summary_json,
    write_trajectory_csv,
)
from accelflow.flow import (
    COLUMNS,
    FlowMode,
    StoppingRule,
    TrajectoryRecord,
    initial_state,
    integrate,
)
from accelflow.metric import MetricKind, MetricSpec
from accelflow.clf import DEFAULT_CLF
from accelflow.objective import random_quadratic, rosenbrock_problem
from traced import PEAK_PER_COLUMN_BYTE, traced_peak
from accelflow.verify import CheckStatus, DissipationMode, check_dissipation

EUCLID = MetricSpec(MetricKind.EUCLIDEAN)


@pytest.fixture(scope="module")
def quad():
    return random_quadratic(4, 10.0, seed=3)


@pytest.fixture(scope="module")
def reduced_record(quad):
    spec = MinPStar(rate_eta=1.0, metric=EUCLID)
    state0 = initial_state(quad.oracle, quad.x0)
    return integrate(spec, quad.oracle, state0, 1e-3, 12.0)


@pytest.fixture(scope="module")
def full_record(quad):
    spec = polyak_controller(2.0, 2.0)
    state0 = initial_state(quad.oracle, quad.x0)
    return integrate(spec, quad.oracle, state0, 1e-3, 5.0,
                     mode=FlowMode.FULL_PRIMAL_DUAL)


class TestTrajectoryCsv:
    def test_header_layout(self):
        cols = trajectory_header(2, full_mode=False)
        assert cols == ["t", "x0", "x1", "v0", "v1", "y", "E", "grad_norm",
                        "V", "lieV"]
        full = trajectory_header(2, full_mode=True)
        assert full == cols + ["lx0", "lx1", "lv0", "lv1"]
        assert len(cols) == 2 * 2 + 6
        assert len(full) == 4 * 2 + 6

    def test_round_trip_is_exact(self, reduced_record, tmp_path):
        path = str(tmp_path / "traj.csv")
        write_trajectory_csv(reduced_record, path)
        data = read_trajectory_csv(path)
        cols = reduced_record.columns
        n = len(cols["t"])
        assert data["x"].shape == (n, 4)
        for k in (0, n // 2, -1):
            assert np.array_equal(data["x"][k], cols["x"][k])
            assert np.array_equal(data["v"][k], cols["v"][k])
            assert data["V"][k] == cols["V"][k]
            assert data["lieV"][k] == cols["lieV"][k]
        assert "lambda_x" not in data

    def test_a_dim_50_file_reads_back_exactly_and_holds_little_more(
            self, tmp_path):
        # 1601 rows of 106 columns: about 50 chunks of text, the table
        # made once at its size, and the kernel's arrays a chunk's worth
        prob = random_quadratic(50, 100.0, seed=1)
        record = integrate(nesterov_flow_controller(10.0), prob.oracle,
                           initial_state(prob.oracle, prob.x0), 0.01, 16.0,
                           stop=StoppingRule(tol_g=0.0, tol_v=0.0))
        path = str(tmp_path / "traj.csv")
        write_trajectory_csv(record, path)
        data, peak = traced_peak(lambda: read_trajectory_csv(path))
        assert len(data["t"]) == 1601
        for name, column in data.items():
            assert column.tobytes() == record.columns[name].tobytes(), name
        table_bytes = sum(column.nbytes for column in data.values())
        assert peak < PEAK_PER_COLUMN_BYTE * table_bytes

    def test_full_mode_round_trips_multipliers(self, full_record, tmp_path):
        path = str(tmp_path / "full.csv")
        write_trajectory_csv(full_record, path)
        data = read_trajectory_csv(path)
        assert data["lambda_x"].shape == data["x"].shape
        k = len(full_record.columns["t"]) - 1
        assert np.array_equal(data["lambda_v"][k],
                              full_record.columns["lambda_v"][k])

    def test_tampered_header_rejected(self, reduced_record, tmp_path):
        path = tmp_path / "bad.csv"
        write_trajectory_csv(reduced_record, str(path))
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace("grad_norm", "gradnorm")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="unexpected columns"):
            read_trajectory_csv(str(path))

    def test_ragged_row_rejected(self, reduced_record, tmp_path):
        path = tmp_path / "ragged.csv"
        write_trajectory_csv(reduced_record, str(path))
        lines = path.read_text().splitlines()
        lines[1] = lines[1] + ",0.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            read_trajectory_csv(str(path))

    def test_rows_are_the_per_value_format(self, tmp_path):
        # signed zero, subnormal, huge and non-finite values, in every
        # column group of the full-mode layout
        odd = np.array([-0.0, 5e-324, 1e308, np.nan, np.inf])
        samples = []
        for k in range(5):
            r = np.roll(odd, -k)  # each column sees every value once
            samples.append({"t": r[0], "x": r[1:3], "v": r[3:5], "y": r[2],
                            "E": r[1], "grad_norm": r[3], "V": r[4],
                            "lieV": -r[0], "lambda_x": r[2:4],
                            "lambda_v": -r[:2], "u": np.zeros(2)})
        columns = {name: np.array([s[name] for s in samples])
                   for name in COLUMNS + ("u",)}
        record = TrajectoryRecord(columns=columns, converged=False,
                                  diverged=False,
                                  meta={"dim": 2, "mode": "full_primal_dual"})
        path = tmp_path / "odd.csv"
        write_trajectory_csv(record, str(path))
        rows = path.read_text().splitlines()[1:]
        expected = []
        for s in samples:
            values = ([s["t"]] + list(s["x"]) + list(s["v"])
                      + [s["y"], s["E"], s["grad_norm"], s["V"], s["lieV"]]
                      + list(s["lambda_x"]) + list(s["lambda_v"]))
            expected.append(",".join("%.17g" % v for v in values))
        assert rows == expected

    @pytest.mark.parametrize("blocks,extra", [(0, 1), (1, -1), (1, 0),
                                              (1, 1)])
    def test_blocks_of_rows_are_the_per_value_format(self, blocks, extra,
                                                     tmp_path):
        # one row, and one block of rows less one, exactly and plus one,
        # with values over the whole double range and non-finite cells
        dim = 50
        width = len(trajectory_header(dim, full_mode=False))
        n = blocks * (BLOCK_VALUES // width) + extra
        rng = np.random.default_rng(n)
        table = (rng.standard_normal((n, width))
                 * 10.0 ** rng.integers(-320, 306, (n, width)))
        table[rng.random((n, width)) < 0.01] = np.inf
        table[rng.random((n, width)) < 0.01] = np.nan
        names = COLUMNS[:COLUMNS.index("lambda_x")]
        widths = [dim if name in ("x", "v") else 1 for name in names]
        parts = np.split(table, np.cumsum(widths)[:-1], axis=1)
        columns = {name: part if w > 1 else part[:, 0]
                   for name, w, part in zip(names, widths, parts)}
        record = TrajectoryRecord(columns=columns, converged=False,
                                  diverged=True, meta={"dim": dim})
        path = tmp_path / "block.csv"
        write_trajectory_csv(record, str(path))
        header = ",".join(trajectory_header(dim, full_mode=False)) + "\n"
        assert path.read_bytes() == header.encode() + per_value_text(table)

    def test_write_is_atomic_and_makes_dirs(self, reduced_record, tmp_path):
        nested = tmp_path / "a" / "b" / "traj.csv"
        write_trajectory_csv(reduced_record, str(nested))
        assert nested.exists()
        leftovers = [p for p in nested.parent.iterdir()
                     if p.suffix == ".tmp"]
        assert leftovers == []


def per_value_text(block):
    """The reference: one '%.17g' per field, one line per row."""
    return "".join(",".join("%.17g" % v for v in row) + "\n"
                   for row in np.atleast_2d(block).tolist()).encode()


def as_rows(values, cols=7):
    """values padded with 1.0 to whole rows of cols fields."""
    values = np.asarray(values, dtype=float).ravel()
    pad = -len(values) % cols
    return np.concatenate([values, np.ones(pad)]).reshape(-1, cols)


def decimal_ties():
    """Doubles m * 2**-e, m odd, whose exact decimal expansion has 18
    significant digits ending in 5: a tie at 17 digits. They lie between
    about 3e-8 and 2.3e15, the only exponents where such ties exist."""
    rng = np.random.default_rng(7)
    ties = []
    for e in range(1, 110):
        lo = max(1, -(-10 ** 17 // 5 ** e))
        hi = min(2 ** 53 - 1, (10 ** 18 - 1) // 5 ** e)
        if lo > hi:
            continue
        for m in {lo, hi, *(int(m) for m in rng.integers(lo, hi + 1, 3))}:
            m |= 1
            if m <= hi and len(str(m * 5 ** e)) == 18:
                ties.append(math.ldexp(m, -e))
    return np.array(ties)


def near_ties():
    """Doubles whose exact |v| * 10**(16 - X), X the decimal exponent,
    lies within 2**-9 of a half-integer but not on it: where a long double
    rounding could take the fraction across .5. They are found by search
    over the whole vectorized range of exponents."""
    rng = np.random.default_rng(11)
    found = []
    for X in range(-37, 43):
        for v in (rng.uniform(1.0, 10.0, 2000) * 10.0 ** X).tolist():
            num, den = v.as_integer_ratio()
            if X <= 16:
                num *= 10 ** (16 - X)
            else:
                den *= 10 ** (X - 16)
            whole, rest = divmod(num, den)
            if (10 ** 16 <= whole < 10 ** 17 and 2 * rest != den
                    and abs(2 * rest - den) * 2 ** 9 < den):
                found.append(v)
    return np.array(found)


#: doubles below 1e-11, where the power of ten is rounded too, whose
#: x87 long double scaling lands one step of its precision on the wrong
#: side of .5 (found by search): only the fallback margin writes them
#: right. Elsewhere they are just more values.
CROSSINGS = [3.5489324483832403e-37, 7.059768895254117e-36,
             3.3154826211275184e-35, 3.438693742193433e-34,
             1.7163766210878916e-32, 3.5851658692744323e-25,
             3.4869458210070624e-17]


def powers_of_ten():
    """10**k for k in [-45, 45] and the doubles one ulp either side."""
    p = np.array([float(f"1e{k}") for k in range(-45, 46)])
    return np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf)])


class TestCsvText:
    """_csv_text against the per-value formula, by bytes."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40),
           st.integers(1, 5))
    def test_any_bit_pattern(self, words, cols):
        values = np.array(words, dtype=np.uint64).view(np.float64)
        block = np.resize(values, (-(-len(values) // cols), cols))
        assert _csv_text(block).tobytes() == per_value_text(block)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(1e-38, 1e44), min_size=1, max_size=40),
           st.integers(0, 2 ** 40 - 1))
    def test_the_vectorized_range(self, values, signs):
        values = np.array(values) * np.where(
            (signs >> np.arange(len(values))) & 1, -1.0, 1.0)
        block = values.reshape(1, -1)
        assert _csv_text(block).tobytes() == per_value_text(block)

    @pytest.mark.parametrize("family", [
        "special", "powers", "integers", "ties", "near ties", "edges"])
    def test_fixed_families(self, family):
        def signed(values):
            return np.concatenate([values, -values])

        values = {
            "special": lambda: [
                0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                np.finfo(float).max, -np.finfo(float).max,
                np.finfo(float).tiny],
            "powers": lambda: signed(powers_of_ten()),
            "integers": lambda: np.concatenate([
                np.arange(0.0, 3000.0), 2.0 ** np.arange(54),
                2.0 ** 53 - np.arange(1.0, 200.0),
                10.0 ** np.arange(16) * 7, 10.0 ** np.arange(16) * 120,
                np.random.default_rng(3).integers(0, 2 ** 53, 500)]),
            "ties": lambda: np.concatenate([
                signed(decimal_ties()), np.nextafter(decimal_ties(), 0),
                np.nextafter(decimal_ties(), np.inf)]),
            "near ties": lambda: np.concatenate([signed(near_ties()),
                                                 CROSSINGS]),
            "edges": lambda: [np.nextafter(edge, toward) for edge in
                              (1e-37, 1e43, 1e-11, 1e-4, 1e-5, 1e16, 1e17)
                              for toward in (0, edge, np.inf)],
        }[family]()
        block = as_rows(values)
        assert _csv_text(block).tobytes() == per_value_text(block)

    def test_the_ties_are_ties(self):
        ties = decimal_ties()
        assert len(ties) > 100
        for v in ties[:: 7]:
            digits = format(v, ".40e").split("e")[0].replace(".", "")
            assert digits.rstrip("0")[17:] == "5"
        assert ties.min() < 1e-7 and ties.max() > 1e15
        near = near_ties()
        # both sides of the exact-power range, 10**k for k <= 27
        assert (near < 1e-11).sum() > 100 and (near > 1e-11).sum() > 100

    @pytest.mark.parametrize("extra", [[], [3.7e17, -1e300], [-3.3e-12],
                                       [3.7e17, -3.3e-12, 1e-300]],
                             ids=["plain", "divides", "rounded_power",
                                  "both"])
    def test_each_scale_branch(self, extra):
        # a block within [1e-11, 1e17) takes no division; a value of 1e17
        # or more makes it divide, and one below 1e-11 scales by a power
        # of ten above 10**27, itself rounded once
        rng = np.random.default_rng(13)
        values = 10.0 ** rng.uniform(-11, 17, 600) * rng.choice([-1, 1], 600)
        assert 1e-11 <= np.abs(values).min() and np.abs(values).max() < 1e17
        block = as_rows(np.concatenate([values, extra]))
        assert _csv_text(block).tobytes() == per_value_text(block)

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63,
                        reason="fractions counted in x87 long double units")
    def test_fractions_at_the_limit(self):
        # v * 1e16 for v in [1, 1.8) has a fraction in units of 2**-10:
        # the last unit below L and the first above 1 - L round on the
        # fast path, the next ones toward .5 fall back
        limit = float(csvtext._LIMIT)
        inside = math.floor(limit * 1024), math.ceil((1 - limit) * 1024)
        units = {inside[0], inside[0] + 1, inside[1] - 1, inside[1]}
        v = np.random.default_rng(11).uniform(1.0, 1.8, 200_000)
        s = v.astype(np.longdouble) * 10 ** 16
        unit = ((s - s.astype(np.int64)) * 1024).astype(np.int64)
        picked = np.concatenate([v[unit == u][:40] for u in sorted(units)])
        assert len(picked) == 160
        block = as_rows(np.concatenate([picked, -picked]))
        assert _csv_text(block).tobytes() == per_value_text(block)

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63,
                        reason="the bound is proven for x87 long double")
    def test_the_powers_hold_the_one_rounding_bound(self):
        # the worst relative error of 10**28 .. 10**54, in units of
        # 2**-64, keeps a scaled value's two roundings within 2**-7 at
        # s >= 2**56, where s is a multiple of 2**-7, and within the
        # one-rounding bound 1.01e17 * 2**-64 below
        err = 0.0
        for k, power in enumerate(csvtext._POWERS[28:55], 28):
            high = power.astype(np.float64)
            exact = Fraction(float(high)) + Fraction(float(power - high))
            err = max(err, float(abs(exact - 10 ** k) / 10 ** k) * 2 ** 64)
        assert 0 < err < 1
        assert 1.01e17 * err * 2 ** -64 + 2 ** -8 < 2 ** -7
        assert 2 ** 56 * err * 2 ** -64 + 2 ** -9 < 1.01e17 * 2 ** -64

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63,
                        reason="fractions counted in x87 long double units")
    def test_fractions_between_the_two_bounds_below_1e_11(self):
        # below 1e-11 a scaled value takes two roundings; those whose
        # fraction lies between the one-rounding and the two-rounding
        # bound round on the fast path, at s >= 2**56 and below it
        rng = np.random.default_rng(17)
        v = rng.uniform(1.0, 10.0, 100_000) * 10.0 ** rng.integers(
            -37, -11, 100_000)
        X = np.floor(np.log10(v)).astype(np.intp)
        s = v.astype(np.longdouble) * csvtext._POWERS[16 - X]
        r = s + 0.5
        fraction = np.abs(r - r.astype(np.int64) - 0.5)
        one = 1.01e17 * 2.0 ** -64
        between = (fraction >= 0.5 - 2 * one) & (fraction < 0.5 - one)
        assert np.all(fraction[between] < csvtext._LIMIT)
        high = between & (s >= 2 ** 56)
        picked = np.concatenate([v[high][:150], v[between & ~high][:150]])
        assert len(picked) == 300
        block = as_rows(np.concatenate([picked, -picked]))
        assert _csv_text(block).tobytes() == per_value_text(block)

    def test_seventeen_nines_and_a_half(self):
        # the double 1e-14 lies below 10**-14 by less than half a unit of
        # its 17th digit: its digits round up to the next power of ten,
        # which '%.17g' writes as 1e-14
        nines = [1e-14, np.nextafter(1e-14, 0), np.nextafter(10.0, 0),
                 np.nextafter(1e17, 0), np.nextafter(1.0, 0)]
        assert "%.17g" % 1e-14 == "1e-14"
        block = as_rows(np.concatenate([nines, np.negative(nines)]))
        assert _csv_text(block).tobytes() == per_value_text(block)

    def test_an_exponent_read_one_low_falls_back(self, monkeypatch):
        # a log10 one unit low, as a less exact one may read at a power
        # of ten, makes the exponent one low there: the scaled value is
        # 10**17 or more, and only the check that s + .5 stays below it
        # sends the value to '%.17g'
        log10 = np.log10
        monkeypatch.setattr(np, "log10",
                            lambda a: np.nextafter(log10(a), -np.inf))
        powers = powers_of_ten()
        block = as_rows(np.concatenate([powers, -powers]))
        assert _csv_text(block).tobytes() == per_value_text(block)

    def test_a_block_of_fallbacks_only(self):
        block = np.array([[0.0, -0.0, np.nan, np.inf, -np.inf],
                          [5e-324, -1e-320, 1e-38, -1e43, np.nan]])
        assert _csv_text(block).tobytes() == per_value_text(block)

    @pytest.mark.parametrize("cols", [1, 3, 106])
    def test_the_row_separators(self, cols):
        block = np.arange(2.0 * cols).reshape(2, cols) / 3.0
        assert _csv_text(block).tobytes() == per_value_text(block)


def read_back(text, cols):
    """_csv_values of text, CSV bytes, as a fresh array, or None."""
    table = _csv_values(np.frombuffer(text, np.uint8), cols)
    return None if table is None else table.copy()


def loadtxt_table(path):
    """A CSV file's rows as np.loadtxt reads them after the header line,
    blank lines skipped: the table or the error the reader must give."""
    with open(path) as fh:
        fh.readline()
        first = next((line for line in fh if line.strip()), None)
        if first is None:
            raise ValueError("the file has no samples")
        return np.loadtxt(itertools.chain([first], fh), delimiter=",",
                          ndmin=2)


def outcome(read, path):
    """read(path)'s table bits and shape, or its error's type and text."""
    try:
        table = read(path)
    except ValueError as e:
        return type(e), str(e)
    return table.shape, table.tobytes()


SPECIAL_BITS = [float(v) for v in (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    2.225073858507201e-308, np.finfo(float).max, np.inf, -np.inf, np.nan,
    1e300, 1.0, -1.0, 1e-5, 1e-4, 1e16, 1e17)]


def near_midpoints():
    """Decimals of 17 to 19 digits within 1e-3 ulp of a midpoint between
    adjacent doubles, or on one, in %g's exponent form and, where it
    fits, in fixed notation: texts a rounding of M * 10**E in long double
    could put on the wrong side."""
    rng = np.random.default_rng(5)
    doubles = rng.uniform(1.0, 10.0, 120) * 10.0 ** rng.integers(-60, 61,
                                                                  120)
    texts = []
    with localcontext() as ctx:
        ctx.prec = 80
        for d in doubles.tolist():
            low, high = Decimal(d), Decimal(np.nextafter(d, np.inf))
            for offset in (-1, 0, 1):
                value = (low + high) / 2 + offset * (high - low) / 1000
                for digits in (17, 18, 19):
                    mantissa, exp = f"{value:.{digits - 1}e}".split("e")
                    texts.append(f"{mantissa}e{int(exp):+03d}")
                    if -5 < int(exp) < 5:
                        fixed = f"{value:.{digits - 1 - int(exp)}f}"
                        if len(fixed) <= _FIELD:
                            texts.append(fixed)
    return texts


class TestCsvValues:
    """_csv_values, the reader's kernel, against np.loadtxt and float()."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.integers(0, 2 ** 64 - 1),
                              st.sampled_from(SPECIAL_BITS).map(
                                  lambda v: int(np.float64(v).view(
                                      np.uint64)))),
                    min_size=1, max_size=120),
           st.integers(1, 60))
    def test_any_bit_pattern_reads_back(self, words, cols):
        values = np.array(words, dtype=np.uint64).view(np.float64)
        block = np.resize(values, (-(-len(values) // cols), cols))
        text = _csv_text(block).tobytes()
        table = read_back(text, cols)
        if not np.isfinite(block).all():
            assert table is None  # nan and inf are not its grammar
            return
        assert table.tobytes() == block.tobytes()
        expected = np.loadtxt(io.StringIO(text.decode()), delimiter=",",
                              ndmin=2)
        assert table.tobytes() == expected.tobytes()

    def test_decimals_near_a_midpoint_read_as_float_does(self):
        texts = near_midpoints()
        table = read_back(("\n".join(texts) + "\n").encode(), 1)
        expected = np.array([float(t) for t in texts])
        assert table.ravel().tobytes() == expected.tobytes()

    def test_every_field_on_the_exact_path(self, monkeypatch):
        # where long double is plain double, no field is rounded from it
        monkeypatch.setattr(csvtext, "_WIDE", False)
        rng = np.random.default_rng(9)
        block = rng.standard_normal((40, 7)) * 10.0 ** rng.integers(
            -40, 40, (40, 7))
        text = _csv_text(block).tobytes()
        assert read_back(text, 7).tobytes() == block.tobytes()
        texts = near_midpoints()
        table = read_back(("\n".join(texts) + "\n").encode(), 1)
        assert table.ravel().tobytes() == np.array(
            [float(t) for t in texts]).tobytes()

    @pytest.mark.parametrize("cell", [
        "1e5", "+1", " 1", "1E+05", ".5", "5.", "1_0", "NaN", "1e999", "",
        "1.234567890123456789e+05", "-1.234567890123456789e+05", "-",
        ".", "e+05", "--1", "1.2.3", "1e+5", "1e+005", "1-2", "1\0",
        "123456789012345678901", "12345678901234567890123", "-0", "0.0",
        "1e-300", "4.9406564584124654e-324"])
    def test_a_foreign_cell_reads_as_loadtxt_reads_it(self, cell,
                                                       tmp_path):
        rows = ["0.5,-2,3.25e-07", "1,2,3"]
        rows.insert(1, f"4,{cell},6")
        path = tmp_path / "t.csv"
        path.write_text("a,b,c\n" + "\n".join(rows) + "\n")
        assert (outcome(lambda p: _read_table(p)[1], path)
                == outcome(loadtxt_table, path))
        table = read_back(path.read_bytes().split(b"\n", 1)[1], 3)
        if table is not None:
            assert table.tobytes() == loadtxt_table(path).tobytes()

    @pytest.mark.parametrize("form", [
        "crlf", "blank lines", "no final newline", "trailing space",
        "short row", "long row", "header only", "empty"])
    def test_foreign_rows_read_as_loadtxt_reads_them(self, form, tmp_path):
        rows = ["0.5,-2,3.25e-07", "1,2,3", "4,5,6"]
        text = "a,b,c\n" + "\n".join(rows) + "\n"
        text = {
            "crlf": text.replace("\n", "\r\n"),
            "blank lines": text.replace("\n1,", "\n\n1,"),
            "no final newline": text[:-1],
            "trailing space": text.replace("\n", " \n"),
            "short row": text.replace("4,5,6", "4,5"),
            "long row": text.replace("4,5,6", "4,5,6,7"),
            "header only": "a,b,c\n",
            "empty": "",
        }[form]
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode())
        assert (outcome(lambda p: _read_table(p)[1], path)
                == outcome(loadtxt_table, path))

    def test_a_pipe_reads_as_its_file(self, reduced_record, tmp_path):
        # a pipe cannot be read twice: it takes np.loadtxt's path at once
        path = tmp_path / "traj.csv"
        write_trajectory_csv(reduced_record, str(path))
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes,
                                  args=(path.read_bytes(),), daemon=True)
        writer.start()
        try:
            piped = read_trajectory_csv(str(fifo))
        finally:
            writer.join(timeout=30)
        assert not writer.is_alive()
        for name, column in read_trajectory_csv(str(path)).items():
            assert piped[name].tobytes() == column.tobytes()

    def test_a_row_wider_than_a_chunk_reads_back(self, tmp_path):
        rng = np.random.default_rng(4)
        block = rng.standard_normal((3, 5000))
        path = tmp_path / "wide.csv"
        path.write_bytes(",".join(f"c{i}" for i in range(5000)).encode()
                         + b"\n" + _csv_text(block).tobytes())
        header, table = _read_table(str(path))
        assert len(header) == 5000
        assert table.tobytes() == block.tobytes()


@pytest.fixture(scope="module")
def dim_50_text(tmp_path_factory):
    """The rows of the dim-50 trajectory file of 1601 rows and 106
    columns that the read test writes, as CSV bytes."""
    prob = random_quadratic(50, 100.0, seed=1)
    record = integrate(nesterov_flow_controller(10.0), prob.oracle,
                       initial_state(prob.oracle, prob.x0), 0.01, 16.0,
                       stop=StoppingRule(tol_g=0.0, tol_v=0.0))
    path = tmp_path_factory.mktemp("dim50") / "traj.csv"
    write_trajectory_csv(record, str(path))
    return path.read_bytes().split(b"\n", 1)[1]


class TwoPasses:
    """A binary file whose text changes when it is read again: the first
    text until the reader seeks back, the second after."""

    def __init__(self, first, second):
        self.texts = [io.BytesIO(first), io.BytesIO(second)]

    def tell(self):
        return self.texts[0].tell()

    def seek(self, offset):
        del self.texts[:-1]
        return self.texts[0].seek(offset)

    def readinto(self, buffer):
        return self.texts[0].readinto(buffer)


def padded_rows(rows, cols, size):
    """CSV text of exactly size bytes: whole leading rows of rows, CSV
    text of cols fields a row, then two rows of fields '1.000...', whose
    lengths make up the rest."""
    cut = rows.rfind(b"\n", 0, size - 24 * cols) + 1
    rest = size - cut - 2 * cols  # the fields' bytes, separators left out
    lengths = [rest // (2 * cols) + (k < rest % (2 * cols))
               for k in range(2 * cols)]
    assert 2 <= min(lengths) and max(lengths) <= _FIELD
    fields = [b"1." + b"0" * (n - 2) for n in lengths]
    return rows[:cut] + b"".join(b",".join(fields[k:k + cols]) + b"\n"
                                 for k in (0, cols))


class TestChunks:
    """The reader's chunks: the kernel's memory, the boundary between
    chunks, and a file whose rows change between the reader's passes."""

    def test_the_kernel_holds_at_most_100_bytes_per_field(self, dim_50_text):
        # the first chunk's rows, and the last ones, where many fields
        # carry an exponent
        head = dim_50_text[:_READ_CHUNK]
        tail = dim_50_text[-_READ_CHUNK:]
        for rows in (head[:head.rfind(b"\n") + 1],
                     tail[tail.find(b"\n") + 1:]):
            fields = rows.count(b",") + rows.count(b"\n")
            text = np.frombuffer(rows, np.uint8)
            table, peak = traced_peak(lambda: _csv_values(text, 106))
            assert table.shape == (fields // 106, 106)
            assert peak <= 100 * fields

    @pytest.mark.parametrize("extra", [-1, 0, 1, 500])
    def test_a_row_across_the_chunk_boundary(self, extra, dim_50_text,
                                             tmp_path):
        # a body of one chunk, a byte less, a byte more and 500 bytes
        # more: in the last two, the last row crosses the chunk's end
        body = padded_rows(dim_50_text, 106, _READ_CHUNK + extra)
        assert len(body) == _READ_CHUNK + extra
        path = tmp_path / "t.csv"
        path.write_bytes(b",".join([b"c"] * 106) + b"\n" + body)
        expected = loadtxt_table(path)
        with open(path, "rb") as fh:
            fh.readline()
            assert _read_rows(fh, 106).tobytes() == expected.tobytes()
        assert _read_table(str(path))[1].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("first,second", [(1601, 10), (10, 1601)],
                             ids=["shrinks", "grows"])
    def test_rows_that_change_between_the_passes_are_declined(
            self, first, second, dim_50_text):
        # the rows are counted in one pass and read in a second: a table
        # of the first count, or a broadcast error, would be wrong
        lines = dim_50_text.splitlines(keepends=True)
        texts = [b"".join(lines[:k]) for k in (first, second)]
        assert _read_rows(TwoPasses(*texts), 106) is None
        table = _read_rows(TwoPasses(texts[1], texts[1]), 106)
        expected = np.loadtxt(io.BytesIO(texts[1]), delimiter=",", ndmin=2)
        assert table.tobytes() == expected.tobytes()


class TestRecordReconstruction:
    def test_rebuilt_record_passes_honesty_check(self, quad, reduced_record,
                                                 tmp_path):
        path = str(tmp_path / "traj.csv")
        write_trajectory_csv(reduced_record, path)
        spec = MinPStar(rate_eta=1.0, metric=EUCLID)
        rebuilt = trajectory_from_arrays(read_trajectory_csv(path),
                                         quad.oracle, spec,
                                         dict(reduced_record.meta))
        report = check_dissipation(rebuilt, DEFAULT_CLF, quad.oracle,
                                   mode=DissipationMode.RATE, tol=1e-6)
        cached = next(c for c in report.checks
                      if c.name == "cached_diagnostics")
        assert cached.status is CheckStatus.PASSED
        assert cached.worst_value == 0.0

    def test_rebuild_takes_one_gradient_per_row(self, quad, reduced_record,
                                                tmp_path):
        path = str(tmp_path / "traj.csv")
        write_trajectory_csv(reduced_record, path)
        calls = []

        def gradient(x):
            # one entry per point evaluated: a stacked call evaluates one
            # gradient for each of its rows
            calls.extend(np.atleast_2d(x))
            return quad.oracle.gradient(x)

        oracle = dataclasses.replace(quad.oracle, gradient=gradient)
        spec = MinPStar(rate_eta=1.0, metric=EUCLID)
        rebuilt = trajectory_from_arrays(read_trajectory_csv(path), oracle,
                                         spec, dict(reduced_record.meta))
        assert isinstance(rebuilt.columns, dict)
        old, new = reduced_record.columns, rebuilt.columns
        assert len(calls) == len(old["t"])
        for k in range(len(old["t"])):
            assert np.array_equal(new["lambda_x"][k], old["lambda_x"][k])
            assert np.array_equal(new["u"][k], old["u"][k])

    def test_convergence_flags_recovered(self, quad, tmp_path):
        spec = MinPStar(rate_eta=1.0, metric=EUCLID)
        state0 = initial_state(quad.oracle, quad.x0)
        record = integrate(spec, quad.oracle, state0, 1e-2, 40.0)
        assert record.converged
        path = str(tmp_path / "conv.csv")
        write_trajectory_csv(record, path)
        rebuilt = trajectory_from_arrays(read_trajectory_csv(path),
                                         quad.oracle, spec,
                                         dict(record.meta))
        assert rebuilt.converged
        assert not rebuilt.diverged

    def test_divergence_flag_recovered(self, quad, tmp_path):
        spec = polyak_controller(1e8, 1e4)
        state0 = initial_state(quad.oracle, quad.x0)
        record = integrate(spec, quad.oracle, state0, 1e-2, 5.0)
        assert record.diverged
        path = str(tmp_path / "div.csv")
        write_trajectory_csv(record, path)
        rebuilt = trajectory_from_arrays(read_trajectory_csv(path),
                                         quad.oracle, spec,
                                         dict(record.meta))
        assert rebuilt.diverged
        assert not rebuilt.converged

    def test_an_x_norm_past_the_limit_reads_as_diverged(self, quad,
                                                         tmp_path):
        # integrate tests the Euclidean norm of x: a last row whose every
        # entry is within DIVERGENCE_LIMIT while its norm is not is a
        # state no run keeps, whatever t it ends at
        spec = polyak_controller(2.0, 2.0)
        record = integrate(spec, quad.oracle,
                           initial_state(quad.oracle, quad.x0), 1e-2, 0.1,
                           stop=StoppingRule(tol_g=-1.0, tol_v=-1.0))
        assert not record.diverged and record.meta["t_final"] == 0.1
        columns = dict(record.columns, x=record.columns["x"].copy())
        columns["x"][-1] = 8e11
        assert np.abs(columns["x"][-1]).max() < 1e12
        assert np.linalg.norm(columns["x"][-1]) > 1e12
        path = str(tmp_path / "beyond.csv")
        write_trajectory_csv(dataclasses.replace(record, columns=columns),
                             path)
        rebuilt = trajectory_from_arrays(read_trajectory_csv(path),
                                         quad.oracle, spec,
                                         dict(record.meta))
        assert rebuilt.diverged and not rebuilt.converged


class TestTable:
    @pytest.mark.parametrize("which,spec", [
        ("reduced", MinPStar(rate_eta=1.0, metric=EUCLID)),
        ("full", polyak_controller(2.0, 2.0)),
    ])
    def test_write_read_rebuild_gives_the_columns_bit_for_bit(
            self, quad, reduced_record, full_record, tmp_path, which, spec):
        record = reduced_record if which == "reduced" else full_record
        path = str(tmp_path / "traj.csv")
        write_trajectory_csv(record, path)
        rebuilt = trajectory_from_arrays(read_trajectory_csv(path),
                                         quad.oracle, spec, record.meta)
        assert set(rebuilt.columns) == set(COLUMNS + ("u",))
        for name in COLUMNS + ("u",):
            old, new = record.columns[name], rebuilt.columns[name]
            assert new.shape == old.shape, name
            assert new.tobytes() == old.tobytes(), name
        assert (rebuilt.converged, rebuilt.diverged) == (record.converged,
                                                         record.diverged)


class TestIteratesCsv:
    def test_rows_match_sequence(self, quad, tmp_path):
        seq = heavy_ball_iterate(quad.oracle, quad.x0, 20,
                                 constant(0.05), constant(0.5))
        path = tmp_path / "iter.csv"
        write_iterates_csv(seq, quad.oracle, str(path))
        lines = path.read_text().splitlines()
        assert lines[0].startswith("k,x0,")
        assert len(lines) == len(seq.points) + 1
        last = [float(c) for c in lines[-1].split(",")]
        assert last[0] == len(seq.points) - 1
        np.testing.assert_array_equal(last[1:5], seq.points[-1])

    def test_rows_are_the_per_value_format(self, quad, tmp_path):
        # signed zero, subnormal and huge values in every column, and
        # stored gradients whose norms are zero, subnormal-squared and
        # overflowing
        odd = np.array([-0.0, 5e-324, 1e308, -1e308])
        points = [np.roll(odd, -k) for k in range(4)]
        points.append(np.array([1.0, 2.5e-300, -7.0, 0.0]))
        grads = [np.roll(odd, k) for k in range(5)]
        with np.errstate(over="ignore"):
            norms = [np.linalg.norm(g) for g in grads]
        seq = IterateSequence(points=points,
                              grad_norms=[float(n) for n in norms])
        oracle = dataclasses.replace(quad.oracle,
                                     value=lambda x: x[..., 0] * 0.5,
                                     gradient=None)
        path = tmp_path / "odd.csv"
        write_iterates_csv(seq, oracle, str(path))
        rows = path.read_text().splitlines()[1:]
        expected = []
        for k, x in enumerate(points):
            values = [float(k)] + list(x) + [float(oracle.value(x)),
                                             float(norms[k])]
            expected.append(",".join("%.17g" % v for v in values))
        assert rows == expected
        assert "-0" in rows[0] and "4.9406564584124654e-324" in rows[0]
        assert any(row.endswith(",inf") for row in rows)

    @pytest.mark.parametrize("problem", ["quadratic", "rosenbrock"])
    def test_rows_over_many_blocks_are_the_per_row_formula(self, problem,
                                                           tmp_path):
        # rows over several stacked blocks: a run, a signed zero point in
        # the first block and a tail over the whole double range
        prob = (random_quadratic(3, kappa=30.0, seed=4) if problem
                == "quadratic" else rosenbrock_problem())
        oracle = prob.oracle
        # rows of one text block: k, x, E and the gradient norm
        block = BLOCK_VALUES // (len(prob.x0) + 3)
        n = 4 * block + 7
        with np.errstate(over="ignore", invalid="ignore"):
            seq = heavy_ball_iterate(oracle, prob.x0, n, constant(0.02),
                                     constant(0.9))
            run = len(seq.points)
            for k in range(run, n):
                seq.points.append(seq.points[k % run]
                                  * 10.0 ** (k % 601 - 300))
                seq.grad_norms.append(float(k))
            seq.points[8] = -np.zeros(len(prob.x0))
            path = tmp_path / "tail.csv"
            write_iterates_csv(seq, oracle, str(path))
            expected = [",".join(["k"] + [f"x{i}" for i in range(
                len(prob.x0))] + ["E", "grad_norm"])]
            for k, x in enumerate(seq.points):
                e, g = float(oracle.value(x)), seq.grad_norms[k]
                expected.append(",".join(
                    "%.17g" % v for v in [float(k), *x.tolist(), e, g]))
        assert len(seq.points) > 4 * block
        assert all(np.isfinite(x).all() for x in seq.points)
        assert path.read_text() == "\n".join(expected) + "\n"

    def test_no_iterate_is_non_finite(self, quad, tmp_path):
        # a start that is not finite raises, and a diverging run stops at
        # its last iterate within the limit: no file holds a nan point
        start = quad.x0.copy()
        start[1] = np.nan
        with pytest.raises(ValueError, match="x0 must be finite"):
            heavy_ball_iterate(quad.oracle, start, 3, constant(0.05),
                               constant(0.5))
        seq = heavy_ball_iterate(quad.oracle, quad.x0, 500, constant(50.0),
                                 constant(0.5))
        assert seq.diverged
        path = tmp_path / "diverged.csv"
        write_iterates_csv(seq, quad.oracle, str(path))
        cells = path.read_text().splitlines()[-1].split(",")
        assert np.isfinite([float(c) for c in cells[:-2]]).all()


class TestSummaries:
    def test_decade_labels(self):
        assert decade_label(1e-1) == "1e-01"
        assert decade_label(1e-6) == "1e-06"

    def test_time_to_decades_monotone(self, reduced_record):
        hits = flow_summary(reduced_record, "demo")["time_to_grad"]
        assert hits["1e-01"] is not None
        reached = [t for t in hits.values() if t is not None]
        assert reached == sorted(reached)
        assert hits["1e-06"] is None

    def test_iterations_to_decades(self, quad):
        seq = cg_iterate(quad.oracle, quad.x0, 30,
                         lambda o, k, x, g, v: 0.05,
                         lambda o, k, g, gp: 0.2)
        hits = discrete_summary(seq, quad.oracle, "cg",
                                tol_g=1e-6)["iterations_to_grad"]
        first = hits["1e-01"]
        assert first is not None
        norms = seq.grad_norms
        assert norms[first] <= 1e-1
        assert first == 0 or norms[first - 1] > 1e-1

    def test_flow_summary_fields(self, reduced_record, quad):
        payload = flow_summary(reduced_record, "demo")
        assert payload["label"] == "demo"
        assert payload["kind"] == "flow"
        assert payload["t_final"] == pytest.approx(12.0)
        assert payload["final"]["grad_norm"] > 0
        assert set(payload["time_to_grad"]) == {
            "1e-01", "1e-02", "1e-03", "1e-04", "1e-05", "1e-06"}

    def test_discrete_summary_fields(self, quad):
        seq = heavy_ball_iterate(quad.oracle, quad.x0, 500,
                                 constant(0.05), constant(0.5),
                                 tol_g=1e-6)
        payload = discrete_summary(seq, quad.oracle, "hb", tol_g=1e-6)
        assert payload["kind"] == "discrete"
        assert payload["converged"]
        assert payload["iterations"] == len(seq.points) - 1


class TestJsonAndCompare:
    def test_summary_json_is_sorted_and_newline_terminated(self, tmp_path):
        path = tmp_path / "summary.json"
        write_summary_json({"zeta": 1, "alpha": 2}, str(path))
        text = path.read_text()
        assert text.endswith("\n")
        assert text.index('"alpha"') < text.index('"zeta"')

    def test_numpy_scalars_serialize(self, tmp_path):
        path = tmp_path / "np.json"
        write_summary_json({"flag": np.bool_(True),
                            "count": np.int64(3),
                            "value": np.float64(0.5),
                            "vec": np.arange(2.0)}, str(path))
        loaded = json.loads(path.read_text())
        assert loaded == {"flag": True, "count": 3, "value": 0.5,
                          "vec": [0.0, 1.0]}

    def test_non_finite_floats_are_written_as_null(self, tmp_path):
        path = tmp_path / "inf.json"
        write_summary_json({"final": {"grad_norm": float("inf"),
                                      "E": np.float64("nan")},
                            "rows": [1.0, -np.inf],
                            "vec": np.array([np.nan, 2.0])}, str(path))

        def refuse(constant):
            raise AssertionError(f"{constant} is not JSON")
        loaded = json.loads(path.read_text(), parse_constant=refuse)
        assert loaded == {"final": {"grad_norm": None, "E": None},
                          "rows": [1.0, None], "vec": [None, 2.0]}

    def test_unserializable_payload_raises(self, tmp_path):
        with pytest.raises(TypeError):
            write_summary_json({"oops": object()},
                               str(tmp_path / "bad.json"))

    def test_compare_csv_fills_unreached_cells_with_nan(self, tmp_path):
        rows = [{"label": "fast",
                 "cells": {"1e-01": 3, "1e-02": 5, "1e-03": 8,
                           "1e-04": 11, "1e-05": 14, "1e-06": 17},
                 "final_E": 1e-20},
                {"label": "slow",
                 "cells": {"1e-01": 40, "1e-02": None, "1e-03": None,
                           "1e-04": None, "1e-05": None, "1e-06": None},
                 "final_E": 0.3}]
        path = tmp_path / "compare.csv"
        write_compare_csv(rows, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == ("label,grad_le_1e-01,grad_le_1e-02,"
                            "grad_le_1e-03,grad_le_1e-04,grad_le_1e-05,"
                            "grad_le_1e-06,final_E")
        assert lines[2].split(",")[2] == "nan"
        assert lines[1].split(",")[1] == "3"
