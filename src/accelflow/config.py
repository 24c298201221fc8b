"""Run configuration: parsing, validation, and runtime object assembly.

Configs are YAML with four blocks (problem, method, output, verify). Each
block is a frozen dataclass that declares each of its fields once: the
field's default is the only default, and its metadata names the rule
that parses and validates a value given for it. One function,
_parse_fields, builds every block from its dataclass. Parsing is strict:
unknown keys are rejected and every diagnostic names the offending field
by its dotted path, so a typo in a config fails loud rather than
silently falling back to a default. All randomness in a run flows from
the single problem.seed.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Optional, Union

import numpy as np
import yaml

from .clf import DEFAULT_CLF, ClfParams
from .control import (
    ControllerSpec,
    DeltaMode,
    Direct,
    MinP,
    MinPStar,
    momentum_flow_controller,
    nesterov_flow_controller,
)
from .flow import FlowMode, Integrator, StoppingRule
from .metric import MetricKind, MetricSpec
from .objective import (
    ProblemInstance,
    random_log_sum_exp,
    random_quadratic,
    rosenbrock_problem,
)
from .verify import CHECK_NAMES, DissipationMode

FLOW_CONTROLLERS = ("min_p", "min_p_star", "direct", "momentum_flow",
                    "polyak", "accel_newton", "quasi_newton", "nesterov")
#: each discrete method with the coefficients it requires
DISCRETE_METHODS = {"heavy_ball": ("alpha", "beta"),
                    "nesterov1": ("alpha", "beta"),
                    "nesterov2": ("alpha", "beta"),
                    "cg": ("alpha", "beta_cg"),
                    "accel_newton": ("gamma_a", "gamma_b", "h"),
                    "accel_qn": ("gamma_a", "gamma_b", "h")}
PROBLEM_NAMES = ("quadratic", "rosenbrock", "log_sum_exp")
#: the momentum flows, each with the metric kind its name fixes (None:
#: the config's method.metric)
MOMENTUM_FLOWS = {"momentum_flow": None,
                  "polyak": MetricKind.EUCLIDEAN,
                  "accel_newton": MetricKind.HESSIAN,
                  "quasi_newton": MetricKind.QUASI_NEWTON}


class ConfigError(ValueError):
    """Invalid configuration; the message names the field by dotted path."""


class _Block:
    """One mapping block; tracks consumed keys and reports leftovers."""

    def __init__(self, data: Any, path: str):
        if data is None:
            data = {}
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: expected a mapping, got "
                              f"{type(data).__name__}")
        self.data = dict(data)
        self.path = path

    def take(self, key: str, default: Any = None, required: bool = False):
        if key not in self.data:
            if required:
                raise ConfigError(f"{self.path}.{key}: required field is "
                                  f"missing")
            return default
        return self.data.pop(key)

    def finish(self) -> None:
        if self.data:
            # a YAML key need not be a string: 1:, null:, YAML 1.1's on:
            stray = ", ".join(sorted(str(key) for key in self.data))
            raise ConfigError(f"{self.path}: unknown field(s): {stray}")


def _field(rule: Callable[..., Any], default: Any = dataclasses.MISSING,
           **args: Any) -> Any:
    """A config field: a value given for it is parsed by
    rule(value, path, **args); without a default the field is required."""
    return dataclasses.field(
        default=default, metadata={"parse": functools.partial(rule, **args)})


def _parse_fields(cls: type, data: Any, path: str = "") -> Any:
    """Build the config block cls from a mapping, one field at a time.

    path is the block's dotted path, empty for the whole config. A null
    value for a field whose default is None leaves that default.
    """
    b = _Block(data, path or "config")
    values = {}
    for f in dataclasses.fields(cls):
        if f.name not in b.data and f.default is not dataclasses.MISSING:
            continue
        value = b.take(f.name, required=True)
        if value is not None or f.default is not None:
            values[f.name] = f.metadata["parse"](
                value, f"{path}.{f.name}" if path else f.name)
    b.finish()
    return cls(**values)


def _as_float(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:  # an integer literal beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError(f"{path}: must be finite, got {out}")
    return out


def _as_positive(value: Any, path: str) -> float:
    out = _as_float(value, path)
    if not (out > 0.0):
        raise ConfigError(f"{path}: must be positive, got {out}")
    return out


def _as_at_least(value: Any, path: str, minimum: float) -> float:
    out = _as_float(value, path)
    if not (out >= minimum):
        raise ConfigError(f"{path}: must be >= {minimum:g}, got {out}")
    return out


def _as_int(value: Any, path: str, minimum: int = 0) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    return value


def _as_choice(value: Any, path: str, choices: Any) -> Any:
    """One of choices, a collection of names or an Enum, whose member is
    returned."""
    names = [getattr(choice, "value", choice) for choice in choices]
    if not isinstance(value, str) or value not in names:
        raise ConfigError(f"{path}: expected one of {names}, got {value!r}")
    return choices(value) if isinstance(choices, type) else value


def _as_name(value: Any, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{path}: expected a non-empty string, got "
                          f"{value!r}")
    return value


def _as_vector(value: Any, path: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{path}: expected a non-empty list of numbers")
    return tuple(_as_float(v, f"{path}[{i}]") for i, v in enumerate(value))


def _as_number_or(value: Any, path: str, name: str,
                  number: Callable[[Any, str], float]) -> Union[float, str]:
    """A number, or the name of the rule that computes it."""
    if not isinstance(value, str):
        return number(value, path)
    if value != name:
        raise ConfigError(f"{path}: expected a number or {name!r}, got "
                          f"{value!r}")
    return value


def _as_checks(value: Any, path: str) -> tuple[str, ...]:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list, got {value!r}")
    return tuple(_as_choice(c, f"{path}[{i}]", CHECK_NAMES)
                 for i, c in enumerate(value))


def _parse_clf(data: Any, path: str) -> ClfParams:
    b = _Block(data, path)
    pd = b.take("pd_hessian_mode", ClfParams.pd_hessian_mode)
    if not isinstance(pd, bool):
        raise ConfigError(f"{path}.pd_hessian_mode: expected a boolean, "
                          f"got {pd!r}")
    coeffs = {key: _as_float(b.take(key, required=True), f"{path}.{key}")
              for key in ("a", "b", "c")}
    b.finish()
    try:
        return ClfParams(**coeffs, pd_hessian_mode=pd)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProblemConfig:
    name: str = _field(_as_choice, choices=PROBLEM_NAMES)
    dim: int = _field(_as_int, 2, minimum=1)
    kappa: float = _field(_as_at_least, 10.0, minimum=1.0)
    scale: float = _field(_as_positive, 1.0)
    terms: int = _field(_as_int, 8, minimum=2)
    seed: int = _field(_as_int, 0)
    x0: Optional[tuple[float, ...]] = _field(_as_vector, None)

    def build(self) -> ProblemInstance:
        """The problem registry: one constructor per name in PROBLEM_NAMES."""
        x0 = None if self.x0 is None else np.array(self.x0, dtype=float)
        if self.name == "quadratic":
            return random_quadratic(self.dim, self.kappa, seed=self.seed,
                                    x0=x0, scale=self.scale)
        if self.name == "rosenbrock":
            return rosenbrock_problem(x0=x0)
        if self.name == "log_sum_exp":
            return random_log_sum_exp(self.dim, self.terms, seed=self.seed,
                                      x0=x0)
        raise ConfigError(f"problem.name: unknown problem {self.name!r}, "
                          f"expected one of {list(PROBLEM_NAMES)}")


def _parse_problem(data: Any, path: str) -> ProblemConfig:
    cfg = _parse_fields(ProblemConfig, data, path)
    _check_length(cfg.x0, cfg, f"{path}.x0")
    return cfg


def _check_length(vector: Optional[tuple[float, ...]], problem: ProblemConfig,
                  path: str) -> None:
    # rosenbrock is 2-D whatever problem.dim says
    n = 2 if problem.name == "rosenbrock" else problem.dim
    if vector is not None and len(vector) != n:
        raise ConfigError(f"{path}: {problem.name} needs {n} entries, got "
                          f"{len(vector)}")


@dataclass(frozen=True)
class FlowMethodConfig:
    controller: str = _field(_as_choice, choices=FLOW_CONTROLLERS)
    h: float = _field(_as_positive)
    t_max: float = _field(_as_positive)
    metric: MetricKind = _field(_as_choice, MetricKind.EUCLIDEAN,
                                choices=MetricKind)
    eig_floor: float = _field(_as_positive, 1e-6)
    clf: Optional[ClfParams] = _field(_parse_clf, None)
    gamma_a: Optional[float] = _field(_as_float, None)
    gamma_b: Optional[float] = _field(_as_float, None)
    gamma_c: Optional[float] = _field(_as_float, None)
    delta: Optional[float] = _field(_as_positive, None)
    delta_mode: DeltaMode = _field(_as_choice, DeltaMode.CONSTANT,
                                   choices=DeltaMode)
    sigma_q: Optional[float] = _field(_as_positive, None)
    eta: Optional[float] = _field(_as_positive, None)
    integrator: Integrator = _field(_as_choice, Integrator.RK4,
                                    choices=Integrator)
    mode: FlowMode = _field(_as_choice, FlowMode.REDUCED, choices=FlowMode)
    tol_g: float = _field(_as_positive, 1e-6)
    tol_v: float = _field(_as_positive, 1e-6)
    v0: Optional[tuple[float, ...]] = _field(_as_vector, None)

    def clf_params(self) -> ClfParams:
        return DEFAULT_CLF if self.clf is None else self.clf

    def _need(self, **fields: Optional[float]) -> list[float]:
        out = []
        for key, value in fields.items():
            if value is None:
                raise ConfigError(f"method.{key}: required by controller "
                                  f"{self.controller!r}")
            out.append(value)
        return out

    def build_controller(self) -> ControllerSpec:
        clf = self.clf_params()
        kind = MOMENTUM_FLOWS.get(self.controller) or self.metric
        # polyak's Euclidean metric has no floor to set: MetricSpec's default
        metric = MetricSpec(kind) if self.controller == "polyak" \
            else MetricSpec(kind, eig_floor=self.eig_floor)
        try:
            if self.controller == "min_p":
                if self.delta_mode is DeltaMode.FIXED_SIGMA:
                    (sq,) = self._need(sigma_q=self.sigma_q)
                    return MinP(clf, metric, delta_mode=self.delta_mode,
                                sigma_q=sq)
                (delta,) = self._need(delta=self.delta)
                return MinP(clf, metric, delta=delta,
                            delta_mode=self.delta_mode)
            if self.controller == "min_p_star":
                (eta,) = self._need(eta=self.eta)
                return MinPStar(clf, metric, rate_eta=eta)
            if self.controller == "direct":
                ga, gb, gc = self._need(gamma_a=self.gamma_a,
                                        gamma_b=self.gamma_b,
                                        gamma_c=self.gamma_c)
                return Direct(ga, gb, gc, clf=clf)
            # the named flows' own rules name their fields; the control
            # layer would name only the method block
            if self.controller in MOMENTUM_FLOWS:
                ga, gb = self._need(gamma_a=self.gamma_a,
                                    gamma_b=self.gamma_b)
                return momentum_flow_controller(
                    _as_positive(ga, "method.gamma_a"),
                    _as_positive(gb, "method.gamma_b"), metric)
            ga, = self._need(gamma_a=self.gamma_a)
            if not (clf.c < 0.0):
                raise ConfigError(f"method.clf.c: nesterov needs a "
                                  f"certificate with c < 0, got {clf.c}")
            return nesterov_flow_controller(
                _as_positive(ga, "method.gamma_a"), clf=clf)
        except ConfigError:
            raise
        except ValueError as e:
            raise ConfigError(f"method: {e}") from e

    def stopping_rule(self) -> StoppingRule:
        return StoppingRule(tol_g=self.tol_g, tol_v=self.tol_v)


@dataclass(frozen=True)
class DiscreteMethodConfig:
    name: str = _field(_as_choice, choices=DISCRETE_METHODS)
    max_iters: int = _field(_as_int, minimum=1)
    alpha: Union[float, str, None] = _field(
        _as_number_or, None, name="exact_line_search", number=_as_positive)
    beta: Optional[float] = _field(_as_float, None)
    gamma: Optional[float] = _field(_as_float, None)
    beta_cg: Union[float, str, None] = _field(
        _as_number_or, None, name="fletcher_reeves",
        number=functools.partial(_as_at_least, minimum=0.0))
    gamma_a: Optional[float] = _field(_as_float, None)
    gamma_b: Optional[float] = _field(_as_float, None)
    h: Optional[float] = _field(_as_positive, None)
    eig_floor: float = _field(_as_positive, 1e-6)
    tol_g: float = _field(_as_positive, 1e-6)


MethodConfig = Union[FlowMethodConfig, DiscreteMethodConfig]


def _parse_method(data: Any, path: str) -> MethodConfig:
    b = _Block(data, path)
    kind = _as_choice(b.take("kind", required=True), f"{path}.kind",
                      ("flow", "discrete"))
    if kind == "flow":
        cfg = _parse_fields(FlowMethodConfig, b.data, path)
        if cfg.t_max < cfg.h:
            raise ConfigError(f"{path}.t_max: must be at least one step "
                              f"(h = {cfg.h}), got {cfg.t_max}")
        if not math.isfinite(cfg.t_max / cfg.h):
            raise ConfigError(f"{path}.t_max: the step count t_max / h "
                              f"(h = {cfg.h}) overflows, got {cfg.t_max}")
        cfg.build_controller()
        return cfg
    cfg = _parse_fields(DiscreteMethodConfig, b.data, path)
    need = DISCRETE_METHODS[cfg.name]
    for key in need:
        if getattr(cfg, key) is None:
            raise ConfigError(f"{path}.{key}: required by method "
                              f"{cfg.name!r}")
    # the momentum methods take alpha as their constant step
    if "beta" in need and isinstance(cfg.alpha, str):
        raise ConfigError(f"{path}.alpha: {cfg.name!r} needs a numeric step")
    return cfg


@dataclass(frozen=True)
class OutputConfig:
    out_dir: str = _field(_as_name, "runs")
    stride: int = _field(_as_int, 1, minimum=1)


@dataclass(frozen=True)
class VerifyConfig:
    checks: tuple[str, ...] = _field(_as_checks, ())
    dissipation_mode: DissipationMode = _field(
        _as_choice, DissipationMode.STRICT, choices=DissipationMode)
    eta: float = _field(_as_positive, 1.0)
    tol: Optional[float] = _field(_as_positive, None)
    adjoint_coeff: float = _field(_as_positive, 1e3)


def _plain(value: Any) -> Any:
    """A config value as YAML-ready data: a dataclass becomes a mapping of
    its fields that are not None, a tuple a list, an enum its value."""
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name))
                for f in dataclasses.fields(value)
                if getattr(value, f.name) is not None}
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    if isinstance(value, Enum):
        return value.value
    return value


@dataclass(frozen=True)
class RunConfig:
    problem: ProblemConfig = _field(_parse_problem)
    method: MethodConfig = _field(_parse_method)
    output: OutputConfig = _field(
        functools.partial(_parse_fields, OutputConfig), OutputConfig())
    verify: VerifyConfig = _field(
        functools.partial(_parse_fields, VerifyConfig), VerifyConfig())
    label: Optional[str] = _field(_as_name, None)

    def run_label(self) -> str:
        if self.label:
            return self.label
        if isinstance(self.method, FlowMethodConfig):
            return self.method.controller
        return self.method.name

    def _with(self, block: str, name: str, value: Any,
              path: Optional[str]) -> "RunConfig":
        """A copy with block.name set to value, parsed by that field's
        rule; path names the value in an error, block.name by default."""
        part = getattr(self, block)
        rule = next(f for f in dataclasses.fields(part)
                    if f.name == name).metadata["parse"]
        value = rule(value, path or f"{block}.{name}")
        return dataclasses.replace(
            self, **{block: dataclasses.replace(part, **{name: value})})

    def with_seed(self, seed: int, path: Optional[str] = None) -> "RunConfig":
        return self._with("problem", "seed", seed, path)

    def with_stride(self, stride: int,
                    path: Optional[str] = None) -> "RunConfig":
        return self._with("output", "stride", stride, path)

    def with_out_dir(self, out_dir: str,
                     path: Optional[str] = None) -> "RunConfig":
        return self._with("output", "out_dir", out_dir, path)

    def to_dict(self) -> dict:
        """Every block as plain data, with method.kind naming the method's
        block type as a config file does."""
        out = _plain(self)
        out["method"]["kind"] = ("flow"
                                 if isinstance(self.method, FlowMethodConfig)
                                 else "discrete")
        return out

    def to_yaml(self) -> str:
        """The config as YAML: the echo that run and compare write."""
        return _dump(self.to_dict())


def _dump(data: Any) -> str:
    """data as YAML, by libyaml's emitter where PyYAML was built with it,
    at about a quarter of the pure-Python one's cost. The two write the
    same bytes for a document whose every string is printable ASCII. A
    string they double-quote with escapes (non-ASCII or control
    characters) past the 80-column width is folded at other points, so
    such a document takes the pure-Python emitter."""
    dumper = (getattr(yaml, "CSafeDumper", yaml.SafeDumper)
              if _printable_ascii(data) else yaml.SafeDumper)
    return yaml.dump(data, Dumper=dumper, sort_keys=True,
                     default_flow_style=False)


def _printable_ascii(data: Any) -> bool:
    """True when every string in data, key or value, is printable
    ASCII."""
    if isinstance(data, str):
        return data.isascii() and data.isprintable()
    if isinstance(data, dict):
        return all(_printable_ascii(k) and _printable_ascii(v)
                   for k, v in data.items())
    if isinstance(data, list):
        return all(_printable_ascii(item) for item in data)
    return True


def parse_config(data: Any) -> RunConfig:
    cfg = _parse_fields(RunConfig, data)
    if isinstance(cfg.method, FlowMethodConfig):
        _check_length(cfg.method.v0, cfg.problem, "method.v0")
    else:
        extra = [c for c in cfg.verify.checks if c != "stationarity"]
        if extra:
            raise ConfigError(f"verify.checks: only 'stationarity' applies "
                              f"to discrete methods, got {extra}")
    return cfg


def _document(fh: Any) -> Any:
    """The YAML document in fh, as SafeLoader (pure Python) reads it.

    libyaml's parser reads it instead when _dump writes its document
    back as fh's text: that text is what the pure-Python emitter writes
    for the document, which SafeLoader reads back as the document. Any
    other text, libyaml's errors included, a file that cannot seek
    (unread) and PyYAML without libyaml take SafeLoader, from the file,
    so that each error it raises names the file.
    """
    loader = getattr(yaml, "CSafeLoader", None)
    if loader is not None and fh.seekable():
        try:
            text = fh.read()
            data = yaml.load(text, Loader=loader)
            if _dump(data) == text:
                return data
        # a bad byte, libyaml's own error wording, a document the emitter
        # cannot walk: SafeLoader reports each as it always has
        except Exception:
            pass
        fh.seek(0)
    return yaml.safe_load(fh)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = _document(fh)
    except OSError as e:
        raise ConfigError(f"{path}: {e.strerror or e}") from e
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: {e}") from e
    except yaml.YAMLError as e:
        mark = getattr(e, "problem_mark", None)
        where = f"{path}:{mark.line + 1}" if mark is not None else path
        raise ConfigError(f"{where}: YAML parse error: {e}") from e
    return parse_config(data)
