"""Run configuration: parsing, validation, and runtime object assembly.

Configs are YAML with four blocks (problem, method, output, verify).
Parsing is strict: unknown keys are rejected and every diagnostic names
the offending field by its dotted path, so a typo in a config fails loud
rather than silently falling back to a default. All randomness in a run
flows from the single problem.seed.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Optional, Union

import numpy as np
import yaml

from .clf import DEFAULT_CLF, ClfParams
from .control import (
    ControllerSpec,
    DeltaMode,
    direct_controller,
    min_p_controller,
    min_p_star_controller,
    momentum_flow_controller,
    nesterov_flow_controller,
)
from .flow import StoppingRule
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
DISCRETE_METHODS = ("heavy_ball", "nesterov1", "nesterov2", "cg",
                    "accel_newton", "accel_qn")
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
            stray = ", ".join(sorted(self.data))
            raise ConfigError(f"{self.path}: unknown field(s): {stray}")


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


def _as_int(value: Any, path: str, minimum: int = 0) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    return value

def _as_str(value: Any, path: str, choices: tuple[str, ...]) -> str:
    if not isinstance(value, str) or value not in choices:
        raise ConfigError(f"{path}: expected one of {list(choices)}, "
                          f"got {value!r}")
    return value


def _as_vector(value: Any, path: str) -> Optional[tuple[float, ...]]:
    if value is None:
        return None
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{path}: expected a non-empty list of numbers")
    return tuple(_as_float(v, f"{path}[{i}]") for i, v in enumerate(value))


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProblemConfig:
    name: str
    dim: int = 2
    kappa: float = 10.0
    scale: float = 1.0
    terms: int = 8
    seed: int = 0
    x0: Optional[tuple[float, ...]] = None

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


def _parse_problem(data: Any) -> ProblemConfig:
    b = _Block(data, "problem")
    name = _as_str(b.take("name", required=True), "problem.name",
                   PROBLEM_NAMES)
    cfg = ProblemConfig(
        name=name,
        dim=_as_int(b.take("dim", 2), "problem.dim", minimum=1),
        kappa=_as_positive(b.take("kappa", 10.0), "problem.kappa"),
        scale=_as_positive(b.take("scale", 1.0), "problem.scale"),
        terms=_as_int(b.take("terms", 8), "problem.terms", minimum=2),
        seed=_as_int(b.take("seed", 0), "problem.seed"),
        x0=_as_vector(b.take("x0"), "problem.x0"),
    )
    b.finish()
    _check_length(cfg.x0, cfg, "problem.x0")
    return cfg


def _check_length(vector: Optional[tuple[float, ...]], problem: ProblemConfig,
                  path: str) -> None:
    # rosenbrock is 2-D whatever problem.dim says
    n = 2 if problem.name == "rosenbrock" else problem.dim
    if vector is not None and len(vector) != n:
        raise ConfigError(f"{path}: {problem.name} needs {n} entries, got "
                          f"{len(vector)}")


def _parse_clf(data: Any) -> Optional[ClfParams]:
    if data is None:
        return None
    b = _Block(data, "method.clf")
    pd = b.take("pd_hessian_mode", False)
    if not isinstance(pd, bool):
        raise ConfigError(f"method.clf.pd_hessian_mode: expected a boolean, "
                          f"got {pd!r}")
    coeffs = {key: _as_float(b.take(key, required=True), f"method.clf.{key}")
              for key in ("a", "b", "c")}
    b.finish()
    try:
        return ClfParams(**coeffs, pd_hessian_mode=pd)
    except ValueError as e:
        raise ConfigError(f"method.clf: {e}") from e


@dataclass(frozen=True)
class FlowMethodConfig:
    controller: str
    h: float
    t_max: float
    metric: str = "euclidean"
    eig_floor: float = 1e-6
    clf: Optional[ClfParams] = None
    gamma_a: Optional[float] = None
    gamma_b: Optional[float] = None
    gamma_c: Optional[float] = None
    delta: Optional[float] = None
    delta_mode: str = "constant"
    sigma_q: Optional[float] = None
    eta: Optional[float] = None
    integrator: str = "rk4"
    mode: str = "reduced"
    tol_g: float = 1e-6
    tol_v: float = 1e-6
    v0: Optional[tuple[float, ...]] = None

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
        kind = MOMENTUM_FLOWS.get(self.controller) or MetricKind(self.metric)
        # polyak's Euclidean metric has no floor to set: MetricSpec's default
        metric = MetricSpec(kind) if self.controller == "polyak" \
            else MetricSpec(kind, eig_floor=self.eig_floor)
        try:
            if self.controller == "min_p":
                mode = DeltaMode(self.delta_mode)
                if mode is DeltaMode.FIXED_SIGMA:
                    (sq,) = self._need(sigma_q=self.sigma_q)
                    return min_p_controller(clf, metric, delta_mode=mode,
                                            sigma_q=sq)
                (delta,) = self._need(delta=self.delta)
                return min_p_controller(clf, metric, delta=delta,
                                        delta_mode=mode)
            if self.controller == "min_p_star":
                (eta,) = self._need(eta=self.eta)
                return min_p_star_controller(clf, metric, rate_eta=eta)
            if self.controller == "direct":
                ga, gb, gc = self._need(gamma_a=self.gamma_a,
                                        gamma_b=self.gamma_b,
                                        gamma_c=self.gamma_c)
                return direct_controller(ga, gb, gc, clf=clf, metric=metric)
            if self.controller in MOMENTUM_FLOWS:
                ga, gb = self._need(gamma_a=self.gamma_a,
                                    gamma_b=self.gamma_b)
                return momentum_flow_controller(ga, gb, metric)
            ga, = self._need(gamma_a=self.gamma_a)
            return nesterov_flow_controller(ga, clf=clf)
        except ConfigError:
            raise
        except ValueError as e:
            raise ConfigError(f"method: {e}") from e

    def stopping_rule(self) -> StoppingRule:
        return StoppingRule(tol_g=self.tol_g, tol_v=self.tol_v)


def _parse_flow_method(b: _Block) -> FlowMethodConfig:
    controller = _as_str(b.take("controller", required=True),
                         "method.controller", FLOW_CONTROLLERS)

    def opt_float(key: str) -> Optional[float]:
        value = b.take(key)
        return None if value is None else _as_float(value, f"method.{key}")

    cfg = FlowMethodConfig(
        controller=controller,
        h=_as_positive(b.take("h", required=True), "method.h"),
        t_max=_as_positive(b.take("t_max", required=True), "method.t_max"),
        metric=_as_str(b.take("metric", "euclidean"), "method.metric",
                       ("euclidean", "hessian", "quasi_newton")),
        eig_floor=_as_positive(b.take("eig_floor", 1e-6), "method.eig_floor"),
        clf=_parse_clf(b.take("clf")),
        gamma_a=opt_float("gamma_a"),
        gamma_b=opt_float("gamma_b"),
        gamma_c=opt_float("gamma_c"),
        delta=opt_float("delta"),
        delta_mode=_as_str(b.take("delta_mode", "constant"),
                           "method.delta_mode",
                           ("constant", "taper", "fixed_sigma")),
        sigma_q=opt_float("sigma_q"),
        eta=opt_float("eta"),
        integrator=_as_str(b.take("integrator", "rk4"), "method.integrator",
                           ("rk4", "semi_implicit_euler")),
        mode=_as_str(b.take("mode", "reduced"), "method.mode",
                     ("reduced", "full_primal_dual")),
        tol_g=_as_positive(b.take("tol_g", 1e-6), "method.tol_g"),
        tol_v=_as_positive(b.take("tol_v", 1e-6), "method.tol_v"),
        v0=_as_vector(b.take("v0"), "method.v0"),
    )
    b.finish()
    if cfg.t_max < cfg.h:
        raise ConfigError(f"method.t_max: must be at least one step "
                          f"(h = {cfg.h}), got {cfg.t_max}")
    cfg.build_controller()
    return cfg


@dataclass(frozen=True)
class DiscreteMethodConfig:
    name: str
    max_iters: int
    alpha: Union[float, str, None] = None
    beta: Optional[float] = None
    gamma: Optional[float] = None
    beta_cg: Union[float, str, None] = None
    gamma_a: Optional[float] = None
    gamma_b: Optional[float] = None
    h: Optional[float] = None
    eig_floor: float = 1e-6
    tol_g: float = 1e-6


def _parse_discrete_method(b: _Block) -> DiscreteMethodConfig:
    name = _as_str(b.take("name", required=True), "method.name",
                   DISCRETE_METHODS)

    def opt_float(key: str) -> Optional[float]:
        value = b.take(key)
        return None if value is None else _as_float(value, f"method.{key}")

    alpha = b.take("alpha")
    if alpha is not None and not isinstance(alpha, str):
        alpha = _as_positive(alpha, "method.alpha")
    elif isinstance(alpha, str) and alpha != "exact_line_search":
        raise ConfigError(f"method.alpha: expected a number or "
                          f"'exact_line_search', got {alpha!r}")
    beta_cg = b.take("beta_cg")
    if beta_cg is not None and not isinstance(beta_cg, str):
        beta_cg = _as_float(beta_cg, "method.beta_cg")
    elif isinstance(beta_cg, str) and beta_cg != "fletcher_reeves":
        raise ConfigError(f"method.beta_cg: expected a number or "
                          f"'fletcher_reeves', got {beta_cg!r}")

    cfg = DiscreteMethodConfig(
        name=name,
        max_iters=_as_int(b.take("max_iters", required=True),
                          "method.max_iters", minimum=1),
        alpha=alpha,
        beta=opt_float("beta"),
        gamma=opt_float("gamma"),
        beta_cg=beta_cg,
        gamma_a=opt_float("gamma_a"),
        gamma_b=opt_float("gamma_b"),
        h=opt_float("h"),
        eig_floor=_as_positive(b.take("eig_floor", 1e-6), "method.eig_floor"),
        tol_g=_as_positive(b.take("tol_g", 1e-6), "method.tol_g"),
    )
    b.finish()

    def need(*keys: str) -> None:
        for key in keys:
            if getattr(cfg, key) is None:
                raise ConfigError(f"method.{key}: required by method "
                                  f"{name!r}")

    if name in ("heavy_ball", "nesterov1", "nesterov2"):
        need("alpha", "beta")
        if isinstance(cfg.alpha, str):
            raise ConfigError(f"method.alpha: {name!r} needs a numeric step")
    elif name == "cg":
        need("alpha", "beta_cg")
    else:
        need("gamma_a", "gamma_b", "h")
    return cfg


MethodConfig = Union[FlowMethodConfig, DiscreteMethodConfig]


def _parse_method(data: Any) -> MethodConfig:
    b = _Block(data, "method")
    kind = _as_str(b.take("kind", required=True), "method.kind",
                   ("flow", "discrete"))
    if kind == "flow":
        return _parse_flow_method(b)
    return _parse_discrete_method(b)


@dataclass(frozen=True)
class OutputConfig:
    out_dir: str = "runs"
    stride: int = 1


def _parse_output(data: Any) -> OutputConfig:
    b = _Block(data, "output")
    out_dir = b.take("out_dir", "runs")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError(f"output.out_dir: expected a non-empty string, "
                          f"got {out_dir!r}")
    cfg = OutputConfig(out_dir=out_dir,
                       stride=_as_int(b.take("stride", 1), "output.stride",
                                      minimum=1))
    b.finish()
    return cfg


@dataclass(frozen=True)
class VerifyConfig:
    checks: tuple[str, ...] = ()
    dissipation_mode: str = "strict"
    eta: float = 1.0
    tol: Optional[float] = None
    adjoint_coeff: float = 1e3
    singular_tol: float = 1e-8

    def mode(self) -> DissipationMode:
        return DissipationMode(self.dissipation_mode)

    def effective_tol(self) -> float:
        if self.tol is not None:
            return self.tol
        return 1e-12 if self.dissipation_mode == "strict" else 1e-6


def _parse_verify(data: Any) -> VerifyConfig:
    b = _Block(data, "verify")
    raw = b.take("checks", [])
    if not isinstance(raw, list):
        raise ConfigError(f"verify.checks: expected a list, got {raw!r}")
    checks = tuple(_as_str(c, f"verify.checks[{i}]", CHECK_NAMES)
                   for i, c in enumerate(raw))
    tol = b.take("tol")
    cfg = VerifyConfig(
        checks=checks,
        dissipation_mode=_as_str(b.take("dissipation_mode", "strict"),
                                 "verify.dissipation_mode",
                                 ("strict", "rate")),
        eta=_as_positive(b.take("eta", 1.0), "verify.eta"),
        tol=None if tol is None else _as_positive(tol, "verify.tol"),
        adjoint_coeff=_as_positive(b.take("adjoint_coeff", 1e3),
                                   "verify.adjoint_coeff"),
        singular_tol=_as_positive(b.take("singular_tol", 1e-8),
                                  "verify.singular_tol"),
    )
    b.finish()
    return cfg


def _plain(value: Any) -> Any:
    """A config value as YAML-ready data: a dataclass becomes a mapping of
    its fields that are not None, a tuple a list."""
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name))
                for f in dataclasses.fields(value)
                if getattr(value, f.name) is not None}
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value


@dataclass(frozen=True)
class RunConfig:
    problem: ProblemConfig
    method: MethodConfig
    output: OutputConfig = OutputConfig()
    verify: VerifyConfig = VerifyConfig()
    label: Optional[str] = None

    def run_label(self) -> str:
        if self.label:
            return self.label
        if isinstance(self.method, FlowMethodConfig):
            return self.method.controller
        return self.method.name

    def with_seed(self, seed: int) -> "RunConfig":
        return dataclasses.replace(
            self, problem=dataclasses.replace(self.problem, seed=seed))

    def with_stride(self, stride: int) -> "RunConfig":
        return dataclasses.replace(
            self, output=dataclasses.replace(self.output, stride=stride))

    def with_out_dir(self, out_dir: str) -> "RunConfig":
        return dataclasses.replace(
            self, output=dataclasses.replace(self.output, out_dir=out_dir))

    def to_dict(self) -> dict:
        """Every block as plain data, with method.kind naming the method's
        block type as a config file does."""
        out = _plain(self)
        out["method"]["kind"] = ("flow"
                                 if isinstance(self.method, FlowMethodConfig)
                                 else "discrete")
        return out

    def to_yaml(self) -> str:
        return yaml.safe_dump(self.to_dict(), sort_keys=True,
                              default_flow_style=False)


def parse_config(data: Any, source: str = "<config>") -> RunConfig:
    b = _Block(data, "config")
    problem = _parse_problem(b.take("problem", required=True))
    method = _parse_method(b.take("method", required=True))
    output = _parse_output(b.take("output"))
    verify = _parse_verify(b.take("verify"))
    label = b.take("label")
    if label is not None and (not isinstance(label, str) or not label):
        raise ConfigError(f"label: expected a non-empty string, got "
                          f"{label!r}")
    b.finish()
    if isinstance(method, FlowMethodConfig):
        _check_length(method.v0, problem, "method.v0")
    return RunConfig(problem=problem, method=method, output=output,
                     verify=verify, label=label)


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except OSError as e:
        raise ConfigError(f"{path}: {e.strerror or e}") from e
    except yaml.YAMLError as e:
        mark = getattr(e, "problem_mark", None)
        where = f"{path}:{mark.line + 1}" if mark is not None else path
        raise ConfigError(f"{where}: YAML parse error: {e}") from e
    return parse_config(data, source=path)
