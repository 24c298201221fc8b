"""Batch diagnostics over recorded trajectories and iterate sequences.

Every check recomputes its quantities from the raw states; the cached
diagnostic columns a producer stored are themselves checked against that
recomputation rather than trusted. A check evaluates whole columns, one
call over the stacked rows per quantity, and each row holds the bits a
one-state call gives it. Tolerances for integrator-dependent
identities scale as C h^p with p the integrator's order, since the
underlying identities are exact in continuous time and only
discretization error is admissible.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

import numpy as np

from .clf import ClfParams, clf_value, lie_derivative, state_norm
from .discrete import IterateSequence
from .flow import Integrator, TrajectoryRecord, _is_reduced
from .objective import ObjectiveOracle

if TYPE_CHECKING:  # config imports this module
    from .config import VerifyConfig

INTEGRATOR_ORDER = {
    Integrator.RK4: 4,
    Integrator.SEMI_IMPLICIT_EULER: 1,
}

#: rows whose V and lie V check_dissipation recomputes in one stacked
#: call: its temporaries, a few (rows, n) arrays, stay a few blocks this
#: long instead of a few copies of the record
_DISSIPATION_ROWS = 256


class CheckStatus(str, Enum):
    PASSED = "passed"
    FAILED = "failed"
    NOT_APPLICABLE = "not_applicable"


class DissipationMode(str, Enum):
    STRICT = "strict"
    RATE = "rate"


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: CheckStatus
    worst_value: float
    tolerance: float
    location: Optional[float] = None
    detail: str = ""

    def line(self) -> str:
        tag = {CheckStatus.PASSED: "PASS", CheckStatus.FAILED: "FAIL",
               CheckStatus.NOT_APPLICABLE: "N/A "}[self.status]
        loc = "" if self.location is None else f" at {self.location:g}"
        note = f" ({self.detail})" if self.detail else ""
        return (f"{tag} {self.name}: worst={self.worst_value:.6g} "
                f"tol={self.tolerance:.6g}{loc}{note}")


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def n_passed(self) -> int:
        return sum(c.status is CheckStatus.PASSED for c in self.checks)

    @property
    def n_failed(self) -> int:
        return sum(c.status is CheckStatus.FAILED for c in self.checks)

    @property
    def n_not_applicable(self) -> int:
        return sum(c.status is CheckStatus.NOT_APPLICABLE
                   for c in self.checks)

    @property
    def ok(self) -> bool:
        return self.n_failed == 0

    def lines(self) -> list[str]:
        body = [c.line() for c in self.checks]
        body.append(f"{self.n_passed} passed, {self.n_failed} failed, "
                    f"{self.n_not_applicable} not applicable")
        return body

    def to_dict(self) -> dict:
        return {
            "checks": [dict(dataclasses.asdict(c), status=c.status.value)
                       for c in self.checks],
            "summary": {
                "passed": self.n_passed,
                "failed": self.n_failed,
                "not_applicable": self.n_not_applicable,
            },
        }


def order_tolerance(record: TrajectoryRecord, coeff: float) -> float:
    """coeff * h^p with p taken from the integrator that produced the run."""
    h = float(record.meta["h"])
    method = Integrator(record.meta["method"])
    return coeff * h ** INTEGRATOR_ORDER[method]


def _status(worst: float, tol: float) -> CheckStatus:
    return CheckStatus.PASSED if worst <= tol else CheckStatus.FAILED


def _worst(name: str, values: np.ndarray, times: np.ndarray,
           tol: float) -> CheckResult:
    """The largest per-sample value against tol, located at its time.

    A non-finite value fails the check at the first sample holding one:
    a comparison with NaN is false, so a plain maximum would skip it.
    """
    bad = np.flatnonzero(~np.isfinite(values))
    k = int(bad[0]) if bad.size else int(np.argmax(values))
    status = CheckStatus.FAILED if bad.size else _status(values[k], tol)
    return CheckResult(name=name, status=status, worst_value=float(values[k]),
                       tolerance=tol, location=float(times[k]),
                       detail="non-finite value" if bad.size else "")


def check_dissipation(record: TrajectoryRecord, clf: ClfParams,
                      oracle: ObjectiveOracle,
                      mode: DissipationMode = DissipationMode.STRICT,
                      eta: float = 1.0,
                      tol: Optional[float] = None) -> VerificationReport:
    """Negativity (Strict) or exponential-rate (Rate) check on the CLF.

    Strict asks for lieV <= tol at every sample away from the target;
    Rate asks for lieV <= -eta V + tol pointwise plus the integrated
    envelope V(t) <= V(0) exp(-eta t)(1 + tol). tol defaults to 1e-12 in
    Strict mode and 1e-6 in Rate mode. Both evaluate V and lieV
    afresh from (x, v, u) with the costate substitution lambda = -grad E,
    and report how far the producer's cached values drift from that,
    relative to 1 + |cached|, against 1e-12.
    """
    if tol is None:
        tol = 1e-12 if mode is DissipationMode.STRICT else 1e-6
    cols = record.columns
    times, x, v, u = cols["t"], cols["x"], cols["v"], cols["u"]
    vals, lies = np.empty(len(times)), np.empty(len(times))
    active = np.empty(len(times), dtype=bool)
    # a block of stacked rows holds each row's one-state bits (clf)
    for start in range(0, len(times), _DISSIPATION_ROWS):
        rows = slice(start, start + _DISSIPATION_ROWS)
        lam = -oracle.gradient(x[rows])
        vals[rows] = clf_value(clf, lam, v[rows])
        lies[rows] = lie_derivative(clf, oracle, x[rows], lam, v[rows],
                                    u[rows])
        # != rather than >: a NaN norm counts as away from the target
        active[rows] = state_norm(lam) + state_norm(v[rows]) != 0.0

    cached_V, cached_lie = cols["V"], cols["lieV"]
    cached_dev = np.maximum(
        np.abs(vals - cached_V) / (1.0 + np.abs(cached_V)),
        np.abs(lies - cached_lie) / (1.0 + np.abs(cached_lie)))
    checks = [_worst("cached_diagnostics", cached_dev, times, 1e-12)]

    if mode is DissipationMode.STRICT:
        if not active.any():
            checks.append(CheckResult(
                name="dissipation_strict", status=CheckStatus.PASSED,
                worst_value=0.0, tolerance=tol,
                detail="no samples away from the target"))
        else:
            checks.append(_worst("dissipation_strict", lies[active],
                                 times[active], tol))
    else:
        checks.append(_worst("dissipation_rate", lies + eta * vals, times,
                             tol))
        V0, t0 = vals[0], times[0]
        # a NaN V0 is not vacuous: it fails at t0 as a non-finite value
        if V0 != 0.0:
            excess = vals / (V0 * np.exp(-eta * (times - t0))) - 1.0
            checks.append(_worst("dissipation_envelope", excess, times, tol))
        else:
            checks.append(CheckResult(
                name="dissipation_envelope", status=CheckStatus.PASSED,
                worst_value=0.0, tolerance=tol,
                detail="V(t0) = 0, envelope vacuous"))

    return VerificationReport(checks=tuple(checks))


def _costate_check(record: TrajectoryRecord, name: str, reduced: str,
                   residual: Callable[[dict], np.ndarray],
                   coeff: float) -> VerificationReport:
    """A singular-arc costate identity: the per-sample norm of
    residual(columns) against coeff * h^p, N/A on a reduced record."""
    if _is_reduced(record):
        return VerificationReport(checks=(CheckResult(
            name=name, status=CheckStatus.NOT_APPLICABLE,
            worst_value=0.0, tolerance=0.0, detail=reduced),))
    cols = record.columns
    return VerificationReport(checks=(
        _worst(name, state_norm(residual(cols)), cols["t"],
               order_tolerance(record, coeff)),))


def check_adjoint_consistency(record: TrajectoryRecord,
                              oracle: ObjectiveOracle,
                              coeff: float = 1e3) -> VerificationReport:
    """Costate identity lambda_x = -grad E along a co-integrated run."""
    return _costate_check(
        record, "adjoint_consistency",
        "reduced mode defines lambda_x as -grad E",
        lambda cols: cols["lambda_x"] + oracle.gradient(cols["x"]), coeff)


def check_singular_arc(record: TrajectoryRecord,
                       coeff: float = 1e3) -> VerificationReport:
    """All extremals are singular: the velocity costate stays at zero."""
    return _costate_check(
        record, "singular_arc",
        "reduced mode holds lambda_v at zero by construction",
        lambda cols: cols["lambda_v"], coeff)


def check_stationarity(run: Union[TrajectoryRecord, IterateSequence],
                       oracle: ObjectiveOracle,
                       tol_g: Optional[float] = None) -> VerificationReport:
    """Terminal first-order condition: grad E -> 0 (and v -> 0 for flows)."""
    checks: list[CheckResult] = []
    if isinstance(run, TrajectoryRecord):
        tol_g = float(run.meta.get("tol_g", 1e-6)) if tol_g is None else tol_g
        tol_v = float(run.meta.get("tol_v", 1e-6))
        cols = run.columns
        t = float(cols["t"][-1])
        gnorm = float(np.linalg.norm(oracle.gradient(cols["x"][-1])))
        vnorm = float(np.linalg.norm(cols["v"][-1]))
        for name, worst, tol in (("stationarity_grad", gnorm, tol_g),
                                 ("stationarity_velocity", vnorm, tol_v)):
            checks.append(CheckResult(
                name=name, worst_value=worst, tolerance=tol, location=t,
                status=(CheckStatus.FAILED if run.diverged
                        else _status(worst, tol)),
                detail="divergence flag set" if run.diverged else ""))
    else:
        tol_g = 1e-6 if tol_g is None else tol_g
        gnorm = run.grad_norms[-1]
        checks.append(CheckResult(
            name="stationarity_grad", worst_value=gnorm, tolerance=tol_g,
            status=(CheckStatus.FAILED if run.diverged
                    else _status(gnorm, tol_g)),
            location=float(len(run.points) - 1),
            detail="divergence flag set" if run.diverged else ""))
    return VerificationReport(checks=tuple(checks))


#: each check's call on (record, oracle, clf, settings), settings being the
#: verify block; a call looks its check up by global name when it runs
CHECKS = {
    "dissipation": lambda record, oracle, clf, settings: check_dissipation(
        record, clf, oracle, mode=settings.dissipation_mode,
        eta=settings.eta, tol=settings.tol),
    "adjoint_consistency": lambda record, oracle, clf, settings:
        check_adjoint_consistency(record, oracle,
                                  coeff=settings.adjoint_coeff),
    "singular_arc": lambda record, oracle, clf, settings: check_singular_arc(
        record, coeff=settings.adjoint_coeff),
    "stationarity": lambda record, oracle, clf, settings: check_stationarity(
        record, oracle),
}
CHECK_NAMES = tuple(CHECKS)


def run_checks(record: TrajectoryRecord, oracle: ObjectiveOracle,
               clf: ClfParams, checks: Sequence[str],
               settings: VerifyConfig) -> VerificationReport:
    """Run the named checks over one trajectory into one report."""
    results: list[CheckResult] = []
    for name in checks:
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r}; "
                             f"expected one of {CHECK_NAMES}")
        results += CHECKS[name](record, oracle, clf, settings).checks
    return VerificationReport(checks=tuple(results))
