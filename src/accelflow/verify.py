"""Batch diagnostics over recorded trajectories and iterate sequences.

Every check recomputes its quantities from the raw states; the cached
diagnostic columns a producer stored are themselves checked against that
recomputation rather than trusted. Tolerances for integrator-dependent
identities scale as C h^p with p the integrator's order, since the
underlying identities are exact in continuous time and only
discretization error is admissible.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Union

import numpy as np

from .clf import ClfParams, clf_value, lie_derivative
from .discrete import IterateSequence
from .flow import Integrator, TrajectoryRecord
from .objective import ObjectiveOracle

INTEGRATOR_ORDER = {
    Integrator.RK4: 4,
    Integrator.SEMI_IMPLICIT_EULER: 1,
}


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

    @property
    def passed(self) -> bool:
        return self.status is CheckStatus.PASSED

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

    def merged(self, other: "VerificationReport") -> "VerificationReport":
        return VerificationReport(checks=self.checks + other.checks)

    def lines(self) -> list[str]:
        body = [c.line() for c in self.checks]
        body.append(f"{self.n_passed} passed, {self.n_failed} failed, "
                    f"{self.n_not_applicable} not applicable")
        return body

    def to_dict(self) -> dict:
        return {
            "checks": [
                {
                    "name": c.name,
                    "status": c.status.value,
                    "worst_value": c.worst_value,
                    "tolerance": c.tolerance,
                    "location": c.location,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
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


def _is_reduced(record: TrajectoryRecord) -> bool:
    return record.meta.get("mode") == "reduced"


def check_dissipation(record: TrajectoryRecord, clf: ClfParams,
                      oracle: ObjectiveOracle,
                      mode: DissipationMode = DissipationMode.STRICT,
                      eta: float = 1.0, tol: float = 1e-12,
                      cached_tol: float = 1e-12) -> VerificationReport:
    """Negativity (Strict) or exponential-rate (Rate) check on the CLF.

    Strict asks for lieV <= tol at every sample away from the target;
    Rate asks for lieV <= -eta V + tol pointwise plus the integrated
    envelope V(t) <= V(0) exp(-eta t)(1 + tol). Both evaluate V and lieV
    afresh from (x, v, u) with the costate substitution lambda = -grad E,
    and report how far the producer's cached values drift from that.
    """
    checks: list[CheckResult] = []

    vals, lies, cached_dev, times = [], [], [], []
    active = []
    for s in record.samples:
        x, v, u = s.state.x, s.state.v, s.u
        lam = -oracle.gradient(x)
        V = clf_value(clf, lam, v)
        lie = lie_derivative(clf, oracle, x, lam, v, u)
        vals.append(V)
        lies.append(lie)
        times.append(s.state.t)
        active.append(np.linalg.norm(lam) + np.linalg.norm(v) > 0.0)
        cached_dev.append(max(abs(V - s.V) / (1.0 + abs(s.V)),
                              abs(lie - s.lieV) / (1.0 + abs(s.lieV))))

    k = int(np.argmax(cached_dev))
    checks.append(CheckResult(
        name="cached_diagnostics", status=_status(cached_dev[k], cached_tol),
        worst_value=cached_dev[k], tolerance=cached_tol, location=times[k]))

    if mode is DissipationMode.STRICT:
        idx = [i for i, a in enumerate(active) if a]
        if not idx:
            checks.append(CheckResult(
                name="dissipation_strict", status=CheckStatus.PASSED,
                worst_value=0.0, tolerance=tol,
                detail="no samples away from the target"))
        else:
            k = max(idx, key=lambda i: lies[i])
            checks.append(CheckResult(
                name="dissipation_strict", status=_status(lies[k], tol),
                worst_value=lies[k], tolerance=tol, location=times[k]))
    else:
        resid = [lie + eta * V for lie, V in zip(lies, vals)]
        k = int(np.argmax(resid))
        checks.append(CheckResult(
            name="dissipation_rate", status=_status(resid[k], tol),
            worst_value=resid[k], tolerance=tol, location=times[k]))

        V0, t0 = vals[0], times[0]
        if V0 > 0.0:
            excess = [V / (V0 * np.exp(-eta * (t - t0))) - 1.0
                      for V, t in zip(vals, times)]
            k = int(np.argmax(excess))
            checks.append(CheckResult(
                name="dissipation_envelope", status=_status(excess[k], tol),
                worst_value=excess[k], tolerance=tol, location=times[k]))
        else:
            checks.append(CheckResult(
                name="dissipation_envelope", status=CheckStatus.PASSED,
                worst_value=0.0, tolerance=tol,
                detail="V(t0) = 0, envelope vacuous"))

    return VerificationReport(checks=tuple(checks))


def check_adjoint_consistency(record: TrajectoryRecord,
                              oracle: ObjectiveOracle,
                              coeff: float = 1e3,
                              tol: Optional[float] = None) -> VerificationReport:
    """Costate identity lambda_x = -grad E along a co-integrated run.

    Applicable to full primal-dual trajectories only; in reduced mode the
    identity holds by construction and the check reports not-applicable.
    The default tolerance is coeff * h^p, matching the integrator order.
    """
    if _is_reduced(record):
        return VerificationReport(checks=(CheckResult(
            name="adjoint_consistency", status=CheckStatus.NOT_APPLICABLE,
            worst_value=0.0, tolerance=0.0,
            detail="reduced mode defines lambda_x as -grad E"),))

    tol = order_tolerance(record, coeff) if tol is None else tol
    worst, at = -1.0, None
    for s in record.samples:
        r = float(np.linalg.norm(s.state.lambda_x
                                 + oracle.gradient(s.state.x)))
        if r > worst:
            worst, at = r, s.state.t
    return VerificationReport(checks=(CheckResult(
        name="adjoint_consistency", status=_status(worst, tol),
        worst_value=worst, tolerance=tol, location=at),))


def check_singular_arc(record: TrajectoryRecord,
                       tol: float = 1e-8) -> VerificationReport:
    """All extremals are singular: the velocity costate must stay at zero."""
    if _is_reduced(record):
        return VerificationReport(checks=(CheckResult(
            name="singular_arc", status=CheckStatus.NOT_APPLICABLE,
            worst_value=0.0, tolerance=0.0,
            detail="reduced mode holds lambda_v at zero by construction"),))

    worst, at = -1.0, None
    for s in record.samples:
        r = float(np.linalg.norm(s.state.lambda_v))
        if r > worst:
            worst, at = r, s.state.t
    return VerificationReport(checks=(CheckResult(
        name="singular_arc", status=_status(worst, tol),
        worst_value=worst, tolerance=tol, location=at),))


def check_stationarity(run: Union[TrajectoryRecord, IterateSequence],
                       oracle: ObjectiveOracle,
                       tol_g: Optional[float] = None,
                       tol_v: Optional[float] = None) -> VerificationReport:
    """Terminal first-order condition: grad E -> 0 (and v -> 0 for flows)."""
    checks: list[CheckResult] = []
    if isinstance(run, TrajectoryRecord):
        tol_g = float(run.meta.get("tol_g", 1e-6)) if tol_g is None else tol_g
        tol_v = float(run.meta.get("tol_v", 1e-6)) if tol_v is None else tol_v
        final = run.final.state
        gnorm = float(np.linalg.norm(oracle.gradient(final.x)))
        vnorm = float(np.linalg.norm(final.v))
        if run.diverged:
            checks.append(CheckResult(
                name="stationarity_grad", status=CheckStatus.FAILED,
                worst_value=gnorm, tolerance=tol_g, location=final.t,
                detail="divergence flag set"))
            checks.append(CheckResult(
                name="stationarity_velocity", status=CheckStatus.FAILED,
                worst_value=vnorm, tolerance=tol_v, location=final.t,
                detail="divergence flag set"))
        else:
            checks.append(CheckResult(
                name="stationarity_grad", status=_status(gnorm, tol_g),
                worst_value=gnorm, tolerance=tol_g, location=final.t))
            checks.append(CheckResult(
                name="stationarity_velocity", status=_status(vnorm, tol_v),
                worst_value=vnorm, tolerance=tol_v, location=final.t))
    else:
        tol_g = 1e-6 if tol_g is None else tol_g
        x_final = run.points[-1]
        if not np.all(np.isfinite(x_final)):
            checks.append(CheckResult(
                name="stationarity_grad", status=CheckStatus.FAILED,
                worst_value=float("inf"), tolerance=tol_g,
                location=float(len(run.points) - 1),
                detail="non-finite final iterate"))
        else:
            gnorm = float(np.linalg.norm(run.gradient(-1, oracle)))
            checks.append(CheckResult(
                name="stationarity_grad", status=_status(gnorm, tol_g),
                worst_value=gnorm, tolerance=tol_g,
                location=float(len(run.points) - 1)))
    return VerificationReport(checks=tuple(checks))


CHECK_NAMES = ("dissipation", "adjoint_consistency", "singular_arc",
               "stationarity")


def run_checks(record: TrajectoryRecord, oracle: ObjectiveOracle,
               clf: ClfParams, checks: Sequence[str],
               dissipation_mode: DissipationMode = DissipationMode.STRICT,
               eta: float = 1.0, tol: float = 1e-12,
               adjoint_coeff: float = 1e3,
               singular_tol: float = 1e-8) -> VerificationReport:
    """Run the named checks over one trajectory and merge the reports."""
    report = VerificationReport(checks=())
    for name in checks:
        if name == "dissipation":
            part = check_dissipation(record, clf, oracle,
                                     mode=dissipation_mode, eta=eta, tol=tol)
        elif name == "adjoint_consistency":
            part = check_adjoint_consistency(record, oracle,
                                             coeff=adjoint_coeff)
        elif name == "singular_arc":
            part = check_singular_arc(record, tol=singular_tol)
        elif name == "stationarity":
            part = check_stationarity(record, oracle)
        else:
            raise ValueError(f"unknown check {name!r}; "
                             f"expected one of {CHECK_NAMES}")
        report = report.merged(part)
    return report
