"""Finite-difference oracles, the independent check on the analytic ones."""

import numpy as np

from accelflow.objective import ObjectiveOracle


def finite_diff_gradient(oracle: ObjectiveOracle, x: np.ndarray,
                         h: float = 1e-6) -> np.ndarray:
    """Central differences of the value."""
    x = np.asarray(x, dtype=float)
    g = np.empty(oracle.dim)
    for i in range(oracle.dim):
        e = np.zeros(oracle.dim)
        e[i] = h
        g[i] = (oracle.value(x + e) - oracle.value(x - e)) / (2.0 * h)
    return g


def finite_diff_hessian(oracle: ObjectiveOracle, x: np.ndarray,
                        h: float = 1e-6) -> np.ndarray:
    """Central differences of the analytic gradient, symmetrized."""
    x = np.asarray(x, dtype=float)
    H = np.empty((oracle.dim, oracle.dim))
    for j in range(oracle.dim):
        e = np.zeros(oracle.dim)
        e[j] = h
        H[:, j] = (oracle.gradient(x + e) - oracle.gradient(x - e)) / (2.0 * h)
    return 0.5 * (H + H.T)
