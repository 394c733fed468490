"""Output checks applied to every call the benchmark times.

Each check returns a list of failure descriptions; an empty list means the
output passed.  A call with any failure counts in ``failed``, so a fast but
wrong result is never reported as a plain timing.
"""

from __future__ import annotations

import numpy as np

# Criterion 6 of the acceptance suite: constraint gap <= 10 * n * eps_abs and
# smallest eigenvalue >= -1e-3 * n at a converged equality-constrained solve.
GAP_FACTOR = 10.0
EIG_FACTOR = 1e-3


def _lifted_values(system, Z) -> np.ndarray:
    # Tr(Phi_i Z) for every measurement, from the stacked coefficient matrices
    return np.einsum("nij,ji->n", system.phis, Z)


def _matrix_failures(system, result) -> list[str]:
    m = system.n + 1
    Z = getattr(result, "Z", None)
    if not isinstance(Z, np.ndarray) or Z.shape != (m, m):
        return [f"Z is not an array of shape {(m, m)}"]
    if not np.all(np.isfinite(Z)):
        return ["Z has non-finite entries"]
    if result.termination != "converged":
        return [f"termination {result.termination!r}"]
    return []


def check_equality_solve(system, result, eps_abs: float) -> list[str]:
    """``solve``: converged, finite, feasible and PSD within criterion 6."""
    failures = _matrix_failures(system, result)
    if failures:
        return failures
    n = system.n
    gap = float(np.max(np.abs(_lifted_values(system, result.Z) - system.y)))
    if not gap <= GAP_FACTOR * n * eps_abs:
        failures.append(f"constraint gap {gap:.3e} > {GAP_FACTOR * n * eps_abs:.1e}")
    low = float(np.linalg.eigvalsh(result.Z)[0])
    if not low >= -EIG_FACTOR * n:
        failures.append(f"smallest eigenvalue {low:.3e} < {-EIG_FACTOR * n:.1e}")
    return failures


def check_budget_solve(system, result, epsilon: float) -> list[str]:
    """``solve_denoising``: converged, finite, squared residual within epsilon."""
    failures = _matrix_failures(system, result)
    if failures:
        return failures
    diff = system.y - _lifted_values(system, result.Z)
    residual = float(np.vdot(diff, diff).real)
    if not residual <= epsilon:
        failures.append(f"data residual {residual:.3e} > epsilon {epsilon:.1e}")
    return failures


def check_estimate(x_hat, n: int) -> list[str]:
    """Every method: a finite estimate of the signal's shape."""
    if not isinstance(x_hat, np.ndarray) or x_hat.shape != (n,):
        shape = getattr(x_hat, "shape", type(x_hat).__name__)
        return [f"estimate has shape {shape}, expected {(n,)}"]
    if not np.all(np.isfinite(x_hat)):
        return ["estimate has non-finite entries"]
    return []
