"""Classical sparse-recovery baselines: l1 minimization and hard thresholding.

Basis pursuit treats only the linear part of each measurement, which is the
standard compressed-sensing baseline these quadratic systems are compared
against.  Iterative hard thresholding attacks the quadratic objective
directly with a gradient step and a fixed sparsity projection.
"""

from __future__ import annotations

import numpy as np

from qbp.model import DimensionMismatchError, QuadraticSystem, _require_integer
from qbp.admm import INFEASIBLE_RTOL, soft_threshold

__all__ = [
    "InfeasibleLinearSystemError",
    "linearize",
    "basis_pursuit",
    "hard_threshold",
    "iht_objective",
    "iht_gradient",
    "iterative_hard_thresholding",
]

# Basis pursuit: the iteration cap and the initial ADMM penalty.  The
# linearized constraints count as inconsistent once their least-squares gap
# exceeds INFEASIBLE_RTOL * max(||y||, 1), the lifted X1 step's test.
BP_MAX_ITERS = 10000
BP_RHO0 = 1.0

# IHT line search: each iteration tries IHT_STEP0, then shrinks the step by
# IHT_SHRINK until the objective strictly decreases; a relative decrease below
# IHT_STALL_TOL ends the run.
IHT_STEP0 = 1.0
IHT_SHRINK = 0.5
IHT_STALL_TOL = 1e-10


class InfeasibleLinearSystemError(ValueError):
    """The linearized equality constraints admit no solution."""


def linearize(system: QuadraticSystem):
    """The terms linear in x, as ``(A, y - a)``: row i of A is b_i^H + c_i^T.

    Folding the two linear terms into one matrix is exact whenever c is zero
    or the signal is real; a complex signal with nonzero c also has an
    anti-linear contribution that a single matrix cannot carry.
    """
    return system.bh + system.c, system.y - system.a


def basis_pursuit(A, y):
    """Minimum-l1 solution of A x = y via ADMM on the vector splitting.

    Returns ``(x, iterations)``.  ``x`` is an exact projection onto the
    constraint set, so its equality residual is at the level of the
    pseudoinverse.  Raises :class:`InfeasibleLinearSystemError` when no
    solution exists.
    """
    A = np.asarray(A, dtype=complex)
    y = np.asarray(y, dtype=complex)
    pinv = np.linalg.pinv(A)
    x0 = pinv @ y
    gap = np.linalg.norm(A @ x0 - y)
    if gap > INFEASIBLE_RTOL * max(1.0, np.linalg.norm(y)):
        raise InfeasibleLinearSystemError(
            f"linearized constraints are inconsistent: least-squares gap {gap:.3e}"
        )
    nvar = A.shape[1]
    x = np.zeros(nvar, dtype=complex)
    z = np.zeros(nvar, dtype=complex)
    u = np.zeros(nvar, dtype=complex)
    rho = BP_RHO0
    iterations = BP_MAX_ITERS
    for it in range(1, BP_MAX_ITERS + 1):
        x = z - u
        x = x - pinv @ (A @ x - y)
        z_prev = z
        z = soft_threshold(x + u, 1.0 / rho)
        u = u + x - z
        r_norm = np.linalg.norm(x - z)
        s_norm = rho * np.linalg.norm(z - z_prev)
        eps_pri = np.sqrt(nvar) * 1e-8 + 1e-6 * max(
            np.linalg.norm(x), np.linalg.norm(z)
        )
        eps_dual = np.sqrt(nvar) * 1e-8 + 1e-6 * rho * np.linalg.norm(u)
        if r_norm <= eps_pri and s_norm <= eps_dual:
            iterations = it
            break
        if r_norm > 10.0 * s_norm:
            rho *= 2.0
            u /= 2.0
        elif s_norm > 10.0 * r_norm:
            rho /= 2.0
            u *= 2.0
    return x, iterations


def hard_threshold(x, k: int) -> np.ndarray:
    """Keep the k largest-magnitude entries; ties go to the lowest index."""
    x = np.asarray(x)
    _require_integer("k", k)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k >= x.size:
        return x.copy()
    order = np.argsort(-np.abs(x), kind="stable")
    out = np.zeros(x.shape, dtype=x.dtype)
    keep = order[:k]
    out[keep] = x[keep]
    return out


def _sparse_residual(system: QuadraticSystem, x):
    """Residuals Tr(Phi_i X) - y_i at X = lift(x), the support L of [1; x] and v.

    Only the lifted block on L, which holds 0 and the support of x shifted
    by one, is read: v = [1; x][L] holds the nonzero entries of [1; x], so
    Tr(Phi_i X) = v^H Phi_i[L, L] v, the dot product of the block with the
    outer product of conj(v) and v.
    """
    x = np.asarray(x, dtype=complex)
    if x.shape != (system.n,):
        raise DimensionMismatchError(
            f"x has shape {x.shape}, system dimension is {system.n}"
        )
    v = np.concatenate(([1.0], x))
    L = v.nonzero()[0]
    v = v[L]
    block = system.phis[:, L[:, None], L]
    r = block.reshape(block.shape[0], -1) @ np.outer(v.conj(), v).ravel() - system.y
    return r, L, v


def iht_objective(system: QuadraticSystem, x) -> float:
    """Half the squared residual of the quadratic measurements at x."""
    r, _, _ = _sparse_residual(system, x)
    return 0.5 * float(np.vdot(r, r).real)


def iht_gradient(system: QuadraticSystem, x) -> np.ndarray:
    """Gradient of the residual objective with respect to the complex x.

    Computed as twice the conjugate-coordinate derivative, so the real and
    imaginary parts are the partial derivatives in Re x and Im x:
    conj(r) @ (c + Q x) + r @ (b + Q^H x), where c + Q x and b + Q^H x are
    the rows 1: of Phi_i [1; x] and Phi_i^H [1; x], read from the columns and
    the rows on the support block L of :func:`_sparse_residual`.
    """
    r, L, v = _sparse_residual(system, x)
    phis = system.phis
    lin = phis[:, 1:, L] @ v
    lin_conj = (v.conj() @ phis[:, L, 1:]).conj()
    return r.conj() @ lin + r @ lin_conj


def iterative_hard_thresholding(system: QuadraticSystem, k: int,
                                max_iters: int = 1000):
    """Projected gradient descent onto the k-sparse set with backtracking.

    The run starts from the zero vector.  Each iteration restarts the line
    search from ``IHT_STEP0`` and halves the step until the objective
    strictly decreases; the run stops when no step down to 1e-20 helps or
    the relative decrease stalls.  Returns ``(x, iterations, objective)``
    for the last iterate, which is the best one seen: a step is taken only
    when it strictly lowers the objective.
    """
    _require_integer("k", k)
    _require_integer("max_iters", max_iters)
    if k < 1:
        raise ValueError("k must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    x = np.zeros(system.n, dtype=complex)
    g = iht_objective(system, x)
    iterations = 0
    for it in range(1, max_iters + 1):
        iterations = it
        grad = iht_gradient(system, x)
        eta = IHT_STEP0
        cand = None
        while eta >= 1e-20:
            trial = hard_threshold(x - eta * grad, k)
            g_trial = iht_objective(system, trial)
            if g_trial < g:
                cand = (trial, g_trial)
                break
            eta *= IHT_SHRINK
        if cand is None:
            break
        x, g_new = cand
        rel = (g - g_new) / max(g, 1e-300)
        g = g_new
        if rel < IHT_STALL_TOL:
            break
    return x, iterations, g
