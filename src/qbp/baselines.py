"""Classical sparse-recovery baselines: l1 minimization and hard thresholding.

Basis pursuit treats only the linear part of each measurement, which is the
standard compressed-sensing baseline these quadratic systems are compared
against.  Iterative hard thresholding attacks the quadratic objective
directly with a gradient step and a fixed sparsity projection.
"""

from __future__ import annotations

import numpy as np

from qbp.model import (DimensionMismatchError, QuadraticSystem, _as_complex,
                       _require_integer)
from qbp.admm import INFEASIBLE_RTOL, RHO0, soft_threshold, update_rho

__all__ = [
    "InfeasibleLinearSystemError",
    "linearize",
    "basis_pursuit",
    "hard_threshold",
    "iht_objective",
    "iht_gradient",
    "iterative_hard_thresholding",
]

# Basis pursuit: the iteration cap and the absolute and relative stopping
# tolerances; rho moves from RHO0 by update_rho and its budget, as in _admm.
# The linearized constraints count as inconsistent once their least-squares
# gap exceeds INFEASIBLE_RTOL * max(||y||, 1), the lifted X1 step's test.
BP_MAX_ITERS = 10000
BP_EPS_ABS = 1e-8
BP_EPS_REL = 1e-6

# IHT line search: each iteration tries IHT_STEP0, then shrinks the step by
# IHT_SHRINK until the objective strictly decreases; a relative decrease below
# IHT_STALL_TOL ends the run.
IHT_STEP0 = 1.0
IHT_SHRINK = 0.5
IHT_STALL_TOL = 1e-10
# The ladder of 67 steps is hard-thresholded IHT_BLOCK rungs at a time, as
# the walk reaches them: a table iteration (n=20, N=25, k=3) walks 8.4
# rungs on average, so most of them are never thresholded.
IHT_BLOCK = 16


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
    pseudoinverse.  Raises :class:`DimensionMismatchError` unless A is 2-D
    with one row per entry of y, :class:`NonFiniteValueError` on a non-finite
    entry and :class:`InfeasibleLinearSystemError` when no solution exists.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2:
        raise DimensionMismatchError(f"A: expected a 2-D array, got shape {A.shape}")
    A = _as_complex(A, A.shape, "A")
    y = _as_complex(y, A.shape[:1], "y")
    pinv = np.linalg.pinv(A)
    gap = np.linalg.norm(A @ (pinv @ y) - y)
    if gap > INFEASIBLE_RTOL * max(1.0, np.linalg.norm(y)):
        raise InfeasibleLinearSystemError(
            f"linearized constraints are inconsistent: least-squares gap {gap:.3e}"
        )
    nvar = A.shape[1]
    x = np.zeros(nvar, dtype=complex)
    z = np.zeros(nvar, dtype=complex)
    u = np.zeros(nvar, dtype=complex)
    rho, changes = RHO0, 0
    for iterations in range(1, BP_MAX_ITERS + 1):
        x = z - u
        x = x - pinv @ (A @ x - y)
        z_prev = z
        z = soft_threshold(x + u, 1.0 / rho)
        u = u + x - z
        r_norm = np.linalg.norm(x - z)
        s_norm = rho * np.linalg.norm(z - z_prev)
        eps_pri = np.sqrt(nvar) * BP_EPS_ABS + BP_EPS_REL * max(
            np.linalg.norm(x), np.linalg.norm(z)
        )
        eps_dual = np.sqrt(nvar) * BP_EPS_ABS + BP_EPS_REL * rho * np.linalg.norm(u)
        if r_norm <= eps_pri and s_norm <= eps_dual:
            break
        new = update_rho(rho, r_norm * eps_dual, s_norm * eps_pri, changes)
        changes += new != rho
        u *= rho / new
        rho = new
    return x, iterations


def hard_threshold(x, k: int) -> np.ndarray:
    """Keep the k largest-magnitude entries of x, or of each row of a 2-D x;
    ties go to the lowest index."""
    x = np.asarray(x)
    if x.ndim == 0:
        raise ValueError("x must have at least one dimension")
    _require_integer("k", k, 0)
    if k >= x.shape[-1]:
        return x.copy()
    rows = x.reshape(-1, x.shape[-1])
    keep = np.arange(len(rows))[:, None], np.argsort(-np.abs(rows), axis=1,
                                                     kind="stable")[:, :k]
    out = np.zeros(rows.shape, dtype=x.dtype)
    out[keep] = rows[keep]
    return out.reshape(x.shape)


def _lifted(system: QuadraticSystem, x) -> np.ndarray:
    """The vector [1; x] whose outer product is lift(x)."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (system.n,):
        raise DimensionMismatchError(
            f"x has shape {x.shape}, system dimension is {system.n}"
        )
    return np.concatenate(([1.0], x))


def _sparse_residual(system: QuadraticSystem, v, blocks: dict):
    """Residuals Tr(Phi_i X) - y_i at X = v v^H, the support L of v and v[L].

    Only the lifted block on L is read: with u = v[L], the nonzero entries
    of v, Tr(Phi_i X) = u^H Phi_i[L, L] u, the dot product of the block with
    the outer product of conj(u) and u.  ``blocks`` keeps each block read,
    keyed by its support, for the next read of the same support.
    """
    L = v.nonzero()[0]
    v = v[L]
    key = L.tobytes()
    block = blocks.get(key)
    if block is None:
        block = blocks[key] = system.phis[:, L[:, None], L].reshape(len(system.y), -1)
    r = block @ (v.conj()[:, None] * v).ravel() - system.y
    return r, L, v


def _gradient(system: QuadraticSystem, r, L, v, blocks: dict) -> np.ndarray:
    """:func:`iht_gradient` from the return of :func:`_sparse_residual`.

    ``blocks`` keeps ``phis[:, 1:, L]`` and ``phis[:, L, 1:]`` for each
    support read, keyed by the support and "border", beside the blocks of
    :func:`_sparse_residual`.
    """
    key = (L.tobytes(), "border")
    border = blocks.get(key)
    if border is None:
        phis = system.phis
        border = blocks[key] = phis[:, 1:, L], phis[:, L, 1:]
    cols, rows = border
    lin = cols @ v
    lin_conj = (v.conj() @ rows).conj()
    return r.conj() @ lin + r @ lin_conj


def iht_objective(system: QuadraticSystem, x) -> float:
    """Half the squared residual of the quadratic measurements at x."""
    r, _, _ = _sparse_residual(system, _lifted(system, x), {})
    return 0.5 * float(np.vdot(r, r).real)


def iht_gradient(system: QuadraticSystem, x) -> np.ndarray:
    """Gradient of the residual objective with respect to the complex x.

    Computed as twice the conjugate-coordinate derivative, so the real and
    imaginary parts are the partial derivatives in Re x and Im x:
    conj(r) @ (c + Q x) + r @ (b + Q^H x), where c + Q x and b + Q^H x are
    the rows 1: of Phi_i [1; x] and Phi_i^H [1; x], read from the columns and
    the rows on the support block L of :func:`_sparse_residual`.
    """
    return _gradient(system, *_sparse_residual(system, _lifted(system, x), {}), {})


def _ladder(x, grad, k: int, steps):
    """Yield [1; hard_threshold(x - eta * grad, k)] for each eta in turn.

    Each block of ``steps`` (a column of etas) is thresholded at once, when
    the walk reaches it.
    """
    for etas in steps:
        block = np.ones((len(etas), len(x) + 1), dtype=complex)
        block[:, 1:] = hard_threshold(x - etas * grad, k)
        yield from block


def iterative_hard_thresholding(system: QuadraticSystem, k: int,
                                max_iters: int = 1000):
    """Projected gradient descent onto the k-sparse set with backtracking.

    The run starts from the zero vector.  Each iteration tries the steps
    ``IHT_STEP0 * IHT_SHRINK**j`` down to 1e-20 in turn and takes the first
    one that strictly lowers the objective; the run stops when none does or
    the relative decrease stalls.  The ladder of steps is hard-thresholded
    IHT_BLOCK rungs at a time as the walk reaches them, each step's
    residual and each gradient read the support blocks kept for the run,
    and the taken step's residual feeds the next gradient, so the iterates
    are those of trying one step at a time.  Returns ``(x, iterations,
    objective)`` for the last iterate, which is the best one seen: a step
    is taken only when it strictly lowers the objective.
    """
    _require_integer("k", k, 1)
    _require_integer("max_iters", max_iters, 1)
    etas = []
    eta = IHT_STEP0
    while eta >= 1e-20:
        etas.append(eta)
        eta *= IHT_SHRINK
    # the ladder as blocks of IHT_BLOCK steps, one step to a row
    steps = np.split(np.array(etas)[:, None], range(IHT_BLOCK, len(etas), IHT_BLOCK))
    blocks = {}
    x = np.zeros(system.n, dtype=complex)
    r, L, v = _sparse_residual(system, _lifted(system, x), blocks)
    g = 0.5 * float(np.vdot(r, r).real)
    iterations = 0
    for it in range(1, max_iters + 1):
        iterations = it
        grad = _gradient(system, r, L, v, blocks)
        for trial in _ladder(x, grad, k, steps):
            r_trial, L_trial, v_trial = _sparse_residual(system, trial, blocks)
            g_trial = 0.5 * float(np.vdot(r_trial, r_trial).real)
            if g_trial < g:
                break
        else:
            break
        x = trial[1:]
        r, L, v = r_trial, L_trial, v_trial
        rel = (g - g_trial) / max(g, 1e-300)
        g = g_trial
        if rel < IHT_STALL_TOL:
            break
    return x, iterations, g
