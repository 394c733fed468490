"""Consensus ADMM for the lifted trace-plus-l1 semidefinite programs.

The equality-constrained program

    min Tr(X) + lam * ||X||_1   s.t.  Tr(Phi_i X) = y_i,  X[0,0] = 1,  X >= 0

is split over two primal copies: X1 carries the affine constraints (plus the
trace term), X2 carries the positive-semidefinite cone, and the consensus
variable Z carries the l1 shrinkage.  The denoising program

    min Tr(X) + lam * ||X||_1   s.t.  sum_i |Tr(Phi_i X) - y_i|^2 <= epsilon,
                                      X[0,0] = 1,  X >= 0

runs the same loop with the X1 step replaced by the exact Frobenius
projection onto the residual budget set, one scalar root of a secular
equation per call.  The equality program is its epsilon = 0 limit, so one
class does both X1 steps: the equality step (:class:`AffineProjector`) is the
budget step (:class:`_PenalizedStep`) in its affine limit, built from an
``eigh`` of the Gram matrix of its constraints instead of an SVD.

The X1 step takes a Hermitian, C-contiguous matrix and works on its flat
float64 view through the maps of :func:`~qbp.model.hermitian_coordinates`:
one gather reads the diagonal and the upper triangle, two matrix-vector
products with the coordinate weights folded into their columns correct them,
and one scatter writes an exactly Hermitian matrix back.

One over-relaxed ADMM step at fixed rho is a map T of the state (Z, Y1, Y2),
and the loop Anderson-accelerates it: type II, as in Walker & Ni 2011
(SIAM J. Numer. Anal.), with the safeguard of Zhang, O'Donoghue & Boyd 2020
(SIAM J. Optim.).  The next state is T(u) - dG gamma, where gamma fits the
current residual f(u) = T(u) - u by the last ANDERSON_MEMORY residual
differences dF in regularized least squares and dG holds the matching
differences of T.  An extrapolated point u is kept only while

    ||f(u)|| <= D * ||f(u0)|| * (accepted / ANDERSON_MEMORY + 1) ** -(1 + eps),

with u0 the run's first state, ``accepted`` the extrapolations kept so far,
D = ANDERSON_SAFEGUARD_D and eps = ANDERSON_SAFEGUARD_EPS.  A rejected point
is discarded, and the loop continues from the plain step it was made from
with an empty memory.  A change of rho changes T, so it also empties the
memory.  Every evaluation of T, a discarded one too, counts as an iteration.
The loop allocates one workspace per solve and otherwise only the matrices
its steps return.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from qbp.model import (
    QuadraticSystem,
    _flat,
    _require_nonnegative,
    constraint_system,
    hermitian_coordinates,
    measure_lifted,
    real_measurement_matrix,
)

__all__ = [
    "InfeasibleProjectionError",
    "SolverConfig",
    "SolverResult",
    "AffineProjector",
    "project_psd",
    "soft_threshold",
    "update_z",
    "update_rho",
    "data_residual",
    "solve",
    "solve_denoising",
]


logger = logging.getLogger(__name__)

# Over-relaxation weight (Boyd et al. 2011, section 3.4.3): the consensus and
# dual steps see ALPHA * X + (1 - ALPHA) * Z_prev in place of X.
ALPHA = 1.8

# A least-squares residual norm above this multiple of the data norm means the
# measurements admit no feasible point, in the equality or the budget program.
INFEASIBLE_RTOL = 1e-6

# The budget projection aims at residual norm sqrt(epsilon) - BUDGET_MARGIN *
# ||y||, so the residual recomputed from the returned matrix stays within
# epsilon after rounding.
BUDGET_MARGIN = 1e-10

# Newton on the secular equation stops once the residual norm is within this
# relative distance of its target, or after SECULAR_MAX_STEPS steps.
SECULAR_RTOL = 1e-12
SECULAR_MAX_STEPS = 50

# Anderson acceleration (see the module docstring): the number of differences
# kept, the constants D and eps of the safeguard bound
# D * ||f(u0)|| * (accepted / ANDERSON_MEMORY + 1) ** -(1 + eps) on an
# extrapolated point's fixed-point residual norm, and the ridge weight of the
# least-squares fit relative to the trace of its Gram matrix.
ANDERSON_MEMORY = 10
ANDERSON_SAFEGUARD_D = 1e6
ANDERSON_SAFEGUARD_EPS = 1e-6
ANDERSON_REG = 1e-10

# Residual balancing (Boyd et al. 2011, section 3.4.1): rho starts at RHO0 and
# is multiplied or divided by RHO_FACTOR whenever one residual norm exceeds
# RHO_BALANCE times the other, unless that would leave [RHO_MIN, RHO_MAX].
# Under Anderson acceleration the residual ratio swings by about an order of
# magnitude from one iteration to the next, and every change of rho empties
# the memory.  With Boyd's band of 10 those swings made rho flip 11-35 times
# per holes-preset solve, at iterations that rounding decides, so a mere
# relabelling of the unknowns moved the iteration count between 554 and 1085
# (80 relabellings); a band of 20 leaves rho fixed after the first 16
# iterations there and keeps the count within 604-945 at the same median.
RHO0 = 1.0
RHO_BALANCE = 20.0
RHO_FACTOR = 2.0
RHO_MIN = 1e-8
RHO_MAX = 1e8


class InfeasibleProjectionError(ValueError):
    """No Hermitian matrix with unit corner fits the data within the budget."""


@dataclass(frozen=True)
class SolverConfig:
    eps_abs: float = 1e-3
    eps_rel: float = 1e-3
    max_iters: int = 10000

    def __post_init__(self):
        _require_nonnegative("eps_abs", self.eps_abs)
        _require_nonnegative("eps_rel", self.eps_rel)
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass(frozen=True)
class SolverResult:
    """Final iterate plus per-iteration telemetry.

    ``Z`` is the consensus iterate for :func:`solve` and, for
    :func:`solve_denoising`, the last budget copy X1, which meets the
    residual budget exactly where the consensus iterate meets it only up to
    the primal residual.  ``residuals`` has one row per iteration with
    columns (primal norm, dual norm, rho).  ``objective`` has one entry per
    iteration, Tr(M) + lam * ||M||_1 at that iteration's candidate for the
    returned matrix: its consensus iterate for :func:`solve`, its budget
    copy X1 for :func:`solve_denoising`.  So ``objective[-1]`` is the
    objective of the returned ``Z``.  ``data_residual`` is the sum of
    squared measurement residuals at the returned ``Z``.

    ``termination`` is ``"converged"``, ``"max_iters"`` or ``"diverged"`` (a
    residual went non-finite).
    """

    Z: np.ndarray
    iterations: int
    termination: str
    residuals: np.ndarray
    objective: np.ndarray
    lam: float
    rho_final: float
    data_residual: float

    @property
    def converged(self) -> bool:
        return self.termination == "converged"


class _PenalizedStep:
    """Frobenius projection onto {X Hermitian: X[0,0] = 1, ||A(X) - y||^2 <= epsilon}.

    The input must be Hermitian and is not modified; the output is exactly
    Hermitian with X[0, 0] == 1.  A call reads the diagonal and the upper
    triangle of its input with one gather into a coordinate buffer, pins the
    corner coordinate to 1, corrects the rest v with matrices whose columns
    carry the coordinate ``weights`` of :func:`~qbp.model.hermitian_coordinates`,
    and writes an exactly Hermitian matrix back with one scatter.

    Off the corner this is the penalized prox argmin ||X - M||^2 + mu *
    ||A(X) - y||^2 with the weight mu solved for in each call.  In the thin
    SVD B = U diag(s) V^T of the measurement matrix (minus its corner column)
    the squared residual of the prox is the secular function

        phi(mu) = sum_i (s_i c_i - h_i)^2 / (1 + mu s_i^2)^2 + ||g_perp||^2,

    with c = V^T (weights * x), x the coordinates of M, h = U^T g,
    g = y - B e_0 and g_perp the part of g outside range(B).  phi decreases
    in mu and phi^(-1/2) is concave, so Newton on phi^(-1/2) = radius^(-1)
    converges monotonically (Moré & Sorensen 1983); it starts from the
    previous call's mu.  An input inside the budget is returned with only
    its corner set.  A budget at or below
    the floor ||g_perp||^2 gives the affine limit mu -> inf, the exact
    projection v - back^T (fwd v - target) onto the least-squares solutions,
    here with target = h / s.  V^T is stored twice, with the weights folded
    into its columns (fwd) and divided out of them (back).
    """

    def __init__(self, system: QuadraticSystem, epsilon: float):
        _require_nonnegative("epsilon", epsilon)
        B, y = real_measurement_matrix(system)
        g = y - B[:, 0]
        B1 = B[:, 1:]
        U, s, Vt = np.linalg.svd(B1, full_matrices=False)
        rank = int(np.count_nonzero(
            s > s.max(initial=0.0) * max(B1.shape) * np.finfo(float).eps))
        U, s, Vt = U[:, :rank], s[:rank], Vt[:rank]
        h = U.T @ g
        weights = self._start(system, _sqnorm(g - U @ h), epsilon)
        self._fwd = Vt * weights
        self._back = Vt / weights
        if self._radius is None:
            self._target = h / s
        else:
            self._s, self._s2, self._h = s, s * s, h
            self._mu = 0.0

    def _start(self, system: QuadraticSystem, floor: float, epsilon: float) -> np.ndarray:
        """Check the budget against the least-squares floor and set up the maps.

        Both tolerances scale with max(||y||, 1), so an all-zero ``y`` keeps
        them.  Returns the weights of the off-corner coordinates.
        """
        scale = max(float(np.linalg.norm(system.y)), 1.0)
        if math.sqrt(floor) > math.sqrt(epsilon) + INFEASIBLE_RTOL * scale:
            raise InfeasibleProjectionError(
                f"residual budget {epsilon:.3e} is below the least-squares"
                f" floor {floor:.3e}"
            )
        self._floor = floor
        radius = math.sqrt(epsilon) - BUDGET_MARGIN * scale
        # None marks the affine limit: no smaller residual than the floor exists
        self._radius = radius if radius > 0.0 and radius * radius > floor else None
        m = self._m = system.n + 1
        self._gather, self._src, self._coef, weights = hermitian_coordinates(m)
        # the coordinates, then the zero slot the scatter reads
        self._x = np.zeros(m * m + 1)
        return weights[1:]

    def __call__(self, M) -> np.ndarray:
        x = self._x
        x[:-1] = _flat(np.asarray(M, dtype=complex))[self._gather]
        x[0] = 1.0
        v = x[1:-1]
        c = self._fwd @ v
        radius = self._radius
        if radius is None:
            c -= self._target
            v -= c @ self._back
        else:
            t = self._s * c - self._h
            r2 = t * t
            phi = float(r2.sum()) + self._floor
            if phi > radius * radius:
                s2r2 = self._s2 * r2
                mu = self._mu
                for _ in range(SECULAR_MAX_STEPS):
                    q = 1.0 / (1.0 + mu * self._s2)
                    q2 = q * q
                    phi = float(r2 @ q2) + self._floor
                    gap = math.sqrt(phi) / radius - 1.0
                    if abs(gap) <= SECULAR_RTOL:
                        break
                    # Newton step on phi^(-1/2); a step past zero restarts from the left
                    slope = 2.0 * float(s2r2 @ (q2 * q))
                    mu = max(mu + 2.0 * phi * gap / slope, 0.0)
                else:
                    q = 1.0 / (1.0 + mu * self._s2)
                self._mu = mu
                v += (-mu * q * self._s * t) @ self._back
        X = np.empty((self._m, self._m), dtype=complex)
        np.multiply(x[self._src], self._coef, out=_flat(X))
        return X


class AffineProjector(_PenalizedStep):
    """Frobenius projection onto {X Hermitian: Tr(Phi_i X) = y_i, X[0,0] = 1}.

    The budget step at epsilon = 0, built from the constraint matrix A1 of
    :func:`~qbp.model.constraint_system` (without its corner row and column)
    and g = b - A e_0: fwd = A1, back = G^+ A1 and target = g, with the
    coordinate weights folded in as in the budget step.  G^+ comes from an
    ``eigh`` of the Gram matrix G = A1 A1^T, which is far cheaper than the
    budget step's SVD; eigenvalues at or below max(A1.shape) * eps times the
    largest count as zero, so duplicated measurements (rank-deficient A1)
    project like the pseudoinverse does.
    """

    def __init__(self, system: QuadraticSystem):
        A, b = constraint_system(system)
        A1 = A[:-1, 1:]
        g = b[:-1] - A[:-1, 0]
        w, U = np.linalg.eigh(A1 @ A1.T)
        keep = w > w.max(initial=0.0) * max(A1.shape) * np.finfo(float).eps
        w, U = w[keep], U[:, keep]
        weights = self._start(system, _sqnorm(g - U @ (U.T @ g)), 0.0)
        self._fwd = A1 * weights
        back = ((U / w) @ U.T) @ A1
        back /= weights
        self._back = back
        self._target = g


def project_psd(M) -> np.ndarray:
    """Nearest positive-semidefinite matrix to a Hermitian ``M`` in Frobenius norm.

    ``M`` must be Hermitian: ``eigh`` reads one triangle only.  A PSD ``M`` is
    returned itself.  Otherwise the projection is rebuilt from whichever
    eigen-part is smaller, ``M - V_neg diag(w_neg) V_neg^H`` or
    ``V_pos diag(w_pos) V_pos^H``, and symmetrized once, so the result is
    exactly Hermitian with an exactly real diagonal.
    """
    w, V = np.linalg.eigh(M)
    neg = int(np.searchsorted(w, 0.0))
    if neg == 0:
        return M
    if 2 * neg < w.size:
        Vn = V[:, :neg]
        P = M - (Vn * w[:neg]) @ Vn.conj().T
    else:
        Vp = V[:, neg:]
        P = (Vp * w[neg:]) @ Vp.conj().T
    P += P.conj().T
    P *= 0.5
    return P


def _shrink_scale(x: np.ndarray, q: float) -> np.ndarray:
    """Entrywise factors max(|x| - q, 0) / |x| of the soft threshold (0 at x = 0)."""
    mag = np.abs(x)
    scale = mag - q
    np.maximum(scale, 0.0, out=scale)
    # divide only where the entry survives: |x| = 0 with q = 0 must give 0, not 0/0
    np.divide(scale, mag, out=scale, where=mag > q)
    return scale


def soft_threshold(x: np.ndarray, q: float) -> np.ndarray:
    """Complex soft threshold of an array: 0 where |x| <= q, else shrink |x| by q."""
    return x * _shrink_scale(x, q)


def update_z(X1, X2, Y1, Y2, rho: float, lam: float) -> np.ndarray:
    """Consensus update: shrink the dual-corrected primal average.

    Hermitian inputs give an exactly Hermitian result, because the average
    and the shrink scale are both entrywise and |conj(v)| = |v|.  The average
    is a new array, shrunk in place and returned.
    """
    V = X1 + X2
    W = Y1 + Y2
    W /= rho
    V += W
    V *= 0.5
    V *= _shrink_scale(V, 0.5 * lam / rho)
    return V


def update_rho(rho: float, r_norm: float, s_norm: float) -> float:
    """Rebalance the penalty; skipped when it would leave [RHO_MIN, RHO_MAX]."""
    if r_norm > RHO_BALANCE * s_norm:
        new = rho * RHO_FACTOR
    elif s_norm > RHO_BALANCE * r_norm:
        new = rho / RHO_FACTOR
    else:
        return rho
    if new < RHO_MIN or new > RHO_MAX:
        return rho
    return new


def data_residual(system: QuadraticSystem, X) -> float:
    """Sum of squared measurement residuals |y_i - Tr(Phi_i X)|^2."""
    diff = system.y - measure_lifted(system, X)
    return float(np.vdot(diff, diff).real)


def _sqnorm(A: np.ndarray) -> float:
    """Squared Frobenius norm of a contiguous array, as one real dot product."""
    f = _flat(A)
    return float(f @ f)


def _admm(system: QuadraticSystem, lam: float, config: SolverConfig, x1_step,
          setup_s: float, return_x1: bool):
    start = time.perf_counter()
    m = system.n + 1
    eye = np.eye(m, dtype=complex)
    # the state u = (Z, Y1, Y2) and its image g = T(u) under one ADMM step live
    # in three (3, m, m) buffers, swapped rather than copied: u, the last
    # plain image g_prev (which may be u itself) and the one being written
    bufs = np.zeros((3, 3, m, m), dtype=complex)
    bufs[0, 0] = eye
    flats = [_flat(b) for b in bufs]
    iu = ip = 0
    rho = RHO0
    dim = float(system.n)

    # one workspace for the solve: the X1 and X2 arguments, the relaxed
    # copies H1 and H2, and the five matrices whose squared norms the
    # stopping test reads, reduced in one batched dot
    work = np.empty((9, m, m), dtype=complex)
    arg1, arg2, H1, H2 = work[:4]
    diffs = work[4:]
    diff_flat = diffs.reshape(5, -1).view(np.float64)
    sq = np.empty(5)
    mag = np.empty((m, m))

    # Anderson memory: a ring of differences of residuals f = g - u (rows of
    # W, followed by the rows fk and fp holding f and the previous f) and of
    # images g, plus the Gram matrix of the f differences
    size_d = flats[0].size
    W = np.empty((ANDERSON_MEMORY + 2, size_d))
    dF = W[:ANDERSON_MEMORY]
    fk, fp = ANDERSON_MEMORY, ANDERSON_MEMORY + 1
    dG = np.empty((ANDERSON_MEMORY, size_d))
    gram = np.empty((ANDERSON_MEMORY, ANDERSON_MEMORY))
    cols = head = 0
    have_prev = extrapolated = False
    f0 = 0.0
    accepted = rejected = restarts = 0

    # traces grow by doubling, so a huge max_iters reserves no memory up front
    size = min(config.max_iters, 1024)
    residuals = np.empty((size, 3))
    objective = np.empty(size)
    termination = "max_iters"
    iterations = config.max_iters
    chatty = logger.isEnabledFor(logging.DEBUG)
    for it in range(1, config.max_iters + 1):
        Z_prev, Y1, Y2 = bufs[iu]
        ig = 3 - iu - ip if iu != ip else (iu + 1) % 3
        Z_out, Y1_out, Y2_out = bufs[ig]
        # X1 from Z_prev - (I + Y1) / rho, X2 from Z_prev - Y2 / rho
        np.add(Y1, eye, out=arg1)
        arg1 /= rho
        np.subtract(Z_prev, arg1, out=arg1)
        np.divide(Y2, rho, out=arg2)
        np.subtract(Z_prev, arg2, out=arg2)
        X1 = x1_step(arg1)
        X2 = project_psd(arg2)
        # the relaxed copies feed the Z and dual steps; the residuals use X1, X2
        base = diffs[0]
        np.multiply(Z_prev, 1.0 - ALPHA, out=base)
        np.multiply(X1, ALPHA, out=H1)
        H1 += base
        np.multiply(X2, ALPHA, out=H2)
        H2 += base
        Z = update_z(H1, H2, Y1, Y2, rho, lam)
        Z_out[...] = Z
        H1 -= Z
        H1 *= rho
        np.add(Y1, H1, out=Y1_out)
        H2 -= Z
        H2 *= rho
        np.add(Y2, H2, out=Y2_out)

        np.subtract(X1, Z, out=diffs[0])
        np.subtract(X2, Z, out=diffs[1])
        np.subtract(Z, Z_prev, out=diffs[2])
        np.add(X1, X2, out=diffs[3])
        np.add(Y1_out, Y2_out, out=diffs[4])
        np.einsum("ij,ij->i", diff_flat, diff_flat, out=sq)
        r_norm = math.sqrt(sq[0] + sq[1])
        s_norm = rho * math.sqrt(2.0 * sq[2])
        xbar_norm = 0.5 * math.sqrt(sq[3])
        ybar_norm = 0.5 * math.sqrt(sq[4])
        eps_pri = dim * config.eps_abs + config.eps_rel * max(xbar_norm, math.sqrt(_sqnorm(Z)))
        eps_dual = dim * config.eps_abs + config.eps_rel * ybar_norm

        if it > size:
            size = min(2 * size, config.max_iters)
            residuals = np.resize(residuals, (size, 3))
            objective = np.resize(objective, size)
        residuals[it - 1] = (r_norm, s_norm, rho)
        answer = X1 if return_x1 else Z
        np.abs(answer, out=mag)
        objective[it - 1] = answer.trace().real + lam * mag.sum()
        if not (math.isfinite(r_norm) and math.isfinite(s_norm)):
            termination = "diverged"
            iterations = it
            break
        if chatty and it % 100 == 0:
            logger.debug(
                "iter %d: r=%.3e s=%.3e rho=%.3e obj=%.6f",
                it, r_norm, s_norm, rho, objective[it - 1],
            )

        if r_norm <= eps_pri and s_norm <= eps_dual:
            termination = "converged"
            iterations = it
            break

        new_rho = update_rho(rho, r_norm, s_norm)

        u_flat, g_flat, f = flats[iu], flats[ig], W[fk]
        np.subtract(g_flat, u_flat, out=f)
        f_norm = math.sqrt(float(f @ f))
        if it == 1:
            f0 = f_norm
        if extrapolated and f_norm > ANDERSON_SAFEGUARD_D * f0 * (
                accepted / ANDERSON_MEMORY + 1.0) ** -(1.0 + ANDERSON_SAFEGUARD_EPS):
            # discard the extrapolated point and its image; continue from the
            # plain image it was extrapolated from, with an empty memory
            rejected += 1
            iu = ip
            cols = head = 0
            have_prev = extrapolated = False
            rho = new_rho
            continue
        accepted += extrapolated
        extrapolated = False
        if new_rho != rho:
            # a new rho is a new map: its differences do not mix with the old
            restarts += cols > 0
            cols = head = 0
        elif have_prev:
            j = head
            np.subtract(f, W[fp], out=dF[j])
            np.subtract(g_flat, flats[ip], out=dG[j])
            cols = min(cols + 1, ANDERSON_MEMORY)
            head = (head + 1) % ANDERSON_MEMORY
            # one pass over dF against the strided pair (dF[j], f) gives the
            # new Gram row and the right side of the fit
            prod = dF[:cols] @ W[j:fk + 1:fk - j].T
            gram[j, :cols] = prod[:, 0]
            gram[:cols, j] = prod[:, 0]
            G = gram[:cols, :cols]
            reg = ANDERSON_REG * G.trace()
            # an all-zero memory (reg == 0) has nothing to fit
            if reg > 0.0:
                # type-II step: u = g - dG gamma with gamma the regularized
                # least-squares fit of f by dF; the old u buffer takes it
                gamma = np.linalg.solve(G + reg * np.eye(cols), prod[:, 1])
                np.dot(gamma, dG[:cols], out=u_flat)
                np.subtract(g_flat, u_flat, out=u_flat)
                extrapolated = True
        have_prev = new_rho == rho
        rho = new_rho
        fk, fp = fp, fk
        if extrapolated:
            ip = ig
        else:
            iu = ip = ig

    logger.debug(
        "terminated (%s) after %d iterations: %d extrapolations accepted,"
        " %d rejected, %d memory restarts on a rho change; setup %.4f s,"
        " loop %.4f s",
        termination, iterations, accepted, rejected, restarts, setup_s,
        time.perf_counter() - start,
    )
    return (answer, iterations, termination, residuals[:iterations].copy(),
            objective[:iterations].copy(), rho)


def _solve(system: QuadraticSystem, lam: float, config: SolverConfig | None,
           make_step, return_x1: bool = False) -> SolverResult:
    """Build the X1 step from ``system``, run the loop and assemble the result."""
    _require_nonnegative("lam", lam)
    config = config or SolverConfig()
    start = time.perf_counter()
    step = make_step(system)
    setup_s = time.perf_counter() - start
    Z, iterations, termination, res, obj, rho = _admm(
        system, lam, config, step, setup_s, return_x1)
    return SolverResult(Z=Z, iterations=iterations, termination=termination,
                        residuals=res, objective=obj, lam=lam, rho_final=rho,
                        data_residual=data_residual(system, Z))


def solve(system: QuadraticSystem, lam: float = 1.0,
          config: SolverConfig | None = None) -> SolverResult:
    """Solve the equality-constrained lifted program.

    Raises :class:`InfeasibleProjectionError` when the measurement
    constraints admit no Hermitian matrix at all.
    """
    return _solve(system, lam, config, AffineProjector)


def solve_denoising(system: QuadraticSystem, lam: float, epsilon: float,
                    config: SolverConfig | None = None) -> SolverResult:
    """Solve the residual-budget program with one ADMM run.

    The X1 step is the exact projection onto {X00 = 1, sum of squared
    residuals <= epsilon} (:class:`_PenalizedStep`).  The returned ``Z`` is
    the last such projected copy, so ``data_residual <= epsilon``.

    Raises :class:`InfeasibleProjectionError` when ``epsilon`` lies below the
    least-squares floor of the measurements by more than rounding.
    """
    return _solve(system, lam, config,
                  lambda s: _PenalizedStep(s, epsilon), return_x1=True)
