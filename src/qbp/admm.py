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
constructor body builds both X1 steps from an ``eigh`` of the Gram matrix of
the measurement rows: the budget step (:class:`_PenalizedStep`) reads those of
:func:`~qbp.model.real_measurement_matrix`, the equality step
(:class:`AffineProjector`) those of :func:`~qbp.model.constraint_system`.

The loop holds every Hermitian matrix as its (n+1)^2 weighted coordinates
(:func:`~qbp.model.hermitian_coordinates`): the diagonal, then sqrt(2) times
the real and the imaginary parts of the upper triangle.  Plain dot products
of coordinates are Frobenius products, so the stopping test and the
Anderson fit read them directly.  The X1 step maps coordinates to
coordinates: it pins the corner and applies one matrix V^T with orthonormal
rows, forward and back.  Only :func:`project_psd` sees a complex matrix: one
scatter writes its argument, one gather reads the projection back, and one
more scatter writes the returned matrix at the end.

The penalty rho balances the residuals that the stopping test reads, as in
OSQP (Stellato et al. 2020, Math. Prog. Comp.): the loop stops once the
primal residual r <= eps_pri and the dual residual s <= eps_dual, and rho is
doubled or halved whenever r / eps_pri and s / eps_dual differ by more than
RHO_BALANCE (:func:`update_rho`, fed r * eps_dual and s * eps_pri).  With
eps_abs = eps_rel = 0 both products are 0, so rho stays at RHO0.

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
The loop allocates its state, workspace and Anderson buffers once per solve
and keeps no history: it returns where it stopped, the last iteration's
residuals and rho.  The X1 step overwrites its argument and
:func:`update_z` into the consensus state buffer, with its temporaries in
the workspace, so an iteration allocates only what :func:`project_psd`
returns and vectors of the length of the measurement count or the Anderson
memory.
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
    _require_integer,
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

# Residual balancing on the residuals scaled by their tolerances (see the
# module docstring and :func:`update_rho`): rho starts at RHO0 and moves by a
# factor RHO_FACTOR within [RHO_MIN, RHO_MAX] whenever r / eps_pri and
# s / eps_dual differ by more than RHO_BALANCE.  Every change of rho empties
# the Anderson memory.  Against a band of 20, over ten relabellings of each
# benchmark workload, a band of 10 took 9-12% more iterations on the table
# and 30% more on the phantom (28% fewer on the holes preset), and a band of
# 40 took 0.6% more on the table, 8% more on the phantom and the same on the
# holes preset.
RHO0 = 1.0
RHO_BALANCE = 20.0
RHO_FACTOR = 2.0
RHO_MIN = 1e-8
RHO_MAX = 1e8

_SMALLEST_SUBNORMAL = np.finfo(float).smallest_subnormal
_SQRT2 = math.sqrt(2.0)


class InfeasibleProjectionError(ValueError):
    """No Hermitian matrix with unit corner fits the data within the budget."""


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule of the ADMM loop.

    A run converges once the primal residual is at most
    eps_pri = n * eps_abs + eps_rel * max(||(X1 + X2) / 2||, ||Z||) and the
    dual residual at most eps_dual = n * eps_abs + eps_rel * ||(Y1 + Y2) / 2||
    (Frobenius norms, n the signal length), or stops after ``max_iters``
    iterations.  The same two tolerances steer rho (:func:`update_rho`), so
    with eps_abs = eps_rel = 0 rho stays at RHO0.
    """

    eps_abs: float = 1e-3
    eps_rel: float = 1e-3
    max_iters: int = 10000

    def __post_init__(self):
        _require_nonnegative("eps_abs", self.eps_abs)
        _require_nonnegative("eps_rel", self.eps_rel)
        _require_integer("max_iters", self.max_iters)
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass(frozen=True)
class SolverResult:
    """Where a solve stopped: the returned matrix and the loop's final state.

    ``Z`` is the consensus iterate for :func:`solve` and, for
    :func:`solve_denoising`, the last budget copy X1, which meets the
    residual budget exactly where the consensus iterate meets it only up to
    the primal residual.  ``termination`` is ``"converged"``,
    ``"max_iters"`` or ``"diverged"`` (a residual went non-finite) after
    ``iterations`` iterations.

    ``primal_residual`` and ``dual_residual`` are the r and s of the last
    iteration, which the stopping test compared with eps_pri and eps_dual
    (:class:`SolverConfig`), and ``rho_final`` is the penalty after it.
    ``objective`` is Tr(Z) + lam * sum |Z_ij| and ``data_residual`` the sum
    of squared measurement residuals, both at the returned ``Z``.
    """

    Z: np.ndarray
    iterations: int
    termination: str
    lam: float
    rho_final: float
    primal_residual: float
    dual_residual: float
    objective: float
    data_residual: float

    @property
    def converged(self) -> bool:
        return self.termination == "converged"


class _PenalizedStep:
    """Frobenius projection onto {X Hermitian: X[0,0] = 1, ||A(X) - y||^2 <= epsilon}.

    A call takes the weighted coordinates x of a Hermitian matrix
    (:func:`~qbp.model.hermitian_coordinates`), in which Frobenius geometry is
    plain Euclidean geometry, overwrites them with those of the projection
    and returns x.  The corner coordinate is pinned to 1 and the rest, v,
    corrected by one matrix V^T with orthonormal rows, applied in both
    directions.

    Off the corner this is the penalized prox argmin ||X - M||^2 + mu *
    ||A(X) - y||^2 with the weight mu solved for in each call.  Split the
    measurement rows (A, b) at the corner column, A = [a0, A1] and
    g = b - a0, and factor G = A1 A1^T = U diag(s^2) U^T by ``eigh``,
    dropping eigenvalues at or below max(A1.shape) * eps times the largest.
    With V^T = diag(1/s) U^T A1 the squared residual of the prox is the
    secular function

        phi(mu) = sum_i (s_i c_i - h_i)^2 / (1 + mu s_i^2)^2 + ||g_perp||^2,

    with c = V^T v, h = U^T g and g_perp = g - U h the part of g outside
    range(A1).  phi decreases in mu and phi^(-1/2) is concave, so Newton on
    phi^(-1/2) = radius^(-1) converges monotonically (Moré & Sorensen 1983);
    it starts from the previous call's mu.  An input inside the budget is
    returned with only its corner set.  A budget at or below the floor
    ||g_perp||^2 gives the affine limit mu -> inf, the exact projection
    v - V (V^T v - h / s) onto the least-squares solutions, which is
    v - A1^+ (A1 v - g) with the rank cutoff above, so duplicated
    measurements (rank-deficient A1) project like the pseudoinverse does.
    """

    def __init__(self, system: QuadraticSystem, epsilon: float):
        self._build(system, epsilon, *real_measurement_matrix(system))

    def _build(self, system: QuadraticSystem, epsilon: float, A, b) -> None:
        """Factor the rows (A, b), check the budget against their floor, set up V^T.

        Both tolerances scale with max(||y||, 1), so an all-zero ``y`` keeps them.
        """
        _require_nonnegative("epsilon", epsilon)
        A1 = A[:, 1:]
        g = b - A[:, 0]
        w, U = np.linalg.eigh(A1 @ A1.T)
        keep = w > w.max(initial=0.0) * max(A1.shape) * np.finfo(float).eps
        w, U = w[keep], U[:, keep]
        h = U.T @ g
        floor = _sqnorm(g - U @ h)
        scale = max(float(np.linalg.norm(system.y)), 1.0)
        if math.sqrt(floor) > math.sqrt(epsilon) + INFEASIBLE_RTOL * scale:
            message = f"inconsistent measurements: least-squares floor {floor:.3e}"
            if epsilon > 0.0:
                message += f" exceeds the residual budget {epsilon:.3e}"
            raise InfeasibleProjectionError(message)
        self._floor = floor
        radius = math.sqrt(epsilon) - BUDGET_MARGIN * scale
        # None marks the affine limit: no smaller residual than the floor exists
        self._radius = radius if radius > 0.0 and radius * radius > floor else None
        s = np.sqrt(w)
        self._Vt = (U / s).T @ A1
        if self._radius is None:
            self._target = h / s
        else:
            self._s, self._s2, self._h, self._mu = s, w, h, 0.0

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x[0] = 1.0
        v = x[1:]
        Vt = self._Vt
        c = Vt @ v
        radius = self._radius
        if radius is None:
            c -= self._target
            v -= c @ Vt
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
                v += (-mu * q * self._s * t) @ Vt
        return x


class AffineProjector(_PenalizedStep):
    """Frobenius projection onto {X Hermitian: Tr(Phi_i X) = y_i, X[0,0] = 1}.

    The budget step at epsilon = 0, built by the same constructor body from
    the rows of :func:`~qbp.model.constraint_system`, which leaves out the
    identically zero imaginary rows of real-valued measurements and so
    factors a smaller Gram matrix.  Raises
    :class:`InfeasibleProjectionError` when the measurements admit no
    Hermitian matrix at all.
    """

    def __init__(self, system: QuadraticSystem):
        self._build(system, 0.0, *constraint_system(system))


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


def soft_threshold(x: np.ndarray, q: float) -> np.ndarray:
    """Complex soft threshold of an array: 0 where |x| <= q, else shrink |x| by q."""
    mag = np.abs(x)
    scale = mag - q
    np.maximum(scale, 0.0, out=scale)
    # |x| = 0 with q = 0 must give 0, not 0/0: the floor changes no other
    # quotient, since every nonzero magnitude is at least the floor
    scale /= np.maximum(mag, _SMALLEST_SUBNORMAL)
    return x * scale


def update_z(X1, X2, Y1, Y2, rho: float, lam: float, out=None, work=None) -> np.ndarray:
    """Consensus update: shrink the dual-corrected primal average.

    The arguments are weighted coordinates of Hermitian (n+1) x (n+1)
    matrices (:func:`~qbp.model.hermitian_coordinates`).  The average is
    soft-thresholded as a matrix at q = lam / (2 rho): each diagonal
    coordinate at q, and each (Re, Im) pair of an upper-triangle entry, whose
    norm is sqrt(2) times the entry's magnitude, at sqrt(2) q, with the
    magnitude from ``hypot``.  Exact zeros stay zero.  The average is written
    to ``out`` (a new array by default), shrunk in place and returned;
    ``work``, a float buffer of at least (n+1)^2 + n + 1 entries, holds the
    temporaries, which are allocated when it is None.
    """
    d = X1.size
    m = math.isqrt(d)
    k = (d - m) // 2
    if work is None:
        work = np.empty(d + m)
    V = np.add(X1, X2, out=out)
    W = np.add(Y1, Y2, out=work[:d])
    W /= rho
    V += W
    V *= 0.5
    q = 0.5 * lam / rho
    # magnitudes and factors max(|x| - q, 0) / |x|: the diagonal's m, then
    # one per upper-triangle pair
    mag, scale = work[:m + k], work[m + k:d + m]
    np.abs(V[:m], out=mag[:m])
    np.hypot(V[m:m + k], V[m + k:], out=mag[m:])
    np.subtract(mag[:m], q, out=scale[:m])
    np.subtract(mag[m:], _SQRT2 * q, out=scale[m:])
    np.maximum(scale, 0.0, out=scale)
    # |x| = 0 with q = 0 must give 0, not 0/0: the floor changes no other
    # quotient, since every nonzero magnitude is at least the floor
    np.maximum(mag, _SMALLEST_SUBNORMAL, out=mag)
    scale /= mag
    V[:m] *= scale[:m]
    pairs = V[m:].reshape(2, k)
    np.multiply(pairs, scale[m:], out=pairs)
    return V


def update_rho(rho: float, r_norm: float, s_norm: float) -> float:
    """Rebalance the penalty; skipped when it would leave [RHO_MIN, RHO_MAX].

    rho is multiplied by RHO_FACTOR when ``r_norm`` exceeds RHO_BALANCE times
    ``s_norm`` and divided by it in the opposite case.  The loop passes the
    residuals cross-multiplied by the stopping tolerances, r * eps_dual and
    s * eps_pri, so it compares r / eps_pri with s / eps_dual without a
    division.  With eps_abs = eps_rel = 0 both arguments are 0 and rho stays
    where it is, at RHO0.
    """
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


def _coordinate_maps(m: int):
    """The loop's maps between an m x m Hermitian matrix and its weighted coordinates.

    Returns ``(gather, weights, src, unweigh)``: the first two read the
    coordinates (:func:`_gather`), the last two write them back with the
    weights divided out (:func:`_scatter`).
    """
    gather, src, coef, weights = hermitian_coordinates(m)
    return gather, weights, src, coef / np.append(weights, 1.0)[src]


# The index maps are in range, and a take with mode "clip" into ``out`` skips
# the bounds-checked copy that the default mode makes.

def _gather(P: np.ndarray, maps, out: np.ndarray) -> np.ndarray:
    """Write the weighted coordinates of the Hermitian, C-contiguous ``P`` to ``out``."""
    _flat(P).take(maps[0], out=out, mode="clip")
    out *= maps[1]
    return out


def _scatter(x: np.ndarray, maps, out: np.ndarray) -> np.ndarray:
    """Write the Hermitian matrix with weighted coordinates ``x[:-1]`` to ``out``.

    ``out`` is the flat float64 view of a C-contiguous complex matrix, and
    ``x`` ends in one zero slot, which the imaginary diagonal reads, so the
    matrix is exactly Hermitian.  Each off-diagonal part comes back from
    :func:`_gather` within one unit in the last place (the weight sqrt(2)
    is not a binary fraction); the diagonal comes back exactly.
    """
    x.take(maps[2], out=out, mode="clip")
    out *= maps[3]
    return out


def _admm(system: QuadraticSystem, lam: float, config: SolverConfig, x1_step,
          setup_s: float, return_x1: bool):
    start = time.perf_counter()
    m = system.n + 1
    d = m * m
    # the PSD step alone sees a matrix, scattered into M and gathered back
    maps = _coordinate_maps(m)
    M = np.empty((m, m), dtype=complex)
    M_flat = _flat(M)
    # the state u = (Z, Y1, Y2) and its image g = T(u) under one ADMM step live
    # in three (3, d) buffers of coordinates, swapped rather than copied: u,
    # the last plain image g_prev (which may be u itself) and the one being
    # written
    bufs = np.zeros((3, 3, d))
    bufs[0, 0, :m] = 1.0
    flats = [b.reshape(-1) for b in bufs]
    iu = ip = 0
    rho = RHO0
    dim = float(system.n)

    # one workspace for the solve: the X1 and X2 arguments (each followed by
    # the scatter's zero slot), X2, the relaxed copies H1 and H2, and the
    # five vectors whose squared norms the stopping test reads, reduced in
    # one batched dot; the first two of those are free while update_z runs
    padded = np.zeros((2, d + 1))
    args = padded[:, :d]
    work = np.empty((8, d))
    X2, H, diffs = work[0], work[1:3], work[3:]
    shrink_work = diffs[:2].reshape(-1)
    sq = np.empty(5)
    # the shifts of (Y1, Y2) in the step arguments: the coordinates of I,
    # and -0.0, which adds to every float, signed zeros included, without
    # changing it
    shift = np.full((2, d), -0.0)
    shift[0] = 0.0
    shift[0, :m] = 1.0

    # Anderson memory: a ring of differences of residuals f = g - u (rows of
    # W, followed by the rows fk and fp holding f and the previous f) and of
    # images g, plus the Gram matrix of the f differences and the identity
    # of its ridge term
    size_d = flats[0].size
    W = np.empty((ANDERSON_MEMORY + 2, size_d))
    dF = W[:ANDERSON_MEMORY]
    fk, fp = ANDERSON_MEMORY, ANDERSON_MEMORY + 1
    dG = np.empty((ANDERSON_MEMORY, size_d))
    gram = np.empty((ANDERSON_MEMORY, ANDERSON_MEMORY))
    ridge = np.eye(ANDERSON_MEMORY)
    cols = head = 0
    have_prev = extrapolated = False
    f0 = 0.0
    accepted = rejected = restarts = rho_changes = 0

    termination = "max_iters"
    iterations = config.max_iters
    chatty = logger.isEnabledFor(logging.DEBUG)
    for it in range(1, config.max_iters + 1):
        Z_prev, Y = bufs[iu, 0], bufs[iu, 1:]
        ig = 3 - iu - ip if iu != ip else (iu + 1) % 3
        Z, Y_out = bufs[ig, 0], bufs[ig, 1:]
        # X1 from Z_prev - (Y1 + I) / rho, X2 from Z_prev - Y2 / rho
        np.add(Y, shift, out=args)
        args /= rho
        np.subtract(Z_prev, args, out=args)
        X1 = x1_step(args[0])
        _scatter(padded[1], maps, M_flat)
        _gather(project_psd(M), maps, X2)
        # the relaxed copies feed the Z and dual steps; the residuals use X1, X2
        base = diffs[0]
        np.multiply(Z_prev, 1.0 - ALPHA, out=base)
        np.multiply(X1, ALPHA, out=H[0])
        np.multiply(X2, ALPHA, out=H[1])
        H += base
        update_z(H[0], H[1], Y[0], Y[1], rho, lam, out=Z, work=shrink_work)
        H -= Z
        H *= rho
        np.add(Y, H, out=Y_out)

        np.subtract(X1, Z, out=diffs[0])
        np.subtract(X2, Z, out=diffs[1])
        np.subtract(Z, Z_prev, out=diffs[2])
        np.add(X1, X2, out=diffs[3])
        np.add(Y_out[0], Y_out[1], out=diffs[4])
        np.einsum("ij,ij->i", diffs, diffs, out=sq)
        r_norm = math.sqrt(sq[0] + sq[1])
        s_norm = rho * math.sqrt(2.0 * sq[2])
        xbar_norm = 0.5 * math.sqrt(sq[3])
        ybar_norm = 0.5 * math.sqrt(sq[4])
        eps_pri = dim * config.eps_abs + config.eps_rel * max(xbar_norm, math.sqrt(Z @ Z))
        eps_dual = dim * config.eps_abs + config.eps_rel * ybar_norm

        if not (math.isfinite(r_norm) and math.isfinite(s_norm)):
            termination = "diverged"
            iterations = it
            break
        if chatty and it % 100 == 0:
            logger.debug(
                "iter %d: r=%.3e s=%.3e rho=%.3e", it, r_norm, s_norm, rho)

        if r_norm <= eps_pri and s_norm <= eps_dual:
            termination = "converged"
            iterations = it
            break

        new_rho = update_rho(rho, r_norm * eps_dual, s_norm * eps_pri)
        rho_changes += new_rho != rho

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
                gamma = np.linalg.solve(G + reg * ridge[:cols, :cols], prod[:, 1])
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

    loop_s = time.perf_counter() - start
    logger.debug(
        "terminated (%s) after %d iterations: %d extrapolations accepted,"
        " %d rejected, %d memory restarts on a rho change; setup %.4f s,"
        " loop %.4f s, %.1f us per iteration",
        termination, iterations, accepted, rejected, restarts, setup_s,
        loop_s, 1e6 * loop_s / iterations,
    )
    logger.debug(
        "final r=%.3e eps_pri=%.3e s=%.3e eps_dual=%.3e rho=%.3e after %d rho changes",
        r_norm, eps_pri, s_norm, eps_dual, rho, rho_changes,
    )
    # the answer is a view of a state or work buffer that the last iteration
    # wrote; one scatter writes it out as an exactly Hermitian matrix
    padded[1, :d] = X1 if return_x1 else Z
    Z = np.empty((m, m), dtype=complex)
    _scatter(padded[1], maps, _flat(Z))
    return Z, iterations, termination, r_norm, s_norm, rho


def _solve(system: QuadraticSystem, lam: float, config: SolverConfig | None,
           make_step, return_x1: bool = False) -> SolverResult:
    """Build the X1 step from ``system``, run the loop and assemble the result."""
    _require_nonnegative("lam", lam)
    config = config or SolverConfig()
    start = time.perf_counter()
    step = make_step(system)
    setup_s = time.perf_counter() - start
    Z, iterations, termination, r_norm, s_norm, rho = _admm(
        system, lam, config, step, setup_s, return_x1)
    return SolverResult(Z=Z, iterations=iterations, termination=termination,
                        lam=lam, rho_final=rho, primal_residual=r_norm,
                        dual_residual=s_norm,
                        objective=float(Z.trace().real + lam * np.abs(Z).sum()),
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
