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
each upper-triangle entry as its real and imaginary parts side by side.
Plain dot products of coordinates are Frobenius products, so the stopping
test and the Anderson fit read them directly, and the off-diagonal part,
viewed as complex numbers, is sqrt(2) times the upper triangle, so
:func:`update_z` shrinks the matrix at q with :func:`soft_threshold`, the
diagonal at q and the upper part at sqrt(2) q.  The X1 step maps
coordinates to coordinates: it pins the corner and applies one operator V^T
with orthonormal rows, forward and back, as a dense matrix or, for large
systems of magnitude measurements, through the measurement vectors on the
signal block (the PhaseLift form of Candes, Strohmer & Voroninski 2013).
Only :func:`project_psd` and that factored X1 step see a complex matrix, each
scattered from coordinates and gathered back by the one map of the lift, and
one more scatter writes the returned matrix at the end.

The penalty rho balances the residuals that the stopping test reads, as in
OSQP (Stellato et al. 2020, Math. Prog. Comp.): the loop stops once the
primal residual r <= eps_pri and the dual residual s <= eps_dual, and rho is
doubled or halved whenever r / eps_pri and s / eps_dual differ by more than
RHO_BALANCE (:func:`update_rho`, fed r * eps_dual and s * eps_pri), at most
RHO_MAX_CHANGES times.  With eps_abs = eps_rel = 0 rho stays at RHO0.

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
The loop names its three state buffers: u, the last plain image g_prev (u
itself after a plain step) and g, the one that is neither, into which T(u)
is written; a rejected point sets u = g_prev.  The X1 and X2 steps start
from Z - (Y1 + I) / rho and Z - Y2 / rho.
The loop allocates its state, workspace and Anderson buffers once per solve
and keeps no history: it returns where it stopped, the last iteration's
residuals and rho.  The X1 step overwrites its argument and
:func:`update_z` writes into the consensus state buffer, so an iteration
allocates only what :func:`project_psd` returns, the temporaries of
:func:`update_z`, and vectors of the length of the measurement count or the
Anderson memory.

Given (Z, Y1, Y2) the two primal copies are independent (the consensus form
of Boyd et al. 2011, section 7), but the loop runs the X1 step and then the
PSD step on the calling thread: run on a second thread, the X1 step won or
lost with the load on the machine's other CPUs, which the process cannot see.
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
    _gather,
    _require_integer,
    _require_nonnegative,
    _scatter,
    constraint_system,
    hermitian_coordinates,
    is_phase_invariant,
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
# factor RHO_FACTOR, at most RHO_MAX_CHANGES times per run, whenever
# r / eps_pri and s / eps_dual differ by more than RHO_BALANCE.  Every change
# empties the Anderson memory.  Against a band of 20, over ten relabellings of
# each benchmark workload, bands of 10 / 40 took 9-12% / 0.6% more iterations
# on the table, 30% / 8% more on the phantom and 28% fewer / the same on the
# holes preset.  A rho that ends fixed keeps ADMM's convergence proof (Boyd et
# al. 2011, 3.4.1); the budget ends runs where rho flip-flops while the
# residuals grow.  Of 10, 20 and 30 it is the smallest that worsened no row of
# a sweep over data scales (10 lost a recovery at 1e4, 30 kept the flip-flops).
RHO0 = 1.0
RHO_BALANCE = 20.0
RHO_FACTOR = 2.0
RHO_MAX_CHANGES = 20

# The X1 step applies V^T through the measurement vectors (see
# :class:`_PenalizedStep`) once the dense V^T would hold more entries than
# FACTORED_MIN_ENTRIES and every measurement is a magnitude, Phi_i = a_i a_i^H
# on the signal block: to within MAGNITUDE_RTOL * Q_i[j, j] in every entry, at
# the largest diagonal entry j of Q_i (the generators' pure_phase,
# Fourier-image and phantom magnitudes deviate by at most 6.4e-16 at seeds
# 0-4).  Microseconds per equality-step call, dense / factored, on magnitude
# systems with N = 2n (best of 25 interleaved rounds of 40 calls, one BLAS
# thread, a 2-core x86_64 machine with a 2 MB L2 cache); the dense time jumps
# once V^T outgrows that cache:
#
#     n                 16     25     36      49      52      56      64
#     V^T entries     9216  33750  98496  244902  292032  363776  540672
#     pure_phase      7/28  14/47  39/74 110/139 182/226 244/174 429/252
#     fourier image   6/28  14/46  34/72 109/135       -       - 485/291
FACTORED_MIN_ENTRIES = 320_000
MAGNITUDE_RTOL = 1e-12

_SMALLEST_SUBNORMAL = np.finfo(float).smallest_subnormal


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
        _require_integer("max_iters", self.max_iters, 1)


@dataclass(frozen=True, eq=False)
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
    corrected by one operator V^T with orthonormal rows, applied in both
    directions (:meth:`_forward` and :meth:`_back`).

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
        V^T is a dense matrix, and the instance's ``_forward`` and ``_back``
        are its products V^T v and k^T V^T.  Above FACTORED_MIN_ENTRIES
        entries, when every measurement is a magnitude
        (:func:`_magnitude_vectors`), ``_Vt`` is None, only U diag(1/s) is
        kept, and the class's :meth:`_forward` and :meth:`_back` apply V^T
        through the vectors.
        """
        _require_nonnegative("epsilon", epsilon)
        A1 = A[:, 1:]
        g = b - A[:, 0]
        w, U = np.linalg.eigh(A1 @ A1.T)
        keep = w > w.max(initial=0.0) * max(A1.shape) * np.finfo(float).eps
        w, U = w[keep], U[:, keep]
        h = U.T @ g
        perp = g - U @ h
        floor = float(perp @ perp)
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
        vectors = None
        if w.size * A1.shape[1] > FACTORED_MIN_ENTRIES:
            vectors = _magnitude_vectors(system)
        if vectors is None:
            self._Vt = Vt = (U / s).T @ A1
            self._forward, self._back = Vt.__matmul__, Vt.__rmatmul__
        else:
            self._Vt = None
            self._factor(vectors, U[:system.num_measurements] / s)
        if self._radius is None:
            self._target = h / s
        else:
            self._s, self._s2, self._h, self._mu = s, w, h, 0.0

    def _factor(self, vectors: np.ndarray, W: np.ndarray) -> None:
        """Keep V^T as the magnitude vectors and W = U diag(1/s) over the real rows.

        Row i < N of the measurement rows is the gathered a_i a_i^H of the
        signal block, so for the coordinates v of a matrix X and any k,

            V^T v = W^T Re diag(A^H X_Q A)   and   k^T V^T = coords(A diag(W k) A^H),

        with X_Q = X[1:, 1:] and A = [a_1 .. a_N]: both maps go through the
        lift's coordinates and multiply on signal-block views of (n+1)-square
        matrices, and the imaginary rows the row builder kept are zero for a
        magnitude.  The work buffers are allocated here, once per solve.
        """
        n, N = vectors.shape
        m = n + 1
        self._A = vectors
        self._Ah = vectors.conj().T.copy()
        self._W = W
        self._maps = hermitian_coordinates(m)
        # coordinates with the scatter's zero slot, which _forward scatters
        # and _back gathers into, their matrix, A diag(W k) A^H (zero outside
        # the signal block), and the products X_Q A and A diag(W k)
        self._x = np.zeros(m * m + 1)
        self._X = np.empty((m, m), dtype=complex)
        self._D = np.zeros((m, m), dtype=complex)
        self._T = np.empty((n, N), dtype=complex)

    def _forward(self, v: np.ndarray) -> np.ndarray:
        """V^T v for the coordinates v of a matrix without its corner, via the vectors."""
        x = self._x
        x[1:-1] = v
        _scatter(x, self._maps, _flat(self._X))
        np.matmul(self._X[1:, 1:], self._A, out=self._T)
        # Re(a_i^H X_Q a_i) = the column sums of Re(conj(A) * T), summed over
        # the real views' columns and then over each (Re, Im) pair
        sums = np.einsum("ij,ij->j", self._A.view(np.float64), self._T.view(np.float64))
        return (sums[0::2] + sums[1::2]) @ self._W

    def _back(self, k: np.ndarray) -> np.ndarray:
        """The coordinates k^T V^T, with no corner, via the vectors; a work buffer."""
        Aw = np.multiply(self._A, self._W @ k, out=self._T)
        np.matmul(Aw, self._Ah, out=self._D[1:, 1:])
        return _gather(self._D, self._maps, self._x[:-1])[1:]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x[0] = 1.0
        v = x[1:]
        c = self._forward(v)
        radius = self._radius
        if radius is None:
            c -= self._target
            v -= self._back(c)
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
                v += self._back(-mu * q * self._s * t)
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


def _magnitude_vectors(system: QuadraticSystem):
    """The vectors a_i of magnitude measurements, as the columns of an (n, N) array.

    Returns None unless the system is phase-invariant (every Phi_i has a zero
    border row and column; its corner is free) and every signal block is
    Q_i = a_i a_i^H: a_i is Q_i's column at its largest diagonal entry j over
    sqrt(Q_i[j, j]), which must be positive, and
    |Q_i - a_i a_i^H| <= MAGNITUDE_RTOL * Q_i[j, j] entrywise.
    The temporaries are those of one measurement.
    """
    if not is_phase_invariant(system):
        return None
    phis = system.phis
    N, m = phis.shape[:2]
    vectors = np.empty((m - 1, N), dtype=complex)
    for i, phi in enumerate(phis):
        Q = phi[1:, 1:]
        j = int(np.argmax(Q.diagonal().real))
        pivot = float(Q[j, j].real)
        if not pivot > 0.0:
            return None
        a = Q[:, j] / math.sqrt(pivot)
        if np.abs(Q - np.outer(a, a.conj())).max() > MAGNITUDE_RTOL * pivot:
            return None
        vectors[:, i] = a
    return vectors


def project_psd(M) -> np.ndarray:
    """Nearest positive-semidefinite matrix to a Hermitian ``M`` in Frobenius norm.

    ``M`` must be Hermitian: ``eigh`` reads one triangle only.  A PSD ``M`` is
    returned itself.  Otherwise the projection is rebuilt from the part it
    keeps, ``V_pos diag(w_pos) V_pos^H``, and symmetrized once, so the result
    is exactly Hermitian with an exactly real diagonal.
    """
    w, V = np.linalg.eigh(M)
    neg = int(np.searchsorted(w, 0.0))
    if neg == 0:
        return M
    Vp = V[:, neg:]
    P = (Vp * w[neg:]) @ Vp.conj().T
    P += P.conj().T
    P *= 0.5
    return P


def soft_threshold(x: np.ndarray, q: float, out=None) -> np.ndarray:
    """Complex soft threshold of an array: 0 where |x| <= q, else shrink |x| by q.

    Written to ``out``, a new array by default; ``out=x`` shrinks in place.
    """
    mag = np.abs(x)
    scale = mag - q
    np.maximum(scale, 0.0, out=scale)
    # |x| = 0 with q = 0 must give 0, not 0/0: the floor changes no other
    # quotient, since every nonzero magnitude is at least the floor
    scale /= np.maximum(mag, _SMALLEST_SUBNORMAL, out=mag)
    return np.multiply(x, scale, out=out)


def update_z(X1, X2, Y1, Y2, rho: float, lam: float, out=None) -> np.ndarray:
    """Consensus update: shrink the dual-corrected primal average.

    The arguments are weighted coordinates of Hermitian (n+1) x (n+1)
    matrices (:func:`~qbp.model.hermitian_coordinates`).  The average is
    written to ``out`` (a new array by default) and soft-thresholded in place
    as a matrix at q = lam / (2 rho): :func:`soft_threshold` shrinks the
    diagonal coordinates at q and the off-diagonal ones, viewed as complex
    numbers sqrt(2) times the upper-triangle entries, at their weight sqrt(2)
    times q.  Exact zeros stay zero.  At lam = 0 the average is returned as
    it is: a shrink at q = 0 is the identity.
    """
    V = np.add(X1, X2, out=out)
    W = Y1 + Y2
    W /= rho
    V += W
    V *= 0.5
    if lam == 0.0:
        return V
    m, q = math.isqrt(V.size), 0.5 * lam / rho
    soft_threshold(V[:m], q, out=V[:m])
    upper = V[m:].view(complex)
    soft_threshold(upper, hermitian_coordinates(m).weights[-1] * q, out=upper)
    return V


def update_rho(rho: float, r_norm: float, s_norm: float, changes: int) -> float:
    """Rebalance the penalty unless the run has changed it RHO_MAX_CHANGES times.

    ``changes`` is the run's count so far.  Below the budget rho is multiplied
    by RHO_FACTOR when ``r_norm`` exceeds RHO_BALANCE times ``s_norm`` and
    divided by it in the opposite case.  The loops pass r * eps_dual and
    s * eps_pri, so the rule compares r / eps_pri with s / eps_dual without a
    division; with eps_abs = eps_rel = 0 both are 0 and rho stays at RHO0.
    """
    if changes < RHO_MAX_CHANGES:
        if r_norm > RHO_BALANCE * s_norm:
            return rho * RHO_FACTOR
        if s_norm > RHO_BALANCE * r_norm:
            return rho / RHO_FACTOR
    return rho


def data_residual(system: QuadraticSystem, X) -> float:
    """Sum of squared measurement residuals |y_i - Tr(Phi_i X)|^2."""
    diff = system.y - measure_lifted(system, X)
    return float(np.vdot(diff, diff).real)


def _admm(m: int, lam: float, config: SolverConfig, x1, setup_s: float,
          return_x1: bool):
    start = time.perf_counter()
    d = m * m
    # the PSD step alone sees a matrix, scattered into M and gathered back
    maps = hermitian_coordinates(m)
    M = np.empty((m, m), dtype=complex)
    M_flat = _flat(M)
    # the coordinates of I: the first Z, and added to Y1 in X1's argument
    eye = _gather(np.eye(m, dtype=complex), maps, np.empty(d))
    # u = (Z, Y1, Y2), g_prev and g = T(u) are (3, d) arrays of coordinates
    # in three buffers, rotated rather than copied
    bufs = list(np.zeros((3, 3, d)))
    u = g_prev = bufs[0]
    u[0] = eye
    rho = RHO0
    dim = float(m - 1)

    # one workspace for the solve: the pair of X1 and X2 arguments (each
    # followed by the scatter's zero slot), which the steps overwrite with
    # X1 and X2, the relaxed copies H1 and H2, and the five vectors whose
    # squared norms the stopping test reads, reduced in one batched dot
    padded = np.zeros((2, d + 1))
    X = padded[:, :d]
    work = np.empty((7, d))
    H, diffs = work[:2], work[2:]
    sq = np.empty(5)

    # Anderson memory: a ring of differences of residuals f = g - u (rows of
    # W, followed by the rows fk and fp holding f and the previous f) and of
    # images g, plus the Gram matrix of the f differences and the identity
    # of its ridge term
    W = np.empty((ANDERSON_MEMORY + 2, 3 * d))
    dF = W[:ANDERSON_MEMORY]
    fk, fp = ANDERSON_MEMORY, ANDERSON_MEMORY + 1
    dG = np.empty((ANDERSON_MEMORY, 3 * d))
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
        # a loop, not a generator expression, so that u and g_prev stay fast
        # locals rather than closure cells
        for g in bufs:
            if g is not u and g is not g_prev:
                break
        Z_prev, Y = u[0], u[1:]
        Z, Y_out = g[0], g[1:]
        # X1 from Z_prev - (Y1 + I) / rho, X2 from Z_prev - Y2 / rho
        np.add(Y[0], eye, out=X[0])
        X[1] = Y[1]
        X /= rho
        np.subtract(Z_prev, X, out=X)
        x1(X[0])
        _scatter(padded[1], maps, M_flat)
        _gather(project_psd(M), maps, X[1])
        # the relaxed copies feed the Z and dual steps; the residuals use X1, X2
        base = diffs[0]
        np.multiply(Z_prev, 1.0 - ALPHA, out=base)
        np.multiply(X, ALPHA, out=H)
        H += base
        update_z(H[0], H[1], Y[0], Y[1], rho, lam, out=Z)
        H -= Z
        H *= rho
        np.add(Y, H, out=Y_out)

        np.subtract(X, Z, out=diffs[:2])
        np.subtract(Z, Z_prev, out=diffs[2])
        np.add(X[0], X[1], out=diffs[3])
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

        new_rho = update_rho(rho, r_norm * eps_dual, s_norm * eps_pri, rho_changes)
        rho_changes += new_rho != rho

        u_flat, g_flat, f = u.reshape(-1), g.reshape(-1), W[fk]
        np.subtract(g_flat, u_flat, out=f)
        f_norm = math.sqrt(float(f @ f))
        if it == 1:
            f0 = f_norm
        if extrapolated and f_norm > ANDERSON_SAFEGUARD_D * f0 * (
                accepted / ANDERSON_MEMORY + 1.0) ** -(1.0 + ANDERSON_SAFEGUARD_EPS):
            # discard the extrapolated point and its image; continue from the
            # plain image it was extrapolated from, with an empty memory
            rejected += 1
            u = g_prev
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
            np.subtract(g_flat, g_prev.reshape(-1), out=dG[j])
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
        g_prev = g
        if not extrapolated:
            u = g

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
    X[1] = X[0] if return_x1 else Z
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
        system.n + 1, lam, config, step, setup_s, return_x1)
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
