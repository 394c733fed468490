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
equation per call.

One over-relaxed ADMM step at fixed rho is a map T of the state (Z, Y1, Y2),
and the loop Anderson-accelerates it: type II, as in Walker & Ni 2011
(SIAM J. Numer. Anal.), with the safeguard of Zhang, O'Donoghue & Boyd 2020
(SIAM J. Optim.).  The next state is T(u) - dG gamma, where gamma fits the
current residual T(u) - u by the last ANDERSON_MEMORY residual differences
dF in regularized least squares and dG holds the matching differences of T.
An extrapolated point whose residual exceeds ANDERSON_SAFEGUARD times the
previous one is discarded, and the loop continues from the plain step it
was made from with an empty memory.  A change of rho changes T, so it also
empties the memory.  Every evaluation of T, a discarded one too, counts as
an iteration.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from qbp.model import (
    QuadraticSystem,
    constraint_system,
    measure_lifted,
    real_measurement_matrix,
    realvec,
    unrealvec,
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
# kept, the factor by which an extrapolated point's fixed-point residual may
# exceed the previous one, and the ridge weight of the least-squares fit
# relative to the trace of its Gram matrix.
ANDERSON_MEMORY = 10
ANDERSON_SAFEGUARD = 2.0
ANDERSON_REG = 1e-10


class InfeasibleProjectionError(ValueError):
    """The affine constraint set is empty (inconsistent measurements)."""


@dataclass(frozen=True)
class SolverConfig:
    rho0: float = 1.0
    eps_abs: float = 1e-3
    eps_rel: float = 1e-3
    max_iters: int = 10000
    mu: float = 10.0
    tau_incr: float = 2.0
    tau_decr: float = 2.0
    rho_min: float = 1e-8
    rho_max: float = 1e8

    def __post_init__(self):
        if self.rho0 <= 0:
            raise ValueError("rho0 must be positive")
        if self.eps_abs < 0 or self.eps_rel < 0:
            raise ValueError("tolerances must be nonnegative")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.mu <= 0 or self.tau_incr <= 1 or self.tau_decr <= 1:
            raise ValueError("rho adaptation needs mu > 0 and tau factors > 1")


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
    data_residual: float | None = None

    @property
    def converged(self) -> bool:
        return self.termination == "converged"


class AffineProjector:
    """Frobenius projection onto {X Hermitian: Tr(Phi_i X) = y_i, X[0,0] = 1}.

    The pseudoinverse of the real constraint matrix is computed once; each
    call is two matrix-vector products in realvec coordinates.
    """

    def __init__(self, system: QuadraticSystem):
        A, b = constraint_system(system)
        self._A = A
        self._b = b
        self._pinv = np.linalg.pinv(A)
        # least-squares residual > 0 means no Hermitian matrix satisfies
        # the constraints at all
        gap = np.linalg.norm(A @ (self._pinv @ b) - b)
        if gap > INFEASIBLE_RTOL * np.linalg.norm(b):
            raise InfeasibleProjectionError(
                f"constraints are inconsistent: least-squares gap {gap:.3e}"
            )

    def __call__(self, M, rho: float | None = None) -> np.ndarray:
        v = realvec(M)
        v = v - self._pinv @ (self._A @ v - self._b)
        return unrealvec(v)


class _PenalizedStep:
    """Frobenius projection onto {X Hermitian: X[0,0] = 1, ||A(X) - y||^2 <= epsilon}.

    Off the corner this is the penalized prox argmin ||X - M||^2 +
    mu * ||A(X) - y||^2 with the weight mu solved for in each call.  In the
    thin SVD B = U diag(s) V^T of the measurement matrix (minus its corner
    column) the squared residual of the prox is the secular function

        phi(mu) = sum_i (s_i c_i - h_i)^2 / (1 + mu s_i^2)^2 + ||g_perp||^2,

    with c = V^T realvec(M), h = U^T g, g = y - B e_0 and g_perp the part of
    g outside range(B).  phi decreases in mu and phi^(-1/2) is concave, so
    Newton on phi^(-1/2) = radius^(-1) converges monotonically (Moré &
    Sorensen 1983); it starts from the previous call's mu.  An input inside
    the budget is returned with only its corner set.  A budget at or below
    the floor ||g_perp||^2 gives the exact affine projection (mu -> inf).
    """

    def __init__(self, system: QuadraticSystem, epsilon: float):
        B, y = real_measurement_matrix(system)
        g = y - B[:, 0]
        B1 = B[:, 1:]
        U, s, Vt = np.linalg.svd(B1, full_matrices=False)
        rank = int(np.count_nonzero(
            s > s.max(initial=0.0) * max(B1.shape) * np.finfo(float).eps))
        self._s = s[:rank]
        self._s2 = self._s * self._s
        self._Vt = Vt[:rank]
        self._h = U[:, :rank].T @ g
        floor = _sqnorm(g - U[:, :rank] @ self._h)
        scale = float(np.linalg.norm(y))
        if math.sqrt(floor) > math.sqrt(epsilon) + INFEASIBLE_RTOL * scale:
            raise InfeasibleProjectionError(
                f"residual budget {epsilon:.3e} is below the least-squares"
                f" floor {floor:.3e}"
            )
        self._floor = floor
        radius = math.sqrt(epsilon) - BUDGET_MARGIN * scale
        # None marks the affine limit: no smaller residual than the floor exists
        self._radius = radius if radius > 0.0 and radius * radius > floor else None
        self._mu = 0.0

    def __call__(self, M, rho: float | None = None) -> np.ndarray:
        v = realvec(M)
        v[0] = 1.0
        c = self._Vt @ v[1:]
        t = self._s * c - self._h
        radius = self._radius
        if radius is None:
            step = -t / self._s
        else:
            r2 = t * t
            phi = float(r2.sum()) + self._floor
            if phi <= radius * radius:
                return unrealvec(v)
            mu = self._mu
            for _ in range(SECULAR_MAX_STEPS):
                q = 1.0 / (1.0 + mu * self._s2)
                terms = r2 * q * q
                phi = float(terms.sum()) + self._floor
                gap = math.sqrt(phi) / radius - 1.0
                if abs(gap) <= SECULAR_RTOL:
                    break
                # Newton step on phi^(-1/2); a step past zero restarts from the left
                slope = 2.0 * float((self._s2 * terms * q).sum())
                mu = max(mu + 2.0 * phi * gap / slope, 0.0)
            self._mu = mu
            step = -mu * self._s * t / (1.0 + mu * self._s2)
        v[1:] += self._Vt.T @ step
        return unrealvec(v)


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


def soft_threshold(x, q: float):
    """Complex soft threshold: 0 where |x| <= q, else shrink |x| by q."""
    x = np.asarray(x)
    mag = np.atleast_1d(np.abs(x))
    scale = np.maximum(mag - q, 0.0)
    # divide only where the entry survives: |x| = 0 with q = 0 must give 0, not 0/0
    np.divide(scale, mag, out=scale, where=mag > q)
    if x.ndim == 0:
        return (x * scale[0]).item()
    return x * scale


def update_z(X1, X2, Y1, Y2, rho: float, lam: float) -> np.ndarray:
    """Consensus update: shrink the dual-corrected primal average.

    Hermitian inputs give an exactly Hermitian result, because the average
    and the shrink scale are both entrywise and |conj(v)| = |v|.
    """
    V = X1 + X2
    V += (Y1 + Y2) / rho
    V *= 0.5
    return soft_threshold(V, 0.5 * lam / rho)


def update_rho(rho: float, r_norm: float, s_norm: float, config: SolverConfig) -> float:
    """Rebalance the penalty; skipped when it would leave [rho_min, rho_max]."""
    if r_norm > config.mu * s_norm:
        new = rho * config.tau_incr
    elif s_norm > config.mu * r_norm:
        new = rho / config.tau_decr
    else:
        return rho
    if new < config.rho_min or new > config.rho_max:
        return rho
    return new


def data_residual(system: QuadraticSystem, X) -> float:
    """Sum of squared measurement residuals |y_i - Tr(Phi_i X)|^2."""
    diff = system.y - measure_lifted(system, X)
    return float(np.vdot(diff, diff).real)


def _flat(A: np.ndarray) -> np.ndarray:
    """A contiguous real or complex array as one flat float64 view."""
    return A.reshape(-1).view(np.float64)


def _sqnorm(A: np.ndarray) -> float:
    """Squared Frobenius norm of a contiguous array, as one real dot product."""
    f = _flat(A)
    return float(f @ f)


def _admm(system: QuadraticSystem, lam: float, config: SolverConfig, x1_step,
          return_x1: bool = False):
    m = system.n + 1
    eye = np.eye(m)
    # the state u = (Z, Y1, Y2) and its image g = T(u) under one ADMM step live
    # in three (3, m, m) buffers, swapped rather than copied: u, the last
    # plain image g_prev (which may be u itself) and the one being written
    bufs = np.zeros((3, 3, m, m), dtype=complex)
    bufs[0, 0] = eye
    flats = [_flat(b) for b in bufs]
    iu = ip = 0
    rho = config.rho0
    dim = float(system.n)

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
    f2_prev = math.inf
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
        X1 = x1_step(Z_prev - (eye + Y1) / rho, rho)
        X2 = project_psd(Z_prev - Y2 / rho)
        # the relaxed copies feed the Z and dual steps; the residuals use X1, X2
        base = (1.0 - ALPHA) * Z_prev
        H1 = ALPHA * X1 + base
        H2 = ALPHA * X2 + base
        Z = update_z(H1, H2, Y1, Y2, rho, lam)
        Z_out[...] = Z
        H1 -= Z
        H1 *= rho
        np.add(Y1, H1, out=Y1_out)
        H2 -= Z
        H2 *= rho
        np.add(Y2, H2, out=Y2_out)

        r_norm = math.sqrt(_sqnorm(X1 - Z) + _sqnorm(X2 - Z))
        s_norm = rho * math.sqrt(2.0 * _sqnorm(Z - Z_prev))
        xbar_norm = 0.5 * math.sqrt(_sqnorm(X1 + X2))
        ybar_norm = 0.5 * math.sqrt(_sqnorm(Y1_out + Y2_out))
        eps_pri = dim * config.eps_abs + config.eps_rel * max(xbar_norm, math.sqrt(_sqnorm(Z)))
        eps_dual = dim * config.eps_abs + config.eps_rel * ybar_norm

        if it > size:
            size = min(2 * size, config.max_iters)
            residuals = np.resize(residuals, (size, 3))
            objective = np.resize(objective, size)
        residuals[it - 1] = (r_norm, s_norm, rho)
        answer = X1 if return_x1 else Z
        objective[it - 1] = answer.trace().real + lam * np.abs(answer).sum()
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

        new_rho = update_rho(rho, r_norm, s_norm, config)

        u_flat, g_flat, f = flats[iu], flats[ig], W[fk]
        np.subtract(g_flat, u_flat, out=f)
        f2 = float(f @ f)
        if extrapolated and f2 > ANDERSON_SAFEGUARD * f2_prev:
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
        f2_prev = f2
        if extrapolated:
            ip = ig
        else:
            iu = ip = ig

    logger.debug(
        "terminated (%s) after %d iterations: %d extrapolations accepted,"
        " %d rejected, %d memory restarts on a rho change",
        termination, iterations, accepted, rejected, restarts,
    )
    return (answer, iterations, termination, residuals[:iterations].copy(),
            objective[:iterations].copy(), rho)


def solve(system: QuadraticSystem, lam: float = 1.0,
          config: SolverConfig | None = None) -> SolverResult:
    """Solve the equality-constrained lifted program.

    Raises :class:`InfeasibleProjectionError` when the measurement
    constraints admit no Hermitian matrix at all.
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    config = config or SolverConfig()
    step = AffineProjector(system)
    Z, iterations, termination, res, obj, rho = _admm(system, lam, config, step)
    return SolverResult(
        Z=Z,
        iterations=iterations,
        termination=termination,
        residuals=res,
        objective=obj,
        lam=lam,
        rho_final=rho,
        data_residual=data_residual(system, Z),
    )


def solve_denoising(system: QuadraticSystem, lam: float, epsilon: float,
                    config: SolverConfig | None = None) -> SolverResult:
    """Solve the residual-budget program with one ADMM run.

    The X1 step is the exact projection onto {X00 = 1, sum of squared
    residuals <= epsilon} (:class:`_PenalizedStep`).  The returned ``Z`` is
    the last such projected copy, so ``data_residual <= epsilon``.

    Raises :class:`InfeasibleProjectionError` when ``epsilon`` lies below the
    least-squares floor of the measurements by more than rounding.
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    config = config or SolverConfig()
    step = _PenalizedStep(system, epsilon)
    X1, iterations, termination, res, obj, rho = _admm(
        system, lam, config, step, return_x1=True)
    return SolverResult(
        Z=X1,
        iterations=iterations,
        termination=termination,
        residuals=res,
        objective=obj,
        lam=lam,
        rho_final=rho,
        data_residual=data_residual(system, X1),
    )
