"""Consensus ADMM for the lifted trace-plus-l1 semidefinite programs.

The equality-constrained program

    min Tr(X) + lam * ||X||_1   s.t.  Tr(Phi_i X) = y_i,  X[0,0] = 1,  X >= 0

is split over two primal copies: X1 carries the affine constraints (plus the
trace term), X2 carries the positive-semidefinite cone, and the consensus
variable Z carries the l1 shrinkage.  The denoising variant replaces the
exact affine projection with a penalized least-squares step and sweeps the
penalty weight until the residual budget is met.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from qbp.model import (
    QuadraticSystem,
    constraint_system,
    hermitianize,
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
    check_iterates: bool = False
    betas: tuple[float, ...] | None = None

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
    """Final consensus iterate plus per-iteration telemetry.

    ``residuals`` has one row per iteration with columns (primal norm, dual
    norm, rho); ``objective`` tracks Tr(Z) + lam * ||Z||_1.  For denoising
    runs ``beta`` is the accepted penalty weight and ``data_residual`` the
    sum of squared measurement residuals at the returned iterate.

    ``termination`` is ``"converged"``, ``"max_iters"``, ``"diverged"`` (a
    residual went non-finite) or, for denoising, ``"constraint_unattained"``.
    """

    Z: np.ndarray
    iterations: int
    termination: str
    residuals: np.ndarray
    objective: np.ndarray
    lam: float
    rho_final: float
    beta: float | None = None
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
        if gap > 1e-6 * np.linalg.norm(b):
            raise InfeasibleProjectionError(
                f"constraints are inconsistent: least-squares gap {gap:.3e}"
            )

    def __call__(self, M, rho: float | None = None) -> np.ndarray:
        v = realvec(M)
        v = v - self._pinv @ (self._A @ v - self._b)
        return unrealvec(v)


class _PenalizedStep:
    """Prox of (beta/2) * sum of squared residuals with X[0,0] pinned to 1.

    Solved through one thin SVD of the constraint matrix (minus its corner
    column), reused across iterations and rho changes.
    """

    def __init__(self, system: QuadraticSystem, beta: float):
        B, y = real_measurement_matrix(system)
        g = y - B[:, 0]
        B1 = B[:, 1:]
        _, s, Vt = np.linalg.svd(B1, full_matrices=False)
        self._Vt = Vt
        self._s2 = s * s
        self._bg = beta * (B1.T @ g)
        self._beta = beta

    def __call__(self, M, rho: float) -> np.ndarray:
        v = realvec(M)
        rhs = self._bg + rho * v[1:]
        coeff = 1.0 / (self._beta * self._s2 + rho) - 1.0 / rho
        w = rhs / rho + self._Vt.T @ (coeff * (self._Vt @ rhs))
        out = np.empty(v.size)
        out[0] = 1.0
        out[1:] = w
        return unrealvec(out)


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


def _check_iterates(system, X1, X2, exact_affine):
    for name, M in (("X1", X1), ("X2", X2)):
        dev = np.max(np.abs(M - M.conj().T))
        if dev > 1e-10:
            raise ValueError(f"{name} lost Hermitian symmetry: {dev:.3e}")
    w = np.linalg.eigvalsh(hermitianize(X2))
    if w[0] < -1e-8:
        raise ValueError(f"X2 left the PSD cone: min eigenvalue {w[0]:.3e}")
    if exact_affine:
        viol = np.max(np.abs(measure_lifted(system, X1) - system.y))
        scale = 1.0 + float(np.max(np.abs(system.y)))
        if viol > 1e-6 * scale or abs(X1[0, 0] - 1.0) > 1e-6:
            raise ValueError(f"X1 violates the affine constraints: {viol:.3e}")


def _sqnorm(A: np.ndarray) -> float:
    """Squared Frobenius norm of a contiguous array, as one real dot product."""
    f = A.reshape(-1).view(np.float64)
    return float(f @ f)


def _admm(system: QuadraticSystem, lam: float, config: SolverConfig, x1_step):
    m = system.n + 1
    eye = np.eye(m)
    Z = eye.astype(complex)
    Y1 = np.zeros((m, m), dtype=complex)
    Y2 = np.zeros((m, m), dtype=complex)
    rho = config.rho0
    dim = float(system.n)
    exact_affine = isinstance(x1_step, AffineProjector)

    # traces grow by doubling, so a huge max_iters reserves no memory up front
    size = min(config.max_iters, 1024)
    residuals = np.empty((size, 3))
    objective = np.empty(size)
    termination = "max_iters"
    iterations = config.max_iters
    chatty = logger.isEnabledFor(logging.DEBUG)
    for it in range(1, config.max_iters + 1):
        Z_prev = Z
        X1 = x1_step(Z - (eye + Y1) / rho, rho)
        X2 = project_psd(Z - Y2 / rho)
        # the relaxed copies feed the Z and dual steps; the residuals use X1, X2
        base = (1.0 - ALPHA) * Z_prev
        H1 = ALPHA * X1 + base
        H2 = ALPHA * X2 + base
        Z = update_z(H1, H2, Y1, Y2, rho, lam)
        Y1 += rho * (H1 - Z)
        Y2 += rho * (H2 - Z)

        r_norm = math.sqrt(_sqnorm(X1 - Z) + _sqnorm(X2 - Z))
        s_norm = rho * math.sqrt(2.0 * _sqnorm(Z - Z_prev))
        xbar_norm = 0.5 * math.sqrt(_sqnorm(X1 + X2))
        ybar_norm = 0.5 * math.sqrt(_sqnorm(Y1 + Y2))
        eps_pri = dim * config.eps_abs + config.eps_rel * max(xbar_norm, math.sqrt(_sqnorm(Z)))
        eps_dual = dim * config.eps_abs + config.eps_rel * ybar_norm

        if it > size:
            size = min(2 * size, config.max_iters)
            residuals = np.resize(residuals, (size, 3))
            objective = np.resize(objective, size)
        residuals[it - 1] = (r_norm, s_norm, rho)
        objective[it - 1] = Z.trace().real + lam * np.abs(Z).sum()
        if not (math.isfinite(r_norm) and math.isfinite(s_norm)):
            termination = "diverged"
            iterations = it
            break
        if config.check_iterates:
            _check_iterates(system, X1, X2, exact_affine)
        if chatty and it % 100 == 0:
            logger.debug(
                "iter %d: r=%.3e s=%.3e rho=%.3e obj=%.6f",
                it, r_norm, s_norm, rho, objective[it - 1],
            )

        if r_norm <= eps_pri and s_norm <= eps_dual:
            termination = "converged"
            iterations = it
            break

        rho = update_rho(rho, r_norm, s_norm, config)

    logger.debug("terminated (%s) after %d iterations", termination, iterations)
    return (Z, iterations, termination, residuals[:iterations].copy(),
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
    """Solve the residual-budget variant.

    The measurement equalities are relaxed to a penalized least-squares term
    with weight beta; beta is swept upward until the returned iterate keeps
    the sum of squared residuals within ``epsilon``.  If no beta in the sweep
    achieves the budget, the closest iterate is returned with termination
    ``"constraint_unattained"``.
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    config = config or SolverConfig()
    betas = config.betas if config.betas is not None else tuple(np.logspace(-2, 8, 11))
    best = None
    for beta in betas:
        step = _PenalizedStep(system, float(beta))
        Z, iterations, termination, res, obj, rho = _admm(system, lam, config, step)
        result = SolverResult(
            Z=Z,
            iterations=iterations,
            termination=termination,
            residuals=res,
            objective=obj,
            lam=lam,
            rho_final=rho,
            beta=float(beta),
            data_residual=data_residual(system, Z),
        )
        if result.data_residual <= epsilon:
            return result
        if best is None or result.data_residual < best.data_residual:
            best = result
    return replace(best, termination="constraint_unattained")
