"""Signal extraction and recoverability diagnostics.

Extraction reads the candidate vector off the best rank-one approximation of
the solved matrix.  The diagnostics bound when that candidate is trustworthy:
a mutual-coherence certificate for the vectorized measurement operator, and
a sampled restricted-isometry estimate over sparse Hermitian inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qbp.model import (
    DimensionMismatchError,
    QuadraticSystem,
    _require_integer,
    _require_nonnegative,
    hermitianize,
    is_phase_invariant,
    lift,
    measure_lifted,
)

__all__ = [
    "DegenerateMatrixError",
    "CoherenceCertificate",
    "RipEstimate",
    "RecoveryReport",
    "extract_signal",
    "extract_phase_signal",
    "judge_success",
    "align_phase",
    "mutual_coherence",
    "certify_coherence",
    "sample_rip",
    "build_report",
]

# An entry counts as nonzero above ZERO_RTOL times the largest magnitude.
ZERO_RTOL = 1e-6

# The default success threshold on a candidate's relative recovery error.
SUCCESS_TOL = 1e-3

# The coherence certificate needs the second singular value of the solved
# matrix within RANK_RTOL of the first.
RANK_RTOL = 1e-3

# mutual_coherence forms the column Gram in blocks of rows holding at most
# this many entries, so its temporaries stay small however many columns the
# operator has.
_GRAM_ENTRIES = 1 << 18


class DegenerateMatrixError(ValueError):
    """The solved matrix has no usable rank-one component."""


def _lifted_matrix(Z) -> np.ndarray:
    """Z as a complex square matrix with a signal block, or the error saying why not."""
    Z = np.asarray(Z, dtype=complex)
    if Z.ndim != 2 or Z.shape[0] != Z.shape[1]:
        raise DimensionMismatchError(f"Z has shape {Z.shape}; a square matrix is needed")
    if Z.shape[0] < 2:
        raise DegenerateMatrixError("matrix has no signal block")
    return Z


def extract_signal(Z):
    """Candidate vector from the leading rank-one component of Z.

    Returns ``(x_hat, rank_ratio)`` where ``rank_ratio`` is the ratio of the
    second to the largest singular value.  The rank-one factor is scaled so
    its corner entry is one and the remaining entries form the candidate.
    A large ``rank_ratio`` means the candidate is unreliable; it is still
    returned so callers can report it.  Z must be a square 2-D matrix
    (:class:`~qbp.model.DimensionMismatchError` otherwise).
    """
    Z = _lifted_matrix(Z)
    U, s, Vh = np.linalg.svd(Z)
    if s[0] <= 0.0:
        raise DegenerateMatrixError("matrix is zero; nothing to extract")
    rank_ratio = float(s[1] / s[0]) if s.size > 1 else 0.0
    col = s[0] * U[:, 0] * Vh[0, 0]
    if col[0] == 0.0:
        raise DegenerateMatrixError("rank-one component has a zero corner entry")
    col = col / col[0]
    return col[1:], rank_ratio


def extract_phase_signal(Z):
    """Candidate vector from the signal block of Z, defined up to phase.

    When every measurement is purely quadratic (zero linear terms), nothing
    couples the corner of the lifted matrix to the signal block, and the
    entrywise penalty drives the border to zero at the optimum.  The
    candidate then lives in the trailing block alone: this returns
    ``(x_hat, rank_ratio)`` with ``x_hat = sqrt(lambda_1) * v_1`` from the
    block's leading eigenpair and ``rank_ratio = lambda_2 / lambda_1``.  The
    global phase of ``x_hat`` is arbitrary.  Z must be a square 2-D matrix
    (:class:`~qbp.model.DimensionMismatchError` otherwise).
    """
    Z = _lifted_matrix(Z)
    vals, vecs = np.linalg.eigh(hermitianize(Z[1:, 1:]))
    top = float(vals[-1])
    if top <= 0.0:
        raise DegenerateMatrixError("signal block has no positive eigenvalue")
    rank_ratio = max(0.0, float(vals[-2])) / top if vals.size > 1 else 0.0
    return np.sqrt(top) * vecs[:, -1], rank_ratio


def _extract(system: QuadraticSystem, Z):
    """``(x_hat, rank_ratio)`` by the extraction :func:`build_report` picks."""
    return (extract_phase_signal if is_phase_invariant(system) else extract_signal)(Z)


def judge_success(x_hat, x_true, tol: float = SUCCESS_TOL, *, phase_invariant: bool):
    """Relative recovery error, minimized over a global phase if ``phase_invariant``.

    Returns ``(success, error)`` with ``error = min_theta ||exp(i theta) *
    x_hat - x_true|| / ||x_true||`` when phase-invariant (the plain error of
    :func:`align_phase` ``(x_hat, x_true)``), else the plain relative error.
    ``tol`` must be finite and nonnegative.
    """
    _require_nonnegative("tol", tol)
    x_hat = np.asarray(x_hat, dtype=complex)
    x_true = np.asarray(x_true, dtype=complex)
    if x_hat.shape != x_true.shape:
        raise DimensionMismatchError(
            f"candidate has shape {x_hat.shape}, truth has shape {x_true.shape}"
        )
    scale = np.linalg.norm(x_true)
    if scale == 0.0:
        err = 0.0 if np.linalg.norm(x_hat) == 0.0 else np.inf
        return err <= tol, err
    if phase_invariant:
        x_hat = align_phase(x_hat, x_true)
    err = float(np.linalg.norm(x_hat - x_true) / scale)
    return err <= tol, err


def align_phase(x_hat, x_ref) -> np.ndarray:
    """Rotate x_hat by the global phase that brings it closest to x_ref."""
    x_hat = np.asarray(x_hat, dtype=complex)
    x_ref = np.asarray(x_ref, dtype=complex)
    t = np.vdot(x_hat, x_ref)
    if t == 0.0:
        return x_hat.copy()
    return x_hat * (t / abs(t))


def mutual_coherence(B):
    """Largest normalized inner product between distinct columns of B.

    Identically zero columns carry no information and are skipped; the
    return value is ``(mu, skipped)`` with ``skipped`` the number of zero
    columns dropped.  Raises if fewer than two nonzero columns remain.
    The normalized Gram is formed one block of rows at a time, so memory
    grows with the number of columns, not its square.
    """
    B = np.asarray(B, dtype=complex)
    norms = np.linalg.norm(B, axis=0)
    keep = norms > 0.0
    skipped = int(np.sum(~keep))
    cols, norms = B[:, keep], norms[keep]
    p = cols.shape[1]
    if p < 2:
        raise ValueError("coherence needs at least two nonzero columns")
    rows = max(1, _GRAM_ENTRIES // p)
    mu = 0.0
    for lo in range(0, p, rows):
        G = np.abs(cols[:, lo:lo + rows].conj().T @ cols)
        G /= np.outer(norms[lo:lo + rows], norms)
        own = np.arange(G.shape[0])
        G[own, lo + own] = 0.0
        mu = max(mu, float(G.max()))
    return mu, skipped


@dataclass(frozen=True)
class CoherenceCertificate:
    """Sparsity budget under which the solved matrix is provably the lift.

    ``certified`` holds when every matricized column is informative (none
    skipped), the matrix is numerically rank one, and its support size stays
    strictly below ``bound = (1 + 1/mu) / 2``, with ``rank_ratio`` read as
    :func:`build_report` reads it.  A matrix with no usable rank-one
    component, the zero matrix say, has ``rank_ratio`` inf.
    """

    mu: float
    bound: float
    cardinality: int
    rank_ratio: float
    certified: bool
    skipped_columns: int


def _support_size(v: np.ndarray) -> int:
    """Entries above ZERO_RTOL times the largest magnitude."""
    mag = np.abs(v)
    peak = float(mag.max()) if mag.size else 0.0
    return int(np.count_nonzero(mag > ZERO_RTOL * peak))


def certify_coherence(system: QuadraticSystem, Z) -> CoherenceCertificate:
    """Coherence certificate for a solved matrix against its system."""
    Z = np.asarray(Z, dtype=complex)
    # the columns of the matricized operator (one per entry of X) are the
    # flattened stack's columns in another order, and coherence reads only
    # the set of columns, so the stack is read in place
    phis = system.phis
    mu, skipped = mutual_coherence(phis.reshape(phis.shape[0], -1))
    bound = np.inf if mu == 0.0 else 0.5 * (1.0 + 1.0 / mu)
    cardinality = _support_size(Z)
    try:
        rank_ratio = _extract(system, Z)[1]
    except DegenerateMatrixError:
        rank_ratio = np.inf
    # a skipped column is an entry no measurement sees; the sparsity bound
    # says nothing about those, so they void the certificate
    certified = skipped == 0 and rank_ratio <= RANK_RTOL and cardinality < bound
    return CoherenceCertificate(
        mu=mu,
        bound=float(bound),
        cardinality=cardinality,
        rank_ratio=rank_ratio,
        certified=certified,
        skipped_columns=skipped,
    )


@dataclass(frozen=True)
class RipEstimate:
    """Worst observed isometry defect over sampled sparse Hermitian inputs.

    ``epsilon`` bounds | ||B(X)||^2 / ||X||_F^2 - 1 | and ``epsilon_l1`` the
    analogous l1-norm ratio defect, over the same samples.
    """

    k: int
    samples: int
    epsilon: float
    epsilon_l1: float


def _random_sparse_hermitian(m: int, k: int, rng) -> np.ndarray:
    # a diagonal component costs one nonzero, an off-diagonal pair costs two;
    # fill a random order of components greedily within the budget
    iu, ju = np.triu_indices(m, k=1)
    comps = [(i, i) for i in range(m)] + list(zip(iu.tolist(), ju.tolist()))
    order = rng.permutation(len(comps))
    X = np.zeros((m, m), dtype=complex)
    budget = k
    for idx in order:
        i, j = comps[idx]
        if i == j:
            if budget >= 1:
                X[i, i] = rng.standard_normal()
                budget -= 1
        elif budget >= 2:
            v = (rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2.0)
            X[i, j] = v
            X[j, i] = v.conjugate()
            budget -= 2
        if budget == 0:
            break
    return X


def _check_rip_sampling(n: int, k: int, samples: int, seed: int) -> None:
    """The rule for :func:`sample_rip`'s arguments on a system of dimension
    n, which ``qbp diagnose`` also checks before it solves."""
    for name, value, minimum in (("k", k, 1), ("samples", samples, 1), ("seed", seed, 0)):
        _require_integer(name, value, minimum)
    if k > (n + 1) ** 2:
        raise ValueError(f"k must be in [1, {(n + 1) ** 2}]")


def sample_rip(system: QuadraticSystem, k: int, samples: int = 200,
               seed: int = 0) -> RipEstimate:
    """Sample the restricted-isometry defect of the lifted measurement map.

    Draws random Hermitian matrices with at most ``k`` nonzero entries and
    records the worst squared-norm ratio defect and its l1 analogue.
    """
    _check_rip_sampling(system.n, k, samples, seed)
    m = system.n + 1
    eps2 = 0.0
    eps1 = 0.0
    for child in np.random.SeedSequence(seed).spawn(samples):
        rng = np.random.default_rng(child)
        X = _random_sparse_hermitian(m, k, rng)
        bx = measure_lifted(system, X)
        f2 = np.linalg.norm(X) ** 2
        f1 = np.abs(X).sum()
        eps2 = max(eps2, abs(np.linalg.norm(bx) ** 2 / f2 - 1.0))
        eps1 = max(eps1, abs(np.abs(bx).sum() / f1 - 1.0))
    return RipEstimate(k=k, samples=samples, epsilon=float(eps2), epsilon_l1=float(eps1))


@dataclass(frozen=True, eq=False)
class RecoveryReport:
    """The candidate recovered from a solve's matrix and its scores; where the
    solve stopped stays in its :class:`~qbp.admm.SolverResult`."""

    x_hat: np.ndarray
    rank_ratio: float
    feasibility_residual: float
    sparsity: int
    success: bool | None = None
    error: float | None = None


def build_report(system: QuadraticSystem, result, x_true=None, tol: float = SUCCESS_TOL,
                 phase_invariant: bool | None = None) -> RecoveryReport:
    """Assemble the recovery report for a solver result.

    ``feasibility_residual`` is the measurement residual of the lifted
    extracted candidate, relative to ||y||; ``sparsity`` counts candidate
    entries above ``ZERO_RTOL`` times the largest magnitude.
    The system's phase rule (:func:`~qbp.model.is_phase_invariant`) decides
    both the extraction and the scoring: systems with zero linear terms are
    extracted from the signal block (the border is unconstrained there) and
    scored up to a global phase; all others are extracted from the
    corner-normalized rank-one factor and scored as they stand.  An explicit
    ``phase_invariant`` overrides the rule for scoring only.
    """
    x_hat, rank_ratio = _extract(system, result.Z)
    resid = np.linalg.norm(system.y - measure_lifted(system, lift(x_hat)))
    scale = np.linalg.norm(system.y)
    feas = float(resid / scale) if scale > 0.0 else float(resid)
    sparsity = _support_size(x_hat)
    success = None
    error = None
    if x_true is not None:
        if phase_invariant is None:
            phase_invariant = is_phase_invariant(system)
        success, error = judge_success(x_hat, x_true, tol, phase_invariant=phase_invariant)
    return RecoveryReport(
        x_hat=x_hat,
        rank_ratio=rank_ratio,
        feasibility_residual=feas,
        sparsity=sparsity,
        success=success,
        error=error,
    )
