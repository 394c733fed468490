"""Shared instance builders and reference helpers for the test suite."""

import math

import numpy as np

from qbp.baselines import (
    IHT_SHRINK,
    IHT_STALL_TOL,
    IHT_STEP0,
    hard_threshold,
    iht_gradient,
    iht_objective,
)
from qbp.generators import fourier_basis, phantom_image, truncate_fourier
from qbp.model import (
    DimensionMismatchError,
    QuadraticMeasurement,
    QuadraticSystem,
    _flat,
    _require_integer,
    evaluate,
    hermitian_coordinates,
    hermitianize,
    lift,
    measure_lifted,
)


def cgauss(rng, shape=None):
    """Circular complex Gaussian draws with unit variance."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def random_hermitian(m, rng):
    A = cgauss(rng, (m, m))
    H = 0.5 * (A + A.conj().T)
    np.fill_diagonal(H, H.diagonal().real)
    return H


def check_hermitian(M, tol: float = 1e-12) -> None:
    """Raise if M deviates from Hermitian symmetry by more than tol."""
    M = np.asarray(M)
    dev = np.max(np.abs(M - M.conj().T)) if M.size else 0.0
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian: max deviation {dev:.3e}")


# Reference coordinate maps: the weighted coordinates of
# qbp.model.hermitian_coordinates, read from and written to a matrix.

def realvec(X) -> np.ndarray:
    """Isometric real coordinates of a Hermitian matrix.

    Layout: the m diagonal entries (real), then sqrt(2)*Re X[i, j] and
    sqrt(2)*Im X[i, j] side by side for each entry of the strict upper
    triangle, row-major, so ``realvec(X)[m:].view(complex)`` is sqrt(2)
    times the upper triangle.  The map preserves inner products, so least
    squares on these coordinates agrees with Frobenius geometry on matrices.
    """
    X = np.ascontiguousarray(X, dtype=complex)
    gather, weights, _, _ = hermitian_coordinates(X.shape[0])
    return _flat(X)[gather] * weights


def unrealvec(v) -> np.ndarray:
    """Inverse of :func:`realvec`; returns an exactly Hermitian matrix."""
    v = np.asarray(v, dtype=float)
    m = int(round(np.sqrt(v.size)))
    if m * m != v.size:
        raise DimensionMismatchError(f"coordinate vector of size {v.size} is not square")
    _, _, src, unweigh = hermitian_coordinates(m)
    x = np.zeros(m * m + 1)
    x[:-1] = v
    X = np.empty((m, m), dtype=complex)
    np.multiply(x[src], unweigh, out=_flat(X))
    return X


def reference_operator_rows(system):
    """The 2N rows of the lifted map, written entry by entry, and which to keep.

    Returns ``(B, rhs, keep)``.  Row i of B holds the Hermitian part
    (Phi_i + Phi_i^H) / 2 and row N + i the skew-Hermitian part
    (Phi_i - Phi_i^H) / 2i, each as its diagonal, then sqrt(2) times the real
    and imaginary parts of each upper-triangle entry, row-major, so
    B realvec(X) stacks Re Tr(Phi_i X) over Im Tr(Phi_i X); ``rhs`` stacks
    Re y over Im y.  ``keep`` marks the rows that are not zero on both sides;
    ``B[keep]`` and ``rhs[keep]`` are the rows qbp.model.constraint_system
    must return, bit for bit.
    """
    phis = system.phis
    m = system.n + 1
    iu, ju = np.triu_indices(m, k=1)
    phis_h = phis.conj().transpose(0, 2, 1)
    blocks = []
    for part in (0.5 * (phis + phis_h), -0.5j * (phis - phis_h)):
        upper = part[:, iu, ju]
        pairs = np.empty(upper.shape + (2,))
        pairs[..., 0] = np.sqrt(2.0) * upper.real
        pairs[..., 1] = np.sqrt(2.0) * upper.imag
        blocks.append(np.concatenate([
            part[:, np.arange(m), np.arange(m)].real,
            pairs.reshape(len(phis), -1),
        ], axis=1))
    B = np.concatenate(blocks)
    rhs = np.concatenate([system.y.real, system.y.imag])
    return B, rhs, B.any(axis=1) | (rhs != 0.0)


def random_measurement(n, rng, real=False):
    """Generic dense measurement with an arbitrary right-hand side."""
    if real:
        return QuadraticMeasurement(
            rng.standard_normal(),
            rng.standard_normal(n),
            rng.standard_normal(n),
            rng.standard_normal((n, n)),
            rng.standard_normal(),
        )
    return QuadraticMeasurement(
        cgauss(rng), cgauss(rng, n), cgauss(rng, n), cgauss(rng, (n, n)), cgauss(rng)
    )


def random_system(n, N, rng, real=False):
    """Generic system; the right-hand sides need not be attainable."""
    return QuadraticSystem([random_measurement(n, rng, real) for _ in range(N)])


def consistent_system(n, N, rng, real=False, symmetric=False):
    """Generic system measured at a planted point, so the lifted set is nonempty.

    With ``real`` and ``symmetric`` each Phi_i is real symmetric and y is
    real, so every imaginary row of the measurement map vanishes identically.
    """
    x = rng.standard_normal(n) if real else cgauss(rng, n)
    base = QuadraticSystem([random_measurement(n, rng, real) for _ in range(N)])
    if symmetric:
        base = QuadraticSystem.from_arrays([hermitianize(p) for p in base.phis], base.y)
    return QuadraticSystem.from_arrays(base.phis, evaluate(base, x)), x


def zero_valued_system(n, N, rng, real=False, symmetric=False):
    """Generic system whose measurements all vanish at a planted point."""
    system, x = consistent_system(n, N, rng, real, symmetric)
    phis = system.phis.copy()
    phis[:, 0, 0] -= system.y
    return QuadraticSystem.from_arrays(phis, np.zeros(N)), x


def system_from_phis(phis, x):
    """System with the given coefficient matrices, measured at lift(x)."""
    probe = QuadraticSystem.from_arrays(phis, np.zeros(len(phis)))
    return QuadraticSystem.from_arrays(probe.phis, measure_lifted(probe, lift(x)))


def unitary_sensing_system(x, kind="dft", rng=None):
    """Measurements whose matricized rows form a unitary basis.

    The (n+1)^2 coefficient matrices are the reshaped rows of a unitary
    matrix, so they pin the lifted matrix completely and the vectorized
    operator has exactly orthonormal columns.
    """
    x = np.asarray(x, dtype=complex)
    m = x.size + 1
    M = m * m
    if kind == "dft":
        p = np.arange(M)
        U = np.exp(-2j * np.pi * np.outer(p, p) / M) / np.sqrt(M)
    elif kind == "haar":
        Q, _ = np.linalg.qr(cgauss(rng, (M, M)))
        U = Q.conj().T
    else:
        raise ValueError(f"unknown sensing kind {kind!r}")
    phis = [U[r].reshape(m, m).T for r in range(M)]
    return system_from_phis(phis, x)


# Reference instance builders: the generators' draws, one record per
# measurement stacked by QuadraticSystem(records), and evaluated on contiguous
# copies of the block stacks.  The generators write the stacked Phi array
# directly and must reproduce these bytes.

def _reference_system(parts, x, real=False):
    probe = QuadraticSystem([QuadraticMeasurement(a, b, c, Q, 0.0) for a, b, c, Q in parts])
    a, b, c, q = map(np.ascontiguousarray, (probe.a, probe.b, probe.c, probe.Q))
    xc = x.conj()
    y = a + b.conj() @ x + c @ xc + np.einsum("i,nij,j->n", xc, q, x)
    if real:
        y = y.real
    return QuadraticSystem.from_arrays(probe.phis, y), x


def _reference_magnitude(sensing, x):
    n = sensing.shape[1]
    parts = []
    for row in sensing:
        a_i = row.conj()
        parts.append((0.0, np.zeros(n), np.zeros(n),
                      hermitianize(np.outer(a_i, a_i.conj()))))
    return _reference_system(parts, x, real=True)


def _reference_support(n, k, rng):
    return np.sort(rng.choice(n, size=k, replace=False))


def reference_general_quadratic(n, N, k, signal="binary", seed=0):
    rng = np.random.default_rng(seed)
    support = _reference_support(n, k, rng)
    x = np.zeros(n, dtype=complex)
    x[support] = 1.0 if signal == "binary" else rng.standard_normal(k)
    parts = [(cgauss(rng), cgauss(rng, n), np.zeros(n), cgauss(rng, (n, n)))
             for _ in range(N)]
    return _reference_system(parts, x)


def reference_pure_phase(n, N, k, signal="gaussian", seed=0):
    rng = np.random.default_rng(seed)
    support = _reference_support(n, k, rng)
    x = np.zeros(n, dtype=complex)
    x[support] = 1.0 if signal == "binary" else cgauss(rng, k)
    return _reference_magnitude(cgauss(rng, (N, n)).conj(), x)


def reference_fourier_sparse_image(n, N, k, signal="gaussian", seed=0):
    rng = np.random.default_rng(seed)
    support = _reference_support(n, k, rng)
    x = np.zeros(n, dtype=complex)
    x[support] = 1.0 if signal == "binary" else cgauss(rng, k)
    side = math.isqrt(n)
    return _reference_magnitude(cgauss(rng, (N, n)) @ fourier_basis(side), x)


# The conjugate-symmetric truncation as a visited-set walk over (row, column)
# pairs; qbp.generators.truncate_fourier pairs indices arithmetically and must
# reproduce it byte for byte.

def reference_truncate_fourier(image: np.ndarray, k: int) -> np.ndarray:
    """Best k-term DFT approximation that keeps conjugate symmetry.

    Coefficients are grouped with their reflection (q -> -q mod side); groups
    are taken in decreasing energy while they fit the remaining budget, so a
    real image stays real after truncation.  Returns the vectorized k-sparse
    coefficient array.
    """
    image = np.asarray(image, dtype=float)
    if image.ndim != 2 or image.shape[0] != image.shape[1]:
        raise ValueError("image must be square")
    side = image.shape[0]
    _require_integer("k", k, 1)
    if k > side * side:
        raise ValueError(f"k must be in [1, {side * side}]")
    C = np.fft.fft2(image)
    groups = []
    seen = set()
    for p in range(side):
        for q in range(side):
            if (p, q) in seen:
                continue
            pc, qc = (-p) % side, (-q) % side
            if (pc, qc) == (p, q):
                members = ((p, q),)
            else:
                members = ((p, q), (pc, qc))
            seen.update(members)
            energy = sum(abs(C[i, j]) ** 2 for i, j in members)
            groups.append((energy, members))
    groups.sort(key=lambda g: -g[0])
    out = np.zeros((side, side), dtype=complex)
    budget = k
    for energy, members in groups:
        if len(members) <= budget and energy > 0.0:
            for i, j in members:
                out[i, j] = C[i, j]
            budget -= len(members)
        if budget == 0:
            break
    return out.ravel()


def reference_phantom_instance(side, k, N, seed=0):
    x = truncate_fourier(phantom_image(side), k)
    rng = np.random.default_rng(seed)
    sensing = cgauss(rng, (N, side * side)) @ fourier_basis(side)
    return _reference_magnitude(sensing, x)


# Reference kernels: the consensus step's shrinkage with a boolean mask and a
# masked divide, on matrices and on coordinates, and the hard-thresholding
# objective and gradient from the dense evaluate of every measurement.  The solver's kernels must reproduce
# the first bit for bit and the second to rounding.

def reference_shrink_scale(x, q):
    mag = np.abs(x)
    scale = mag - q
    np.maximum(scale, 0.0, out=scale)
    np.divide(scale, mag, out=scale, where=mag > q)
    return scale


def reference_soft_threshold(x, q):
    return x * reference_shrink_scale(x, q)


def reference_update_z(x1, x2, y1, y2, rho, lam):
    """The consensus step on weighted coordinates, with masked divides; at
    lam = 0 the average itself, whose zeros keep their signs."""
    v = x1 + x2
    w = y1 + y2
    w /= rho
    v += w
    v *= 0.5
    if lam == 0.0:
        return v
    m = math.isqrt(v.size)
    q = 0.5 * lam / rho
    v[:m] = reference_soft_threshold(v[:m], q)
    upper = v[m:].view(complex)
    upper[:] = reference_soft_threshold(upper, math.sqrt(2.0) * q)
    return v


def reference_iht_objective(system, x):
    diff = evaluate(system, x) - system.y
    return 0.5 * float(np.vdot(diff, diff).real)


def reference_iht_gradient(system, x):
    x = np.asarray(x, dtype=complex)
    q = system.Q
    r = evaluate(system, x) - system.y
    lin = system.c + np.einsum("nij,j->ni", q, x)
    lin_conj = system.b + np.einsum("nji,j->ni", q.conj(), x)
    return r.conj() @ lin + r @ lin_conj


def reference_iht(system, k, max_iters=1000):
    """Iterative hard thresholding with a sequential line search: each
    iteration recomputes the gradient at x, then thresholds and evaluates one
    step at a time, IHT_STEP0 halved by IHT_SHRINK, until the objective
    strictly decreases.  :func:`qbp.baselines.iterative_hard_thresholding`
    must return the same bytes."""
    _require_integer("k", k, 1)
    _require_integer("max_iters", max_iters, 1)
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


def reference_mutual_coherence(B):
    """``(mu, skipped)`` from the full Gram of the nonzero columns of B."""
    B = np.asarray(B, dtype=complex)
    norms = np.linalg.norm(B, axis=0)
    keep = norms > 0.0
    cols = B[:, keep]
    G = np.abs(cols.conj().T @ cols) / np.outer(norms[keep], norms[keep])
    np.fill_diagonal(G, 0.0)
    return float(G.max()), int(np.sum(~keep))
