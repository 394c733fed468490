"""Shared instance builders and reference helpers for the test suite."""

import math

import numpy as np

from qbp.generators import fourier_basis, phantom_image, truncate_fourier
from qbp.model import (
    DimensionMismatchError,
    QuadraticMeasurement,
    QuadraticSystem,
    _flat,
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
    sqrt(2)*Im X[i, j] over the strict upper triangle, row-major.  The map
    preserves inner products, so least squares on these coordinates agrees
    with Frobenius geometry on matrices.
    """
    X = np.ascontiguousarray(X, dtype=complex)
    gather, _, _, weights = hermitian_coordinates(X.shape[0])
    return _flat(X)[gather] * weights


def unrealvec(v) -> np.ndarray:
    """Inverse of :func:`realvec`; returns an exactly Hermitian matrix."""
    v = np.asarray(v, dtype=float)
    m = int(round(np.sqrt(v.size)))
    if m * m != v.size:
        raise DimensionMismatchError(f"coordinate vector of size {v.size} is not square")
    _, src, coef, weights = hermitian_coordinates(m)
    x = np.zeros(m * m + 1)
    np.divide(v, weights, out=x[:-1])
    X = np.empty((m, m), dtype=complex)
    np.multiply(x[src], coef, out=_flat(X))
    return X


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


def consistent_system(n, N, rng, real=False):
    """Generic system measured at a planted point, so the lifted set is nonempty."""
    x = rng.standard_normal(n) if real else cgauss(rng, n)
    base = QuadraticSystem([random_measurement(n, rng, real) for _ in range(N)])
    return base.with_values(evaluate(base, x)), x


def zero_valued_system(n, N, rng, real=False):
    """Generic system whose measurements all vanish at a planted point."""
    system, x = consistent_system(n, N, rng, real)
    phis = system.phis.copy()
    phis[:, 0, 0] -= system.y
    return QuadraticSystem.from_arrays(phis, np.zeros(N)), x


def measurement_from_phi(phi, y=0.0):
    """Measurement whose lifted coefficient matrix is exactly ``phi``."""
    return QuadraticMeasurement(
        phi[0, 0], phi[0, 1:].conj(), phi[1:, 0], phi[1:, 1:], y
    )


def system_from_phis(phis, x):
    """System with the given coefficient matrices, measured at lift(x)."""
    probe = QuadraticSystem([measurement_from_phi(p, 0.0) for p in phis])
    return probe.with_values(measure_lifted(probe, lift(x)))


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


# Reference instance builders: the generators' draws, assembled one
# QuadraticMeasurement at a time and evaluated on contiguous stacks of the
# blocks.  The generators write the stacked Phi array directly and must
# reproduce these bytes.

def _reference_system(parts, x, real=False):
    probe = [QuadraticMeasurement(a, b, c, Q, 0.0) for a, b, c, Q in parts]
    a = np.array([m.a for m in probe])
    b = np.stack([m.b for m in probe])
    c = np.stack([m.c for m in probe])
    q = np.stack([m.Q for m in probe])
    xc = x.conj()
    y = a + b.conj() @ x + c @ xc + np.einsum("i,nij,j->n", xc, q, x)
    if real:
        y = y.real
    system = QuadraticSystem(
        [QuadraticMeasurement(m.a, m.b, m.c, m.Q, v) for m, v in zip(probe, y)]
    )
    return system, x


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


def reference_phantom_instance(side, k, N, seed=0):
    x = truncate_fourier(phantom_image(side), k)
    rng = np.random.default_rng(seed)
    sensing = cgauss(rng, (N, side * side)) @ fourier_basis(side)
    return _reference_magnitude(sensing, x)
