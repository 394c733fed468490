"""Systems of quadratic equations and their lifted linear forms.

A measurement takes the value ``y = a + b^H x + x^H c + x^H Q x`` at the
unknown ``x in C^n``.  Every such scalar is linear in the rank-one lifted
matrix ``X = [1; x][1; x]^H``:

    y = Tr(Phi X),   Phi = [[a, b^H], [c, Q]]  of shape (n+1, n+1).

This module holds the measurement containers, the lifting map, and the
matrix forms of the induced linear operator on Hermitian matrices that the
solver and the diagnostics are built on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "NonFiniteValueError",
    "QuadraticMeasurement",
    "QuadraticSystem",
    "hermitianize",
    "check_hermitian",
    "evaluate",
    "lift",
    "measure_lifted",
    "is_phase_invariant",
    "realvec",
    "unrealvec",
    "real_measurement_matrix",
    "constraint_system",
    "vec_measurement_matrix",
]


class DimensionMismatchError(ValueError):
    """Operands do not share the system dimension."""


class NonFiniteValueError(ValueError):
    """NaN or Inf encountered where finite data is required."""


def _as_complex(value, shape, where):
    arr = np.asarray(value, dtype=complex)
    if arr.shape != shape:
        raise DimensionMismatchError(
            f"{where}: expected shape {shape}, got {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValueError(f"{where}: non-finite entries")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class QuadraticMeasurement:
    """One equation a + b^H x + x^H c + x^H Q x = y.

    All fields are stored as immutable complex arrays; ``a`` and ``y`` are
    complex scalars kept as 0-d arrays for uniformity.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    Q: np.ndarray
    y: np.ndarray

    def __init__(self, a, b, c, Q, y):
        b = np.atleast_1d(np.asarray(b, dtype=complex))
        n = b.shape[0]
        object.__setattr__(self, "a", _as_complex(a, (), "a"))
        object.__setattr__(self, "b", _as_complex(b, (n,), "b"))
        object.__setattr__(self, "c", _as_complex(c, (n,), "c"))
        object.__setattr__(self, "Q", _as_complex(Q, (n, n), "Q"))
        object.__setattr__(self, "y", _as_complex(y, (), "y"))

    @property
    def n(self) -> int:
        return self.b.shape[0]

    def phi(self) -> np.ndarray:
        """Lifted coefficient matrix Phi with Tr(Phi X) = measurement value."""
        n = self.n
        phi = np.zeros((n + 1, n + 1), dtype=complex)
        phi[0, 0] = self.a
        phi[0, 1:] = self.b.conj()
        phi[1:, 0] = self.c
        phi[1:, 1:] = self.Q
        return phi


@dataclass(frozen=True, eq=False)
class QuadraticSystem:
    """A batch of quadratic measurements sharing one unknown x in C^n."""

    measurements: tuple[QuadraticMeasurement, ...]

    def __init__(self, measurements):
        measurements = tuple(measurements)
        if not measurements:
            raise ValueError("a system needs at least one measurement")
        n = measurements[0].n
        for i, meas in enumerate(measurements):
            if meas.n != n:
                raise DimensionMismatchError(
                    f"measurement {i} has dimension {meas.n}, expected {n}"
                )
        object.__setattr__(self, "measurements", measurements)

    @property
    def n(self) -> int:
        return self.measurements[0].n

    @property
    def num_measurements(self) -> int:
        return len(self.measurements)

    @cached_property
    def y(self) -> np.ndarray:
        out = np.array([m.y for m in self.measurements])
        out.flags.writeable = False
        return out

    @cached_property
    def phis(self) -> np.ndarray:
        """Stacked lifted coefficient matrices, shape (N, n+1, n+1)."""
        m = self.n + 1
        out = np.empty((self.num_measurements, m, m), dtype=complex)
        for i, meas in enumerate(self.measurements):
            out[i] = meas.phi()
        out.flags.writeable = False
        return out

    @cached_property
    def _abcq(self):
        a = np.array([m.a for m in self.measurements])
        b = np.stack([m.b for m in self.measurements])
        c = np.stack([m.c for m in self.measurements])
        q = np.stack([m.Q for m in self.measurements])
        return a, b, c, q


def hermitianize(M) -> np.ndarray:
    """Nearest Hermitian matrix (M + M^H)/2; diagonal becomes exactly real."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got {M.shape}")
    H = 0.5 * (M + M.conj().T)
    np.fill_diagonal(H, H.diagonal().real)
    return H


def check_hermitian(M, tol: float = 1e-12) -> None:
    """Raise if M deviates from Hermitian symmetry by more than tol."""
    M = np.asarray(M)
    dev = np.max(np.abs(M - M.conj().T)) if M.size else 0.0
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian: max deviation {dev:.3e}")


def evaluate(system: QuadraticSystem, x) -> np.ndarray:
    """Values of all measurements' quadratic forms at x, shape (N,)."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (system.n,):
        raise DimensionMismatchError(
            f"x has shape {x.shape}, system dimension is {system.n}"
        )
    a, b, c, q = system._abcq
    xc = x.conj()
    return a + b.conj() @ x + c @ xc + np.einsum("i,nij,j->n", xc, q, x)


def lift(x) -> np.ndarray:
    """Rank-one lifted matrix [1; x][1; x]^H, shape (n+1, n+1)."""
    x = np.atleast_1d(np.asarray(x, dtype=complex))
    v = np.concatenate(([1.0], x))
    return np.outer(v, v.conj())


def measure_lifted(system: QuadraticSystem, X) -> np.ndarray:
    """Apply the lifted measurement map: component i is Tr(Phi_i X)."""
    X = np.asarray(X, dtype=complex)
    m = system.n + 1
    if X.shape != (m, m):
        raise DimensionMismatchError(
            f"X has shape {X.shape}, expected {(m, m)}"
        )
    return np.einsum("nij,ji->n", system.phis, X)


def is_phase_invariant(system: QuadraticSystem) -> bool:
    """True when every measurement has zero linear terms.

    Such systems see only ``x x^H``, so they determine the signal at best up
    to a global phase, and the lifted border is unconstrained.
    """
    _, b, c, _ = system._abcq
    return not (np.any(b) or np.any(c))


@lru_cache(maxsize=None)
def _triu(m: int):
    return np.triu_indices(m, k=1)


def realvec(X) -> np.ndarray:
    """Isometric real coordinates of a Hermitian matrix.

    Layout: the m diagonal entries (real), then sqrt(2)*Re X[i, j] and
    sqrt(2)*Im X[i, j] over the strict upper triangle, row-major.  The map
    preserves inner products, so least squares on these coordinates agrees
    with Frobenius geometry on matrices.
    """
    X = np.asarray(X)
    m = X.shape[0]
    iu, ju = _triu(m)
    upper = X[iu, ju]
    return np.concatenate(
        [X.diagonal().real, np.sqrt(2.0) * upper.real, np.sqrt(2.0) * upper.imag]
    )


def unrealvec(v) -> np.ndarray:
    """Inverse of :func:`realvec`; returns an exactly Hermitian matrix."""
    v = np.asarray(v, dtype=float)
    m = int(round(np.sqrt(v.size)))
    if m * m != v.size:
        raise DimensionMismatchError(f"coordinate vector of size {v.size} is not square")
    iu, ju = _triu(m)
    p = iu.size
    X = np.zeros((m, m), dtype=complex)
    np.fill_diagonal(X, v[:m])
    upper = (v[m : m + p] + 1j * v[m + p :]) / np.sqrt(2.0)
    X[iu, ju] = upper
    X[ju, iu] = upper.conj()
    return X


# The realvec rows are built for blocks of measurements whose complex rows
# hold at most this many entries, so the temporaries stay small however
# large the system is.
_ROW_BLOCK = 1 << 15


def _fill_rows(phis: np.ndarray, re_out=None, im_out=None, which=None) -> None:
    """Write the real and imaginary parts of the realvec rows of ``phis``.

    The complex row r_i with r_i . realvec(X) = Tr(Phi_i X) holds the
    diagonal of Phi_i, then (Phi[j, k] + Phi[k, j]) / sqrt(2) and
    1j * (Phi[k, j] - Phi[j, k]) / sqrt(2) over the strict upper triangle,
    row-major.  The rows of the measurements ``which`` (all by default) put
    their real parts in ``re_out`` and their imaginary parts in ``im_out``,
    either of which may be None.
    """
    N, m = phis.shape[:2]
    which = np.arange(N) if which is None else np.asarray(which)
    iu, ju = _triu(m)
    diag = np.arange(m)
    block = max(1, _ROW_BLOCK // (m * m))
    for lo in range(0, which.size, block):
        part = phis[which[lo:lo + block]]
        upper, lower = part[:, iu, ju], part[:, ju, iu]
        rows = np.concatenate([
            part[:, diag, diag],
            (upper + lower) / np.sqrt(2.0),
            1j * (lower - upper) / np.sqrt(2.0),
        ], axis=1)
        if re_out is not None:
            re_out[lo:lo + block] = rows.real
        if im_out is not None:
            im_out[lo:lo + block] = rows.imag


def real_measurement_matrix(system: QuadraticSystem):
    """Real matrix form of the lifted measurement map.

    Returns ``(B, rhs)`` with B of shape (2N, (n+1)^2) acting on realvec
    coordinates; the first N rows carry the real parts of the measurements
    and the last N rows the imaginary parts, so B v = rhs exactly encodes
    Tr(Phi_i X) = y_i for X = unrealvec(v).
    """
    phis = system.phis
    N, m = phis.shape[:2]
    B = np.empty((2 * N, m * m))
    _fill_rows(phis, B[:N], B[N:])
    rhs = np.concatenate([system.y.real, system.y.imag])
    return B, rhs


def constraint_system(system: QuadraticSystem):
    """Measurement constraints plus the unit-corner row, in real coordinates.

    Identically zero rows with zero right-hand side (the imaginary parts of
    real-valued measurements with Hermitian coefficients) are dropped, and a
    final row pinning X[0, 0] = 1 is appended.  The rows are written straight
    into the returned matrix.
    """
    phis, y = system.phis, system.y
    N, m = phis.shape[:2]
    # an imaginary row is identically zero exactly when its Phi is Hermitian
    imag_rows = [i for i, (phi, v) in enumerate(zip(phis, y))
                 if v.imag != 0.0 or not np.array_equal(phi, phi.conj().T)]
    k = len(imag_rows)
    A = np.zeros((N + k + 1, m * m))
    _fill_rows(phis, re_out=A[:N])
    _fill_rows(phis, im_out=A[N:N + k], which=imag_rows)
    A[-1, 0] = 1.0
    b = np.concatenate([y.real, y.imag[imag_rows], [1.0]])
    return A, b


def vec_measurement_matrix(system: QuadraticSystem) -> np.ndarray:
    """Complex matrix M with M @ X.ravel() = measurements, shape (N, (n+1)^2).

    Column (j, k) holds the coefficients multiplying the matrix entry
    X[j, k]; the coherence diagnostics operate on these columns.
    """
    phis = system.phis
    N = phis.shape[0]
    return phis.transpose(0, 2, 1).reshape(N, -1)
