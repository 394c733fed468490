"""Systems of quadratic equations and their lifted linear forms.

A measurement takes the value ``y = a + b^H x + x^H c + x^H Q x`` at the
unknown ``x in C^n``.  Every such scalar is linear in the rank-one lifted
matrix ``X = [1; x][1; x]^H``:

    y = Tr(Phi X),   Phi = [[a, b^H], [c, Q]]  of shape (n+1, n+1).

A system holds its data once, as two read-only arrays: the stack ``phis`` of
the N matrices Phi and the values ``y``.  The blocks a, b, c and Q are read
from the stack, and a single measurement is a view of one of its rows.  The
module also holds the lifting map, the real coordinates of a Hermitian
matrix (:func:`hermitian_coordinates`) and the matrix forms of the induced
linear operator on Hermitian matrices that the solver and the diagnostics
are built on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "NonFiniteValueError",
    "QuadraticMeasurement",
    "QuadraticSystem",
    "hermitianize",
    "evaluate",
    "lift",
    "measure_lifted",
    "is_phase_invariant",
    "hermitian_coordinates",
    "real_measurement_matrix",
    "constraint_system",
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
    return arr


def _require_nonnegative(name: str, value: float) -> None:
    # a NaN fails every comparison, so test for the good range, not the bad one
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")


def _block(index):
    return property(lambda self: self._lifted[index])


class _Blocks:
    """Views of the blocks of Phi = [[a, b^H], [c, Q]] in ``_lifted``'s last two axes."""

    a = _block(np.s_[..., 0, 0])
    bh = _block(np.s_[..., 0, 1:])  # the border row b^H
    c = _block(np.s_[..., 1:, 0])
    Q = _block(np.s_[..., 1:, 1:])

    @property
    def n(self) -> int:
        return self._lifted.shape[-1] - 1

    @property
    def b(self) -> np.ndarray:
        return self.bh.conj()


@dataclass(frozen=True, eq=False)
class QuadraticMeasurement(_Blocks):
    """One equation a + b^H x + x^H c + x^H Q x = y; ``a`` and ``y`` are 0-d.

    Kept, with ``QuadraticSystem(measurements)``, for perfbench's ``relabel``.
    """

    _lifted: np.ndarray
    y: np.ndarray

    def __init__(self, a, b, c, Q, y):
        b = np.atleast_1d(np.asarray(b, dtype=complex))
        n = b.shape[0]
        phi = np.empty((n + 1, n + 1), dtype=complex)
        phi[0, 0] = _as_complex(a, (), "a")
        phi[0, 1:] = _as_complex(b, (n,), "b").conj()
        phi[1:, 0] = _as_complex(c, (n,), "c")
        phi[1:, 1:] = _as_complex(Q, (n, n), "Q")
        y = _as_complex(y, (), "y").copy()
        phi.flags.writeable = y.flags.writeable = False
        object.__setattr__(self, "_lifted", phi)
        object.__setattr__(self, "y", y)

    @classmethod
    def _view(cls, phi: np.ndarray, y: np.ndarray) -> QuadraticMeasurement:
        out = object.__new__(cls)
        object.__setattr__(out, "_lifted", phi)
        object.__setattr__(out, "y", y)
        return out

    def phi(self) -> np.ndarray:
        """Lifted coefficient matrix Phi with Tr(Phi X) = measurement value."""
        return self._lifted


@dataclass(frozen=True, eq=False)
class QuadraticSystem(_Blocks):
    """A batch of quadratic measurements sharing one unknown x in C^n.

    ``phis`` stacks the lifted matrices, shape (N, n+1, n+1), and ``y`` the
    values, shape (N,); both are read-only and are the only data held.
    """

    phis: np.ndarray
    y: np.ndarray

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
        self._hold(np.stack([m.phi() for m in measurements]),
                   np.array([m.y for m in measurements]))

    @classmethod
    def from_arrays(cls, phis, y) -> QuadraticSystem:
        """System over N >= 1 lifted matrices and their values.

        Complex arrays are taken over, not copied, and made read-only.
        """
        phis = np.asarray(phis, dtype=complex)
        if phis.ndim != 3 or not phis.shape[0] or phis.shape[1] != phis.shape[2]:
            raise DimensionMismatchError(
                f"phis: expected shape (N, n+1, n+1), got {phis.shape}"
            )
        out = object.__new__(cls)
        out._hold(_as_complex(phis, phis.shape, "phis"), y)
        return out

    def with_values(self, y) -> QuadraticSystem:
        """The same lifted matrices, shared and not copied, with values y."""
        out = object.__new__(type(self))
        out._hold(self.phis, y)
        return out

    def _hold(self, phis, y):
        y = _as_complex(y, phis.shape[:1], "y")
        phis.flags.writeable = y.flags.writeable = False
        object.__setattr__(self, "phis", phis)
        object.__setattr__(self, "y", y)

    @property
    def _lifted(self) -> np.ndarray:
        return self.phis

    @property
    def num_measurements(self) -> int:
        return self.phis.shape[0]

    @cached_property
    def measurements(self) -> tuple[QuadraticMeasurement, ...]:
        """One measurement per row, each a view of this system's arrays."""
        return tuple(QuadraticMeasurement._view(phi, self.y[i, ...])
                     for i, phi in enumerate(self.phis))


def hermitianize(M) -> np.ndarray:
    """Nearest Hermitian matrix (M + M^H)/2; diagonal becomes exactly real."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got {M.shape}")
    H = 0.5 * (M + M.conj().T)
    np.fill_diagonal(H, H.diagonal().real)
    return H


def evaluate(system: QuadraticSystem, x) -> np.ndarray:
    """Values of all measurements' quadratic forms at x, shape (N,)."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (system.n,):
        raise DimensionMismatchError(
            f"x has shape {x.shape}, system dimension is {system.n}"
        )
    xc = x.conj()
    return (system.a + system.bh @ x + system.c @ xc
            + np.einsum("i,nij,j->n", xc, system.Q, x))


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
    return not (np.any(system.bh) or np.any(system.c))


@lru_cache(maxsize=None)
def hermitian_coordinates(m: int):
    """Read-only index maps between an m x m complex matrix and its coordinates.

    The coordinates are the real diagonal, then the real and the imaginary
    parts of the strict upper triangle, row-major.  Times ``weights`` (1 on
    the diagonal, sqrt(2) off it) they are isometric: the dot product of the
    weighted coordinates of two Hermitian matrices is Tr(X1 X2).  Returns
    ``(gather, src, coef, weights)``:

    - ``gather[j]`` is the position of coordinate j in the matrix's flat
      float64 view;
    - a coordinate vector x padded with one zero slot (x[m*m] = 0) is written
      back as ``flat[k] = coef[k] * x[src[k]]``: the lower triangle reads the
      upper one with the sign of its imaginary part flipped, and the
      imaginary diagonal reads the zero slot;
    - ``weights`` holds those scale factors.
    """
    iu, ju = np.triu_indices(m, k=1)
    diag = np.arange(m) * (2 * m + 2)
    upper = 2 * (iu * m + ju)
    lower = 2 * (ju * m + iu)
    gather = np.concatenate([diag, upper, upper + 1])
    src = np.full(2 * m * m, m * m)
    src[gather] = np.arange(m * m)
    src[lower] = src[upper]
    src[lower + 1] = src[upper + 1]
    coef = np.ones(2 * m * m)
    coef[lower + 1] = -1.0
    weights = np.full(m * m, np.sqrt(2.0))
    weights[:m] = 1.0
    maps = gather, src, coef, weights
    for arr in maps:
        arr.flags.writeable = False
    return maps


def _flat(A: np.ndarray) -> np.ndarray:
    """A contiguous real or complex array as one flat float64 view."""
    return A.reshape(-1).view(np.float64)


# The coordinate rows are built for blocks of measurements whose complex rows
# hold at most this many entries, so the temporaries stay small however
# large the system is.
_ROW_BLOCK = 1 << 15


def _fill_rows(phis: np.ndarray, re_out=None, im_out=None, which=None) -> None:
    """Write the real and imaginary parts of the coordinate rows of ``phis``.

    The complex row r_i with r_i . v = Tr(Phi_i X), v the weighted
    coordinates of X (:func:`hermitian_coordinates`), holds the
    diagonal of Phi_i, then (Phi[j, k] + Phi[k, j]) / sqrt(2) and
    1j * (Phi[k, j] - Phi[j, k]) / sqrt(2) over the strict upper triangle,
    row-major.  The rows of the measurements ``which`` (all by default) put
    their real parts in ``re_out`` and their imaginary parts in ``im_out``,
    either of which may be None.
    """
    N, m = phis.shape[:2]
    which = np.arange(N) if which is None else np.asarray(which)
    iu, ju = np.triu_indices(m, k=1)
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

    Returns ``(B, rhs)`` with B of shape (2N, (n+1)^2) acting on the
    weighted coordinates v of :func:`hermitian_coordinates`; the first N
    rows carry the real parts of the measurements and the last N rows the
    imaginary parts, so B v = rhs exactly encodes Tr(Phi_i X) = y_i for the
    Hermitian X with coordinates v.
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
    re, im = phis.real, phis.imag
    hermitian = ((re == re.transpose(0, 2, 1)) & (im == -im.transpose(0, 2, 1))).all(axis=(1, 2))
    imag_rows = np.flatnonzero((y.imag != 0.0) | ~hermitian)
    k = imag_rows.size
    A = np.zeros((N + k + 1, m * m))
    _fill_rows(phis, re_out=A[:N])
    _fill_rows(phis, im_out=A[N:N + k], which=imag_rows)
    A[-1, 0] = 1.0
    b = np.concatenate([y.real, y.imag[imag_rows], [1.0]])
    return A, b

