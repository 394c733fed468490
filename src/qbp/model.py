"""Systems of quadratic equations and their lifted linear forms.

A measurement takes the value ``y = a + b^H x + x^H c + x^H Q x`` at the
unknown ``x in C^n``.  Every such scalar is linear in the rank-one lifted
matrix ``X = [1; x][1; x]^H``:

    y = Tr(Phi X),   Phi = [[a, b^H], [c, Q]]  of shape (n+1, n+1).

A system holds its data once, as two read-only arrays: the stack ``phis`` of
the N matrices Phi and the values ``y``.  The blocks a, b, c and Q are read
from the stack.  A single measurement is a plain record (a, b, c, Q, y) that a
system checks and writes into its stack.  The module also holds the lifting
map, the real coordinates of a Hermitian matrix (:func:`hermitian_coordinates`,
read by ``_gather`` and written by ``_scatter``) and the one matrix form of
the induced linear operator on Hermitian matrices that the solver is built
on (:func:`constraint_system`), whose rows are the gathered Hermitian and
skew-Hermitian parts of each Phi.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
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
    # a bool compares as 0 or 1 and a string or None fails with a TypeError,
    # so only real numbers are accepted (numpy's too); a NaN fails every
    # comparison, so test for the good range, not the bad one
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")


def _require_integer(name: str, value, minimum: int) -> None:
    # the one rule for every count and seed: a float or a bool passes a range
    # test but fails later as a count or a seed, so only integers are
    # accepted (numpy's too; bool is not one), and none below ``minimum``
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value!r}")


QuadraticMeasurement = namedtuple("QuadraticMeasurement", "a b c Q y")
QuadraticMeasurement.__doc__ = """One equation a + b^H x + x^H c + x^H Q x = y, as a record.

The record holds what it was given; ``QuadraticSystem(measurements)``
checks its fields and writes them into the system's stack.  The JSON loader
and perfbench's ``relabel`` build systems this way.
"""


def _block(index):
    return property(lambda self: self.phis[index])


@dataclass(frozen=True, eq=False)
class QuadraticSystem:
    """A batch of quadratic measurements sharing one unknown x in C^n.

    ``phis`` stacks the lifted matrices, shape (N, n+1, n+1), and ``y`` the
    values, shape (N,); both are read-only and are the only data held.  The
    blocks of Phi = [[a, b^H], [c, Q]] are views of ``phis``, stacked over
    the measurements, and ``b`` is the conjugate of the border rows ``bh``.
    """

    phis: np.ndarray
    y: np.ndarray

    a = _block(np.s_[:, 0, 0])
    bh = _block(np.s_[:, 0, 1:])
    c = _block(np.s_[:, 1:, 0])
    Q = _block(np.s_[:, 1:, 1:])

    def __init__(self, measurements):
        measurements = tuple(measurements)
        if not measurements:
            raise ValueError("a system needs at least one measurement")
        n = np.size(measurements[0].b)
        phis = np.empty((len(measurements), n + 1, n + 1), dtype=complex)
        y = np.empty(len(measurements), dtype=complex)
        for i, (phi, m) in enumerate(zip(phis, measurements)):
            at = f"measurement {i}"
            phi[0, 0] = _as_complex(m.a, (), f"{at}.a")
            phi[0, 1:] = _as_complex(m.b, (n,), f"{at}.b").conj()
            phi[1:, 0] = _as_complex(m.c, (n,), f"{at}.c")
            phi[1:, 1:] = _as_complex(m.Q, (n, n), f"{at}.Q")
            y[i] = _as_complex(m.y, (), f"{at}.y")
        self._hold(phis, y)

    @classmethod
    def from_arrays(cls, phis, y) -> QuadraticSystem:
        """System over N >= 1 lifted matrices and their values.

        Complex arrays are taken over, not copied, and made read-only, so
        ``from_arrays(system.phis, y)`` re-values a system on its own stack.
        """
        phis = np.asarray(phis, dtype=complex)
        if phis.ndim != 3 or not phis.shape[0] or phis.shape[1] != phis.shape[2]:
            raise DimensionMismatchError(
                f"phis: expected shape (N, n+1, n+1), got {phis.shape}"
            )
        out = object.__new__(cls)
        out._hold(_as_complex(phis, phis.shape, "phis"), y)
        return out

    def _hold(self, phis, y):
        y = _as_complex(y, phis.shape[:1], "y")
        phis.flags.writeable = y.flags.writeable = False
        object.__setattr__(self, "phis", phis)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.phis.shape[-1] - 1

    @property
    def b(self) -> np.ndarray:
        return self.bh.conj()

    @property
    def num_measurements(self) -> int:
        return self.phis.shape[0]

    @cached_property
    def measurements(self) -> tuple[QuadraticMeasurement, ...]:
        """One record per row: ``a``, ``c``, ``Q`` and ``y`` are views of this
        system's arrays and ``b`` a row of one conjugated copy of ``bh``."""
        a, b, c, Q, y = self.a, self.b, self.c, self.Q, self.y
        return tuple(QuadraticMeasurement(a[i, ...], b[i], c[i], Q[i], y[i, ...])
                     for i in range(self.num_measurements))


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


HermitianMaps = namedtuple("HermitianMaps", "gather weights src unweigh")


@lru_cache(maxsize=None)
def hermitian_coordinates(m: int) -> HermitianMaps:
    """Read-only index maps between an m x m complex matrix and its coordinates.

    The coordinates are the real diagonal, then each entry of the strict
    upper triangle, row-major, as its real and imaginary parts side by side,
    so they read as m real numbers followed by m(m-1)/2 complex ones.  Times
    ``weights`` (1 on the diagonal, sqrt(2) off it) they are isometric: the
    dot product of the weighted coordinates of two Hermitian matrices is
    Tr(X1 X2).  Returns the named tuple ``(gather, weights, src, unweigh)``:

    - the weighted coordinates of a matrix are ``flat[gather] * weights``,
      ``flat`` the matrix's flat float64 view;
    - a weighted coordinate vector x padded with one zero slot (x[m*m] = 0)
      is written back as ``flat[k] = unweigh[k] * x[src[k]]``: the lower
      triangle reads the upper one with the sign of its imaginary part
      flipped, and the imaginary diagonal reads the zero slot.
    """
    iu, ju = np.triu_indices(m, k=1)
    diag = np.arange(m) * (2 * m + 2)
    upper = 2 * (iu * m + ju)
    lower = 2 * (ju * m + iu)
    gather = np.concatenate([diag, np.stack([upper, upper + 1], axis=1).ravel()])
    src = np.full(2 * m * m, m * m)
    src[gather] = np.arange(m * m)
    src[lower] = src[upper]
    src[lower + 1] = src[upper + 1]
    weights = np.full(m * m, np.sqrt(2.0))
    weights[:m] = 1.0
    unweigh = 1.0 / np.append(weights, 1.0)[src]
    unweigh[lower + 1] *= -1.0
    maps = HermitianMaps(gather, weights, src, unweigh)
    for arr in maps:
        arr.flags.writeable = False
    return maps


def _flat(A: np.ndarray) -> np.ndarray:
    """A contiguous real or complex array as one flat float64 view."""
    return A.reshape(-1).view(np.float64)


# The index maps are in range, and a take with mode "clip" into ``out`` skips
# the bounds-checked copy that the default mode makes.

def _gather(P: np.ndarray, maps: HermitianMaps, out: np.ndarray) -> np.ndarray:
    """Write the weighted coordinates of the Hermitian, C-contiguous ``P`` to ``out``."""
    _flat(P).take(maps.gather, out=out, mode="clip")
    out *= maps.weights
    return out


def _scatter(x: np.ndarray, maps: HermitianMaps, out: np.ndarray) -> np.ndarray:
    """Write the Hermitian matrix with weighted coordinates ``x[:-1]`` to ``out``.

    ``out`` is the flat float64 view of a C-contiguous complex matrix, and
    ``x`` ends in one zero slot, which the imaginary diagonal reads, so the
    matrix is exactly Hermitian.  Each off-diagonal part comes back from
    :func:`_gather` within one unit in the last place (the weight sqrt(2)
    is not a binary fraction); the diagonal comes back exactly.
    """
    x.take(maps.src, out=out, mode="clip")
    out *= maps.unweigh
    return out


def constraint_system(system: QuadraticSystem):
    """Measurement constraints as coordinate rows and their right-hand side.

    For Hermitian X, Re Tr(Phi X) is the Frobenius product of X with the
    Hermitian part (Phi + Phi^H) / 2 and Im Tr(Phi X) that with the
    skew-Hermitian part (Phi - Phi^H) / 2i, so in the weighted coordinates
    of :func:`hermitian_coordinates` each is the dot product with the
    gathered part.  Row i holds the first for measurement i; the second
    follows the N real rows, in measurement order, for each measurement
    whose y has an imaginary part or whose skew part is not identically
    zero.  The rows left out are zero with a zero right-hand side (those of
    real-valued measurements with Hermitian coefficients), so A v = b
    exactly encodes Tr(Phi_i X) = y_i for the Hermitian X with coordinates
    v.  The unit corner X[0, 0] = 1 is not a row: the solver's X1 step pins
    it.
    """
    phis, y = system.phis, system.y
    N, m = phis.shape[:2]
    maps = hermitian_coordinates(m)
    A = np.empty((2 * N, m * m))
    kept = []
    for i, phi in enumerate(phis):
        phi_h = phi.conj().T
        _gather(0.5 * (phi + phi_h), maps, A[i])
        skew = phi - phi_h
        if y[i].imag or skew.any():
            _gather(-0.5j * skew, maps, A[N + len(kept)])
            kept.append(i)
    return A[:N + len(kept)], np.concatenate([y.real, y.imag[kept]])


# perfbench traces the budget step's row builder under this name
real_measurement_matrix = constraint_system
