"""Random and deterministic instance families for experiments.

Every generator returns ``(system, x_true)`` with the measurement values
computed from ``x_true`` through the same evaluation path the library uses,
so generated instances are exactly consistent.  Each checks its counts and
seed before it draws, by one rule that ``ExperimentSpec`` reuses.  All
randomness flows through one ``numpy`` generator seeded by the caller; a
fixed seed reproduces the instance bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from qbp.model import (NonFiniteValueError, QuadraticSystem, _require_integer, evaluate,
                       hermitianize)

__all__ = [
    "SIGNALS",
    "general_quadratic",
    "pure_phase",
    "fourier_basis",
    "fourier_sparse_image",
    "phantom_image",
    "truncate_fourier",
    "phantom_instance",
]

# the kinds of planted signal values: unit ("binary") or Gaussian
SIGNALS = ("binary", "gaussian")


def _measured(phis: np.ndarray, x, real: bool = False):
    # y is evaluate(system, x_true) exactly; magnitudes are real by
    # construction, so dropping their imaginary rounding dust keeps the
    # induced constraints real
    probe = QuadraticSystem.from_arrays(phis, np.zeros(phis.shape[0]))
    y = evaluate(probe, x)
    return probe.with_values(y.real if real else y), x


def _circular_normal(rng, shape=None):
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / np.sqrt(2.0)


def _check_draw(n: int, N: int, k: int, signal: str, seed: int, image: bool = False) -> None:
    """Refuse what no ensemble can draw; ``ExperimentSpec`` asks the same.

    ``signal`` is one of ``SIGNALS``; n, N and k are integers of at least 1
    and the seed one of at least 0; an ``image`` needs n = side^2 pixels with
    side >= 2, which is checked before k <= n.
    """
    if signal not in SIGNALS:
        raise ValueError(f"unknown signal kind {signal!r}")
    for name, value, minimum in (("n", n, 1), ("N", N, 1), ("k", k, 1), ("seed", seed, 0)):
        _require_integer(name, value, minimum)
    if image and (n < 4 or math.isqrt(n) ** 2 != n):
        raise ValueError(f"an image needs n = side^2 with side >= 2, got n={n}")
    if k > n:
        raise ValueError(f"k must be in [1, {n}]")


def _planted(rng, n: int, k: int, signal: str, real: bool = False):
    """k-sparse x on a uniform support: unit values, or real or circular normal ones."""
    support = np.sort(rng.choice(n, size=k, replace=False))
    x = np.zeros(n, dtype=complex)
    if signal == "binary":
        x[support] = 1.0
    else:
        x[support] = rng.standard_normal(k) if real else _circular_normal(rng, k)
    return x


def general_quadratic(n: int, N: int, k: int, signal: str = "binary",
                      seed: int = 0):
    """Dense unitarily invariant Gaussian quadratics at a k-sparse signal.

    Each measurement draws a scalar offset, a linear term, and a full (not
    Hermitian) quadratic matrix with i.i.d. circular complex normal entries.
    The signal support is uniform; ``signal`` picks unit or real Gaussian
    values.
    """
    _check_draw(n, N, k, signal, seed)
    rng = np.random.default_rng(seed)
    x = _planted(rng, n, k, signal, real=True)
    phis = np.zeros((N, n + 1, n + 1), dtype=complex)
    for phi in phis:
        phi[0, 0] = _circular_normal(rng)
        phi[0, 1:] = _circular_normal(rng, n).conj()
        phi[1:, 1:] = _circular_normal(rng, (n, n))
    return _measured(phis, x)


def _magnitude_system(sensing: np.ndarray, x):
    # |<a_i, x>|^2 = x^H (a_i a_i^H) x with a_i the conjugate of row i, the
    # outer product symmetrized in its slot because fused multiplies leave it
    # Hermitian only up to rounding; b = 0 makes the border row conj(0) = 0 - 0j
    N, n = sensing.shape
    phis = np.zeros((N, n + 1, n + 1), dtype=complex)
    phis[:, 0, 1:] = np.conj(0j)
    for phi, row in zip(phis, sensing):
        phi[1:, 1:] = hermitianize(np.outer(row.conj(), row))
    return _measured(phis, x, real=True)


def pure_phase(n: int, N: int, k: int, signal: str = "gaussian", seed: int = 0):
    """Magnitude-only measurements y_i = |<a_i, x>|^2 with Gaussian a_i."""
    _check_draw(n, N, k, signal, seed)
    rng = np.random.default_rng(seed)
    x = _planted(rng, n, k, signal)
    return _magnitude_system(_circular_normal(rng, (N, n)).conj(), x)


def fourier_basis(side: int) -> np.ndarray:
    """Inverse 2-D DFT as a matrix on row-major vectorized coefficients.

    ``fourier_basis(s) @ coeffs.ravel()`` equals ``np.fft.ifft2(coeffs).ravel()``
    for an (s, s) coefficient array.
    """
    _require_integer("side", side, 1)
    grid = np.arange(side)
    W1 = np.exp(2j * np.pi * np.outer(grid, grid) / side) / side
    return np.kron(W1, W1)


def fourier_sparse_image(n: int, N: int, k: int, signal: str = "gaussian",
                         seed: int = 0):
    """Magnitude measurements of an n = side^2 pixel image with k active Fourier
    coefficients, unit or circular Gaussian as ``signal`` picks.

    The unknown is the coefficient vector; each sensing row is a complex
    Gaussian combination of the inverse-DFT rows, so the measurements probe
    the image the coefficients synthesize.
    """
    _check_draw(n, N, k, signal, seed, image=True)
    rng = np.random.default_rng(seed)
    return _fourier_magnitudes(rng, math.isqrt(n), N, _planted(rng, n, k, signal))


def _fourier_magnitudes(rng, side: int, N: int, x):
    sensing = _circular_normal(rng, (N, side * side)) @ fourier_basis(side)
    return _magnitude_system(sensing, x)


_ELLIPSES = (
    # center x, center y, semi-axis x, semi-axis y, value
    (0.0, 0.0, 0.92, 0.85, 1.0),
    (0.0, -0.05, 0.62, 0.55, 0.4),
    (0.22, 0.12, 0.26, 0.2, 0.85),
    (-0.24, 0.08, 0.18, 0.26, 0.1),
)


def phantom_image(side: int) -> np.ndarray:
    """Deterministic piecewise-constant test image of nested ellipses."""
    _require_integer("side", side, 2)
    grid = (np.arange(side) - (side - 1) / 2.0) / (side / 2.0)
    v, u = np.meshgrid(grid, grid, indexing="ij")
    img = np.zeros((side, side))
    for cx, cy, rx, ry, val in _ELLIPSES:
        mask = ((u - cx) / rx) ** 2 + ((v - cy) / ry) ** 2 <= 1.0
        img[mask] = val
    return img


def truncate_fourier(image: np.ndarray, k: int) -> np.ndarray:
    """Best k-term DFT approximation that keeps conjugate symmetry.

    Coefficients are grouped with their reflection (q -> -q mod side); groups
    are taken in decreasing energy while they fit the remaining budget, so a
    real image stays real after truncation.  Returns the vectorized k-sparse
    coefficient array.  The image must be real, square and finite.
    """
    if np.iscomplexobj(image):
        raise ValueError("image must be real")
    image = np.asarray(image, dtype=float)
    if image.ndim != 2 or image.shape[0] != image.shape[1]:
        raise ValueError("image must be square")
    if not np.isfinite(image).all():
        raise NonFiniteValueError("image: non-finite pixels")
    side = image.shape[0]
    _require_integer("k", k, 1)
    if k > side * side:
        raise ValueError(f"k must be in [1, {side * side}]")
    C = np.fft.fft2(image).ravel()
    groups = []
    for i in range(side * side):
        # the row-major index of the reflection of i's (row, column)
        mate = ((-(i // side)) % side) * side + (-i) % side
        if mate >= i:  # a group is led by its smaller index
            members = (i,) if mate == i else (i, mate)
            groups.append((sum(abs(C[j]) ** 2 for j in members), members))
    groups.sort(key=lambda g: -g[0])
    out = np.zeros(side * side, dtype=complex)
    budget = k
    for energy, members in groups:
        if len(members) <= budget and energy > 0.0:
            out[list(members)] = C[list(members)]
            budget -= len(members)
        if budget == 0:
            break
    return out


def phantom_instance(side: int, k: int, N: int, seed: int = 0):
    """Magnitude measurements of the truncated phantom's Fourier coefficients."""
    _require_integer("N", N, 1)
    _require_integer("seed", seed, 0)
    x = truncate_fourier(phantom_image(side), k)
    return _fourier_magnitudes(np.random.default_rng(seed), side, N, x)
