"""Random instance families and the image pipeline."""

import io

import numpy as np
import pytest

from qbp.admm import SolverConfig, solve, solve_denoising
from qbp.generators import (
    fourier_basis,
    fourier_sparse_image,
    general_quadratic,
    phantom_image,
    phantom_instance,
    pure_phase,
    truncate_fourier,
)
from qbp.model import evaluate, is_phase_invariant
from qbp.montecarlo import trial_seed
from qbp.recovery import build_report
from qbp.serialize import load_system, save_system

from support import (
    check_hermitian,
    reference_fourier_sparse_image,
    reference_general_quadratic,
    reference_phantom_instance,
    reference_pure_phase,
)

# Each generator against its per-measurement reference.  The first three
# cases are the benchmark's instances: the first table trial, the README
# holes preset and the phantom default.
REFERENCE_CASES = [
    (general_quadratic, reference_general_quadratic, (20, 25, 3, "binary", trial_seed(0, 0))),
    (pure_phase, reference_pure_phase, (16, 60, 3, "binary", 0)),
    (phantom_instance, reference_phantom_instance, (8, 10, 128, 0)),
    (general_quadratic, reference_general_quadratic, (5, 7, 2, "gaussian", 3)),
    (pure_phase, reference_pure_phase, (4, 9, 2, "gaussian", 1)),
    (fourier_sparse_image, reference_fourier_sparse_image, (9, 20, 2, "gaussian", 0)),
    (phantom_instance, reference_phantom_instance, (4, 3, 24, 6)),
    (fourier_sparse_image, reference_fourier_sparse_image, (16, 12, 3, "binary", 1)),
]
# one small instance of each generator
SAVE_CASES = REFERENCE_CASES[3:]


def test_general_quadratic_measurements_match_plant():
    system, x = general_quadratic(6, 10, 3, "binary", seed=0)
    assert system.n == 6
    assert system.num_measurements == 10
    assert np.array_equal(system.y, evaluate(system, x))


def test_general_quadratic_structure():
    system, x = general_quadratic(5, 8, 2, "binary", seed=1)
    assert np.count_nonzero(x) == 2
    assert set(x[np.abs(x) > 0]) == {1.0 + 0.0j}
    for m in system.measurements:
        assert np.array_equal(m.c, np.zeros(5))
        assert np.any(m.b != 0.0)
        assert np.any(m.Q.imag != 0.0)  # genuinely complex draws
    assert not is_phase_invariant(system)


def test_general_quadratic_gaussian_signal():
    _, x = general_quadratic(8, 4, 3, "gaussian", seed=2)
    support = np.abs(x) > 0
    assert support.sum() == 3
    assert np.array_equal(x[support].imag, np.zeros(3))
    assert not np.array_equal(x[support].real, np.ones(3))


def test_general_quadratic_determinism():
    sys_a, x_a = general_quadratic(5, 6, 2, "binary", seed=3)
    sys_b, x_b = general_quadratic(5, 6, 2, "binary", seed=3)
    assert np.array_equal(x_a, x_b)
    assert np.array_equal(sys_a.y, sys_b.y)
    for ma, mb in zip(sys_a.measurements, sys_b.measurements):
        assert np.array_equal(ma.Q, mb.Q)
        assert np.array_equal(ma.b, mb.b)
    sys_c, _ = general_quadratic(5, 6, 2, "binary", seed=4)
    assert not np.array_equal(sys_a.y, sys_c.y)


def test_generator_argument_validation():
    with pytest.raises(ValueError):
        general_quadratic(4, 6, 0, seed=0)
    with pytest.raises(ValueError):
        general_quadratic(4, 6, 5, seed=0)
    with pytest.raises(ValueError):
        general_quadratic(4, 6, 2, signal="spiky", seed=0)
    with pytest.raises(ValueError):
        pure_phase(4, 6, 2, signal="spiky", seed=0)
    # the Fourier unknowns are the pixels of a square image of side >= 2
    for n in (1, 7, 20):
        with pytest.raises(ValueError, match=f"n = side\\^2 with side >= 2, got n={n}"):
            fourier_sparse_image(n, 6, 1, seed=0)


def test_pure_phase_structure():
    system, x = pure_phase(6, 12, 2, "gaussian", seed=0)
    assert is_phase_invariant(system)
    assert np.array_equal(system.y.imag, np.zeros(12))
    assert np.all(system.y.real >= -1e-12)
    for m in system.measurements:
        assert np.array_equal(m.b, np.zeros(6))
        assert np.array_equal(m.c, np.zeros(6))
        assert m.a == 0.0
        check_hermitian(m.Q)
    # stored values are the real parts of the evaluated magnitudes
    fresh = evaluate(system, x)
    assert np.array_equal(system.y.real, fresh.real)
    assert np.abs(fresh.imag).max() < 1e-12


def test_pure_phase_measurements_are_magnitudes():
    system, x = pure_phase(5, 8, 2, "gaussian", seed=1)
    for m in system.measurements:
        # each coefficient matrix is rank one and PSD: Q = a a^H
        w = np.linalg.eigvalsh(m.Q)
        assert w[0] > -1e-12
        assert w[-2] < 1e-12 * max(w[-1], 1.0)


def test_pure_phase_is_phase_blind():
    system, x = pure_phase(5, 10, 2, "gaussian", seed=2)
    for theta in (0.7, 2.1):
        y = evaluate(system, np.exp(1j * theta) * x)
        assert np.allclose(y, system.y, rtol=1e-10, atol=1e-12)


def test_pure_phase_binary_signal():
    _, x = pure_phase(6, 10, 3, "binary", seed=3)
    assert set(x[np.abs(x) > 0]) == {1.0 + 0.0j}


def test_pure_phase_small_instance_recovers():
    system, x = pure_phase(4, 12, 1, "gaussian", seed=0)
    result = solve(system, 2.0, SolverConfig(eps_abs=1e-5, eps_rel=1e-5,
                                             max_iters=20000))
    report = build_report(system, result, x, tol=1e-2, phase_invariant=True)
    assert report.success


def test_fourier_basis_matches_ifft2():
    rng = np.random.default_rng(4)
    C = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    got = fourier_basis(4) @ C.ravel()
    assert np.allclose(got, np.fft.ifft2(C).ravel(), atol=1e-12)
    assert np.allclose(fourier_basis(1), [[1.0]])
    with pytest.raises(ValueError):
        fourier_basis(0)


def test_fourier_sparse_image_instance():
    system, x = fourier_sparse_image(16, 20, 2, seed=5)
    assert system.n == 16
    assert np.count_nonzero(x) == 2
    assert is_phase_invariant(system)
    fresh = evaluate(system, x)
    assert np.array_equal(system.y.real, fresh.real)
    assert np.abs(fresh.imag).max() < 1e-12
    assert np.array_equal(system.y.imag, np.zeros(20))
    _, x = fourier_sparse_image(16, 20, 3, "binary", seed=5)
    assert set(x[np.abs(x) > 0]) == {1.0 + 0.0j}


def test_fourier_sparse_image_denoising_recovery():
    system, x = fourier_sparse_image(16, 64, 2, seed=0)
    cfg = SolverConfig(eps_abs=1e-5, eps_rel=1e-5, max_iters=20000)
    result = solve_denoising(system, 1.0, 1e-6, cfg)
    report = build_report(system, result, x, tol=1e-2, phase_invariant=True)
    assert report.success


def test_phantom_image_layout():
    img = phantom_image(16)
    assert img.shape == (16, 16)
    assert np.array_equal(img, phantom_image(16))
    assert np.isin(img, [0.0, 0.1, 0.4, 0.85, 1.0]).all()
    assert img[0, 0] == 0.0  # corners lie outside every ellipse
    assert img[8, 8] > 0.0
    with pytest.raises(ValueError):
        phantom_image(1)


def test_truncate_fourier_budget_and_realness():
    img = phantom_image(8)
    for k in (1, 5, 10):
        coeffs = truncate_fourier(img, k)
        assert np.count_nonzero(coeffs) <= k
        synth = np.fft.ifft2(coeffs.reshape(8, 8))
        assert np.max(np.abs(synth.imag)) < 1e-12


def test_truncate_fourier_keeps_dominant_terms():
    img = phantom_image(8)
    C = np.fft.fft2(img)
    one = truncate_fourier(img, 1).reshape(8, 8)
    assert one[0, 0] == C[0, 0]  # the DC term dominates this image
    assert np.count_nonzero(one) == 1
    full = truncate_fourier(img, 64).reshape(8, 8)
    assert np.allclose(np.fft.ifft2(full).real, img, atol=1e-10)


def test_truncate_fourier_validation():
    img = phantom_image(4)
    with pytest.raises(ValueError):
        truncate_fourier(img, 0)
    with pytest.raises(ValueError):
        truncate_fourier(img, 17)
    with pytest.raises(ValueError):
        truncate_fourier(np.zeros((3, 4)), 2)


def test_phantom_instance_consistency():
    side, k = 4, 3
    system, x = phantom_instance(side, k, 24, seed=6)
    assert np.array_equal(x, truncate_fourier(phantom_image(side), k))
    fresh = evaluate(system, x)
    assert np.array_equal(system.y.real, fresh.real)
    assert np.abs(fresh.imag).max() < 1e-10
    assert is_phase_invariant(system)
    assert system.num_measurements == 24


@pytest.mark.parametrize("generate, reference, args", REFERENCE_CASES,
                         ids=lambda v: getattr(v, "__name__", None))
def test_generators_reproduce_the_per_measurement_bytes(generate, reference, args):
    system, x = generate(*args)
    want, want_x = reference(*args)
    assert x.tobytes() == want_x.tobytes()
    for got, ref in ((system.phis, want.phis), (system.y, want.y)):
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()
    assert not system.phis.flags.writeable and not system.y.flags.writeable


@pytest.mark.parametrize("generate, reference, args", SAVE_CASES,
                         ids=lambda v: getattr(v, "__name__", None))
def test_saved_instances_match_the_per_measurement_bytes(generate, reference, args):
    system = generate(*args)[0]
    got, want = io.StringIO(), io.StringIO()
    save_system(system, got)
    save_system(reference(*args)[0], want)
    assert got.getvalue() == want.getvalue()
    # loading gives back the same bytes, down to the signs of the zeros in the
    # magnitude systems' border row, which array_equal does not compare
    got.seek(0)
    back = load_system(got)
    assert back.phis.tobytes() == system.phis.tobytes()
    assert back.y.tobytes() == system.y.tobytes()
