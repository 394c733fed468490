"""Basis pursuit and iterative hard thresholding baselines."""

import itertools

import numpy as np
import pytest

import qbp.baselines
from qbp.baselines import (
    InfeasibleLinearSystemError,
    basis_pursuit,
    hard_threshold,
    iht_gradient,
    iht_objective,
    iterative_hard_thresholding,
    linearize,
)
from qbp.model import DimensionMismatchError, QuadraticMeasurement, QuadraticSystem
from qbp.generators import general_quadratic
from qbp.montecarlo import trial_seed

from support import (
    cgauss,
    random_system,
    reference_iht_gradient,
    reference_iht_objective,
)


def _linear_system(A, y):
    """Quadratic system whose only content is b^H x = y (b = conj of rows)."""
    n = A.shape[1]
    meas = [
        QuadraticMeasurement(0.0, A[i].conj(), np.zeros(n), np.zeros((n, n)), y[i])
        for i in range(A.shape[0])
    ]
    return QuadraticSystem(meas)


def test_linearize_folds_linear_terms():
    rng = np.random.default_rng(0)
    system = random_system(4, 6, rng)
    A, y = linearize(system)
    b = np.stack([m.b for m in system.measurements])
    c = np.stack([m.c for m in system.measurements])
    a = np.array([m.a for m in system.measurements])
    assert np.array_equal(A, b.conj() + c)
    assert np.array_equal(y, system.y - a)


def test_basis_pursuit_identity():
    x, _ = basis_pursuit(np.eye(3, dtype=complex),
                         np.array([0.0, 3.0, 0.0], dtype=complex))
    assert np.allclose(x, [0.0, 3.0, 0.0], atol=1e-6)


def test_basis_pursuit_minimizes_l1_on_a_segment():
    A = np.array([[1.0, 1.0]], dtype=complex)
    x, _ = basis_pursuit(A, np.array([1.0], dtype=complex))
    assert np.isclose((A @ x)[0], 1.0, atol=1e-6)
    # every feasible point has l1 norm at least one; the solver must attain it
    assert np.abs(x).sum() <= 1.0 + 1e-4


def test_basis_pursuit_recovers_sparse_real_signal():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((5, 20)).astype(complex)
    x_true = np.zeros(20, dtype=complex)
    x_true[7] = 2.0
    x, _ = basis_pursuit(A, A @ x_true)
    assert np.linalg.norm(x - x_true) < 1e-4


def test_basis_pursuit_recovers_sparse_complex_signal():
    rng = np.random.default_rng(42)
    A = cgauss(rng, (6, 12))
    x_true = np.zeros(12, dtype=complex)
    x_true[3] = 1.0 + 2.0j
    x, iterations = basis_pursuit(A, A @ x_true)
    assert np.linalg.norm(x - x_true) < 1e-4
    assert iterations >= 1


def test_basis_pursuit_rejects_contradictions():
    with pytest.raises(InfeasibleLinearSystemError):
        basis_pursuit(np.array([[1.0], [1.0]], dtype=complex),
                      np.array([1.0, 2.0], dtype=complex))


def test_hard_threshold_matches_subset_search():
    # the best k-term approximation in l2 keeps the k largest magnitudes;
    # verify against exhaustive search over supports
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        k = int(rng.integers(1, 5))
        best = None
        for support in itertools.combinations(range(8), k):
            cand = np.zeros(8, dtype=complex)
            cand[list(support)] = x[list(support)]
            err = np.linalg.norm(x - cand)
            if best is None or err < best[0]:
                best = (err, cand)
        got = hard_threshold(x, k)
        assert np.isclose(np.linalg.norm(x - got), best[0], rtol=1e-12)


def test_hard_threshold_ties_keep_lowest_index():
    out = hard_threshold(np.array([1.0, -1.0, 1.0]), 2)
    assert np.array_equal(out, [1.0, -1.0, 0.0])


def test_hard_threshold_edge_cases():
    x = np.array([3.0, 0.0, -2.0])
    assert np.array_equal(hard_threshold(x, 5), x)
    assert np.array_equal(hard_threshold(x, 0), np.zeros(3))
    with pytest.raises(ValueError):
        hard_threshold(x, -1)
    for k in range(4):
        out = hard_threshold(x, k)
        assert np.count_nonzero(out) == min(k, np.count_nonzero(x))


def test_iht_config_validation():
    system, _ = general_quadratic(4, 8, 1, "binary", seed=0)
    with pytest.raises(ValueError):
        iterative_hard_thresholding(system, 0)
    with pytest.raises(ValueError, match="max_iters must be at least 1"):
        iterative_hard_thresholding(system, 1, max_iters=0)


def test_iht_objective_zero_at_plant():
    system, x = general_quadratic(6, 10, 2, "binary", seed=2)
    assert iht_objective(system, x) < 1e-20
    assert iht_objective(system, x + 0.1) > 0.0


def test_iht_gradient_matches_finite_differences():
    h = 1e-6
    for seed in range(10):
        system, _ = general_quadratic(4, 6, 2, "gaussian", seed)
        rng = np.random.default_rng(seed + 100)
        x = cgauss(rng, 4)
        grad = iht_gradient(system, x)
        for j in range(4):
            for direction in (1.0, 1.0j):
                step = np.zeros(4, dtype=complex)
                step[j] = direction * h
                fd = (iht_objective(system, x + step)
                      - iht_objective(system, x - step)) / (2.0 * h)
                analytic = grad[j].real if direction == 1.0 else grad[j].imag
                assert abs(analytic - fd) <= 1e-5 * max(1.0, abs(fd))


def test_iht_gradient_dimension_mismatch():
    system, _ = general_quadratic(4, 6, 2, "binary", seed=0)
    with pytest.raises(DimensionMismatchError):
        iht_gradient(system, np.zeros(5))


def test_iht_solves_least_squares_when_unrestricted():
    # with k = n and purely linear measurements the iteration is projected
    # gradient descent on an ordinary least-squares problem
    rng = np.random.default_rng(3)
    n, N = 3, 8
    A = rng.standard_normal((N, n))
    y = A @ rng.standard_normal(n) + 0.1 * rng.standard_normal(N)
    system = _linear_system(A.astype(complex), y.astype(complex))
    want, *_ = np.linalg.lstsq(A, y, rcond=None)
    got, iterations, best = iterative_hard_thresholding(system, n, max_iters=3000)
    assert np.linalg.norm(got - want) < 1e-4
    assert best <= iht_objective(system, np.zeros(n)) + 1e-12


def test_iht_recovers_easy_sparse_instance():
    system, x = general_quadratic(10, 20, 2, "binary", seed=7)
    got, iterations, best = iterative_hard_thresholding(system, 2, max_iters=200)
    assert np.linalg.norm(got - x) / np.linalg.norm(x) < 1e-3
    assert best < 1e-8
    assert 1 <= iterations <= 200


def test_iht_returns_best_iterate():
    system, x = general_quadratic(6, 12, 2, "binary", seed=9)
    out, _, best = iterative_hard_thresholding(system, 2, max_iters=50)
    assert np.isclose(iht_objective(system, out), best)
    assert best <= iht_objective(system, np.zeros(6))


def test_iht_respects_sparsity_budget():
    system, _ = general_quadratic(12, 24, 3, "binary", seed=11)
    out, _, _ = iterative_hard_thresholding(system, 3, max_iters=60)
    assert np.count_nonzero(out) <= 3


def _rel_gap(got, want):
    return np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300)


@pytest.mark.parametrize("k", [0, 1, 3, 7, 12])
def test_iht_objective_and_gradient_match_the_dense_reference(k):
    # the support block of the lift gives the dense values to rounding, on
    # sparse x, on dense x (k = n) and at zero
    for seed in range(10):
        rng = np.random.default_rng([seed, k])
        system = random_system(12, 15, rng)
        x = np.zeros(12, dtype=complex)
        x[rng.choice(12, size=k, replace=False)] = cgauss(rng, k)
        want = reference_iht_objective(system, x)
        assert abs(iht_objective(system, x) - want) <= 1e-12 * want
        assert _rel_gap(iht_gradient(system, x), reference_iht_gradient(system, x)) <= 1e-12


def test_iht_objective_dimension_mismatch():
    system, _ = general_quadratic(4, 6, 2, "binary", seed=0)
    with pytest.raises(DimensionMismatchError):
        iht_objective(system, np.zeros(3))


def test_iht_runs_as_with_the_dense_reference(monkeypatch):
    # on table instances (n=20, N=25, k=3) the run takes the same supports
    # and iterations as one that evaluates every measurement densely
    systems = [general_quadratic(20, 25, 3, "binary", trial_seed(0, i))[0]
               for i in range(20)]
    got = [iterative_hard_thresholding(s, 3, max_iters=40) for s in systems]
    monkeypatch.setattr(qbp.baselines, "iht_objective", reference_iht_objective)
    monkeypatch.setattr(qbp.baselines, "iht_gradient", reference_iht_gradient)
    for system, (x, iterations, best) in zip(systems, got):
        x_ref, iterations_ref, best_ref = iterative_hard_thresholding(system, 3, max_iters=40)
        assert np.array_equal(np.flatnonzero(x), np.flatnonzero(x_ref))
        assert iterations == iterations_ref
        assert np.max(np.abs(x - x_ref)) <= 1e-12
        # the residual norms agree to rounding on the scale of the data
        gap = abs(np.sqrt(2.0 * best) - np.sqrt(2.0 * best_ref))
        assert gap <= 1e-12 * np.linalg.norm(system.y)
