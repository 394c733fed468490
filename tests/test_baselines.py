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
from qbp.admm import RHO0
from qbp.model import (
    DimensionMismatchError,
    NonFiniteValueError,
    QuadraticMeasurement,
    QuadraticSystem,
)
from qbp.generators import general_quadratic, pure_phase
from qbp.montecarlo import trial_seed

import support
from support import (
    cgauss,
    random_system,
    reference_iht,
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


def _two_sparse_draw(seed, N):
    """A complex Gaussian N x 20 system and a 2-sparse complex x: ``(A, x, Ax)``."""
    rng = np.random.default_rng(seed)
    A = cgauss(rng, (N, 20))
    x = np.zeros(20, dtype=complex)
    x[rng.choice(20, 2, replace=False)] = cgauss(rng, 2)
    return A, x, A @ x


def test_basis_pursuit_stops_before_the_cap_on_a_hard_draw():
    # with a band of 10 on the raw residuals this instance ran to
    # BP_MAX_ITERS at relative error 0.35; the scaled rule stops in about 140
    A, x_true, y = _two_sparse_draw(26, 6)
    x, iterations = basis_pursuit(A, y)
    assert iterations < qbp.baselines.BP_MAX_ITERS
    assert np.linalg.norm(x - x_true) / np.linalg.norm(x_true) <= 1e-3


@pytest.mark.parametrize("seed, N", [(160, 6), (191, 10)])
def test_basis_pursuit_stops_once_rho_stops_flip_flopping(seed, N):
    # these draws ran to BP_MAX_ITERS with rho toggling between two values,
    # 436 and 2201 changes; draw 191 ended 4.8e-2 from the truth while its
    # primal residual grew.  The rule's change budget fixes rho in time
    A, x_true, y = _two_sparse_draw(seed, N)
    x, iterations = basis_pursuit(A, y)
    assert iterations < qbp.baselines.BP_MAX_ITERS
    if seed == 191:
        assert np.linalg.norm(x - x_true) / np.linalg.norm(x_true) <= 1e-3


def test_basis_pursuit_moves_rho_by_update_rho(monkeypatch):
    # bp holds no balancing rule of its own: rho starts at RHO0, takes what
    # update_rho returns, and update_rho sees the residuals cross-multiplied
    # by the stopping tolerances, as in the lifted loop
    calls = []

    def halve_once(rho, r_scaled, s_scaled, changes):
        calls.append((rho, r_scaled, s_scaled, changes))
        return rho / 2 if len(calls) == 1 else rho

    monkeypatch.setattr(qbp.baselines, "update_rho", halve_once)
    A, _, y = _two_sparse_draw(0, 10)
    _, iterations = basis_pursuit(A, y)
    assert len(calls) == iterations - 1
    assert [c[0] for c in calls] == [RHO0] + [RHO0 / 2] * (iterations - 2)
    # and the run's count of changes, which the one halving moved to 1
    assert [c[3] for c in calls] == [0] + [1] * (iterations - 2)
    # the first iteration from zero: x = pinv y, z = S(x, 1 / RHO0), u = x - z
    x = np.linalg.pinv(A) @ y
    z = qbp.baselines.soft_threshold(x, 1.0 / RHO0)
    u = x - z
    floor = np.sqrt(20) * qbp.baselines.BP_EPS_ABS
    eps_pri = floor + qbp.baselines.BP_EPS_REL * max(np.linalg.norm(x), np.linalg.norm(z))
    eps_dual = floor + qbp.baselines.BP_EPS_REL * RHO0 * np.linalg.norm(u)
    _, r_scaled, s_scaled, _ = calls[0]
    assert np.isclose(r_scaled, np.linalg.norm(x - z) * eps_dual, rtol=1e-12)
    assert np.isclose(s_scaled, RHO0 * np.linalg.norm(z) * eps_pri, rtol=1e-12)


def test_basis_pursuit_refuses_a_non_finite_entry():
    # a NaN gap passed the infeasibility test and ran all BP_MAX_ITERS
    with pytest.raises(NonFiniteValueError, match="y: non-finite entries"):
        basis_pursuit(np.array([[1.0, 1.0]]), np.array([np.nan]))


def test_basis_pursuit_refuses_a_y_of_the_wrong_length():
    with pytest.raises(DimensionMismatchError, match=r"y: expected shape \(2,\), got \(3,\)"):
        basis_pursuit(np.eye(2), np.zeros(3))


def test_basis_pursuit_refuses_an_A_that_is_not_2d():
    with pytest.raises(DimensionMismatchError, match="A: expected a 2-D array"):
        basis_pursuit(np.ones(2), np.zeros(1))


def test_hard_threshold_refuses_a_0d_input():
    # x.shape[-1] raised IndexError
    with pytest.raises(ValueError, match="x must have at least one dimension"):
        hard_threshold(np.array(3.0), 1)


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


@pytest.mark.parametrize("bad", [2.0, 2.5, True])
def test_hard_threshold_k_must_be_an_integer(bad):
    # a bool ran as k=1 and a float raised a TypeError from the slice
    with pytest.raises(ValueError, match="k must be an integer"):
        hard_threshold(np.array([3.0, 0.0, -2.0]), bad)


@pytest.mark.parametrize("name", ["k", "max_iters"])
@pytest.mark.parametrize("bad", [2.0, 2.5, True])
def test_iht_counts_must_be_integers(name, bad):
    system, _ = general_quadratic(4, 8, 1, "binary", seed=0)
    counts = {"k": 1, "max_iters": 5, name: bad}
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        iterative_hard_thresholding(system, **counts)


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
    monkeypatch.setattr(support, "iht_objective", reference_iht_objective)
    monkeypatch.setattr(support, "iht_gradient", reference_iht_gradient)
    for system, (x, iterations, best) in zip(systems, got):
        x_ref, iterations_ref, best_ref = reference_iht(system, 3, max_iters=40)
        assert np.array_equal(np.flatnonzero(x), np.flatnonzero(x_ref))
        assert iterations == iterations_ref
        assert np.max(np.abs(x - x_ref)) <= 1e-12
        # the residual norms agree to rounding on the scale of the data
        gap = abs(np.sqrt(2.0 * best) - np.sqrt(2.0 * best_ref))
        assert gap <= 1e-12 * np.linalg.norm(system.y)


def test_hard_threshold_thresholds_each_row_as_one():
    rng = np.random.default_rng(4)
    X = cgauss(rng, (9, 7))
    X[2] = X[1]
    X[3, :4] = [1.0, -1.0, 1.0j, 0.0]
    X[4] = 0.0
    for k in (0, 1, 3, 7, 9):
        rows = hard_threshold(X, k)
        assert rows.tobytes() == np.stack([hard_threshold(x, k) for x in X]).tobytes()


def _iht_oracle_cases():
    for seed in range(20):
        yield (f"general-{seed}",
               general_quadratic(20, 25, 3, "binary", trial_seed(0, seed))[0], 3, 40)
    for seed in range(3):
        yield f"gaussian-{seed}", general_quadratic(20, 25, 3, "gaussian", seed)[0], 3, 200
        yield f"pure-phase-{seed}", pure_phase(16, 60, 3, "binary", seed)[0], 3, 40
    for k in (6, 9):
        yield f"k={k}>=n", general_quadratic(6, 12, 2, "binary", seed=0)[0], k, 300
    yield "stall", random_system(6, 10, np.random.default_rng(0)), 2, 2000


_IHT_ORACLE = {name: case for name, *case in _iht_oracle_cases()}


@pytest.mark.parametrize("name", sorted(_IHT_ORACLE))
def test_iht_takes_the_iterates_of_the_sequential_line_search(name):
    # thresholding the whole ladder at once on kept support blocks changes
    # no bit of the sequential search's x, iteration count or objective
    system, k, max_iters = _IHT_ORACLE[name]
    x, iterations, objective = iterative_hard_thresholding(system, k, max_iters)
    x_ref, iterations_ref, objective_ref = reference_iht(system, k, max_iters)
    assert x.tobytes() == x_ref.tobytes()
    assert iterations == iterations_ref
    assert np.float64(objective).tobytes() == np.float64(objective_ref).tobytes()
    if name == "stall":
        # the relative decrease fell below IHT_STALL_TOL well before max_iters
        assert 1 < iterations < 100 and objective > 0.0
    if name.startswith("pure-phase"):
        # the gradient of a magnitude system vanishes at zero: no step
        # decreases, and the run stops at its first iteration
        assert iterations == 1 and not x.any()
