"""Measurement containers, lifting, and the matrix forms of the linear map."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbp.model import (
    DimensionMismatchError,
    NonFiniteValueError,
    QuadraticMeasurement,
    QuadraticSystem,
    _scatter,
    constraint_system,
    evaluate,
    hermitian_coordinates,
    hermitianize,
    is_phase_invariant,
    lift,
    measure_lifted,
)

from qbp.admm import SolverConfig, solve
from qbp.baselines import hard_threshold, iht_gradient, iterative_hard_thresholding
from qbp.generators import (
    fourier_basis, fourier_sparse_image, general_quadratic, phantom_image,
    phantom_instance, pure_phase, truncate_fourier,
)
from qbp.montecarlo import ExperimentSpec, run_monte_carlo
from qbp.recovery import build_report, sample_rip

from support import (
    cgauss,
    check_hermitian,
    consistent_system,
    random_hermitian,
    random_system,
    realvec,
    reference_operator_rows,
    unrealvec,
)


def test_measurement_stores_blocks():
    b = np.array([1.0 + 2j, 3.0])
    c = np.array([0.5j, -1.0])
    Q = np.array([[1.0, 2j], [0.0, 4.0]])
    system = QuadraticSystem([QuadraticMeasurement(2.0 + 1j, b, c, Q, 7.0)])
    phi = system.phis[0]
    assert phi.shape == (3, 3)
    assert phi[0, 0] == 2.0 + 1j
    assert np.array_equal(phi[0, 1:], b.conj())
    assert np.array_equal(phi[1:, 0], c)
    assert np.array_equal(phi[1:, 1:], Q)
    assert system.n == 2


def test_measurement_rejects_dimension_mismatch():
    # a record holds what it is given; the system checks it when it stacks it
    with pytest.raises(DimensionMismatchError):
        QuadraticSystem([QuadraticMeasurement(0.0, [1.0, 2.0], [1.0, 2.0, 3.0], np.eye(2), 0.0)])
    with pytest.raises(DimensionMismatchError):
        QuadraticSystem([QuadraticMeasurement(0.0, [1.0, 2.0], [1.0, 2.0], np.zeros((2, 3)), 0.0)])


def test_measurement_rejects_non_finite():
    with pytest.raises(NonFiniteValueError):
        QuadraticSystem([QuadraticMeasurement(np.nan, [1.0], [1.0], [[1.0]], 0.0)])
    Q = np.array([[np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(NonFiniteValueError):
        QuadraticSystem([QuadraticMeasurement(0.0, [1.0, 0.0], [1.0, 0.0], Q, 0.0)])


def test_system_requires_shared_dimension():
    m2 = QuadraticMeasurement(0.0, [1.0, 0.0], [0.0, 0.0], np.eye(2), 1.0)
    m3 = QuadraticMeasurement(0.0, [1.0, 0.0, 0.0], [0.0] * 3, np.eye(3), 1.0)
    with pytest.raises(DimensionMismatchError):
        QuadraticSystem([m2, m3])
    with pytest.raises(ValueError):
        QuadraticSystem([])
    system = QuadraticSystem([m2, m2])
    assert system.n == 2
    assert system.num_measurements == 2
    assert system.y.shape == (2,)
    assert system.phis.shape == (2, 3, 3)


def test_system_from_arrays_validates_and_holds_read_only_data():
    phis = np.zeros((2, 3, 3), dtype=complex)
    system = QuadraticSystem.from_arrays(phis, [1.0, 2.0])
    assert system.phis is phis and not phis.flags.writeable
    assert system.y.dtype == complex and not system.y.flags.writeable
    assert (system.n, system.num_measurements) == (2, 2)
    assert set(vars(system)) == {"phis", "y"}
    again = QuadraticSystem.from_arrays(system.phis, [3.0, 4.0])
    assert again.phis is phis and np.array_equal(again.y, [3.0, 4.0])
    with pytest.raises(DimensionMismatchError):
        QuadraticSystem.from_arrays(np.zeros((2, 3, 4)), [1.0, 2.0])
    with pytest.raises(DimensionMismatchError):
        QuadraticSystem.from_arrays(np.zeros((2, 3, 3)), [1.0])
    with pytest.raises(ValueError):
        QuadraticSystem.from_arrays(np.zeros((0, 3, 3)), [])
    bad = np.zeros((1, 2, 2))
    bad[0, 1, 1] = np.inf
    with pytest.raises(NonFiniteValueError):
        QuadraticSystem.from_arrays(bad, [0.0])
    with pytest.raises(NonFiniteValueError):
        QuadraticSystem.from_arrays(system.phis, [np.nan, 0.0])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 8), st.integers(0, 2**32 - 1),
       st.sampled_from(["general", "phase", "arrays"]))
def test_measurements_restack_to_the_same_bytes(n, N, seed, kind):
    rng = np.random.default_rng(seed)
    if kind == "general":
        system = general_quadratic(n, N, 1, "gaussian", seed)[0]
    elif kind == "phase":
        system = pure_phase(n, N, 1, "gaussian", seed)[0]
    else:
        phis = cgauss(rng, (N, n + 1, n + 1))
        # exact and signed zeros in every block must survive the round trip
        phis.real[rng.random(phis.shape) < 0.3] = -0.0
        phis.imag[rng.random(phis.shape) < 0.3] = -0.0
        system = QuadraticSystem.from_arrays(phis, cgauss(rng, N))
    meas = system.measurements
    assert meas is system.measurements and len(meas) == N
    for i, m in enumerate(meas):
        # views of the system's arrays, not copies; b is the conjugate of the
        # border row, which numpy cannot view, so every b is a row of one copy
        for block in (m.a, m.c, m.Q):
            assert np.shares_memory(block, system.phis)
        assert np.shares_memory(m.y, system.y)
        assert m.b.base is not None and m.b.base is meas[0].b.base
        assert m.a == system.a[i] and m.y == system.y[i]
        assert np.array_equal(m.b, system.b[i]) and np.array_equal(m.Q, system.Q[i])
    rebuilt = [QuadraticMeasurement(m.a, m.b, m.c, m.Q, m.y) for m in meas]
    for other in (QuadraticSystem(meas), QuadraticSystem(rebuilt)):
        assert other.phis.tobytes() == system.phis.tobytes()
        assert other.y.tobytes() == system.y.tobytes()


def test_a_system_retains_only_its_two_arrays():
    # solve, report, evaluate and the IHT gradient leave no copy of the
    # coefficient data on the system: deleting it frees phis and y, and
    # nothing else of its size
    config = SolverConfig(eps_abs=1e-5, eps_rel=1e-5, max_iters=20)
    tracemalloc.start()
    try:
        system, x = phantom_instance(8, 10, 128)
        result = solve(system, 1.0, config)
        report = build_report(system, result, x, 1e-3, True)
        evaluate(system, x)
        iht_gradient(system, x)
        own = system.phis.nbytes + system.y.nbytes
        del result, report
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        alive = weakref.ref(system)
        del system
        gc.collect()
        retained = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert alive() is None
    assert own <= retained <= own + 64 * 1024


def test_evaluate_identity_quadratic():
    m = QuadraticMeasurement(1.0, [0.0, 0.0], [0.0, 0.0], np.eye(2), 0.0)
    system = QuadraticSystem([m])
    y = evaluate(system, np.array([1.0, 2.0]))
    assert np.allclose(y, [6.0])


def test_evaluate_at_zero_returns_offsets():
    rng = np.random.default_rng(11)
    system = random_system(4, 6, rng)
    a = np.array([m.a for m in system.measurements])
    assert np.array_equal(evaluate(system, np.zeros(4)), a)


def test_evaluate_matches_lifted_trace():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        system = random_system(3, 5, rng, real=seed % 2 == 0)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        lhs = evaluate(system, x)
        rhs = measure_lifted(system, lift(x))
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


def test_evaluate_dimension_mismatch():
    rng = np.random.default_rng(0)
    system = random_system(3, 2, rng)
    with pytest.raises(DimensionMismatchError):
        evaluate(system, np.zeros(4))


def test_lift_zero_vector():
    X = lift(np.zeros(2))
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 0] = 1.0
    assert np.array_equal(X, expected)


def test_lift_imaginary_unit():
    X = lift(np.array([1j]))
    assert np.allclose(X, np.array([[1.0, -1j], [1j, 1.0]]))


def test_lift_rank_one_structure():
    X = lift(np.array([1.0, 2.0]))
    assert np.isclose(np.trace(X).real, 6.0)
    # every 2x2 minor of a rank-one matrix vanishes
    for i in range(3):
        for j in range(i + 1, 3):
            for k in range(3):
                for l in range(k + 1, 3):
                    minor = X[i, k] * X[j, l] - X[i, l] * X[j, k]
                    assert abs(minor) < 1e-12


def test_lift_psd_single_eigenvalue():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    w = np.linalg.eigvalsh(lift(x))
    peak = 1.0 + np.linalg.norm(x) ** 2
    assert np.isclose(w[-1], peak, rtol=1e-12)
    assert np.all(np.abs(w[:-1]) < 1e-10 * peak)


def test_lift_support_count():
    rng = np.random.default_rng(17)
    for _ in range(10):
        x = np.zeros(8, dtype=complex)
        k = int(rng.integers(1, 5))
        support = rng.choice(8, size=k, replace=False)
        x[support] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        assert np.count_nonzero(lift(x)) == (k + 1) ** 2


def test_measure_lifted_at_lifted_zero():
    rng = np.random.default_rng(2)
    system = random_system(3, 4, rng)
    a = np.array([m.a for m in system.measurements])
    assert np.allclose(measure_lifted(system, lift(np.zeros(3))), a)


def test_measure_lifted_magnitude_form():
    rng = np.random.default_rng(3)
    n = 4
    vs = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(6)]
    meas = [
        QuadraticMeasurement(0.0, np.zeros(n), np.zeros(n), np.outer(v, v.conj()), 0.0)
        for v in vs
    ]
    system = QuadraticSystem(meas)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    got = measure_lifted(system, lift(x))
    expected = [abs(np.vdot(v, x)) ** 2 for v in vs]
    assert np.allclose(got, expected, rtol=1e-10)


def test_trace_computed_two_ways():
    rng = np.random.default_rng(4)
    for _ in range(20):
        phi = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.isclose(
            np.trace(phi @ X), np.sum(phi.T * X), rtol=1e-12, atol=1e-12
        )


def test_measure_lifted_dimension_mismatch():
    rng = np.random.default_rng(0)
    system = random_system(3, 2, rng)
    with pytest.raises(DimensionMismatchError):
        measure_lifted(system, np.eye(3))


def test_hermitianize_properties():
    rng = np.random.default_rng(6)
    M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    H = hermitianize(M)
    check_hermitian(H)
    assert np.allclose(H, 0.5 * (M + M.conj().T))
    assert np.array_equal(H.diagonal().imag, np.zeros(4))
    with pytest.raises(DimensionMismatchError):
        hermitianize(np.zeros((2, 3)))


def test_check_hermitian_raises():
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError):
        check_hermitian(M)


def test_is_phase_invariant():
    n = 3
    quad = QuadraticMeasurement(1.0, np.zeros(n), np.zeros(n), np.eye(n), 2.0)
    assert is_phase_invariant(QuadraticSystem([quad]))
    with_b = QuadraticMeasurement(0.0, np.ones(n), np.zeros(n), np.eye(n), 2.0)
    assert not is_phase_invariant(QuadraticSystem([quad, with_b]))
    with_c = QuadraticMeasurement(0.0, np.zeros(n), np.ones(n), np.eye(n), 2.0)
    assert not is_phase_invariant(QuadraticSystem([with_c]))


def test_realvec_roundtrip():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        H = random_hermitian(int(rng.integers(1, 7)), rng)
        back = unrealvec(realvec(H))
        assert np.allclose(back, H, rtol=0.0, atol=1e-14)
        assert np.array_equal(back, back.conj().T)


def test_realvec_is_isometric():
    rng = np.random.default_rng(7)
    for _ in range(20):
        H1 = random_hermitian(5, rng)
        H2 = random_hermitian(5, rng)
        v1, v2 = realvec(H1), realvec(H2)
        assert np.isclose(np.linalg.norm(v1), np.linalg.norm(H1), rtol=1e-12)
        assert np.isclose(v1 @ v2, np.trace(H1 @ H2).real, rtol=1e-10, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_off_diagonal_coordinates_view_as_the_scaled_upper_triangle(m, seed):
    # each upper-triangle entry's (Re, Im) pair sits side by side, so the
    # off-diagonal coordinates read as complex numbers are sqrt(2) X[j, k]
    X = random_hermitian(m, np.random.default_rng(seed))
    got = realvec(X)[m:].view(complex)
    want = np.sqrt(2.0) * X[np.triu_indices(m, k=1)]
    for g, w in ((got.real, want.real), (got.imag, want.imag)):
        assert np.all(np.abs(g - w) <= np.spacing(np.abs(w)))


def test_unrealvec_rejects_non_square_lengths():
    with pytest.raises(DimensionMismatchError):
        unrealvec(np.zeros(5))


def test_real_measurement_matrix_single_identity():
    # the benchmark's name for the row builder; the reference writes the
    # full rows, whose imaginary row is zero on both sides and left out
    m = QuadraticMeasurement(1.0, [0.0], [0.0], [[1.0]], 3.0)
    system = QuadraticSystem([m])
    B, rhs, keep = reference_operator_rows(system)
    # realvec layout for 2x2: [X00, X11, sqrt2 Re X01, sqrt2 Im X01]
    assert B.shape == (2, 4)
    assert np.allclose(B[0], [1.0, 1.0, 0.0, 0.0])
    assert np.allclose(B[1], np.zeros(4))
    assert np.allclose(rhs, [3.0, 0.0])
    assert keep.tolist() == [True, False]
    A, b = constraint_system(system)
    assert A.shape == (1, 4)
    assert np.array_equal(A, B[:1]) and np.array_equal(b, rhs[:1])


def test_real_measurement_matrix_reproduces_operator():
    rng = np.random.default_rng(8)
    system = random_system(4, 6, rng)
    B, rhs = constraint_system(system)
    assert np.allclose(rhs, np.concatenate([system.y.real, system.y.imag]))
    for _ in range(20):
        X = random_hermitian(5, rng)
        got = B @ realvec(X)
        want = measure_lifted(system, X)
        assert np.allclose(got, np.concatenate([want.real, want.imag]), atol=1e-10)


def test_real_symmetric_system_has_zero_imaginary_rows():
    # real data with b = c and symmetric Q: the measurement functional is
    # real on Hermitian matrices, so the imaginary rows vanish identically
    # and the constraint rows are the real rows alone
    rng = np.random.default_rng(9)
    n = 3
    meas = []
    for _ in range(5):
        b = rng.standard_normal(n)
        Q = rng.standard_normal((n, n))
        meas.append(
            QuadraticMeasurement(
                rng.standard_normal(), b, b, Q + Q.T, rng.standard_normal()
            )
        )
    system = QuadraticSystem(meas)
    B, rhs, _ = reference_operator_rows(system)
    assert B.shape == (10, 16)
    assert np.array_equal(B[5:], np.zeros_like(B[5:]))
    A, b = constraint_system(system)
    assert A.shape == (5, 16)
    assert A.tobytes() == B[:5].tobytes() and b.tobytes() == rhs[:5].tobytes()


def test_constraint_system_row_counts():
    rng = np.random.default_rng(12)
    N = 5
    complex_sys = random_system(3, N, rng)
    A, _ = constraint_system(complex_sys)
    assert A.shape[0] == 2 * N

    # real measurement values with Hermitian coefficients lose their
    # identically-zero imaginary rows
    n = 3
    meas = []
    for _ in range(N):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        Q = hermitianize(np.outer(v, v.conj()))
        meas.append(
            QuadraticMeasurement(
                rng.standard_normal(), np.zeros(n), np.zeros(n), Q,
                rng.standard_normal(),
            )
        )
    A2, _ = constraint_system(QuadraticSystem(meas))
    assert A2.shape[0] == N


def test_constraint_system_feasible_at_planted_lift():
    rng = np.random.default_rng(13)
    system, x = consistent_system(3, 5, rng)
    A, b = constraint_system(system)
    assert np.allclose(A @ realvec(lift(x)), b, atol=1e-9)


def _pair_row_operator(system):
    """(B, rhs), the 2N rows from the complex pair formula of earlier versions.

    The complex row holds the diagonal of Phi, then the pairs
    (Phi[j, k] + Phi[k, j]) / sqrt(2), 1j * (Phi[k, j] - Phi[j, k]) / sqrt(2)
    over the upper triangle; B stacks its real and imaginary parts.
    """
    phis = system.phis
    m = system.n + 1
    iu, ju = np.triu_indices(m, k=1)
    upper, lower = phis[:, iu, ju], phis[:, ju, iu]
    pairs = np.empty(upper.shape + (2,), dtype=complex)
    pairs[..., 0] = (upper + lower) / np.sqrt(2.0)
    pairs[..., 1] = 1j * (lower - upper) / np.sqrt(2.0)
    rows = np.concatenate([
        phis[:, np.arange(m), np.arange(m)],
        pairs.reshape(len(phis), -1),
    ], axis=1)
    return (np.concatenate([rows.real, rows.imag]),
            np.concatenate([system.y.real, system.y.imag]))


def _operator_test_systems():
    rng = np.random.default_rng(15)
    hermitian = pure_phase(3, 4, 1, "binary", 0)[0]
    return [
        random_system(3, 5, rng),
        random_system(3, 5, rng, real=True),
        hermitian,
        general_quadratic(6, 8, 2, "binary", 1)[0],
        fourier_sparse_image(9, 20, 2, "gaussian", 0)[0],
        # only some measurements keep their imaginary rows
        QuadraticSystem(random_system(3, 3, rng).measurements
                        + hermitian.measurements),
    ]


def test_operator_matrices_match_the_complex_row_formula_bit_for_bit():
    # the rows are gathered one measurement at a time and must reproduce
    # every bit (signed zeros included) of the entrywise formula, without
    # the rows that are zero on both sides
    for system in _operator_test_systems():
        B, rhs, keep = reference_operator_rows(system)
        N = system.num_measurements
        assert B.shape == (2 * N, (system.n + 1) ** 2) and rhs.shape == (2 * N,)
        for g, w in zip(constraint_system(system), (B[keep], rhs[keep])):
            assert g.shape == w.shape and g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()


def test_operator_matrices_stay_within_two_ulps_of_the_pair_formula():
    # the rows of earlier versions divided by sqrt(2) where the gathered
    # parts are weighted by it; the rounded sqrt(2) moves the quotient and
    # the product in opposite directions, so entries differ by at most two
    # units in the last place of the old entry (two is also the largest
    # deviation measured over these systems and 300 random ones)
    for system in _operator_test_systems():
        B, rhs, keep = reference_operator_rows(system)
        pair_B, pair_rhs = _pair_row_operator(system)
        assert pair_B.shape == B.shape
        assert np.array_equal(pair_rhs, rhs)
        assert np.all(np.abs(B - pair_B) <= 2.0 * np.spacing(np.abs(pair_B)))
        A, b = constraint_system(system)
        want_A, want_b = pair_B[keep], pair_rhs[keep]
        assert A.shape == want_A.shape
        assert np.array_equal(b, want_b)
        assert np.all(np.abs(A - want_A) <= 2.0 * np.spacing(np.abs(want_A)))


@st.composite
def _phi_stacks(draw):
    """Systems whose Phi are each general, real or Hermitian, with real or complex y."""
    m = draw(st.integers(1, 6))
    kinds = draw(st.lists(st.sampled_from(["general", "real", "hermitian"]),
                          min_size=1, max_size=5))
    complex_y = draw(st.lists(st.booleans(), min_size=len(kinds), max_size=len(kinds)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    phis = np.empty((len(kinds), m, m), dtype=complex)
    for phi, kind in zip(phis, kinds):
        phi[...] = rng.standard_normal((m, m))
        if kind != "real":
            phi += 1j * rng.standard_normal((m, m))
        if kind == "hermitian":
            phi += phi.conj().T
            np.fill_diagonal(phi, phi.diagonal().real)
    y = rng.standard_normal(len(kinds)) + 1j * rng.standard_normal(len(kinds)) * complex_y
    return QuadraticSystem.from_arrays(phis, y)


@settings(max_examples=200, deadline=None)
@given(_phi_stacks())
def test_operator_rows_scatter_to_the_two_hermitian_parts(system):
    # A*(nu) = scatter(A^T nu): the scatter of a real row is the Hermitian
    # part (Phi + Phi^H) / 2 of its measurement and that of a kept imaginary
    # row the skew-Hermitian part (Phi - Phi^H) / 2i, each within one unit in
    # the last place of its entries (the sqrt(2) weight, there and back)
    phis, y = system.phis, system.y
    N, m = phis.shape[:2]
    maps = hermitian_coordinates(m)
    B, rhs, keep = reference_operator_rows(system)
    assert B.shape == (2 * N, m * m)
    assert np.array_equal(rhs, np.concatenate([y.real, y.imag]))
    imaginary = np.flatnonzero(keep[N:])
    A, b = constraint_system(system)
    assert A.shape == (N + imaginary.size, m * m)
    assert np.array_equal(b, np.concatenate([y.real, y.imag[imaginary]]))
    hermitian_parts = (phis + phis.conj().transpose(0, 2, 1)) / 2
    skew_parts = (phis - phis.conj().transpose(0, 2, 1)) / 2j
    wants = np.concatenate([hermitian_parts, skew_parts[imaginary]])
    x = np.zeros(m * m + 1)
    got = np.empty((m, m), dtype=complex)
    for row, want in zip(A, wants):
        x[:-1] = row
        _scatter(x, maps, got.reshape(-1).view(np.float64))
        assert np.array_equal(got, got.conj().T)
        wv = want.view(np.float64)
        assert np.all(np.abs(got.view(np.float64) - wv) <= np.spacing(np.abs(wv)))


_ROW_CASES = ("hermitian, real y", "hermitian, complex y", "not hermitian")


@st.composite
def _row_rule_systems(draw):
    """Systems holding each of the three row cases at least once, in a drawn order."""
    m = draw(st.integers(1, 6))
    extra = draw(st.lists(st.sampled_from(_ROW_CASES), max_size=4))
    cases = draw(st.permutations(_ROW_CASES + tuple(extra)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    phis = cgauss(rng, (len(cases), m, m))
    y = cgauss(rng, len(cases))
    for i, case in enumerate(cases):
        if case != "not hermitian":
            phis[i] = hermitianize(phis[i])
        if case == "hermitian, real y":
            y[i] = y[i].real
    return QuadraticSystem.from_arrays(phis, y), cases


@settings(max_examples=200, deadline=None)
@given(_row_rule_systems())
def test_equality_rows_drop_exactly_the_zero_imaginary_rows(drawn):
    # the equality rows are the measurement rows, in order and bit for bit,
    # without those that are zero on both sides: the imaginary rows of the
    # Hermitian Phi with real y
    system, cases = drawn
    B, rhs, _ = reference_operator_rows(system)
    zero = ~B.any(axis=1) & (rhs == 0.0)
    assert zero.tolist() == [False] * len(cases) + [c == _ROW_CASES[0] for c in cases]
    A, b = constraint_system(system)
    assert A.shape == B[~zero].shape and A.tobytes() == B[~zero].tobytes()
    assert b.shape == rhs[~zero].shape and b.tobytes() == rhs[~zero].tobytes()


_SMALL = general_quadratic(3, 4, 1, seed=0)[0]

# Every public count or seed argument: (callable, valid keyword arguments,
# the argument, its minimum).  The bad value replaces the valid one.
_COUNTS = [
    (SolverConfig, {}, "max_iters", 1),
    (run_monte_carlo, {"spec": ExperimentSpec(n=3, N=4, k=1, trials=1)}, "jobs", 1),
    *[(sample_rip, {"system": _SMALL, "k": 2, "samples": 2, "seed": 0}, name, low)
      for name, low in (("k", 1), ("samples", 1), ("seed", 0))],
    (hard_threshold, {"x": np.ones(3), "k": 1}, "k", 0),
    *[(iterative_hard_thresholding, {"system": _SMALL, "k": 1, "max_iters": 1}, name, 1)
      for name in ("k", "max_iters")],
    (fourier_basis, {"side": 2}, "side", 1),
    (phantom_image, {"side": 2}, "side", 2),
    (truncate_fourier, {"image": np.ones((2, 2)), "k": 1}, "k", 1),
    *[(phantom_instance, {"side": 2, "k": 1, "N": 2, "seed": 0}, name, low)
      for name, low in (("side", 2), ("k", 1), ("N", 1), ("seed", 0))],
    *[(ExperimentSpec, {"n": 4, "N": 4, "k": 1}, name, low)
      for name, low in (("n", 1), ("N", 1), ("k", 1), ("trials", 1), ("seed", 0),
                        ("iht_max_iters", 1))],
    *[(draw, {"n": 4, "N": 4, "k": 1, "seed": 0}, name, low)
      for draw in (general_quadratic, pure_phase, fourier_sparse_image)
      for name, low in (("n", 1), ("N", 1), ("k", 1), ("seed", 0))],
]


@pytest.mark.parametrize("bad", ["bool", "float", "below"])
@pytest.mark.parametrize("call, valid, name, minimum", _COUNTS,
                         ids=[f"{c[0].__name__}-{c[2]}" for c in _COUNTS])
def test_every_count_and_seed_follows_one_rule(call, valid, name, minimum, bad):
    # a count or seed must be an integer, not a bool or a float, and at least
    # its minimum; the message names the argument
    value, message = {
        "bool": (True, f"{name} must be an integer, got True"),
        "float": (2.0, f"{name} must be an integer, got 2.0"),
        "below": (minimum - 1, f"{name} must be at least {minimum}, got {minimum - 1}"),
    }[bad]
    with pytest.raises(ValueError) as exc:
        call(**{**valid, name: value})
    assert str(exc.value) == message
