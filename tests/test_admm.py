"""Projection kernels, shrinkage, penalty adaptation, and the full solver."""

import hashlib
import logging
import math
import os
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qbp.admm
from qbp.admm import (
    AffineProjector,
    _PenalizedStep,
    InfeasibleProjectionError,
    SolverConfig,
    SolverResult,
    data_residual,
    project_psd,
    soft_threshold,
    solve,
    solve_denoising,
    update_rho,
    update_z,
)
from qbp.model import (
    QuadraticMeasurement,
    QuadraticSystem,
    constraint_system,
    hermitian_coordinates,
    hermitianize,
    lift,
    measure_lifted,
)
from qbp.recovery import extract_phase_signal
from qbp.generators import (
    fourier_sparse_image,
    general_quadratic,
    phantom_instance,
    pure_phase,
)
from qbp.montecarlo import trial_seed

from support import (
    cgauss,
    consistent_system,
    random_hermitian,
    realvec,
    reference_operator_rows,
    reference_soft_threshold,
    reference_update_z,
    system_from_phis,
    unitary_sensing_system,
    unrealvec,
    zero_valued_system,
)

TIGHT = SolverConfig(eps_abs=1e-6, eps_rel=1e-6, max_iters=30000)


def _single_equation(y):
    """One measurement y = x^2 in dimension one."""
    return QuadraticSystem([QuadraticMeasurement(0.0, [0.0], [0.0], [[1.0]], y)])


def test_soft_threshold_scalar_examples():
    assert np.allclose(soft_threshold(np.array([3.0 + 4.0j]), 1.0), [2.4 + 3.2j])
    assert np.array_equal(soft_threshold(np.array([1.0]), 2.0), [0.0])
    assert np.array_equal(soft_threshold(np.array([-3.0]), 1.0), [-2.0])


def test_soft_threshold_zero_weight_is_identity():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.array_equal(soft_threshold(x, 0.0), x)
    assert np.array_equal(soft_threshold(np.array([0.0]), 0.0), [0.0])


def test_soft_threshold_shrinks_magnitudes():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    out = soft_threshold(x, 0.7)
    mags = np.abs(x)
    assert np.allclose(np.abs(out), np.maximum(mags - 0.7, 0.0))
    small = mags <= 0.7
    assert np.all(out[small] == 0.0)
    # surviving entries keep their phase
    big = ~small
    assert np.allclose(np.angle(out[big]), np.angle(x[big]))


def test_update_z_thresholds_the_average():
    x = realvec(np.diag([3.0, 1.0]))
    y = realvec(np.zeros((2, 2)))
    Z = unrealvec(update_z(x, x, y, y, rho=1.0, lam=4.0))
    assert np.allclose(Z, np.diag([1.0, 0.0]))


def test_update_z_zero_lambda_averages():
    rng = np.random.default_rng(2)
    X1 = random_hermitian(3, rng)
    X2 = random_hermitian(3, rng)
    Y1 = random_hermitian(3, rng)
    Y2 = random_hermitian(3, rng)
    rho = 2.5
    Z = unrealvec(update_z(*map(realvec, (X1, X2, Y1, Y2)), rho, 0.0))
    want = hermitianize(0.5 * (X1 + X2) + 0.5 * (Y1 + Y2) / rho)
    assert np.allclose(Z, want, atol=1e-14)


def test_project_psd_clips_negative_eigenvalues():
    M = np.diag([2.0, -1.0]).astype(complex)
    assert np.allclose(project_psd(M), np.diag([2.0, 0.0]))


def test_project_psd_fixes_psd_matrices():
    rng = np.random.default_rng(3)
    for _ in range(10):
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        P = A @ A.conj().T
        assert np.allclose(project_psd(P), P, atol=1e-10)


def test_project_psd_matches_eigenvalue_clipping():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        H = random_hermitian(6, rng)
        w, V = np.linalg.eigh(H)
        want = (V * np.maximum(w, 0.0)) @ V.conj().T
        got = project_psd(H)
        assert np.allclose(got, want, atol=1e-10)
        assert np.linalg.eigvalsh(got)[0] >= -1e-12


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 24), st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0))
def test_project_psd_property_matches_full_clip(m, seed, shift):
    # the shift moves the split between negative and positive eigenvalues,
    # so both rebuild branches and the already-PSD case are drawn
    H = random_hermitian(m, np.random.default_rng(seed)) + shift * np.eye(m)
    w, V = np.linalg.eigh(H)
    want = (V * np.maximum(w, 0.0)) @ V.conj().T
    P = project_psd(H)
    assert np.max(np.abs(P - want)) <= 1e-10
    assert np.array_equal(P, P.conj().T)
    assert np.all(P.diagonal().imag == 0.0)
    assert np.max(np.abs(project_psd(P) - P)) <= 1e-10


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 24), st.integers(0, 2**32 - 1),
       st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
       st.floats(1e-3, 1e3))
def test_update_z_property_hermitian_and_finite(m, seed, lam, rho):
    rng = np.random.default_rng(seed)
    blocks = [random_hermitian(m, rng) for _ in range(4)]
    # exact zeros in every input, on a symmetric pattern, give |V| = 0 there
    zero = rng.random((m, m)) < 0.3
    zero |= zero.T
    for B in blocks:
        B[zero] = 0.0
    z = update_z(*map(realvec, blocks), rho=rho, lam=lam)
    assert np.all(np.isfinite(z))
    # exact zeros stay zero, in the coordinates and in the matrix
    assert np.all(z[realvec(zero.astype(float)) != 0.0] == 0.0)
    Z = unrealvec(z)
    assert np.array_equal(Z, Z.conj().T)
    assert np.all(Z[zero] == 0.0)


# The kernels' complex inputs mix, component by component, exact zeros of
# either sign, subnormals (so magnitudes may be subnormal too), tiny normal
# numbers and ordinary values
_THRESHOLD = st.one_of(
    st.sampled_from([0.0, 5e-324]), st.floats(0.0, 1e-307), st.floats(0.0, 10.0))


@st.composite
def _complex_blocks(draw, count):
    m = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (2, count, m, m)
    sign = rng.choice([-1.0, 1.0], size=shape)
    parts = np.select(
        [rng.random(shape) < p for p in (0.2, 0.4, 0.6)],
        [sign * 0.0,
         sign * rng.integers(1, 2**52, size=shape) * 5e-324,
         sign * rng.random(shape) * 1e-307],
        sign * rng.random(shape) * 1e3,
    )
    return parts[0] + 1j * parts[1]


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=200, deadline=None)
@given(_complex_blocks(1), _THRESHOLD)
def test_shrink_kernels_match_the_masked_reference_bit_for_bit(blocks, q):
    x = blocks[0]
    assert _same_bits(soft_threshold(x, q), reference_soft_threshold(x, q))
    assert _same_bits(soft_threshold(x.real, q), reference_soft_threshold(x.real, q))


def _coordinates(blocks):
    """The unweighted coordinates of each block: every special value kept."""
    gather = hermitian_coordinates(blocks.shape[-1]).gather
    return blocks.reshape(blocks.shape[0], -1).view(np.float64)[:, gather]


@settings(max_examples=200, deadline=None)
@given(_complex_blocks(4), st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
       st.one_of(st.just(1.0), st.floats(1e-3, 1e3)))
def test_update_z_matches_the_reference_bit_for_bit(blocks, lam, rho):
    x = _coordinates(blocks)
    want = reference_update_z(*x.copy(), rho, lam)
    assert _same_bits(update_z(*x, rho, lam), want)
    # writing into given buffers gives the same bits, and the out buffer back
    out = np.full_like(x[0], np.nan)
    assert update_z(*x, rho, lam, out=out) is out
    assert _same_bits(out, want)


@settings(max_examples=200, deadline=None)
@given(_complex_blocks(4), st.one_of(st.just(1.0), st.floats(1e-3, 1e3)),
       st.integers(0, 2**32 - 1))
def test_update_z_at_zero_lambda_is_the_average_bit_for_bit(blocks, rho, seed):
    x = _coordinates(blocks)
    # a zero of one sign in all four inputs averages to that zero
    rng = np.random.default_rng(seed)
    shared = rng.random(x.shape[1]) < 0.3
    x[:, shared] = rng.choice([-0.0, 0.0], size=int(shared.sum()))
    x1, x2, y1, y2 = x
    want = x1 + x2
    want += (y1 + y2) / rho
    want *= 0.5
    assert _same_bits(update_z(x1, x2, y1, y2, rho, 0.0), want)


@settings(max_examples=200, deadline=None)
@given(_complex_blocks(1), st.floats(1e-3, 10.0), st.one_of(st.just(1.0), st.floats(1e-3, 1e3)),
       st.integers(0, 2**32 - 1))
def test_update_z_shrinks_as_the_two_soft_thresholds_bit_for_bit(blocks, lam, rho, seed):
    # the shrink is soft_threshold on the diagonal at q and on the complex
    # upper part at sqrt(2) q, entries exactly at a threshold included
    v = _coordinates(blocks)[0]
    m = blocks.shape[-1]
    q = 0.5 * lam / rho
    upper = v[m:].view(complex)
    rng = np.random.default_rng(seed)
    # entries exactly at their threshold
    at = rng.random(m) < 0.3
    v[:m][at] = rng.choice([-q, q], size=int(at.sum()))
    t = math.sqrt(2.0) * q
    at = rng.random(upper.size) < 0.3
    upper[at] = rng.choice([t, -t, 1j * t, -1j * t], size=int(at.sum()))
    want = v.copy()
    soft_threshold(want[:m], q, out=want[:m])
    want_upper = want[m:].view(complex)
    soft_threshold(want_upper, t, out=want_upper)
    # v + v - 0, halved, is v itself, signed zeros included
    neg0 = np.full_like(v, -0.0)
    assert _same_bits(update_z(v, v, neg0, neg0, rho, lam), want)


@settings(max_examples=200, deadline=None)
@given(_complex_blocks(4), st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
       st.one_of(st.just(1.0), st.floats(1e-3, 1e3)))
def test_update_z_is_the_matrix_soft_threshold(blocks, lam, rho):
    # the coordinate shrink is the soft threshold of the scattered average
    x1, x2, y1, y2 = _coordinates(blocks)
    average = unrealvec((x1 + x2 + (y1 + y2) / rho) * 0.5)
    want = soft_threshold(average, 0.5 * lam / rho)
    got = unrealvec(update_z(x1, x2, y1, y2, rho, lam))
    # rounding in the subnormal range is absolute: a few units of the smallest one
    tol = 1e-15 * np.max(np.abs(average)) + 4 * np.finfo(float).smallest_subnormal
    assert np.max(np.abs(got - want)) <= tol


def test_project_psd_variational_inequality():
    # the projection P of M satisfies Re<M - P, W - P> <= 0 for PSD W
    rng = np.random.default_rng(4)
    for _ in range(20):
        M = random_hermitian(5, rng)
        P = project_psd(M)
        A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        W = A @ A.conj().T
        inner = np.trace((M - P) @ (W - P)).real
        assert inner <= 1e-10


def test_project_psd_nonexpansive():
    rng = np.random.default_rng(5)
    for _ in range(20):
        A = random_hermitian(5, rng)
        B = random_hermitian(5, rng)
        d = np.linalg.norm(project_psd(A) - project_psd(B))
        assert d <= np.linalg.norm(A - B) * (1.0 + 1e-12)


def _on_matrices(step):
    """An X1 step, which maps coordinates in place, as a map of Hermitian matrices."""
    return lambda M: unrealvec(step(realvec(M)))


def test_affine_projector_corner_only():
    # an all-zero measurement leaves only the pinned corner; projecting the
    # zero matrix must produce e_00
    system = QuadraticSystem([QuadraticMeasurement(0.0, [0.0], [0.0], [[0.0]], 0.0)])
    proj = _on_matrices(AffineProjector(system))
    out = proj(np.zeros((2, 2), dtype=complex))
    want = np.zeros((2, 2))
    want[0, 0] = 1.0
    assert np.allclose(out, want, atol=1e-12)


def test_affine_projector_fixed_point_and_idempotence():
    rng = np.random.default_rng(6)
    for seed in range(10):
        system, x = consistent_system(3, 4, rng, real=seed % 2 == 0)
        proj = _on_matrices(AffineProjector(system))
        feasible = lift(x)
        assert np.allclose(proj(feasible), feasible, atol=1e-10)
        M = random_hermitian(4, rng)
        once = proj(M)
        assert np.allclose(proj(once), once, atol=1e-10)


def test_affine_projector_output_satisfies_constraints():
    rng = np.random.default_rng(7)
    for _ in range(25):
        system, _ = consistent_system(4, 5, rng)
        proj = _on_matrices(AffineProjector(system))
        P = proj(random_hermitian(5, rng))
        resid = np.max(np.abs(measure_lifted(system, P) - system.y))
        scale = 1.0 + float(np.max(np.abs(system.y)))
        assert resid <= 1e-8 * scale
        assert abs(P[0, 0] - 1.0) <= 1e-10
        assert np.allclose(P, P.conj().T)


def test_affine_projector_is_orthogonal_projection():
    # the residual M - P(M) must be orthogonal to the feasible affine set
    rng = np.random.default_rng(8)
    system, _ = consistent_system(3, 3, rng)
    proj = _on_matrices(AffineProjector(system))
    M = random_hermitian(4, rng)
    P = proj(M)
    for _ in range(5):
        W = proj(random_hermitian(4, rng))
        inner = np.trace((M - P) @ (W - P)).real
        assert abs(inner) <= 1e-9


def test_affine_projector_nonexpansive():
    rng = np.random.default_rng(9)
    system, _ = consistent_system(3, 4, rng)
    proj = _on_matrices(AffineProjector(system))
    for _ in range(10):
        A = random_hermitian(4, rng)
        B = random_hermitian(4, rng)
        d = np.linalg.norm(proj(A) - proj(B))
        assert d <= np.linalg.norm(A - B) * (1.0 + 1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3))
def test_affine_projector_rejects_contradictions(extra4, extra5):
    # x^2 = 4 and x^2 = 5, each repeated: the Gram factor sees the clash
    # however many copies of either equation there are
    base = QuadraticMeasurement(0.0, [0.0], [0.0], [[1.0]], 4.0)
    clash = QuadraticMeasurement(0.0, [0.0], [0.0], [[1.0]], 5.0)
    system = QuadraticSystem([base] * (1 + extra4) + [clash] * (1 + extra5))
    with pytest.raises(InfeasibleProjectionError):
        AffineProjector(system)


def _complex_real_or_symmetric(n, N, rng, seed):
    """A consistent system drawn by ``seed % 3``: complex, real, or real
    symmetric (whose imaginary rows vanish and are left out)."""
    return consistent_system(n, N, rng, real=seed % 3 > 0, symmetric=seed % 3 == 2)


def _realvec_affine(system):
    """The affine projection as a pseudoinverse in realvec coordinates: the
    corner is pinned, and the rest is projected onto the constraint rows."""
    A, b = constraint_system(system)
    A1, g = A[:, 1:], b - A[:, 0]
    P = np.linalg.pinv(A1)

    def project(M):
        v = realvec(M)
        v[0] = 1.0
        v[1:] -= P @ (A1 @ v[1:] - g)
        return unrealvec(v)
    return project


def _realvec_budget(system, epsilon):
    """The budget projection in realvec coordinates, one fresh Newton solve per
    call, on the full 2N rows of the reference, zero rows included."""
    B, y, _ = reference_operator_rows(system)
    g = y - B[:, 0]
    U, s, Vt = np.linalg.svd(B[:, 1:], full_matrices=False)
    rank = int(np.count_nonzero(s > s.max(initial=0.0) * max(B.shape) * np.finfo(float).eps))
    U, s, Vt = U[:, :rank], s[:rank], Vt[:rank]
    h = U.T @ g
    floor = float(np.sum((g - U @ h) ** 2))
    radius = math.sqrt(epsilon) - qbp.admm.BUDGET_MARGIN * max(np.linalg.norm(y), 1.0)

    def project(M):
        v = realvec(M)
        v[0] = 1.0
        t = s * (Vt @ v[1:]) - h
        if radius <= 0.0 or radius * radius <= floor:
            step = -t / s
        elif float(np.sum(t * t)) + floor <= radius * radius:
            return unrealvec(v)
        else:
            mu = 0.0
            for _ in range(qbp.admm.SECULAR_MAX_STEPS):
                q = 1.0 / (1.0 + mu * s * s)
                terms = t * t * q * q
                phi = float(terms.sum()) + floor
                gap = math.sqrt(phi) / radius - 1.0
                if abs(gap) <= qbp.admm.SECULAR_RTOL:
                    break
                mu = max(mu + phi * gap / float((s * s * terms * q).sum()), 0.0)
            step = -mu * s * t / (1.0 + mu * s * s)
        v[1:] += Vt.T @ step
        return unrealvec(v)
    return project


def _condition(system):
    """s_max / s_min of the constraint rows over the singular values kept, or 1."""
    A1 = constraint_system(system)[0][:, 1:]
    s = np.linalg.svd(A1, compute_uv=False)
    s = s[s > s.max(initial=0.0) * max(A1.shape) * np.finfo(float).eps]
    return s[0] / s[-1] if s.size else 1.0


def _gram_tol(system, base):
    """``base``, or the rounding of a Gram factor where that is larger.

    The Gram matrix A A^T squares the condition number of the constraint
    matrix over its nonzero singular values, so a projection built from it
    agrees with the pseudoinverse to about eps * cond^2 at best.
    """
    return max(base, 100.0 * np.finfo(float).eps * _condition(system) ** 2)


def _assert_hermitian_step_output(X):
    assert np.array_equal(X, X.conj().T)
    assert X[0, 0] == 1.0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 30), st.integers(0, 2**32 - 1),
       st.floats(1e-10, 10.0), st.floats(0.1, 10.0))
def test_x1_steps_match_the_realvec_formulation(n, N, seed, epsilon, spread):
    # the steps map the weighted coordinates realvec and unrealvec convert,
    # with one orthonormal-row matrix V^T in place of a pseudoinverse
    rng = np.random.default_rng(seed)
    system, _ = _complex_real_or_symmetric(n, N, rng, seed)
    M = spread * random_hermitian(n + 1, rng)
    scale = max(1.0, float(np.max(np.abs(M))))
    got = _on_matrices(AffineProjector(system))(M)
    _assert_hermitian_step_output(got)
    want = _realvec_affine(system)(M)
    assert np.max(np.abs(got - want)) <= _gram_tol(system, 1e-12) * scale
    got = _on_matrices(_PenalizedStep(system, epsilon))(M)
    _assert_hermitian_step_output(got)
    want = _realvec_budget(system, epsilon)(M)
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 20), st.integers(0, 2**32 - 1),
       st.lists(st.integers(0, 19), min_size=1, max_size=4))
def test_gram_projector_matches_pinv_with_duplicated_rows(n, N, seed, repeats):
    # repeated measurements make the constraint matrix rank-deficient; the
    # Gram factor's rank cutoff must project like the pseudoinverse does
    rng = np.random.default_rng(seed)
    system, _ = _complex_real_or_symmetric(n, N, rng, seed)
    meas = system.measurements
    system = QuadraticSystem(meas + tuple(meas[i % N] for i in repeats))
    M = random_hermitian(n + 1, rng)
    got = _on_matrices(AffineProjector(system))(M)
    _assert_hermitian_step_output(got)
    want = _realvec_affine(system)(M)
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - want)) <= _gram_tol(system, 1e-10) * scale
    # the budget step drops the same null directions: at a budget above the
    # floor it must still match the SVD-based formulation
    epsilon = 0.5 * data_residual(system, M) + 1e-3
    got = _on_matrices(_PenalizedStep(system, epsilon))(M)
    _assert_hermitian_step_output(got)
    want = _realvec_budget(system, epsilon)(M)
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - want)) <= _gram_tol(system, 1e-10) * scale


def test_affine_limit_of_the_budget_step_is_the_equality_step():
    # every budget reads the equality rows, also of real symmetric data,
    # whose identically zero imaginary rows they leave out: the same rows,
    # so the same factorization, and the steps differ only in their radius
    rng = np.random.default_rng(21)
    for kind in range(3):
        for N in range(1, 21):
            system, _ = _complex_real_or_symmetric(3, N, rng, kind)
            equality = _PenalizedStep(system, 0.0)
            for epsilon in (1e-6, 1e-3, 1.0):
                budget = _PenalizedStep(system, epsilon)
                assert budget._radius is not None
                for name in ("_Vt", "_floor", "_h"):
                    got, want = getattr(budget, name), getattr(equality, name)
                    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _magnitude_phis(sensing, offsets=None):
    """Phi_i = a_i a_i^H on the signal block, zero border, optional corner offsets."""
    N, n = sensing.shape
    phis = np.zeros((N, n + 1, n + 1), dtype=complex)
    for phi, a in zip(phis, sensing):
        phi[1:, 1:] = hermitianize(np.outer(a, a.conj()))
    if offsets is not None:
        phis[:, 0, 0] = offsets
    return phis


def _dense_and_factored(make):
    """The X1 step ``make()`` builds, once with a dense V^T and once factored."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qbp.admm, "FACTORED_MIN_ENTRIES", math.inf)
        dense = make()
        mp.setattr(qbp.admm, "FACTORED_MIN_ENTRIES", 0)
        factored = make()
    assert dense._Vt is not None and factored._Vt is None
    return dense, factored


def _border(m):
    """The border coordinates of an m x m lift, as a mask over hermitian_coordinates(m)."""
    B = np.zeros((m, m), dtype=complex)
    B[0, 1:] = 1.0 + 1.0j
    B[1:, 0] = 1.0 - 1.0j
    return realvec(B) != 0.0


# The factored X1 step agrees with the dense one to within this many units
# of eps * cond * scale (cond of the constraint rows, scale the largest of 1,
# |x| and |y|): the largest ratio seen over 9000 random calls of all three
# branches was 4.3.
FACTORED_ROUNDING = 64.0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 30), st.integers(0, 2**32 - 1),
       st.booleans(), st.booleans(),
       st.lists(st.integers(0, 29), max_size=4), st.floats(0.1, 10.0))
def test_factored_x1_step_matches_the_dense_step(n, N, seed, real, offset, repeats,
                                                 spread):
    # magnitudes of real or complex sensing vectors, some repeated so that
    # the Gram matrix is rank-deficient, with a free corner or none: the
    # operator applied through the vectors must project like the dense V^T
    # in the affine limit (both row builders) and at a binding budget
    rng = np.random.default_rng(seed)
    sensing = rng.standard_normal((N, n)) if real else cgauss(rng, (N, n))
    sensing = np.concatenate([sensing, sensing[[i % N for i in repeats]]])
    offsets = rng.standard_normal(len(sensing)) if offset else None
    system = system_from_phis(_magnitude_phis(sensing, offsets), cgauss(rng, n))
    M = spread * random_hermitian(n + 1, rng)
    x = realvec(M)
    border = _border(n + 1)
    scale = max(1.0, float(np.max(np.abs(x))), float(np.max(np.abs(system.y))))
    tol = FACTORED_ROUNDING * np.finfo(float).eps * _condition(system) * scale
    epsilon = 0.5 * data_residual(system, M)
    for make in (lambda: AffineProjector(system), lambda: _PenalizedStep(system, 0.0),
                 lambda: _PenalizedStep(system, epsilon)):
        dense, factored = _dense_and_factored(make)
        want, got = dense(x.copy()), factored(x.copy())
        assert np.max(np.abs(got - want)) <= tol
        assert _same_bits(got[border], x[border])


def test_factored_step_keeps_the_dense_path_off_magnitudes():
    # detection fails on a bordered system, a rank-two signal block, a
    # negative one and a zero one: each keeps the dense V^T at any size
    rng = np.random.default_rng(30)
    n, N = 3, 8
    x = cgauss(rng, n)
    bordered, _ = general_quadratic(n, N, 2, "binary", 4)
    cases = [bordered]
    for bad in ("rank two", "negative", "zero"):
        phis = _magnitude_phis(cgauss(rng, (N, n)))
        a, b = cgauss(rng, n), cgauss(rng, n)
        phis[2, 1:, 1:] = {
            "rank two": hermitianize(np.outer(a, a.conj()) + np.outer(b, b.conj())),
            "negative": -hermitianize(np.outer(a, a.conj())),
            "zero": np.zeros((n, n)),
        }[bad]
        cases.append(system_from_phis(phis, x))
    for system in cases:
        assert qbp.admm._magnitude_vectors(system) is None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qbp.admm, "FACTORED_MIN_ENTRIES", 0)
            for step in (AffineProjector(system), _PenalizedStep(system, 1e-3)):
                assert step._Vt is not None


def test_factored_step_is_taken_only_above_the_size_cut():
    # the holes preset (60 magnitudes, m = 17) stays dense and the phantom
    # (128 magnitudes, m = 65) is factored
    holes, _ = pure_phase(16, 60, 3, "binary", 0)
    assert AffineProjector(holes)._Vt is not None
    assert _PenalizedStep(holes, 1e-3)._Vt is not None
    phantom, _ = phantom_instance(8, 10, 128, 0)
    assert AffineProjector(phantom)._Vt is None


def test_factored_maps_touch_only_the_signal_block(monkeypatch):
    # the factored step multiplies on signal-block views of its matrices:
    # V^T v must not read v's border coordinates, and k^T V^T must leave
    # them exactly zero
    monkeypatch.setattr(qbp.admm, "FACTORED_MIN_ENTRIES", 0)
    rng = np.random.default_rng(31)
    system, _ = pure_phase(5, 12, 2, "gaussian", 0)
    m = system.n + 1
    border = _border(m)[1:]
    assert np.count_nonzero(border) == 2 * system.n
    for step in (AffineProjector(system), _PenalizedStep(system, 1e-3)):
        assert step._Vt is None
        v = rng.standard_normal(m * m - 1)
        want = step._forward(v).tobytes()
        v[border] = rng.standard_normal(np.count_nonzero(border))
        assert step._forward(v).tobytes() == want
        k = rng.standard_normal(step._W.shape[1])
        out = step._back(k)
        assert out.shape == v.shape
        assert np.all(out[border] == 0.0) and np.any(out[~border] != 0.0)


def _dense_call(self, x):
    """The X1 step with V^T applied as one dense matrix, forward and back."""
    x[0] = 1.0
    v = x[1:]
    Vt = self._Vt
    c = Vt @ v
    radius = self._radius
    if radius is None:
        c -= self._target
        v -= c @ Vt
    else:
        t = self._s * c - self._h
        r2 = t * t
        phi = float(r2.sum()) + self._floor
        if phi > radius * radius:
            s2r2 = self._s2 * r2
            mu = self._mu
            for _ in range(qbp.admm.SECULAR_MAX_STEPS):
                q = 1.0 / (1.0 + mu * self._s2)
                q2 = q * q
                phi = float(r2 @ q2) + self._floor
                gap = math.sqrt(phi) / radius - 1.0
                if abs(gap) <= qbp.admm.SECULAR_RTOL:
                    break
                slope = 2.0 * float(s2r2 @ (q2 * q))
                mu = max(mu + 2.0 * phi * gap / slope, 0.0)
            else:
                q = 1.0 / (1.0 + mu * self._s2)
            self._mu = mu
            v += (-mu * q * self._s * t) @ Vt
    return x


def test_dense_x1_path_is_bit_identical_to_the_dense_matrix_step(monkeypatch):
    # the table's first twelve solves and the holes preset take the dense
    # path, whose forward and back maps must be the plain products with V^T
    table = SolverConfig(eps_abs=1e-5, eps_rel=1e-5, max_iters=30000)
    solves = [(general_quadratic(20, 25, 3, "binary", trial_seed(0, i))[0],
               lambda s: solve(s, 50.0, table)) for i in range(12)]
    holes, _ = pure_phase(16, 60, 3, "binary", 0)
    solves.append((holes, lambda s: solve_denoising(s, 100.0, 0.0012, table)))

    def digests():
        return [(r.iterations, hashlib.sha256(r.Z.tobytes()).hexdigest())
                for r in (run(system) for system, run in solves)]

    got = digests()
    monkeypatch.setattr(_PenalizedStep, "__call__", _dense_call)
    assert got == digests()


def test_border_stays_exactly_zero_on_magnitude_solves(monkeypatch):
    # magnitude measurements never touch the lifted border, and neither does
    # the loop: every PSD argument and every returned Z keeps it exactly zero
    seen = []

    def checked_psd(M):
        seen.append(max(np.max(np.abs(M[0, 1:])), np.max(np.abs(M[1:, 0]))))
        return project_psd(M)

    monkeypatch.setattr(qbp.admm, "project_psd", checked_psd)
    cfg = SolverConfig(eps_abs=1e-5, eps_rel=1e-5, max_iters=20000)
    system, _ = pure_phase(6, 24, 2, "gaussian", 7)
    phantom, _ = phantom_instance(3, 2, 18, 1)
    runs = [solve(system, 1.0, cfg), solve_denoising(system, 1.0, 1e-3, cfg),
            solve(phantom, 1.0, cfg)]
    monkeypatch.setattr(qbp.admm, "FACTORED_MIN_ENTRIES", 0)
    runs += [solve(phantom, 1.0, cfg), solve_denoising(phantom, 1.0, 1e-3, cfg)]
    assert len(seen) == sum(r.iterations for r in runs)
    assert max(seen) == 0.0
    for r in runs:
        assert not np.any(r.Z[0, 1:]) and not np.any(r.Z[1:, 0])


def test_hermitian_maps_are_read_only():
    maps = hermitian_coordinates(4)
    assert maps._fields == ("gather", "weights", "src", "unweigh")
    for arr in maps:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = arr[0]


def _hermitian_from(block):
    """The Hermitian matrix with the upper triangle and real diagonal of ``block``."""
    m = block.shape[0]
    iu, ju = np.triu_indices(m, k=1)
    H = np.empty_like(block)
    H[iu, ju] = block[iu, ju]
    H[ju, iu] = block[iu, ju].conj()
    H[np.arange(m), np.arange(m)] = block.diagonal().real
    return H


@settings(max_examples=200, deadline=None)
@given(_complex_blocks(1))
def test_loop_gather_and_scatter_round_trip(blocks):
    # the loop's PSD step scatters its coordinates into a matrix and gathers
    # the projection back; a matrix that is left as it is must come back
    H = _hermitian_from(blocks[0])
    m = H.shape[0]
    maps = hermitian_coordinates(m)
    # the same index maps with unit weights, whose round trip is exact
    unit = maps._replace(weights=np.ones(m * m), unweigh=np.sign(maps.unweigh))
    x = np.zeros(m * m + 1)
    exact, back = np.full_like(H, np.nan), np.full_like(H, np.nan)
    qbp.admm._gather(H, unit, x[:-1])
    qbp.admm._scatter(x, unit, exact.reshape(-1).view(np.float64))
    qbp.admm._gather(H, maps, x[:-1])
    qbp.admm._scatter(x, maps, back.reshape(-1).view(np.float64))
    # the index maps alone round-trip every bit, signed zeros included
    assert _same_bits(exact, H)
    # the sqrt(2) weights cost at most one unit in the last place, and
    # nothing on the diagonal or at zeros
    assert np.array_equal(back, back.conj().T)
    parts, want = back.view(np.float64), H.view(np.float64)
    assert np.all(np.abs(parts - want) <= np.spacing(np.abs(want)))
    assert _same_bits(back.diagonal().copy(), H.diagonal().copy())
    assert np.all(back[H == 0.0] == 0.0)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_loop_coordinates_are_isometric(m, seed):
    # plain dot products of the loop's coordinates are Frobenius products,
    # which the stopping test and the Anderson fit rely on
    rng = np.random.default_rng(seed)
    A, B = random_hermitian(m, rng), random_hermitian(m, rng)
    maps = hermitian_coordinates(m)
    a = qbp.admm._gather(A, maps, np.empty(m * m))
    b = qbp.admm._gather(B, maps, np.empty(m * m))
    want = np.trace(A @ B).real
    assert abs(a @ b - want) <= 1e-13 * np.linalg.norm(A) * np.linalg.norm(B)
    assert a @ a == pytest.approx(np.linalg.norm(A) ** 2, rel=1e-14)


def test_x1_steps_project_in_place():
    rng = np.random.default_rng(22)
    system, _ = consistent_system(3, 5, rng)
    for step in (AffineProjector(system), _PenalizedStep(system, 1e-2)):
        x = realvec(10.0 * random_hermitian(4, rng))
        before = x.copy()
        assert step(x) is x
        assert x[0] == 1.0 and not np.array_equal(x, before)


def test_repeated_solves_are_bit_identical():
    # the cached maps and the per-solve workspace carry nothing from one
    # solve to the next, also across a solve at another matrix size
    cfg = SolverConfig(eps_abs=1e-5, eps_rel=1e-5, max_iters=30000)
    system, _ = general_quadratic(6, 12, 2, "binary", 3)
    other, _ = pure_phase(4, 16, 1, "binary", 5)

    def runs():
        return (solve(system, 2.0, cfg), solve_denoising(system, 2.0, 1e-3, cfg))

    first = runs()
    again = runs()
    solve(other, 1.0, cfg)
    solve_denoising(other, 1.0, 1e-3, cfg)
    last = runs()
    for results in (again, last):
        for a, b in zip(first, results):
            assert a.Z.tobytes() == b.Z.tobytes()
            for field in ("iterations", "rho_final", "primal_residual",
                          "dual_residual", "objective", "data_residual"):
                assert getattr(a, field) == getattr(b, field)


def test_update_rho_balances_residuals():
    assert update_rho(1.0, 1.0, 0.02, 0) == 2.0
    assert update_rho(1.0, 0.02, 1.0, 0) == 0.5
    assert update_rho(1.0, 1.0, 0.1, 0) == 1.0
    # zero tolerances scale both residuals to zero
    assert update_rho(1.0, 0.0, 0.0, 0) == 1.0


def test_update_rho_stops_after_its_change_budget():
    # the rule balances while the run has changed rho fewer than
    # RHO_MAX_CHANGES times and leaves it alone from then on, so rho stays
    # within RHO0 * RHO_FACTOR ** +-RHO_MAX_CHANGES without a clamp
    budget = qbp.admm.RHO_MAX_CHANGES
    for changes in range(budget):
        assert update_rho(3.0, 1.0, 0.02, changes) == 6.0
        assert update_rho(3.0, 0.02, 1.0, changes) == 1.5
    for changes in (budget, budget + 1, 10 * budget):
        assert update_rho(3.0, 1.0, 0.02, changes) == 3.0
        assert update_rho(3.0, 0.02, 1.0, changes) == 3.0
    # no bound on rho itself: the budget alone limits how far it moves
    assert update_rho(6e7, 1.0, 1e-9, 0) == 1.2e8
    assert update_rho(1.5e-8, 1e-9, 1.0, 0) == 7.5e-9


def test_small_scale_pure_phase_solve_converges_within_the_rho_budget(caplog):
    # at 1/100 of the generator's scale rho flip-flopped between two values,
    # 28 changes in all, and this solve took 4511 iterations to reach an
    # error of 0.11; with the budget it converges in about 130
    system, _ = pure_phase(20, 60, 2, "gaussian", 5)
    system = QuadraticSystem.from_arrays(system.phis, 1e-2 * system.y)
    caplog.set_level(logging.DEBUG, logger="qbp.admm")
    result = solve(system, 1.0, SolverConfig(eps_abs=1e-5, eps_rel=1e-5))
    assert result.converged
    assert result.iterations < 500
    found = re.search(r"after (\d+) rho changes$", caplog.records[-1].getMessage())
    assert int(found.group(1)) <= qbp.admm.RHO_MAX_CHANGES


def test_solver_config_validation():
    # a bool would pass as 0 or 1; a string or None must not escape as a TypeError
    for bad in (-1.0, np.nan, np.inf, True, "1e-3", None):
        with pytest.raises(ValueError):
            SolverConfig(eps_abs=bad)
        with pytest.raises(ValueError):
            SolverConfig(eps_rel=bad)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)


def test_solver_config_max_iters_must_be_an_integer():
    # a float or a bool would pass the range test and fail inside the loop
    for bad in (1e4, 10.0, 2.5, True, False, "10", None):
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            SolverConfig(max_iters=bad)
    assert SolverConfig(max_iters=np.int64(5)).max_iters == 5


def test_solve_rejects_negative_lambda():
    for lam in (-1.0, np.nan, np.inf, True, "1e-3", None):
        with pytest.raises(ValueError):
            solve(_single_equation(4.0), lam)


def test_solve_single_equation_regardless_of_lambda():
    # one equation x^2 = 4 pins the signal block; the corner stays at one
    # and the border stays where the symmetric dynamics started it (zero)
    for lam in (0.0, 0.1, 1.0):
        result = solve(_single_equation(4.0), lam, TIGHT)
        assert result.converged
        assert np.allclose(result.Z, np.diag([1.0, 4.0]), atol=1e-4)
        x_hat, _ = extract_phase_signal(result.Z)
        assert np.isclose(abs(x_hat[0]), 2.0, atol=1e-4)


def test_solve_fully_determined_system():
    # a unitary sensing basis pins every entry of the lifted matrix
    rng = np.random.default_rng(10)
    for lam in (0.0, 0.5):
        x = np.array([0.0, 2.0, 0.0], dtype=complex)
        system = unitary_sensing_system(x, "dft")
        result = solve(system, lam, SolverConfig(eps_abs=1e-7, eps_rel=1e-7,
                                                 max_iters=20000))
        assert result.converged
        assert np.max(np.abs(result.Z - lift(x))) < 1e-3


def test_solve_recovers_planted_sparse_signal():
    system, x = pure_phase(6, 24, 2, "gaussian", seed=1)
    result = solve(system, 5.0, TIGHT)
    assert result.converged
    x_hat, rank_ratio = extract_phase_signal(result.Z)
    assert rank_ratio < 1e-3
    gap = np.linalg.norm(x_hat) ** 2 + np.linalg.norm(x) ** 2
    gap -= 2.0 * abs(np.vdot(x_hat, x))
    assert np.sqrt(max(gap, 0.0)) / np.linalg.norm(x) < 1e-3


def test_solve_table_regime_converges():
    converged = 0
    for seed in range(10):
        system, _ = general_quadratic(20, 25, 3, "binary", seed)
        result = solve(system, 50.0, SolverConfig())
        converged += result.converged
        assert result.iterations <= 10000
    assert converged >= 9


def test_result_telemetry_shapes():
    result = solve(_single_equation(4.0), 0.5, TIGHT)
    assert isinstance(result, SolverResult)
    for field in ("rho_final", "primal_residual", "dual_residual", "objective",
                  "data_residual"):
        value = getattr(result, field)
        assert type(value) is float and math.isfinite(value), field
    assert result.termination == "converged"
    assert result.lam == 0.5
    assert result.rho_final > 0.0
    assert result.data_residual < 1e-6


def test_max_iters_termination(caplog):
    caplog.set_level(logging.DEBUG, logger="qbp.admm")
    system, _ = pure_phase(5, 15, 2, "gaussian", seed=3)
    result = solve(system, 1.0, SolverConfig(eps_abs=0.0, eps_rel=0.0, max_iters=7))
    assert result.termination == "max_iters"
    assert not result.converged
    assert result.iterations == 7
    # rho balances the residuals scaled by the tolerances: zero tolerances
    # scale both to zero, so rho never moves off its start
    assert result.rho_final == qbp.admm.RHO0
    assert caplog.records[-1].getMessage().endswith("after 0 rho changes")


def test_rho_balances_scaled_residuals_on_slow_table_trial():
    # at lam = 50 eps_dual is far above eps_pri; balancing the raw residuals
    # held rho at 8 and this trial took 4484 iterations
    system, _ = general_quadratic(20, 25, 3, "binary", trial_seed(0, 30))
    result = solve(system, 50.0, SolverConfig(eps_abs=1e-5, eps_rel=1e-5))
    assert result.converged
    assert result.iterations < 1500


def test_nonfinite_iterate_stops_as_diverged(monkeypatch):
    monkeypatch.setattr(qbp.admm, "project_psd", lambda M: np.full_like(M, np.nan))
    result = solve(_single_equation(4.0), 1.0, TIGHT)
    assert result.termination == "diverged"
    assert not result.converged
    assert result.iterations == 1
    assert not math.isfinite(result.primal_residual)


def test_iterate_invariants_hold_during_solves(monkeypatch):
    # every X1 and X2 the loop produces is checked as it is made, X1 on the
    # matrix its coordinates scatter to: both exactly Hermitian, X2 in the PSD
    # cone, X1 exactly affine-feasible in a solve or, in a denoising solve,
    # within the residual budget with its corner pinned.  The one X1 step is
    # wrapped once, and the running solve picks the check.
    epsilon = 1e-3
    seen = {"psd": 0, "affine": 0, "budget": 0}
    running = {"program": "affine"}

    def hermitian(M):
        assert np.array_equal(M, M.conj().T)

    def checked_psd(M):
        X2 = project_psd(M)
        hermitian(X2)
        assert np.linalg.eigvalsh(X2)[0] >= -1e-8
        seen["psd"] += 1
        return X2

    def checked_x1(self, x):
        x1 = x1_call(self, x)
        X1 = unrealvec(x1)
        hermitian(X1)
        if running["program"] == "affine":
            viol = np.max(np.abs(measure_lifted(system, X1) - system.y))
            scale = 1.0 + float(np.max(np.abs(system.y)))
            assert viol <= 1e-6 * scale and abs(X1[0, 0] - 1.0) <= 1e-6
        else:
            assert X1[0, 0] == 1.0
            assert data_residual(system, X1) <= epsilon
        seen[running["program"]] += 1
        return x1

    x1_call = _PenalizedStep.__call__
    monkeypatch.setattr(qbp.admm, "project_psd", checked_psd)
    monkeypatch.setattr(_PenalizedStep, "__call__", checked_x1)
    cfg = SolverConfig(eps_abs=1e-5, eps_rel=1e-5, max_iters=20000)
    system, _ = pure_phase(5, 20, 2, "gaussian", seed=4)
    result = solve(system, 2.0, cfg)
    assert result.converged
    running["program"] = "budget"
    budget = solve_denoising(system, 2.0, epsilon, cfg)
    assert budget.converged
    running["program"] = "affine"
    rng = np.random.default_rng(11)
    system, _ = consistent_system(3, 6, rng)
    result2 = solve(system, 1.0, cfg)
    assert result2.iterations >= 1
    assert seen["affine"] == result.iterations + result2.iterations
    assert seen["budget"] == budget.iterations
    assert seen["psd"] == seen["affine"] + seen["budget"]


def _anderson_counts(caplog):
    """(accepted, rejected, restarts) from the last debug "terminated" line."""
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("terminated")]
    found = re.search(r"(\d+) extrapolations accepted, (\d+) rejected,"
                      r" (\d+) memory restarts on a rho change", lines[-1])
    return tuple(int(v) for v in found.groups())


def test_debug_log_counts_extrapolations(caplog):
    caplog.set_level(logging.DEBUG, logger="qbp.admm")
    system, _ = general_quadratic(20, 25, 3, "binary", trial_seed(0, 0))
    result = solve(system, 50.0, SolverConfig(eps_abs=1e-5, eps_rel=1e-5))
    assert result.converged
    accepted, rejected, restarts = _anderson_counts(caplog)
    assert accepted > 0 and restarts > 0
    assert accepted + rejected < result.iterations
    # the same line times the operator and factorization setup and the loop,
    # and gives the loop's cost per iteration
    last = [r.getMessage() for r in caplog.records if r.getMessage().startswith("terminated")][-1]
    setup_s, loop_s, us_per_iter = map(float, re.search(
        r"; setup (\d+\.\d+) s, loop (\d+\.\d+) s, (\d+\.\d) us per iteration$",
        last).groups())
    assert setup_s > 0.0 and loop_s > setup_s
    assert us_per_iter == pytest.approx(1e6 * loop_s / result.iterations, rel=0.01, abs=0.1)


def test_a_rejected_point_is_not_stepped_from_again(monkeypatch, caplog):
    # with D = 0 the safeguard rejects every extrapolation, and the next step
    # starts from the plain image the point was extrapolated from: at a fixed
    # rho (eps = 0) no X1 argument repeats the one before it
    monkeypatch.setattr(qbp.admm, "ANDERSON_SAFEGUARD_D", 0.0)
    step = AffineProjector.__call__
    args = []

    def recorded(self, x):
        args.append(x.tobytes())
        return step(self, x)

    monkeypatch.setattr(AffineProjector, "__call__", recorded)
    caplog.set_level(logging.DEBUG, logger="qbp.admm")
    system, _ = pure_phase(16, 60, 3, "binary", 0)
    solve(system, 1.0, SolverConfig(eps_abs=0.0, eps_rel=0.0, max_iters=60))
    accepted, rejected, _ = _anderson_counts(caplog)
    assert accepted == 0 and rejected >= 10
    assert len(args) == 60
    assert all(a != b for a, b in zip(args, args[1:]))


def test_debug_log_reports_final_residuals_against_tolerances(monkeypatch, caplog):
    changed = []
    passed = []

    def counted_update_rho(rho, r_norm, s_norm, changes):
        new = update_rho(rho, r_norm, s_norm, changes)
        passed.append(changes)
        changed.append(new != rho)
        return new

    monkeypatch.setattr(qbp.admm, "update_rho", counted_update_rho)
    caplog.set_level(logging.DEBUG, logger="qbp.admm")
    system, _ = general_quadratic(20, 25, 3, "binary", trial_seed(0, 0))
    result = solve(system, 50.0, SolverConfig(eps_abs=1e-5, eps_rel=1e-5))
    assert result.converged
    messages = [r.getMessage() for r in caplog.records]
    assert messages[-2].startswith("terminated")
    found = re.fullmatch(
        r"final r=(\S+) eps_pri=(\S+) s=(\S+) eps_dual=(\S+) rho=(\S+)"
        r" after (\d+) rho changes", messages[-1])
    r, eps_pri, s, eps_dual, rho = map(float, found.groups()[:5])
    changes = int(found.group(6))
    assert r <= eps_pri and s <= eps_dual
    # the log prints four significant digits of the values the result holds
    assert r == pytest.approx(result.primal_residual, rel=1e-3)
    assert s == pytest.approx(result.dual_residual, rel=1e-3)
    assert rho == pytest.approx(result.rho_final, rel=1e-3)
    assert changes == sum(changed) and changes > 0
    # each call sees the count of the changes before it
    assert passed == [sum(changed[:i]) for i in range(len(changed))]


def test_rejected_extrapolations_fall_back_to_plain_steps(monkeypatch, caplog):
    # a safeguard bound with D = 0 rejects every extrapolated point: each one
    # still costs a map evaluation, and the solve proceeds by plain ADMM steps
    system, _ = pure_phase(6, 24, 2, "gaussian", 1)
    tight = solve(system, 5.0, TIGHT)
    calls = {"psd": 0, "x1": 0}

    def counted_psd(M):
        calls["psd"] += 1
        return project_psd(M)

    def counted_x1(self, x):
        calls["x1"] += 1
        return affine_call(self, x)

    affine_call = AffineProjector.__call__
    monkeypatch.setattr(qbp.admm, "ANDERSON_SAFEGUARD_D", 0.0)
    monkeypatch.setattr(qbp.admm, "project_psd", counted_psd)
    monkeypatch.setattr(AffineProjector, "__call__", counted_x1)
    caplog.set_level(logging.DEBUG, logger="qbp.admm")
    cfg = SolverConfig(eps_abs=1e-5, eps_rel=1e-5, max_iters=30000)
    result = solve(system, 5.0, cfg)
    assert result.converged
    accepted, rejected, _ = _anderson_counts(caplog)
    assert accepted == 0 and rejected > 0
    assert calls["psd"] == calls["x1"] == result.iterations
    # entrywise within the primal stopping tolerance of the tight solve
    tol = system.n * cfg.eps_abs + cfg.eps_rel * np.linalg.norm(result.Z)
    assert np.max(np.abs(result.Z - tight.Z)) <= tol


def test_acceleration_survives_the_table_blowup_instance():
    # table trial 9 at lam = 50 is where an Anderson variant with a looser
    # safeguard (factor 4 or 10, or none) was seen to run away: objective
    # 1.4e9 and 16154 iterations.  Plain ADMM takes 941; the bound is twice that.
    system, _ = general_quadratic(20, 25, 3, "binary", trial_seed(0, 9))
    result = solve(system, 50.0, SolverConfig(eps_abs=1e-5, eps_rel=1e-5,
                                              max_iters=30000))
    assert result.converged
    assert result.iterations <= 1882


@pytest.mark.parametrize("denoise", [False, True], ids=["solve", "solve_denoising"])
def test_objective_describes_the_returned_matrix(denoise):
    system, _ = pure_phase(16, 60, 3, "binary", 0)
    cfg = SolverConfig(eps_abs=1e-5, eps_rel=1e-5, max_iters=30000)
    if denoise:
        result = solve_denoising(system, 100.0, 1.2e-3, cfg)
    else:
        result = solve(system, 100.0, cfg)
    assert result.converged
    Z = result.Z
    # exactly Hermitian: extrapolation combines Hermitian iterates with real weights
    assert np.array_equal(Z, Z.conj().T)
    want = Z.trace().real + result.lam * np.abs(Z).sum()
    assert result.objective == pytest.approx(want, rel=1e-14)


def test_objective_settles_at_convergence():
    # the objective at the benchmark tolerance is within 1% of a far tighter solve's
    system, _ = general_quadratic(20, 25, 3, "binary", seed=123)
    results = [solve(system, 50.0, SolverConfig(eps_abs=tol, eps_rel=tol, max_iters=30000))
               for tol in (1e-5, 1e-8)]
    assert all(r.converged for r in results)
    loose, tight = (r.objective for r in results)
    assert abs(loose - tight) <= 0.01 * abs(tight)


def test_data_residual_zero_at_exact_lift():
    rng = np.random.default_rng(12)
    system, x = consistent_system(3, 4, rng)
    assert data_residual(system, lift(x)) < 1e-18
    assert data_residual(system, np.eye(4, dtype=complex)) > 0.0


def test_denoising_validates_arguments():
    system = _single_equation(4.0)
    for bad in (-0.1, np.nan, np.inf, True, "1e-3", None):
        with pytest.raises(ValueError):
            solve_denoising(system, bad, 0.1)
        with pytest.raises(ValueError):
            solve_denoising(system, 1.0, bad)


def test_denoising_huge_budget_drops_the_data():
    # with an enormous residual budget the program reduces to minimizing
    # trace plus l1 with only the unit corner pinned
    result = solve_denoising(_single_equation(4.0), 1.0, 1e6, TIGHT)
    assert result.converged
    want = np.zeros((2, 2))
    want[0, 0] = 1.0
    assert np.allclose(result.Z, want, atol=1e-3)


def test_denoising_small_budget_matches_equality_solver():
    system, _ = pure_phase(6, 24, 2, "gaussian", seed=1)
    exact = solve(system, 5.0, TIGHT)
    noisy = solve_denoising(system, 5.0, 1e-6, TIGHT)
    assert noisy.converged
    assert noisy.data_residual <= 1e-6
    assert np.linalg.norm(exact.Z - noisy.Z) < 1e-2


def test_denoising_budget_shapes_the_solution():
    # y = 4.1 with budget 0.02: the l1/trace pull shrinks x^2 until the
    # residual budget binds, so x^2 lands just below the data value
    result = solve_denoising(_single_equation(4.1), 0.01, 0.02, TIGHT)
    assert result.converged
    assert result.data_residual <= 0.02 + 1e-9
    x_sq = result.Z[1, 1].real
    assert 3.9 <= x_sq <= 4.1


def test_denoising_reports_unattained_budget():
    # x^2 = 4 and x^2 = 5 together leave a least-squares residual of 0.5:
    # a budget below it has no feasible point, one above it is solved
    system = QuadraticSystem([
        QuadraticMeasurement(0.0, [0.0], [0.0], [[1.0]], y) for y in (4.0, 5.0)
    ])
    with pytest.raises(InfeasibleProjectionError):
        solve_denoising(system, 0.5, 0.1, TIGHT)
    result = solve_denoising(system, 0.5, 0.6, TIGHT)
    assert result.converged
    assert result.data_residual <= 0.6


def _pushed_below_the_cone(seed):
    """``pure_phase(8, 30, 2, "binary", seed)`` with values y - 2|g|, g standard
    normal from ``seed``; seed 1 is budget-infeasible over the PSD cone at
    epsilon = 1e-3, though its least-squares floor is zero."""
    system, _ = pure_phase(8, 30, 2, "binary", seed)
    g = np.random.default_rng(seed).standard_normal(30)
    return QuadraticSystem.from_arrays(system.phis.copy(), system.y - 2.0 * np.abs(g))


def test_denoising_never_returns_a_copy_outside_its_budget():
    # seed 1's run ends with its last budget copy at a data residual of 7.27
    # after 3000 iterations (0.0011 after 2000); it raises rather than return
    # that copy, and seeds 0 and 2 return within the budget
    cfg = SolverConfig(max_iters=3000)
    with pytest.raises(InfeasibleProjectionError,
                       match=r"residual 7\.\d+e\+00 exceeds the residual budget"
                             r" 1\.000e-03 after 3000 iterations"):
        solve_denoising(_pushed_below_the_cone(1), 1.0, 1e-3, cfg)
    for seed in (0, 2):
        assert solve_denoising(_pushed_below_the_cone(seed), 1.0, 1e-3,
                               cfg).data_residual <= 1e-3


@pytest.mark.parametrize("make, lam", [
    (lambda: pure_phase(16, 60, 3, "binary", 0), 100.0),
    (lambda: pure_phase(6, 24, 2, "gaussian", 1), 5.0),
    (lambda: general_quadratic(8, 20, 2, "binary", 0), 5.0),
    (lambda: fourier_sparse_image(16, 64, 2, "gaussian", 0), 1.0),
], ids=["purephase16", "purephase6", "general8", "fourier4"])
@pytest.mark.parametrize("epsilon", [0.02, 1.2e-3, 1e-4, 1e-6])
def test_denoising_meets_the_budget_exactly(make, lam, epsilon):
    system, _ = make()
    cfg = SolverConfig(eps_abs=1e-5, eps_rel=1e-5, max_iters=30000)
    result = solve_denoising(system, lam, epsilon, cfg)
    assert result.converged
    assert result.data_residual <= epsilon


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 30), st.integers(0, 2**32 - 1),
       st.floats(1e-10, 10.0), st.floats(0.1, 10.0))
def test_budget_projection_property(n, N, seed, epsilon, spread):
    rng = np.random.default_rng(seed)
    system, _ = _complex_real_or_symmetric(n, N, rng, seed)
    step = _on_matrices(_PenalizedStep(system, epsilon))
    X = step(spread * random_hermitian(n + 1, rng))
    assert np.array_equal(X, X.conj().T)
    assert X[0, 0] == 1.0
    assert data_residual(system, X) <= epsilon
    assert np.max(np.abs(step(X) - X)) <= 1e-10


def test_budget_step_after_its_newton_cap_stays_outside_the_radius(monkeypatch):
    # a cap of 1, 2 or 3 steps ends the secular loop without converging; the
    # step then projects with its last mu, which Newton on phi^(-1/2) reaches
    # from the left: the copy's residual stays at or above the radius and
    # falls toward it as the cap grows
    holes, _ = pure_phase(16, 60, 3, "binary", 0)
    M = random_hermitian(17, np.random.default_rng(0))
    assert math.sqrt(data_residual(holes, M)) > 1e3 * math.sqrt(1.2e-3)
    residuals = []
    for cap in (1, 2, 3):
        monkeypatch.setattr(qbp.admm, "SECULAR_MAX_STEPS", cap)
        step = _PenalizedStep(holes, 1.2e-3)
        residual = math.sqrt(data_residual(holes, _on_matrices(step)(M)))
        assert residual >= step._radius * (1.0 - 1e-12)
        residuals.append(residual)
    assert residuals[0] >= residuals[1] >= residuals[2]


def test_budget_projection_at_zero_budget_is_affine():
    # the budget step at epsilon = 0 is the affine projection, the
    # pseudoinverse's, on complex, real and real symmetric data (whose
    # imaginary rows vanish)
    rng = np.random.default_rng(13)
    for seed in range(30):
        system, _ = _complex_real_or_symmetric(3, 5 + seed % 7, rng, seed)
        M = random_hermitian(4, rng)
        got = _on_matrices(_PenalizedStep(system, 0.0))(M)
        want = _realvec_affine(system)(M)
        assert np.max(np.abs(got - want)) <= _gram_tol(system, 1e-12)
    # ||y|| = 0 must not zero the infeasibility tolerance: a consistent
    # all-zero system has a least-squares floor of rounding size only
    rng = np.random.default_rng(14)
    for seed in range(30):
        system, _ = zero_valued_system(4, 6, rng, real=seed % 3 > 0,
                                       symmetric=seed % 3 == 2)
        M = 10.0 * random_hermitian(5, rng)
        got = _on_matrices(_PenalizedStep(system, 0.0))(M)
        want = _realvec_affine(system)(M)
        assert np.max(np.abs(got - want)) <= _gram_tol(system, 1e-12) * 10.0


def test_affine_projector_is_the_budget_step_at_zero_budget():
    # one step class: the equality step is the budget step at its default
    # epsilon = 0, the affine limit
    assert AffineProjector is _PenalizedStep
    rng = np.random.default_rng(15)
    system, _ = consistent_system(3, 6, rng)
    assert AffineProjector(system)._radius is None


@pytest.mark.parametrize("epsilon", [1e-6, 1e-12])
def test_zero_valued_systems_keep_the_budget_margin(epsilon):
    # ||y|| = 0 must not zero the budget margin either: the returned copy
    # stays within a tiny budget
    rng = np.random.default_rng(16)
    for seed in range(20):
        system, _ = zero_valued_system(4, 6, rng, real=seed % 3 > 0,
                                       symmetric=seed % 3 == 2)
        step = _on_matrices(_PenalizedStep(system, epsilon))
        for _ in range(3):
            X = step(10.0 * random_hermitian(5, rng))
            assert data_residual(system, X) <= epsilon


def test_denoising_at_zero_budget_solves_zero_valued_systems():
    rng = np.random.default_rng(17)
    system, _ = zero_valued_system(4, 6, rng)
    exact = solve(system, 1.0, TIGHT)
    noisy = solve_denoising(system, 1.0, 0.0, TIGHT)
    assert exact.converged and noisy.converged
    assert noisy.data_residual <= 1e-20
    assert np.max(np.abs(exact.Z - noisy.Z)) <= 1e-4


def test_denoising_at_zero_budget_runs_the_equality_loop():
    # epsilon = 0 builds the equality step, so both programs take the same
    # iterates, on magnitude systems with real y as on general systems;
    # repr round-trips a float exactly
    fields = ("iterations", "termination", "primal_residual", "dual_residual",
              "rho_final")
    for seed in range(10):
        for system, lam in ((pure_phase(8, 30, 2, "binary", seed)[0], 1.0),
                            (pure_phase(6, 24, 2, "gaussian", seed)[0], 5.0),
                            (general_quadratic(8, 20, 2, "binary", seed)[0], 5.0)):
            exact, noisy = solve(system, lam), solve_denoising(system, lam, 0.0)
            assert [repr(getattr(noisy, f)) for f in fields] == [
                repr(getattr(exact, f)) for f in fields]


def test_a_large_lift_solve_starts_no_thread(monkeypatch):
    # the X1 step runs on the calling thread at every lift size, also at
    # m = 65 with two usable CPUs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def refused(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refused)
    phantom, _ = phantom_instance(8, 10, 128, 0)
    assert solve(phantom, 1.0, SolverConfig(max_iters=5)).iterations == 5
