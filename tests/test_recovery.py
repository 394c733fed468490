"""Signal extraction, success judging, and recoverability diagnostics."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import qbp.recovery
from qbp.admm import SolverConfig, solve
from qbp.generators import general_quadratic, pure_phase
from qbp.model import DimensionMismatchError, lift
from qbp.recovery import (
    CoherenceCertificate,
    DegenerateMatrixError,
    RipEstimate,
    align_phase,
    build_report,
    certify_coherence,
    extract_phase_signal,
    extract_signal,
    judge_success,
    mutual_coherence,
    sample_rip,
)

from support import (
    random_hermitian,
    reference_mutual_coherence,
    system_from_phis,
    unitary_sensing_system,
)


def test_extract_signal_exact_lift():
    x = np.array([2.0, 0.0, -1.0], dtype=complex)
    x_hat, rank_ratio = extract_signal(lift(x))
    assert np.allclose(x_hat, x, atol=1e-12)
    assert rank_ratio < 1e-12


def test_extract_signal_perturbed_lift():
    rng = np.random.default_rng(0)
    x = np.array([1.0 + 1j, 0.0, 0.5], dtype=complex)
    H = random_hermitian(4, rng)
    H /= np.linalg.norm(H)
    x_hat, rank_ratio = extract_signal(lift(x) + 1e-6 * H)
    assert np.linalg.norm(x_hat - x) < 1e-4
    assert rank_ratio < 1e-5


def test_extract_signal_flags_high_rank():
    _, rank_ratio = extract_signal(np.eye(3, dtype=complex))
    assert np.isclose(rank_ratio, 1.0)


def test_extract_signal_degenerate_inputs():
    with pytest.raises(DegenerateMatrixError):
        extract_signal(np.zeros((3, 3)))
    # dominant component with no corner weight has nothing to normalize
    Z = np.zeros((3, 3), dtype=complex)
    Z[1, 1] = 5.0
    with pytest.raises(DegenerateMatrixError):
        extract_signal(Z)


def test_extract_phase_signal_block_diagonal():
    rng = np.random.default_rng(1)
    x = np.array([0.0, 1.0 - 2j, 0.0, 0.5], dtype=complex)
    Z = np.zeros((5, 5), dtype=complex)
    Z[0, 0] = 1.0
    Z[1:, 1:] = np.outer(x, x.conj())
    x_hat, rank_ratio = extract_phase_signal(Z)
    assert rank_ratio < 1e-12
    # defined up to a global phase only
    t = np.vdot(x_hat, x)
    assert np.allclose(x_hat * (t / abs(t)), x, atol=1e-10)


def test_extract_phase_signal_rank_ratio_is_never_negative_zero():
    # a second eigenvalue of -0.0 reads as rank ratio +0.0, so no "-0.0"
    # reaches a report or a CSV row
    _, rank_ratio = extract_phase_signal(np.diag([1.0, -0.0, 2.0]))
    assert rank_ratio == 0.0 and math.copysign(1.0, rank_ratio) == 1.0


@pytest.mark.parametrize("extract", [extract_signal, extract_phase_signal])
def test_extraction_refuses_a_matrix_with_no_signal_block(extract):
    # extract_signal returned an empty candidate with rank ratio 0.0 here
    with pytest.raises(DegenerateMatrixError, match="matrix has no signal block"):
        extract(np.ones((1, 1)))


@pytest.mark.parametrize("extract", [extract_signal, extract_phase_signal])
@pytest.mark.parametrize("Z", [np.array(2.0), np.ones(3), np.ones((3, 2))],
                         ids=["0-d", "1-d", "3x2"])
def test_extraction_refuses_a_matrix_that_is_not_square(extract, Z):
    # a 0-d or 1-D Z raised IndexError or LinAlgError, and extract_signal
    # returned [1, 1] with rank ratio 0.0 for the 3 x 2 matrix of ones
    with pytest.raises(DimensionMismatchError, match="a square matrix is needed"):
        extract(Z)


def test_extract_phase_signal_degenerate_inputs():
    Z = np.diag([1.0, -1.0, -2.0]).astype(complex)
    with pytest.raises(DegenerateMatrixError):
        extract_phase_signal(Z)


def test_judge_success_exact_and_phase_flip():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    ok, err = judge_success(x, x, phase_invariant=True)
    assert ok and err < 1e-12
    ok, err = judge_success(-x, x, phase_invariant=True)
    assert ok and err < 1e-7
    ok, err = judge_success(-x, x, phase_invariant=False)
    assert not ok and np.isclose(err, 2.0)


def test_judge_success_known_error():
    x = np.zeros(4, dtype=complex)
    x[2] = 1.0
    x_hat = x.copy()
    x_hat[0] += 0.1
    ok, err = judge_success(x_hat, x, tol=0.05, phase_invariant=True)
    assert not ok
    assert np.isclose(err, 0.1)


def test_judge_success_zero_truth():
    ok, err = judge_success(np.zeros(3), np.zeros(3), phase_invariant=True)
    assert ok and err == 0.0
    ok, err = judge_success(np.ones(3), np.zeros(3), phase_invariant=True)
    assert not ok and err == np.inf


def test_judge_success_phase_symmetry():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    x_hat = x + 0.01 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
    _, base = judge_success(x_hat, x, phase_invariant=True)
    for theta in (0.3, 1.7, -2.2):
        _, rotated = judge_success(np.exp(1j * theta) * x_hat, x, phase_invariant=True)
        assert np.isclose(rotated, base, rtol=1e-10)


@pytest.mark.parametrize("delta", [1e-10, 1e-8, 1e-4])
def test_judge_success_reads_small_phase_invariant_errors(delta):
    # a rotated, rescaled truth is off by delta up to its global phase; the
    # error is the norm of the aligned difference, which does not cancel the
    # way ||a||^2 + ||b||^2 - 2|<a, b>| does.  Rounding the rotated vector
    # moves it by about 1e-16 ||x||, some 1e-6 of delta = 1e-10.
    rng = np.random.default_rng(6)
    x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    for theta in rng.uniform(-np.pi, np.pi, 20):
        _, err = judge_success(np.exp(1j * theta) * x * (1.0 + delta), x,
                               phase_invariant=True)
        assert err == pytest.approx(delta, rel=1e-5)


@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf"), True, "1e-3", None])
def test_judge_success_rejects_a_bad_threshold(tol):
    # True would judge at tol = 1; a string or None must not escape as a TypeError
    x = np.ones(3)
    message = "finite and nonnegative" if isinstance(tol, float) else "a real number"
    with pytest.raises(ValueError, match=f"tol must be {message}"):
        judge_success(x, x, tol, phase_invariant=True)


def test_judge_success_shape_mismatch():
    with pytest.raises(DimensionMismatchError):
        judge_success(np.zeros(3), np.zeros(4), phase_invariant=True)


def test_align_phase():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    rotated = np.exp(1.3j) * x
    assert np.allclose(align_phase(rotated, x), x, atol=1e-12)
    orthogonal = np.zeros(5, dtype=complex)
    assert np.array_equal(align_phase(orthogonal, x), orthogonal)


def test_mutual_coherence_examples():
    mu, skipped = mutual_coherence(np.eye(4))
    assert mu == 0.0 and skipped == 0
    mu, skipped = mutual_coherence(np.array([[1.0, 1.0], [2.0, 2.0]]))
    assert np.isclose(mu, 1.0)
    mu, skipped = mutual_coherence(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert np.isclose(mu, 1.0 / np.sqrt(2.0))


def test_mutual_coherence_skips_zero_columns():
    B = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    mu, skipped = mutual_coherence(B)
    assert skipped == 1
    assert np.isclose(mu, 1.0 / np.sqrt(2.0))
    with pytest.raises(ValueError):
        mutual_coherence(np.array([[1.0, 0.0], [1.0, 0.0]]))


def _operator_columns(ensemble, n):
    draw = general_quadratic if ensemble == "general" else pure_phase
    system, _ = draw(n, 2 * n, 3, "binary" if ensemble == "general" else "gaussian", seed=4)
    return system.phis.reshape(system.num_measurements, -1)


@pytest.mark.parametrize("ensemble, n", [("general", 20), ("general", 40), ("purephase", 20)])
def test_mutual_coherence_blocks_match_the_full_gram(monkeypatch, ensemble, n):
    B = _operator_columns(ensemble, n)
    # 47, 12 and 52 rows a block for the 441, 1681 and 400 kept columns: many
    # blocks, the last one short
    monkeypatch.setattr(qbp.recovery, "_GRAM_ENTRIES", 21000)
    mu, skipped = mutual_coherence(B)
    want_mu, want_skipped = reference_mutual_coherence(B)
    assert skipped == want_skipped
    assert abs(mu - want_mu) <= 1e-12 * want_mu


def test_mutual_coherence_memory_grows_below_the_full_gram():
    # the full Gram of the m^2 columns takes about 24 m^4 bytes; the blocked
    # one must peak at half of that or less at n=40 (m^2 = 1681 columns)
    B = _operator_columns("general", 40)
    peaks = []
    for fn in (reference_mutual_coherence, mutual_coherence):
        tracemalloc.start()
        try:
            fn(B)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 0.5 * peaks[0], peaks


def test_certificate_fires_on_unitary_sensing():
    x = np.array([0.0, 2.0, 0.0], dtype=complex)
    system = unitary_sensing_system(x, "dft")
    result = solve(system, 0.5, SolverConfig(eps_abs=1e-7, eps_rel=1e-7,
                                             max_iters=20000))
    cert = certify_coherence(system, result.Z)
    assert isinstance(cert, CoherenceCertificate)
    assert cert.mu < 1e-10
    assert cert.skipped_columns == 0
    assert cert.cardinality == 4  # (k + 1)^2 with k = 1
    assert cert.certified
    x_hat, _ = extract_signal(result.Z)
    ok, err = judge_success(x_hat, x, tol=1e-6, phase_invariant=False)
    assert ok, f"certified instance must recover the plant, error {err:.2e}"


def test_certificate_refuses_coherent_sensing():
    # one measurement whose coefficient matrix is all ones: every matricized
    # column is identical, so mu = 1 and the sparsity bound is 1
    phi = np.ones((2, 2), dtype=complex)
    system = system_from_phis([phi], np.array([2.0], dtype=complex))
    cert = certify_coherence(system, lift(np.array([2.0])))
    assert np.isclose(cert.mu, 1.0)
    assert np.isclose(cert.bound, 1.0)
    assert not cert.certified


def test_certificate_refuses_high_rank():
    x = np.array([1.0, 0.0], dtype=complex)
    system = unitary_sensing_system(x, "dft")
    cert = certify_coherence(system, np.eye(3, dtype=complex))
    assert cert.rank_ratio > 0.9
    assert not cert.certified


def test_certificate_counts_unseen_entries():
    # a diagonal-only sensing set never observes off-diagonal entries; the
    # skipped columns must void the certificate even for a perfect rank-one Z
    m = 3
    phis = [np.zeros((m, m), dtype=complex) for _ in range(m)]
    for i in range(m):
        phis[i][i, i] = 1.0
    x = np.array([1.0, 0.0], dtype=complex)
    system = system_from_phis(phis, x)
    cert = certify_coherence(system, lift(x))
    assert cert.skipped_columns == m * m - m
    assert not cert.certified


def test_certificate_refuses_the_zero_matrix():
    # no positive singular value means no rank-one component, so there is
    # nothing to certify however small its support
    system = unitary_sensing_system(np.array([1.0, 0.0, 0.0]), "dft")
    cert = certify_coherence(system, np.zeros((4, 4)))
    assert cert.rank_ratio == math.inf
    assert cert.cardinality == 0
    assert not cert.certified


@pytest.mark.parametrize("shape", [(3, 3), (9, 9), (2, 3)])
def test_certificate_refuses_a_matrix_of_another_size(shape):
    # a square Z of any size used to be certified against any system, with
    # that system's mu and the cardinality of the wrong matrix
    system, _ = general_quadratic(4, 10, 1, "binary", 0)
    with pytest.raises(DimensionMismatchError) as exc:
        certify_coherence(system, np.ones(shape))
    assert str(exc.value) == f"Z has shape {shape}, the system's lift is (5, 5)"


def test_certificate_reads_the_rank_ratio_of_the_report():
    # a recovered magnitude solve: the report reads the signal block, whose
    # rank ratio is tiny, and the certificate must read the same number, not
    # that of the full matrix with its decoupled corner X00 = 1
    system, x = pure_phase(8, 32, 2, "binary", 0)
    result = solve(system, 1.0, SolverConfig(eps_abs=1e-5, eps_rel=1e-5))
    report = build_report(system, result, x)
    assert report.success and report.rank_ratio < 1e-4
    cert = certify_coherence(system, result.Z)
    assert cert.rank_ratio == report.rank_ratio


def test_certificate_cardinality_uses_zero_tolerance():
    x = np.array([0.0, 3.0], dtype=complex)
    system = unitary_sensing_system(x, "dft")
    Z = lift(x)
    Z[0, 1] += 1e-12  # numerically invisible dust
    Z[1, 0] += 1e-12
    cert = certify_coherence(system, Z)
    assert cert.cardinality == 4


def test_sample_rip_isometric_basis():
    # coefficient matrices forming an orthonormal Hermitian basis make the
    # lifted map an exact isometry in the Frobenius norm
    m = 3
    phis = [np.zeros((m, m), dtype=complex) for _ in range(m)]
    for i in range(m):
        phis[i][i, i] = 1.0
    for i in range(m):
        for j in range(i + 1, m):
            re = np.zeros((m, m), dtype=complex)
            re[i, j] = re[j, i] = 1.0 / np.sqrt(2.0)
            im = np.zeros((m, m), dtype=complex)
            im[i, j] = 1j / np.sqrt(2.0)
            im[j, i] = -1j / np.sqrt(2.0)
            phis.extend([re, im])
    system = system_from_phis(phis, np.zeros(m - 1, dtype=complex))
    est = sample_rip(system, k=3, samples=50, seed=0)
    assert isinstance(est, RipEstimate)
    assert est.epsilon < 1e-10
    assert est.k == 3 and est.samples == 50

    doubled = system_from_phis([2.0 * p for p in phis], np.zeros(m - 1, dtype=complex))
    est2 = sample_rip(doubled, k=3, samples=50, seed=0)
    assert np.isclose(est2.epsilon, 3.0, atol=1e-10)


def test_sample_rip_seed_determinism():
    system, _ = pure_phase(4, 10, 2, "gaussian", seed=7)
    a = sample_rip(system, k=4, samples=30, seed=11)
    b = sample_rip(system, k=4, samples=30, seed=11)
    assert a == b
    c = sample_rip(system, k=4, samples=30, seed=12)
    assert c.epsilon != a.epsilon


def test_sample_rip_validates_arguments():
    system, _ = pure_phase(3, 6, 1, "gaussian", seed=0)
    with pytest.raises(ValueError):
        sample_rip(system, k=0)
    with pytest.raises(ValueError):
        sample_rip(system, k=17)
    with pytest.raises(ValueError):
        sample_rip(system, k=2, samples=0)


@pytest.mark.parametrize("name", ["k", "samples", "seed"])
@pytest.mark.parametrize("bad", [2.0, 2.5, True])
def test_sample_rip_counts_must_be_integers(name, bad):
    # k=2.5 was reported as k=2.5 and k=True ran as k=1
    system, _ = pure_phase(3, 6, 1, "gaussian", seed=0)
    counts = {"k": 2, "samples": 5, "seed": 0, name: bad}
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        sample_rip(system, **counts)


def test_build_report_phase_invariant_path():
    system, x = pure_phase(6, 24, 2, "gaussian", seed=1)
    result = solve(system, 5.0, SolverConfig(eps_abs=1e-6, eps_rel=1e-6,
                                             max_iters=30000))
    report = build_report(system, result, x, tol=1e-3, phase_invariant=True)
    assert report.success
    assert report.error < 1e-3
    assert report.sparsity == 2
    assert report.rank_ratio < 1e-3
    assert report.feasibility_residual < 1e-3


def test_build_report_corner_path():
    # linear terms couple the corner to the signal, so extraction reads the
    # corner-normalized rank-one factor and no phase freedom remains
    system, x = general_quadratic(6, 30, 2, "binary", seed=3)
    result = solve(system, 10.0, SolverConfig(eps_abs=1e-6, eps_rel=1e-6,
                                              max_iters=30000))
    report = build_report(system, result, x, tol=1e-3, phase_invariant=False)
    assert report.success
    assert np.allclose(report.x_hat, x, atol=1e-3)


def test_build_report_scores_by_the_systems_phase_rule():
    # linear terms fix the global phase, so without a flag a phase-rotated
    # lift is an error of |exp(0.3i) - 1|; a magnitude-only system cannot see
    # the phase, so the same rotation still scores as a success
    theta = 0.3
    system, x = general_quadratic(4, 12, 2, "binary", 0)
    rotated = SimpleNamespace(Z=lift(np.exp(1j * theta) * x))
    report = build_report(system, rotated, x)
    assert not report.success
    assert report.error == pytest.approx(2.0 * math.sin(theta / 2.0), rel=1e-9)
    assert build_report(system, rotated, x, phase_invariant=True).success
    system, x = pure_phase(4, 12, 2, "gaussian", 0)
    report = build_report(system, SimpleNamespace(Z=lift(np.exp(1j * theta) * x)), x)
    assert report.success
    assert report.error < 1e-12


def test_build_report_without_truth():
    system, _ = pure_phase(5, 20, 1, "gaussian", seed=2)
    result = solve(system, 2.0, SolverConfig(eps_abs=1e-5, eps_rel=1e-5,
                                             max_iters=20000))
    report = build_report(system, result)
    assert report.success is None
    assert report.error is None
    assert report.x_hat.shape == (5,)
