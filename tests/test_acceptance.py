"""End-to-end acceptance checks on frozen workloads.

Each test evaluates one concrete claim about the package and prints a
single summary line

    CRITERION <i> (<name>): PASS|FAIL - <details>

before asserting, so ``pytest tests/test_acceptance.py -s`` reads as a
checklist.  Criterion 2 measures the trace-only program in a regime that
this solver places mid phase-transition; the README records the measured
rates and the evidence that the target is not attainable there.
"""

import math
import time

import numpy as np
import pytest

from qbp.admm import AffineProjector, SolverConfig, project_psd, solve
from qbp.baselines import iht_gradient, iht_objective
from qbp.generators import general_quadratic, pure_phase
from qbp.model import (
    constraint_system,
    evaluate,
    lift,
    measure_lifted,
    real_measurement_matrix,
)
from qbp.montecarlo import (
    ExperimentSpec,
    make_instance,
    run_monte_carlo,
    summarize,
    trial_seed,
)
from qbp.recovery import build_report, certify_coherence

from support import (
    cgauss,
    consistent_system,
    random_hermitian,
    realvec,
    unitary_sensing_system,
    unrealvec,
)

BENCH_SOLVER = {"eps_abs": 1e-5, "eps_rel": 1e-5, "max_iters": 30000}
BENCH_CONFIG = SolverConfig(**BENCH_SOLVER)


def _report(index, name, passed, details):
    verdict = "PASS" if passed else "FAIL"
    print(f"CRITERION {index} ({name}): {verdict} - {details}")


# the benchmark table, and trace-only recovery at N = 2n
TABLE_SPEC = ExperimentSpec(
    n=20, N=25, k=3, ensemble="general", signal="binary",
    methods=("qbp", "qbp0", "bp", "iht"), lam=50.0, trials=100, seed=0, tol=1e-3,
    iht_max_iters=40, solver=BENCH_SOLVER)
REGIME_SPEC = ExperimentSpec(
    n=20, N=40, k=3, methods=("qbp0",), trials=50, seed=0, tol=1e-3,
    solver=BENCH_SOLVER)


@pytest.fixture(scope="module")
def table_records():
    """The benchmark table's records; each lifted one keeps its final Z."""
    return run_monte_carlo(TABLE_SPEC, jobs=2)


@pytest.fixture(scope="module")
def regime_records():
    return run_monte_carlo(REGIME_SPEC, jobs=2)


def test_criterion_1_benchmark_success_rates(table_records):
    stats = summarize(table_records)
    rates = {m: stats[m]["success_rate"] for m in ("qbp", "qbp0", "bp", "iht")}
    passed = (
        rates["qbp"] >= 0.60
        and rates["qbp0"] <= 0.15
        and rates["bp"] <= 0.15
        and 0.30 <= rates["iht"] <= 0.75
        and rates["qbp"] > rates["iht"] > max(rates["bp"], rates["qbp0"])
    )
    details = (
        ", ".join(f"{m}={rates[m]:.2f}" for m in rates)
        + " over 100 trials (need qbp>=0.60, qbp0<=0.15, bp<=0.15,"
        " 0.30<=iht<=0.75, qbp>iht>others)"
    )
    _report(1, "benchmark success rates", passed, details)
    assert passed, details


def test_criterion_2_unique_recovery_regime(regime_records):
    rate = summarize(regime_records)["qbp0"]["success_rate"]
    passed = rate >= 0.90
    details = (
        f"trace-only recovery rate {rate:.2f} over 50 trials at n=20, N=40"
        " (need >= 0.90)"
    )
    _report(2, "unique-recovery regime", passed, details)
    assert passed, details


def test_criterion_3_certificate_soundness():
    rng = np.random.default_rng(20260814)
    config = SolverConfig(eps_abs=1e-7, eps_rel=1e-7, max_iters=20000)
    fired = 0
    failures = 0
    for _ in range(50):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, min(2, n) + 1))
        kind = "dft" if rng.integers(2) == 0 else "haar"
        x = np.zeros(n, dtype=complex)
        support = rng.choice(n, size=k, replace=False)
        x[support] = cgauss(rng, k)
        system = unitary_sensing_system(x, kind, rng)
        result = solve(system, 0.5, config)
        cert = certify_coherence(system, result.Z)
        if cert.certified:
            fired += 1
            failures += not build_report(system, result, x, 1e-6, True).success
    for _ in range(150):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, min(2, n) + 1))
        N = int(rng.integers(n, 3 * n + 1))
        make = general_quadratic if rng.integers(2) == 0 else pure_phase
        seed = int(rng.integers(0, 2 ** 31))
        system, x = make(n, N, k, "gaussian", seed)
        result = solve(system, 0.5, config)
        cert = certify_coherence(system, result.Z)
        if cert.certified:
            fired += 1
            failures += not build_report(system, result, x, 1e-6, True).success
    passed = failures == 0 and fired >= 1
    details = (
        f"certificate fired on {fired}/200 instances,"
        f" {failures} recovery counterexamples at 1e-6 (need 0)"
    )
    _report(3, "low-coherence certificate soundness", passed, details)
    assert passed, details


def test_criterion_4_projection_oracles():
    rng = np.random.default_rng(4)
    worst_psd = 0.0
    for _ in range(100):
        H = random_hermitian(6, rng)
        w, V = np.linalg.eigh(H)
        oracle = (V * np.clip(w, 0.0, None)) @ V.conj().T
        worst_psd = max(worst_psd, float(np.max(np.abs(project_psd(H) - oracle))))
    worst_residual = 0.0
    worst_drift = 0.0
    for i in range(100):
        system, _ = consistent_system(3, 4, rng, real=i % 2 == 0)
        step = AffineProjector(system)

        def projector(M):
            # the X1 step maps weighted coordinates
            return unrealvec(step(realvec(M)))

        P = projector(random_hermitian(4, rng))
        scale = 1.0 + float(np.max(np.abs(system.y)))
        residual = float(np.max(np.abs(measure_lifted(system, P) - system.y)))
        residual = max(residual, abs(P[0, 0] - 1.0))
        worst_residual = max(worst_residual, residual / scale)
        worst_drift = max(worst_drift, float(np.max(np.abs(projector(P) - P))))
    passed = worst_psd <= 1e-10 and worst_residual <= 1e-8 and worst_drift <= 1e-8
    details = (
        f"psd deviation {worst_psd:.1e} (<=1e-10); affine residual"
        f" {worst_residual:.1e}, re-projection drift {worst_drift:.1e}"
        " (<=1e-8); 100 draws each"
    )
    _report(4, "projection oracles", passed, details)
    assert passed, details


def test_criterion_5_operator_consistency():
    rng = np.random.default_rng(5)
    worst = 0.0
    for i in range(500):
        n = int(rng.integers(2, 7))
        N = int(rng.integers(1, 2 * n + 1))
        system, x = consistent_system(n, N, rng, real=i % 2 == 0)
        truth = evaluate(system, x)
        v = realvec(lift(x))
        B, _ = real_measurement_matrix(system)
        # the system's values are truth, so the constraint right-hand side
        # holds its real parts and its kept imaginary parts
        A, b = constraint_system(system)
        for applied, want in ((B @ v, np.concatenate([truth.real, truth.imag])),
                              (A @ v, b)):
            dev = float(np.max(np.abs(applied - want) / (1.0 + np.abs(want))))
            worst = max(worst, dev)
    passed = worst <= 1e-10
    details = (
        f"max relative deviation {worst:.1e} between the solver's operator"
        " matrices and direct evaluation over 500 pairs (<=1e-10)"
    )
    _report(5, "lifted-operator consistency", passed, details)
    assert passed, details


def test_criterion_6_feasibility_at_convergence(table_records, regime_records):
    audited = 0
    worst_gap = 0.0
    worst_eig = 0.0
    runs = [(TABLE_SPEC, table_records), (REGIME_SPEC, regime_records)]
    lifted = [(spec, r) for spec, records in runs for r in records
              if r.method in ("qbp", "qbp0")]
    for spec, r in lifted:
        # an empty note means the solve converged
        if r.note:
            continue
        audited += 1
        system, _ = make_instance(spec, trial_seed(spec.seed, r.trial))
        gap = float(np.max(np.abs(measure_lifted(system, r.Z) - system.y)))
        worst_gap = max(worst_gap, gap)
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(r.Z)[0]))
    gap_bound = 10.0 * 20 * BENCH_SOLVER["eps_abs"]
    eig_bound = -1e-3 * 20
    passed = audited > 0 and worst_gap <= gap_bound and worst_eig >= eig_bound
    details = (
        f"{audited}/{len(lifted)} solves converged: worst constraint gap"
        f" {worst_gap:.2e} (<= {gap_bound:.0e}), most negative eigenvalue"
        f" {worst_eig:.2e} (>= {eig_bound})"
    )
    _report(6, "feasibility at convergence", passed, details)
    assert passed, details


def test_criterion_7_phase_retrieval_recovery():
    wins = 0
    for seed in range(25):
        system, x = pure_phase(8, 40, 2, "gaussian", seed)
        result = solve(system, 10.0, BENCH_CONFIG)
        report = build_report(system, result, x, tol=1e-2)
        wins += bool(report.success)
    rate = wins / 25.0
    passed = rate >= 0.80
    details = (
        f"phase recovery rate {rate:.2f} over 25 trials at n=8, N=40, k=2"
        " (need >= 0.80)"
    )
    _report(7, "magnitude-only recovery", passed, details)
    assert passed, details


def test_criterion_8_gradient_check():
    h = 1e-6
    worst = 0.0
    for seed in range(50):
        n = 3 + seed % 3
        system, _ = general_quadratic(n, 2 * n, 2, "gaussian", seed)
        rng = np.random.default_rng(1000 + seed)
        x = cgauss(rng, n)
        grad = iht_gradient(system, x)
        for j in range(n):
            for direction in (1.0, 1.0j):
                step = np.zeros(n, dtype=complex)
                step[j] = direction * h
                fd = (
                    iht_objective(system, x + step)
                    - iht_objective(system, x - step)
                ) / (2.0 * h)
                analytic = grad[j].real if direction == 1.0 else grad[j].imag
                worst = max(worst, abs(analytic - fd) / max(1.0, abs(fd)))
    passed = worst <= 1e-5
    details = (
        f"max scaled gradient deviation {worst:.1e} against central"
        " differences over 50 instances (<=1e-5)"
    )
    _report(8, "descent gradient check", passed, details)
    assert passed, details


def test_criterion_9_periteration_scaling():
    def per_iter_seconds(n, seed, iters=30):
        N = math.ceil(1.25 * n)
        system, _ = general_quadratic(n, N, 3, "binary", seed)
        config = SolverConfig(eps_abs=0.0, eps_rel=0.0, max_iters=iters)
        start = time.perf_counter()
        result = solve(system, 1.0, config)
        elapsed = time.perf_counter() - start
        assert result.iterations == iters
        return elapsed / iters

    def predicted_cost(n):
        N = math.ceil(1.25 * n)
        return n * n * N * N + n ** 3

    medians = {
        n: float(np.median([per_iter_seconds(n, seed) for seed in range(5)]))
        for n in (10, 20, 40)
    }
    ratios = {}
    for small, big in ((10, 20), (20, 40)):
        observed = medians[big] / medians[small]
        predicted = predicted_cost(big) / predicted_cost(small)
        ratios[(small, big)] = observed / predicted
    passed = all(r <= 3.0 for r in ratios.values())
    details = (
        ", ".join(
            f"n {a}->{b}: observed/predicted {r:.2f}x"
            for (a, b), r in ratios.items()
        )
        + " (each <= 3.0)"
    )
    _report(9, "per-iteration cost scaling", passed, details)
    assert passed, details
