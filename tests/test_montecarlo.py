"""Batch experiment runner: seeding, per-trial records, CSV output."""

import csv
import io
import math

import numpy as np
import pytest

from qbp.admm import SolverConfig, solve
from qbp.baselines import iterative_hard_thresholding
from qbp.generators import fourier_sparse_image, general_quadratic, pure_phase
from qbp.model import is_phase_invariant
from qbp.montecarlo import (
    CSV_COLUMNS,
    ExperimentSpec,
    make_instance,
    run_monte_carlo,
    run_trial,
    summarize,
    trial_seed,
    write_csv,
)
from qbp.recovery import build_report, judge_success


def _tiny_spec(**overrides):
    base = dict(
        n=4,
        N=16,
        k=1,
        ensemble="purephase",
        signal="gaussian",
        methods=("qbp",),
        lam=2.0,
        trials=2,
        seed=0,
        tol=1e-2,
        solver={"eps_abs": 1e-5, "eps_rel": 1e-5, "max_iters": 20000},
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def test_trial_seed_is_deterministic_and_distinct():
    seeds = [trial_seed(0, i) for i in range(100)]
    assert seeds == [trial_seed(0, i) for i in range(100)]
    assert all(isinstance(s, int) for s in seeds)
    assert len(set(seeds)) == 100
    assert trial_seed(1, 0) not in set(seeds)


def test_run_trial_covers_all_methods():
    spec = _tiny_spec(
        methods=("qbp", "qbp0", "qbpd", "bp", "iht"),
        epsilon=1e-4,
        k=1,
    )
    records = run_trial(spec, 0)
    assert [r.method for r in records] == ["qbp", "qbp0", "qbpd", "bp", "iht"]
    for record in records:
        assert record.trial == 0
        assert isinstance(record.success, bool)
        assert isinstance(record.error, float)
        assert record.iterations >= 0
        assert record.wall_time_s >= 0.0


@pytest.mark.parametrize("ensemble, draw", [
    ("general", general_quadratic),
    ("purephase", pure_phase),
    ("fourier", fourier_sparse_image),
])
@pytest.mark.parametrize("signal", ["binary", "gaussian"])
def test_every_ensemble_draws_from_the_spec_sizes_and_signal(ensemble, draw, signal):
    spec = _tiny_spec(ensemble=ensemble, signal=signal, n=9, k=2)
    system, x = make_instance(spec, 7)
    want_system, want_x = draw(9, 16, 2, signal, 7)
    assert np.array_equal(x, want_x)
    assert np.array_equal(system.phis, want_system.phis)
    assert (set(x[x != 0]) == {1.0}) == (signal == "binary")


@pytest.mark.parametrize("ensemble", ["general", "purephase"])
def test_trials_are_scored_under_the_systems_phase_rule(ensemble):
    # a general instance has linear terms and is scored as it stands; a
    # pure-phase one sees only x x^H and is scored up to a global phase
    spec = _tiny_spec(ensemble=ensemble, methods=("qbp", "iht"), iht_max_iters=5,
                      trials=1)
    records = run_trial(spec, 0)
    system, x = make_instance(spec, trial_seed(spec.seed, 0))
    rule = is_phase_invariant(system)
    assert rule == (ensemble == "purephase")
    result = solve(system, spec.lam, SolverConfig(**spec.solver))
    candidates = [build_report(system, result).x_hat,
                  iterative_hard_thresholding(system, spec.k, spec.iht_max_iters)[0]]
    for record, x_hat in zip(records, candidates):
        assert record.error == judge_success(x_hat, x, spec.tol, rule)[1]
    # the other rule would score at least one of the two differently
    assert any(record.error != judge_success(x_hat, x, spec.tol, not rule)[1]
               for record, x_hat in zip(records, candidates))


def test_run_monte_carlo_is_reproducible():
    spec = _tiny_spec(trials=3)
    first = run_monte_carlo(spec)
    second = run_monte_carlo(spec)
    assert len(first) == 3
    for a, b in zip(first, second):
        for key in CSV_COLUMNS:
            if key == "wall_time_s":
                continue
            va, vb = getattr(a, key), getattr(b, key)
            assert va == vb or (math.isnan(va) and math.isnan(vb)), key


def test_parallel_jobs_match_serial():
    spec = _tiny_spec(trials=2)
    serial = run_monte_carlo(spec, jobs=1)
    parallel = run_monte_carlo(spec, jobs=2)
    assert len(parallel) == 2
    for a, b in zip(serial, parallel):
        for key in CSV_COLUMNS:
            if key == "wall_time_s":
                continue
            va, vb = getattr(a, key), getattr(b, key)
            assert va == vb or (math.isnan(va) and math.isnan(vb)), key


def test_pool_starts_no_more_workers_than_trials(monkeypatch):
    import qbp.montecarlo

    class FakePool:
        # runs the trials in this process and records the pool size asked for
        sizes = []

        def __init__(self, max_workers):
            self.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(qbp.montecarlo, "ProcessPoolExecutor", FakePool)
    records = run_monte_carlo(_tiny_spec(trials=2), jobs=64)
    assert FakePool.sizes == [2]
    assert len(records) == 2


def test_progress_callback_fires_per_trial():
    spec = _tiny_spec(trials=3)
    seen = []
    run_monte_carlo(spec, progress=seen.append)
    assert seen == [0, 1, 2]


def test_write_csv_schema():
    spec = _tiny_spec(trials=2, methods=("qbp", "iht"))
    records = run_monte_carlo(spec)
    buf = io.StringIO()
    write_csv(records, buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 1 + 2 * 2
    for row in csv.DictReader(io.StringIO(buf.getvalue())):
        assert row["method"] in {"qbp", "iht"}
        assert row["success"] in {"0", "1"}
        float(row["error"])  # parses back (inf/nan allowed)
        int(row["trial"])


def test_summarize_matches_records():
    spec = _tiny_spec(trials=3, methods=("qbp", "iht"))
    records = run_monte_carlo(spec)
    table = summarize(records)
    assert set(table) == {"qbp", "iht"}
    for method, stats in table.items():
        subset = [r for r in records if r.method == method]
        wins = sum(1 for r in subset if r.success)
        assert stats["trials"] == len(subset)
        assert stats["success_rate"] == pytest.approx(wins / len(subset))
        finite = [r.error for r in subset if math.isfinite(r.error)]
        if finite:
            assert stats["median_error"] == pytest.approx(np.median(finite))
        assert stats["mean_iterations"] == pytest.approx(
            np.mean([r.iterations for r in subset])
        )


def test_infeasible_linearization_recorded_not_raised():
    # Folding a general quadratic ensemble to the linear part gives an
    # inconsistent overdetermined system; bp must record the failure
    # instead of propagating the exception.
    spec = _tiny_spec(ensemble="general", n=3, N=10, methods=("bp",), trials=2)
    records = run_monte_carlo(spec)
    assert len(records) == 2
    for record in records:
        assert record.success is False
        assert record.error == float("inf")
        assert record.note == "InfeasibleLinearSystemError"


def test_spec_validation():
    with pytest.raises(ValueError):
        _tiny_spec(ensemble="mystery")
    with pytest.raises(ValueError):
        _tiny_spec(methods=("qbp", "sorcery"))
    with pytest.raises(ValueError):
        _tiny_spec(methods=())
    with pytest.raises(ValueError):
        _tiny_spec(trials=0)
    # the Fourier ensemble draws a square image: n = side^2 with side >= 2
    for n in (1, 20):
        with pytest.raises(ValueError, match=f"got n={n}"):
            _tiny_spec(ensemble="fourier", n=n)
    # an unknown signal kind fails when the spec is made, not inside trial 0
    with pytest.raises(ValueError, match="unknown signal kind 'bogus'"):
        _tiny_spec(signal="bogus")
    for name in ("tol", "lam", "epsilon"):
        for value in (float("nan"), -1.0, float("inf")):
            with pytest.raises(ValueError, match=f"{name} must be finite and nonnegative"):
                _tiny_spec(**{name: value})
    # sizes and the IHT budget fail when the spec is made, not inside a trial
    for sizes in ({"n": 0}, {"N": 0}):
        with pytest.raises(ValueError, match="n and N must be positive"):
            _tiny_spec(**sizes)
    for k in (0, 5):
        with pytest.raises(ValueError, match=r"k must be in \[1, 4\]"):
            _tiny_spec(k=k)
    with pytest.raises(ValueError, match=r"k must be in \[1, 9\]"):
        _tiny_spec(ensemble="fourier", n=9, k=10)
    assert _tiny_spec(ensemble="fourier", n=9, k=9).k == 9
    with pytest.raises(ValueError, match="iht_max_iters must be at least 1"):
        _tiny_spec(iht_max_iters=0)
    # the solver settings are checked when the spec is made, before any trial
    with pytest.raises(ValueError, match="max_iters"):
        _tiny_spec(solver={"max_iters": 0})
    with pytest.raises(ValueError, match="eps_abs"):
        _tiny_spec(solver={"eps_abs": -1.0})
    with pytest.raises(TypeError, match="bogus"):
        _tiny_spec(solver={"bogus": 1})
    assert _tiny_spec().config == SolverConfig(eps_abs=1e-5, eps_rel=1e-5, max_iters=20000)
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            run_monte_carlo(_tiny_spec(), jobs=jobs)
