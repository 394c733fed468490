"""Batch experiment runner: seeding, per-trial records, CSV output."""

import concurrent.futures
import csv
import dataclasses
import io
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import qbp.admm
import qbp.montecarlo
from qbp.admm import InfeasibleProjectionError, SolverConfig, solve
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
    # a lifted solve keeps the matrix it returned, as an array of its own
    # that holds no solver workspace alive; the baselines keep none
    for record in records[:3]:
        assert record.Z.shape == (5, 5) and record.Z.flags.owndata
    assert records[3].Z is None and records[4].Z is None


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
    result = solve(system, spec.lam, spec.solver)
    candidates = [build_report(system, result).x_hat,
                  iterative_hard_thresholding(system, spec.k, spec.iht_max_iters)[0]]
    for record, x_hat in zip(records, candidates):
        assert record.error == judge_success(x_hat, x, spec.tol, phase_invariant=rule)[1]
    # the other rule would score at least one of the two differently
    assert any(record.error != judge_success(x_hat, x, spec.tol, phase_invariant=not rule)[1]
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
        assert a.Z.tobytes() == b.Z.tobytes()


def test_pool_starts_no_more_workers_than_trials(monkeypatch):
    class FakePool:
        # records the pool size asked for and runs at most two trials in
        # this process, so a large request starts no process and stays cheap;
        # workers are spawned, not forked, with one BLAS thread each
        sizes = []

        def __init__(self, max_workers, mp_context):
            assert mp_context.get_start_method() == "spawn"
            self.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
                assert os.environ[name] == "1"
            return map(fn, *(it[:2] for it in iterables))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(qbp.montecarlo, "_usable_cpus", lambda: 4)
    records = run_monte_carlo(_tiny_spec(trials=2), jobs=64)
    assert len(records) == 2
    # nor more workers than usable CPUs; with one (the count when it is
    # unknown) only one worker would start, so the trials run in this
    # process and no pool starts
    run_monte_carlo(_tiny_spec(trials=1000), jobs=1000)
    monkeypatch.setattr(qbp.montecarlo, "_usable_cpus", lambda: 1)
    records = run_monte_carlo(_tiny_spec(trials=2), jobs=1000)
    assert len(records) == 2
    assert FakePool.sizes == [2, 4]


def test_an_exception_cancels_the_trials_not_yet_started(monkeypatch):
    class QueuedPool:
        # runs a trial when its result is read; leaving it runs every trial
        # still queued, as a real pool's shutdown(wait=True) does, unless
        # they were cancelled
        def __init__(self, max_workers, mp_context):
            self.queued = []

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.shutdown()
            return False

        def shutdown(self, wait=True, cancel_futures=False):
            if cancel_futures:
                self.queued.clear()
            while self.queued:
                self.queued.pop(0)()

        def map(self, fn, *iterables):
            self.queued = [lambda args=args: fn(*args) for args in zip(*iterables)]

            def results():
                # closing the iterator cancels what is still queued, as
                # Executor.map's does
                try:
                    while self.queued:
                        yield self.queued.pop(0)()
                finally:
                    self.queued.clear()

            return results()

    ran = []

    def stopped(index):
        raise KeyboardInterrupt

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", QueuedPool)
    monkeypatch.setattr(qbp.montecarlo, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(qbp.montecarlo, "run_trial", lambda spec, index: ran.append(index) or [])
    with pytest.raises(KeyboardInterrupt):
        run_monte_carlo(_tiny_spec(trials=60), jobs=2, progress=stopped)
    assert ran == [0]


def test_a_process_pinned_to_one_cpu_starts_no_pool(monkeypatch):
    # two CPUs on the host, one of them usable by this process
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool started on one usable CPU")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    records = run_monte_carlo(_tiny_spec(trials=2), jobs=2)
    assert [r.trial for r in records] == [0, 1]


def test_importing_qbp_loads_no_process_pool():
    # the pool's modules load only when a run starts worker processes
    code = ("import sys, qbp; print(sorted(m for m in ('multiprocessing',"
            " 'concurrent.futures', 'concurrent.futures.process') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_parallel_run_restores_the_environment(monkeypatch):
    # the workers' thread settings are set around the pool's start only
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    before = dict(os.environ)
    assert len(run_monte_carlo(_tiny_spec(trials=2), jobs=2)) == 2
    assert dict(os.environ) == before


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
    # the kept matrices are not part of the schema
    assert any(r.Z is not None for r in records)
    bare = io.StringIO()
    write_csv([dataclasses.replace(r, Z=None) for r in records], bare)
    assert bare.getvalue() == buf.getvalue()


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
        assert record.Z is None


def test_lifted_trial_that_raises_keeps_no_matrix(monkeypatch):
    def infeasible(system, lam, config):
        raise InfeasibleProjectionError("no Hermitian matrix fits")

    monkeypatch.setattr(qbp.montecarlo, "solve", infeasible)
    [record] = run_trial(_tiny_spec(trials=1), 0)
    assert record.note == "InfeasibleProjectionError"
    assert record.Z is None


def test_spec_validation():
    with pytest.raises(ValueError):
        _tiny_spec(ensemble="mystery")
    with pytest.raises(ValueError):
        _tiny_spec(methods=("qbp", "sorcery"))
    with pytest.raises(ValueError):
        _tiny_spec(methods=())
    # a method named twice ran twice per trial and summed into one summary line
    with pytest.raises(ValueError, match="methods must name each method once"):
        _tiny_spec(methods=("qbp", "qbp", "iht"))
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
    for name in ("n", "N", "k"):
        with pytest.raises(ValueError, match=f"^{name} must be at least 1, got 0$"):
            _tiny_spec(**{name: 0})
    with pytest.raises(ValueError, match=r"k must be in \[1, 4\]"):
        _tiny_spec(k=5)
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
    with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
        _tiny_spec(seed=-1)
    assert _tiny_spec().solver == SolverConfig(eps_abs=1e-5, eps_rel=1e-5, max_iters=20000)
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            run_monte_carlo(_tiny_spec(), jobs=jobs)


def test_spec_holds_one_frozen_solver_config(monkeypatch):
    # a mapping is converted when the spec is made: the spec compares and
    # hashes as one made from the equal config, and a later edit of the
    # mapping does not reach it
    settings = {"eps_abs": 1e-5, "eps_rel": 1e-5, "max_iters": 20000}
    config = SolverConfig(**settings)
    from_dict, from_config = _tiny_spec(solver=settings), _tiny_spec(solver=config)
    settings["max_iters"] = 7
    assert from_dict.solver == config
    assert from_dict == from_config and hash(from_dict) == hash(from_config)
    assert hash(ExperimentSpec(n=4, N=8, k=1)) == hash(ExperimentSpec(n=4, N=8, k=1))
    assert ExperimentSpec(n=4, N=8, k=1).solver == SolverConfig()
    # every lifted trial runs with the spec's own config
    seen = []

    def spy(solver):
        def run(*args):
            seen.append(args[-1])
            return solver(*args)
        return run

    monkeypatch.setattr(qbp.montecarlo, "solve", spy(solve))
    monkeypatch.setattr(qbp.montecarlo, "solve_denoising", spy(qbp.admm.solve_denoising))
    run_trial(_tiny_spec(solver=config, methods=("qbp", "qbp0", "qbpd"), epsilon=1e-3), 0)
    assert len(seen) == 3 and all(c is config for c in seen)


def test_spec_holds_its_methods_as_a_tuple():
    # a list was kept as given: the spec did not hash, compared unequal to
    # the same spec made with a tuple, and a later edit of the list reached it
    names = ["qbp", "iht"]
    from_list = ExperimentSpec(n=4, N=8, k=1, methods=names)
    names.append("bp")
    assert from_list.methods == ("qbp", "iht")
    assert from_list == ExperimentSpec(n=4, N=8, k=1, methods=("qbp", "iht"))
    assert hash(from_list) == hash(ExperimentSpec(n=4, N=8, k=1, methods=("qbp", "iht")))


@pytest.mark.parametrize("bad", [2.0, 1.5, True])
def test_run_monte_carlo_jobs_must_be_an_integer(bad):
    # jobs=1.5 and jobs=True ran before
    with pytest.raises(ValueError, match="jobs must be an integer"):
        run_monte_carlo(_tiny_spec(), jobs=bad)


@pytest.mark.parametrize("field", ["n", "N", "k", "trials", "seed", "iht_max_iters"])
@pytest.mark.parametrize("bad", [4.0, 2.5, True])
def test_spec_integer_fields_reject_floats_and_bools(field, bad):
    # each passed the range checks before and then failed inside a trial
    with pytest.raises(ValueError, match=f"{field} must be an integer, got {bad!r}"):
        _tiny_spec(**{field: bad})


@pytest.mark.parametrize("bad", [1000.0, True])
def test_spec_solver_max_iters_rejects_floats_and_bools(bad):
    with pytest.raises(ValueError, match="max_iters must be an integer"):
        _tiny_spec(solver={"max_iters": bad})


def test_spec_integer_fields_take_numpy_integers():
    spec = _tiny_spec(n=np.int64(4), trials=np.int32(2), seed=np.uint64(7))
    assert (spec.n, spec.trials, spec.seed) == (4, 2, 7)
