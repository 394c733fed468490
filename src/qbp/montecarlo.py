"""Repeated-trial experiments over random instance ensembles.

Each trial seeds its generator from (master seed, trial index), so any trial
can be reproduced in isolation and adding trials never perturbs earlier
ones.  Results are flat records with a stable CSV schema; a lifted solve's
record also keeps the matrix it returned, so audits read it in place.
"""

from __future__ import annotations

import csv
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from qbp.admm import (
    InfeasibleProjectionError,
    SolverConfig,
    solve,
    solve_denoising,
)
from qbp.baselines import (
    InfeasibleLinearSystemError,
    basis_pursuit,
    iterative_hard_thresholding,
    linearize,
)
from qbp.generators import (
    _check_draw,
    fourier_sparse_image,
    general_quadratic,
    pure_phase,
)
from qbp.model import _require_integer, _require_nonnegative, is_phase_invariant
from qbp.recovery import SUCCESS_TOL, DegenerateMatrixError, build_report, judge_success

__all__ = [
    "CSV_COLUMNS",
    "ENSEMBLES",
    "ExperimentSpec",
    "TrialRecord",
    "trial_seed",
    "make_instance",
    "run_trial",
    "run_monte_carlo",
    "summarize",
    "write_csv",
]

CSV_COLUMNS = (
    "trial",
    "method",
    "success",
    "error",
    "iterations",
    "wall_time_s",
    "rank_ratio",
    "note",
)

_METHODS = ("qbp", "qbp0", "qbpd", "bp", "iht")
ENSEMBLES = ("general", "purephase", "fourier")


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: an instance ensemble, the methods to run, and knobs.

    A bad field fails when the spec is made, not inside a trial.  The draw
    (n, N, k, signal, seed) is checked by the generators' own rule, so the
    spec and its generator refuse the same input with the same message; the
    spec itself checks the ensemble, the methods, the counts ``trials`` and
    ``iht_max_iters`` and the nonnegative ``lam``, ``epsilon`` and ``tol``.
    ``solver`` is the :class:`SolverConfig` of the lifted trials; a mapping
    of its keyword arguments is converted, and ``methods`` made a tuple, when
    the spec is made, so the spec stays hashable and unchanged.
    """

    n: int
    N: int
    k: int
    ensemble: str = "general"
    signal: str = "binary"
    methods: tuple[str, ...] = ("qbp",)
    lam: float = 1.0
    epsilon: float = 0.0
    trials: int = 100
    seed: int = 0
    tol: float = SUCCESS_TOL
    iht_max_iters: int = 1000
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        object.__setattr__(self, "methods", tuple(self.methods))
        if self.ensemble not in ENSEMBLES:
            raise ValueError(f"unknown ensemble {self.ensemble!r}")
        _check_draw(self.n, self.N, self.k, self.signal, self.seed,
                    image=self.ensemble == "fourier")
        bad = [m for m in self.methods if m not in _METHODS]
        if bad or not self.methods:
            raise ValueError(f"methods must be a non-empty subset of {_METHODS}")
        if len(set(self.methods)) < len(self.methods):
            raise ValueError(f"methods must name each method once, got {self.methods}")
        for name in ("trials", "iht_max_iters"):
            _require_integer(name, getattr(self, name), 1)
        for name in ("lam", "epsilon", "tol"):
            _require_nonnegative(name, getattr(self, name))
        if not isinstance(self.solver, SolverConfig):
            object.__setattr__(self, "solver", SolverConfig(**self.solver))


@dataclass(frozen=True)
class TrialRecord:
    """One method on one trial.  ``Z`` is the matrix a lifted solve (qbp,
    qbp0, qbpd) returned, and None for bp, iht and a trial that raised; it is
    not written to CSV."""

    trial: int
    method: str
    success: bool
    error: float
    iterations: int
    wall_time_s: float
    rank_ratio: float
    note: str = ""
    Z: np.ndarray | None = field(default=None, repr=False, compare=False)


def trial_seed(master_seed: int, index: int) -> int:
    """Derived seed for one trial; independent across indices."""
    return int(np.random.SeedSequence([master_seed, index]).generate_state(1, np.uint64)[0])


def make_instance(spec: ExperimentSpec, seed: int):
    """Draw one instance of the spec's ensemble: ``(system, x)``."""
    # looked up at each call, so a generator replaced in this module is the
    # one that draws
    draw = {"general": general_quadratic, "purephase": pure_phase,
            "fourier": fourier_sparse_image}[spec.ensemble]
    return draw(spec.n, spec.N, spec.k, spec.signal, seed)


# The failures a method may meet on a valid instance: a trial records them,
# and the command line reports them as solver errors.
_SOLVER_ERRORS = (
    InfeasibleProjectionError,
    InfeasibleLinearSystemError,
    DegenerateMatrixError,
    np.linalg.LinAlgError,
)


def _run_method(spec: ExperimentSpec, method: str, system, x_true,
                index: int) -> TrialRecord:
    rank_ratio, note, Z = float("nan"), "", None
    start = time.perf_counter()
    try:
        if method == "bp":
            x_hat, iterations = basis_pursuit(*linearize(system))
        elif method == "iht":
            x_hat, iterations, _ = iterative_hard_thresholding(
                system, spec.k, spec.iht_max_iters)
        else:
            if method == "qbpd":
                result = solve_denoising(system, spec.lam, spec.epsilon, spec.solver)
            else:
                result = solve(system, spec.lam if method == "qbp" else 0.0, spec.solver)
            report = build_report(system, result)
            x_hat, rank_ratio = report.x_hat, report.rank_ratio
            iterations, Z = result.iterations, result.Z
            note = "" if result.termination == "converged" else result.termination
        # a system without linear terms fixes its signal only up to a global phase
        success, error = judge_success(x_hat, x_true, spec.tol,
                                       phase_invariant=is_phase_invariant(system))
    except _SOLVER_ERRORS as exc:
        success, error, iterations, note = False, float("inf"), 0, type(exc).__name__
    return TrialRecord(
        trial=index,
        method=method,
        success=bool(success),
        error=float(error),
        iterations=int(iterations),
        wall_time_s=time.perf_counter() - start,
        rank_ratio=float(rank_ratio),
        note=note,
        Z=Z,
    )


def run_trial(spec: ExperimentSpec, index: int) -> list[TrialRecord]:
    """Generate instance ``index`` and run every requested method on it."""
    system, x_true = make_instance(spec, trial_seed(spec.seed, index))
    return [_run_method(spec, method, system, x_true, index) for method in spec.methods]


# The BLAS thread counts a worker process starts with: one each, so that
# ``jobs`` workers ask for ``jobs`` cores, not ``jobs`` times the parent's
# threads.
_WORKER_ENVIRONMENT = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                      "MKL_NUM_THREADS": "1"}


def _map_in_workers(pool, fn, *iterables):
    """``pool.map`` with workers started under :data:`_WORKER_ENVIRONMENT`.

    The map submits every item, which starts every worker of a spawn pool,
    each with a copy of the environment as it is then; the parent's
    environment is restored afterwards.
    """
    saved = {name: os.environ.get(name) for name in _WORKER_ENVIRONMENT}
    os.environ.update(_WORKER_ENVIRONMENT)
    try:
        return pool.map(fn, *iterables)
    finally:
        for name, value in saved.items():
            if value is None:
                del os.environ[name]
            else:
                os.environ[name] = value


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_monte_carlo(spec: ExperimentSpec, jobs: int = 1,
                    progress=None) -> list[TrialRecord]:
    """All trials of an experiment, in up to ``jobs`` processes.

    No more workers start than there are trials or usable CPUs (the
    process's CPU affinity; one when the count is unknown), and the trials
    run in this process when only one would start.  An exception raised
    while the results are read, by ``progress`` or by a trial, cancels the
    trials not yet started, so it reaches the caller once the running ones
    end.
    """
    _require_integer("jobs", jobs, 1)
    records: list[TrialRecord] = []
    workers = min(jobs, spec.trials, _usable_cpus())
    if workers > 1:
        # loaded here, so that `import qbp` loads no multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        pool = ProcessPoolExecutor(max_workers=workers, mp_context=get_context("spawn"))
    else:
        pool = nullcontext()
    with pool:
        args = run_trial, [spec] * spec.trials, range(spec.trials)
        batches = _map_in_workers(pool, *args) if workers > 1 else map(*args)
        try:
            for index, batch in enumerate(batches):
                records.extend(batch)
                if progress is not None:
                    progress(index)
        except BaseException:
            # leaving the pool waits for every submitted trial
            if workers > 1:
                pool.shutdown(cancel_futures=True)
            raise
    return records


def summarize(records) -> dict[str, dict]:
    """Per-method success rate and iteration/error averages."""
    out: dict[str, dict] = {}
    for method in dict.fromkeys(r.method for r in records):
        rows = [r for r in records if r.method == method]
        successes = sum(int(r.success) for r in rows)
        errors = [r.error for r in rows if np.isfinite(r.error)]
        out[method] = {
            "trials": len(rows),
            "successes": successes,
            "success_rate": successes / len(rows),
            "mean_iterations": sum(r.iterations for r in rows) / len(rows),
            "median_error": float(np.median(errors)) if errors else float("inf"),
        }
    return out


def write_csv(records, stream) -> None:
    """Write records with the stable schema to a text stream opened with newline=""."""
    writer = csv.writer(stream)
    writer.writerow(CSV_COLUMNS)
    # csv writes a float as str, its shortest round-trip form
    writer.writerows((r.trial, r.method, int(r.success), r.error, r.iterations,
                      r.wall_time_s, r.rank_ratio, r.note) for r in records)
