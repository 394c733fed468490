"""The three benchmark workloads and the layer names traced on each.

Every workload is closed loop: one process, one call at a time, ``jobs=1``.
The tolerances are the acceptance suite's (``eps_abs = eps_rel = 1e-5``).
Why each workload exists is written up in ``NOTES.md`` next to this file.

Inputs are fixed reference instances (the first trials of the paper's table,
the ``qbp phantom`` default, the README's holes preset).  ``--seed`` draws a
random relabelling of each instance: a permutation of the unknown's
coordinates and of the measurement order.  That is an exact symmetry of the
lifted program, so every seed hands the solver different arrays of the same
difficulty.  Fresh random instances differ in ADMM iterations by up to 4x
(see ``NOTES.md``), which no run of a few dozen seconds averages out.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from checks import check_budget_solve, check_equality_solve, check_estimate
from tracing import Span

SOLVER = {"eps_abs": 1e-5, "eps_rel": 1e-5}
_MODULES = ("model", "admm", "recovery", "generators", "montecarlo")


def import_qbp() -> SimpleNamespace:
    """Import qbp afresh, so each set-up pays the import again."""
    for name in [k for k in sys.modules if k == "qbp" or k.startswith("qbp.")]:
        del sys.modules[name]
    importlib.import_module("qbp")
    return SimpleNamespace(**{m: sys.modules[f"qbp.{m}"] for m in _MODULES})


def relabel(model, system, x, seed: int, key: int):
    """Permute the unknown's coordinates and the measurement order.

    With x' = x[p], b' = b[p], c' = c[p] and Q' = Q[p][:, p] every
    measurement value is unchanged, so ``y`` carries over as it is.
    """
    rng = np.random.default_rng([seed, key])
    p = rng.permutation(system.n)
    order = rng.permutation(system.num_measurements)
    pp = np.ix_(p, p)
    measurements = [
        model.QuadraticMeasurement(m.a, m.b[p], m.c[p], m.Q[pp], m.y)
        for m in (system.measurements[i] for i in order)
    ]
    return model.QuadraticSystem(measurements), x[p]


class SpeedProbe:
    """Times a fixed numpy-and-Python kernel between the timed units.

    The reference box switches for minutes at a time between speeds about
    35% apart, which moves every wall time alike.  Dividing a unit's wall
    time by the kernel time around it cancels that: over 150 s, 7 s chunks
    of a 65x65 ``eigh`` loop spread 1.95-2.79 s raw and 2.07-2.20 in kernel
    units.  Scaled by ``REFERENCE_S``, the kernel's median time on that box,
    the result reads in seconds at the box's usual speed.
    """

    REFERENCE_S = 0.0275

    def __init__(self):
        rng = np.random.default_rng(20131)

        def hermitian(m):
            M = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            return M + M.conj().T

        self._small, self._large = hermitian(21), hermitian(65)
        self.samples: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        for _ in range(90):
            np.linalg.eigh(self._small)
        for _ in range(9):
            np.linalg.eigh(self._large)
        total = 0
        for i in range(60000):
            total += i * i
        self.samples.append(time.perf_counter() - start)

    def scale(self, unit: int) -> float:
        """Reference seconds per wall second for unit ``unit``.

        Unit ``i`` ran between samples ``i`` and ``i + 1``.
        """
        return 2.0 * self.REFERENCE_S / (self.samples[unit] + self.samples[unit + 1])


@dataclass
class Call:
    """One timed call of one method: its verdicts and whether it recovered."""

    method: str
    failures: list[str] = field(default_factory=list)
    recovered: bool = False


@dataclass
class Log:
    """What one pass over a workload did; times are wall seconds."""

    calls: list[Call] = field(default_factory=list)
    solve_s: list[float] = field(default_factory=list)  # primary-method solves
    solve_trial: list[int] = field(default_factory=list)  # the trial of each solve
    trial_s: list[float] = field(default_factory=list)  # instance + methods + report
    solve_iterations: int = 0  # SolverResult.iterations summed over returned solves


def _patched(pairs):
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in pairs]
    for owner, attr, new in pairs:
        setattr(owner, attr, new)
    return saved


def _restore(saved):
    for owner, attr, old in reversed(saved):
        setattr(owner, attr, old)


# Layer names traced inside qbp.admm on every workload; admm looks these up
# in its own namespace, so wrapping them there catches every call.
ADMM_LAYERS = (
    ("admm", None, "_admm"),
    ("admm", None, "project_psd"),
    ("admm", None, "update_z"),
)
# The x1 step and the operator it is built from: `solve` uses the first,
# `solve_denoising` the second.  A workload traces the one it runs, and the
# traced run requires every traced name to be called.
EQUALITY_STEP = (
    ("admm", None, "constraint_system"),
    ("admm", "AffineProjector", "__init__"),
    ("admm", "AffineProjector", "__call__"),
)
PENALIZED_STEP = (
    ("admm", None, "real_measurement_matrix"),
    ("admm", "_PenalizedStep", "__init__"),
    ("admm", "_PenalizedStep", "__call__"),
)


class TableN20:
    name = "table-n20"
    why = ("paper's benchmark table via run_monte_carlo (qbp, qbp0, iht); small lift, "
           "so per-call and per-iteration Python overhead, report and IHT carry time")
    trial_s = 1.1  # baseline seconds per trial of the table prefix, for sizing
    # The caller of each traced entry point is qbp.montecarlo.
    layers = (
        ("montecarlo", None, "run_monte_carlo"),
        ("montecarlo", None, "general_quadratic"),
        ("montecarlo", None, "solve"),
        ("montecarlo", None, "build_report"),
        ("montecarlo", None, "iterative_hard_thresholding"),
    ) + EQUALITY_STEP
    solve_names = ("qbp.montecarlo.solve",)

    def setup(self, q, seconds: float):
        trials = max(1, round(seconds / self.trial_s))
        # bp is left out: the linearized system is always inconsistent on this
        # ensemble, so it raises in under a millisecond and measures nothing.
        return q.montecarlo.ExperimentSpec(
            n=20, N=25, k=3, ensemble="general", signal="binary",
            methods=("qbp", "qbp0", "iht"), lam=50.0, trials=trials, seed=0,
            tol=1e-3, iht_max_iters=40, solver=dict(SOLVER, max_iters=30000),
        )

    def run(self, q, spec, seed: int, tracer, log: Log, probe: SpeedProbe | None = None) -> None:
        mc = q.montecarlo
        clock = time.perf_counter
        calls: list[Call] = []
        generate, solve = mc.general_quadratic, mc.solve
        report, iht = mc.build_report, mc.iterative_hard_thresholding

        def relabeled(n, N, k, signal, instance_seed):
            system, x = generate(n, N, k, signal, instance_seed)
            with Span(tracer, "bench.relabel"):
                return relabel(q.model, system, x, seed, instance_seed)

        def checked_solve(system, lam, config):
            call = Call("qbp" if lam > 0 else "qbp0")
            calls.append(call)
            start = clock()
            result = solve(system, lam, config)
            if lam == spec.lam:
                log.solve_s.append(clock() - start)
                log.solve_trial.append(len(log.trial_s))
            log.solve_iterations += result.iterations
            with Span(tracer, "bench.check"):
                call.failures += check_equality_solve(system, result, SOLVER["eps_abs"])
            return result

        def checked_report(system, result, *args, **kwargs):
            rep = report(system, result, *args, **kwargs)
            with Span(tracer, "bench.check"):
                calls[-1].failures += check_estimate(rep.x_hat, system.n)
            return rep

        def checked_iht(system, *args, **kwargs):
            call = Call("iht")
            calls.append(call)
            out = iht(system, *args, **kwargs)
            with Span(tracer, "bench.check"):
                call.failures += check_estimate(out[0] if isinstance(out, tuple) else out, system.n)
            return out

        saved = _patched([
            (mc, "general_quadratic", relabeled),
            (mc, "solve", checked_solve),
            (mc, "build_report", checked_report),
            (mc, "iterative_hard_thresholding", checked_iht),
        ])
        started = [0.0]

        def next_trial(_index=None):
            if _index is not None:
                log.trial_s.append(clock() - started[0])
            if probe is not None:
                probe.sample()
            started[0] = clock()

        next_trial()
        try:
            records = mc.run_monte_carlo(spec, jobs=1, progress=next_trial)
        finally:
            _restore(saved)
        if [r.method for r in records] != [c.method for c in calls]:
            raise RuntimeError("trial records do not line up with the calls seen")
        for record, call in zip(records, calls):
            call.recovered = bool(record.success)
            if record.note and not call.failures:
                call.failures.append(record.note)
        log.calls += calls


class _SingleInstance:
    """One reference instance, relabelled by the seed, solved repeatedly."""

    def setup(self, q, seconds: float):
        system, x = self.instance(q)
        return SimpleNamespace(
            system=system,
            x=x,
            repeats=max(1, round(seconds / self.solve_s)),
            config=q.admm.SolverConfig(max_iters=self.max_iters, **SOLVER),
        )

    def run(self, q, inputs, seed: int, tracer, log: Log, probe: SpeedProbe | None = None) -> None:
        # The relabelling is the benchmark's own work: it runs once, outside
        # both the timed set-up and the timed solves.  It replaces the
        # reference instance, so peak_rss_mb sees one copy of the system.
        with Span(tracer, "bench.relabel"):
            inputs.system, inputs.x = relabel(q.model, inputs.system, inputs.x, seed, 0)
        system, x = inputs.system, inputs.x
        clock = time.perf_counter
        for unit in range(inputs.repeats):
            if probe is not None:
                probe.sample()
            call = Call(self.method)
            start = clock()
            result = self.solve(q, system, inputs.config)
            solved = clock()
            report = q.recovery.build_report(system, result, x, self.tol, True)
            log.trial_s.append(clock() - start)
            log.solve_s.append(solved - start)
            log.solve_trial.append(unit)
            log.solve_iterations += result.iterations
            with Span(tracer, "bench.check"):
                call.failures += self.check(system, result)
                call.failures += check_estimate(report.x_hat, system.n)
            call.recovered = bool(report.success)
            log.calls.append(call)
        if probe is not None:
            probe.sample()


class PhantomS8(_SingleInstance):
    name = "phantom-s8"
    why = ("the qbp phantom default (side 8, k=10, N=128): large lift (m=65), so the dense "
           "eigh, the dense-pinv affine step and operator memory carry time")
    method = "qbp"
    solve_s = 4.5  # baseline seconds per solve, for sizing
    max_iters = 40000
    tol = 1e-3
    # The benchmark itself is the caller of these entry points.
    layers = (
        ("generators", None, "phantom_instance"),
        ("admm", None, "solve"),
        ("recovery", None, "build_report"),
    ) + EQUALITY_STEP
    solve_names = ("qbp.admm.solve",)

    def instance(self, q):
        return q.generators.phantom_instance(8, 10, 128, 0)

    def solve(self, q, system, config):
        return q.admm.solve(system, 1.0, config)

    def check(self, system, result):
        return check_equality_solve(system, result, SOLVER["eps_abs"])


class HolesQbpd(_SingleInstance):
    name = "holes-qbpd"
    why = ("the README holes preset through solve_denoising: the only path through "
           "_PenalizedStep and the beta sweep (6 cold ADMM runs per solve)")
    method = "qbpd"
    solve_s = 2.5  # baseline seconds per solve, for sizing
    max_iters = 30000
    tol = 1e-2
    epsilon = 0.0012
    layers = (
        ("generators", None, "pure_phase"),
        ("admm", None, "solve_denoising"),
        ("recovery", None, "build_report"),
    ) + PENALIZED_STEP
    solve_names = ("qbp.admm.solve_denoising",)

    def instance(self, q):
        return q.generators.pure_phase(16, 60, 3, "binary", 0)

    def solve(self, q, system, config):
        return q.admm.solve_denoising(system, 100.0, self.epsilon, config)

    def check(self, system, result):
        return check_budget_solve(system, result, self.epsilon)


WORKLOADS = {w.name: w for w in (TableN20(), PhantomS8(), HolesQbpd())}
