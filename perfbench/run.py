"""Run one qbp benchmark workload and print its metrics.

    python3 perfbench/run.py --workload table-n20 --seed 1 --seconds 30 --trace 0

Run from the repository root; qbp is imported from ``src/``.  ``--seconds``
sizes a fixed amount of work (trials or repeated solves) from the baseline
cost of one unit, so a given seed and length always do the same work and the
exact counts repeat.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs the same work with spans around every layer and reports
the per-layer metrics, the coverage gate and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the environment stamp and the exact counts.  Both also go to
``.perfbench/<workload>-seed<seed>-trace<0|1>.json``, and a traced run
writes its spans to ``.perfbench/<workload>-seed<seed>-spans.npz``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy loads OpenBLAS.  On the 2-core reference
# box a second thread left the solve times unchanged but made them about five
# times noisier (quartile spread ~20% against ~4% over 40 s), because idle
# OpenBLAS threads spin on the core the solver needs.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import ADMM_LAYERS, WORKLOADS, Log, SpeedProbe, import_qbp  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9
COVERAGE_GATE = 0.10

END_TO_END = {
    "setup_s": "s",
    "solve_s_p50": "s",
    "trials_per_s": "1/s",
    "recovery_rate": "fraction",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "generators.instance_s": "s",
    "model.operator_s": "s",
    "model.operator_mb": "computed_MB",
    "admm.setup_s": "s",
    "admm.affine_s": "s",
    "admm.affine_calls": "count",
    "admm.psd_s": "s",
    "admm.psd_calls": "count",
    "admm.shrink_s": "s",
    "admm.loop_self_s": "s",
    "admm.solve_self_s": "s",
    "admm.iterations": "count",
    "admm.us_per_iter": "us",
    "admm.runs_per_solve": "ratio",
    "admm.useful_iter_frac": "fraction",
    "recovery.report_s": "s",
    "baselines.iht_s": "s",
    "baselines.iht_iters": "count",
    "montecarlo.self_s": "s",
    "bench.setup_s": "s",
    "bench.relabel_s": "s",
    "bench.check_s": "s",
    "trace.wall_s": "s",
    "trace.coverage": "fraction",
    "trace.overhead_frac": "fraction",
    "trace.spans": "count",
}

# Span names whose self time makes up each layer.  The coverage gate sums
# every layer except the solve wrappers' own time and the benchmark's checks.
LAYER_SPANS = {
    "generators.instance_s": (
        "qbp.montecarlo.general_quadratic",
        "qbp.generators.phantom_instance",
        "qbp.generators.pure_phase",
    ),
    "model.operator_s": ("qbp.admm.constraint_system", "qbp.admm.real_measurement_matrix"),
    "admm.setup_s": ("qbp.admm.AffineProjector.__init__", "qbp.admm._PenalizedStep.__init__"),
    "admm.affine_s": ("qbp.admm.AffineProjector.__call__", "qbp.admm._PenalizedStep.__call__"),
    "admm.psd_s": ("qbp.admm.project_psd",),
    "admm.shrink_s": ("qbp.admm.update_z",),
    "admm.loop_self_s": ("qbp.admm._admm",),
    "admm.solve_self_s": (
        "qbp.montecarlo.solve",
        "qbp.admm.solve",
        "qbp.admm.solve_denoising",
    ),
    "recovery.report_s": ("qbp.montecarlo.build_report", "qbp.recovery.build_report"),
    "baselines.iht_s": ("qbp.montecarlo.iterative_hard_thresholding",),
    "montecarlo.self_s": ("qbp.montecarlo.run_monte_carlo",),
    "bench.setup_s": ("bench.setup",),
    "bench.relabel_s": ("bench.relabel",),
    "bench.check_s": ("bench.check",),
}
UNCOVERED = ("admm.solve_self_s", "bench.check_s")


def _git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(package: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas() -> dict:
    """BLAS library name, version and the thread count it will use."""
    info: dict = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    try:
        import ctypes

        with open("/proc/self/maps", encoding="utf-8") as fp:
            libs = {line.split()[-1] for line in fp if "openblas" in line and ".so" in line}
        for path in sorted(libs):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    info["threads"] = int(fn())
                    return info
    except OSError:
        pass
    return info


def environment_stamp(seed: int) -> dict:
    return {
        "commit": _git_commit(ROOT),
        "source_sha256": _source_digest(ROOT / "src" / "qbp"),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _verdicts(log: Log) -> tuple[int, int, list[str]]:
    """Calls attempted, calls failed, and the first few failures in words."""
    failed = [c for c in log.calls if c.failures]
    notes = [f"{c.method}: {'; '.join(c.failures)}" for c in failed[:5]]
    return len(log.calls), len(failed), notes


def _outcome_counts(log: Log) -> dict:
    attempted, failed, _ = _verdicts(log)
    return {
        "recovery_rate": sum(c.recovered for c in log.calls) / attempted,
        "failed_frac": failed / attempted,
    }


def run_untraced(workload, seed: int, seconds: float):
    # Each timed unit is scaled by the speed probe around it (see SpeedProbe);
    # the raw wall-clock figures go to the result file as "wall".
    setup_probe, probe = SpeedProbe(), SpeedProbe()
    setup_s = []
    for _ in range(SETUP_REPEATS):
        # Free the previous set-up first, outside the timed span, so that
        # peak_rss_mb sees one copy of the inputs, as a single set-up would.
        q = inputs = None
        gc.collect()
        setup_probe.sample()
        start = time.perf_counter()
        q = import_qbp()
        inputs = workload.setup(q, seconds)
        setup_s.append(time.perf_counter() - start)
    setup_probe.sample()
    log = Log()
    workload.run(q, inputs, seed, None, log, probe)
    ref_setup = [t * setup_probe.scale(i) for i, t in enumerate(setup_s)]
    ref_solve = [t * probe.scale(i) for t, i in zip(log.solve_s, log.solve_trial)]
    ref_trial = [t * probe.scale(i) for i, t in enumerate(log.trial_s)]
    outcome = _outcome_counts(log)
    metrics = {
        "setup_s": statistics.median(ref_setup),
        "solve_s_p50": statistics.median(ref_solve),
        "trials_per_s": len(ref_trial) / sum(ref_trial),
        "recovery_rate": outcome["recovery_rate"],
        "ok_frac": 1.0 - outcome["failed_frac"],
        "peak_rss_mb": _peak_rss_mb(),
    }
    counts = {
        "trials": len(log.trial_s),
        "solve_samples": len(log.solve_s),
        "solve_iterations": log.solve_iterations,
        **outcome,
    }
    wall = {
        "setup_s": statistics.median(setup_s),
        "solve_s_p50": statistics.median(log.solve_s),
        "trials_per_s": len(log.trial_s) / sum(log.trial_s),
        "speed": statistics.median(SpeedProbe.REFERENCE_S / t for t in probe.samples),
    }
    return metrics, counts, log, [], {"wall": wall}


def _install(tracer: Tracer, q, workload, counts: dict) -> list[str]:
    """Wrap the workload's layers; return the span names they record under."""
    def admm_run(result, args):
        counts["admm.iterations"] += result[1]
        counts["admm.runs"] += 1

    def returned_solve(result, args):
        counts["admm.useful_iterations"] += result.iterations
        counts["admm.solves"] += 1

    def operator_built(result, args):
        step, system = args[0], args[1]
        arrays = [v for v in vars(step).values() if isinstance(v, np.ndarray)]
        phis = vars(system).get("phis")
        if phis is not None:
            arrays.append(phis)
        size = sum(a.nbytes for a in arrays) / 2**20
        counts["model.operator_mb"] = max(counts["model.operator_mb"], size)

    def iht_run(result, args):
        counts["baselines.iht_iters"] += result[1]

    hooks = {
        "qbp.admm._admm": admm_run,
        "qbp.admm.AffineProjector.__init__": operator_built,
        "qbp.admm._PenalizedStep.__init__": operator_built,
        "qbp.montecarlo.iterative_hard_thresholding": iht_run,
    }
    hooks.update({name: returned_solve for name in workload.solve_names})
    names = []
    for module, cls, attr in ADMM_LAYERS + workload.layers:
        owner = getattr(q, module)
        if cls is not None:
            owner = getattr(owner, cls)
        name = ".".join(part for part in ("qbp", module, cls, attr) if part)
        tracer.wrap(owner, attr, name, solve=name in workload.solve_names,
                    on_result=hooks.get(name))
        names.append(name)
    return names


def run_traced(workload, seed: int, seconds: float, out_dir: Path):
    tracer = Tracer()
    counts = dict.fromkeys(
        ("admm.iterations", "admm.runs", "admm.useful_iterations", "admm.solves",
         "model.operator_mb", "baselines.iht_iters"), 0)
    root = tracer.open("bench.run")
    setup = tracer.open("bench.setup")
    q = import_qbp()
    wrapped = _install(tracer, q, workload, counts)
    inputs = workload.setup(q, seconds)
    tracer.close(setup)
    log = Log()
    workload.run(q, inputs, seed, tracer, log)
    tracer.close(root)
    tracer.uninstall()

    totals = tracer.totals()
    layer = {
        key: float(sum(totals[n]["self_s"] for n in names if n in totals))
        for key, names in LAYER_SPANS.items()
    }
    wall = totals["bench.run"]["total_s"]
    admm_s = totals.get("qbp.admm._admm", {}).get("total_s", 0.0)
    iterations = counts["admm.iterations"]
    psd_calls = tracer.counts["qbp.admm.project_psd"]
    coverage = sum(v for k, v in layer.items() if k not in UNCOVERED) / wall
    # The traced-minus-untraced wall time, from the measured cost per span:
    # at a few percent it is far below this box's solve-to-solve noise, so a
    # second, untraced pass could not resolve it.
    added = tracer.num_spans * Tracer.span_cost()
    overhead = added / (wall - added)
    metrics = dict(layer)
    metrics.update({
        "model.operator_mb": float(counts["model.operator_mb"]),
        "admm.affine_calls": tracer.counts["qbp.admm.AffineProjector.__call__"]
        + tracer.counts["qbp.admm._PenalizedStep.__call__"],
        "admm.psd_calls": psd_calls,
        "admm.iterations": iterations,
        "admm.us_per_iter": 1e6 * admm_s / iterations if iterations else 0.0,
        "admm.runs_per_solve": counts["admm.runs"] / counts["admm.solves"],
        "admm.useful_iter_frac": counts["admm.useful_iterations"] / iterations,
        "baselines.iht_iters": counts["baselines.iht_iters"],
        "trace.wall_s": wall,
        "trace.coverage": coverage,
        "trace.overhead_frac": overhead,
        "trace.spans": tracer.num_spans,
    })
    # Coverage only bounds the time outside the named layers (solve wrappers,
    # checks, the bench loop): time in an unwrapped callee of _admm lands in
    # its loop self time.  A renamed or bypassed layer is caught by the call
    # counts instead.
    gates = [f"{name} was never called" for name in wrapped if not tracer.counts[name]]
    if abs(1.0 - coverage) > COVERAGE_GATE:
        gates.append(f"layers cover {coverage:.3f} of the traced wall time")
    if psd_calls != iterations:
        gates.append(f"psd calls {psd_calls} != ADMM iterations {iterations}")
    if metrics["admm.affine_calls"] != iterations:
        gates.append(f"affine calls {metrics['admm.affine_calls']} != ADMM iterations {iterations}")
    tracer.write(out_dir / f"{workload.name}-seed{seed}-spans.npz")

    exact = {
        "admm.iterations": iterations,
        "admm.psd_calls": psd_calls,
        "admm.affine_calls": metrics["admm.affine_calls"],
        "admm.runs_per_solve": metrics["admm.runs_per_solve"],
        **_outcome_counts(log),
    }
    return metrics, exact, log, gates, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    src = ROOT / "src"
    if not (src / "qbp" / "__init__.py").is_file():
        print(f"qbp sources not found under {src}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    workload = WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    if args.trace:
        metrics, counts, log, gates, extra = run_traced(
            workload, args.seed, args.seconds, out_dir)
        units = PER_LAYER
    else:
        metrics, counts, log, gates, extra = run_untraced(
            workload, args.seed, args.seconds)
        units = END_TO_END
    attempted, failed, notes = _verdicts(log)
    for line in notes + gates:
        print(f"{workload.name}: {line}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not gates,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    detail = {"workload": workload.name, "trace": args.trace, "seconds": args.seconds,
              "stamp": environment_stamp(args.seed), "counts": counts,
              "failures": notes, "gates": gates, **extra}
    (out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**detail, "solve_s": log.solve_s, "result": result}, indent=1) + "\n")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
