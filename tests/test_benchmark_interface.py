"""The benchmark harness under perfbench/ still fits the package it wraps.

The harness wraps qbp functions by module, class and attribute name and
calls the solvers with fixed signatures, so a rename or a signature change in
qbp breaks it without failing any other test.  Its traced run also reads the
system's ``phis`` and the x1 step's arrays through ``vars``, and its
``relabel`` rebuilds each instance from ``system.measurements`` records.
Every check that imports the harness runs in a subprocess: the harness's
``import_qbp`` evicts ``qbp`` from ``sys.modules``.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qbp.admm
import qbp.model
from qbp.generators import pure_phase

ROOT = Path(__file__).resolve().parent.parent

RESOLVE = """
from workloads import ADMM_LAYERS, EQUALITY_STEP, PENALIZED_STEP, WORKLOADS, import_qbp

q = import_qbp()
names = set(ADMM_LAYERS + EQUALITY_STEP + PENALIZED_STEP)
for workload in WORKLOADS.values():
    names.update(workload.layers)
missing = []
for module, cls, attr in sorted(names, key=str):
    owner = getattr(q, module)
    if cls is not None:
        owner = getattr(owner, cls, None)
    if not callable(getattr(owner, attr, None)):
        missing.append(".".join(p for p in ("qbp", module, cls, attr) if p))
print("missing:", missing)
raise SystemExit(1 if missing else 0)
"""

# perfbench's relabel against the same relabelling done on the stack: Phi's
# rows and columns permuted by q = [0, p + 1], y by the measurement order and
# x by p.  This pins the input form of the harness's relabelled instances.
RELABEL = """
import numpy as np
from workloads import import_qbp, relabel

q = import_qbp()
first = q.montecarlo.trial_seed(0, 0)
cases = [("phantom", q.generators.phantom_instance(8, 10, 128, 0), 0),
         ("holes", q.generators.pure_phase(16, 60, 3, "binary", 0), 0),
         ("table", q.generators.general_quadratic(20, 25, 3, "binary", first), first)]
mismatched = []
for name, (system, x), key in cases:
    for seed in range(4):
        got, got_x = relabel(q.model, system, x, seed, key)
        rng = np.random.default_rng([seed, key])
        p = rng.permutation(system.n)
        order = rng.permutation(system.num_measurements)
        idx = np.concatenate(([0], p + 1))
        if (got.phis.tobytes() != system.phis[order][:, idx][:, :, idx].tobytes()
                or got.y.tobytes() != system.y[order].tobytes()
                or got_x.tobytes() != x[p].tobytes()):
            mismatched.append((name, seed))
print("mismatched:", mismatched)
raise SystemExit(1 if mismatched else 0)
"""


def _run(argv):
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT / "perfbench")]
    env["PYTHONPATH"] = os.pathsep.join(paths + [env.get("PYTHONPATH", "")])
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=300)


def test_every_wrapped_name_resolves():
    proc = _run([sys.executable, "-c", RESOLVE])
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_relabel_permutes_the_stack_byte_for_byte():
    proc = _run([sys.executable, "-c", RELABEL])
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_perfbench_selftest_passes():
    proc = _run([sys.executable, "perfbench/selftest.py"])
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


# Workloads whose every solve at a relabel seed solves that seed's one
# instance, so the shortest traced run's iterations are the committed record's
# per-solve count at its seed (table-n20's one-second run solves only trial 0)
PER_SOLVE_RECORDED = ("phantom-s8", "holes-qbpd")


@pytest.mark.parametrize("workload", ["table-n20", "phantom-s8", "holes-qbpd"])
def test_traced_run_passes_its_gates(workload):
    # the shortest traced run: every wrapped layer is called, the hooks read
    # the arrays they size, and the call and iteration counts agree
    proc = _run([sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", "1"])
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    detail, result = map(json.loads, proc.stdout.strip().splitlines()[-2:])
    assert result["correct"] is True, proc.stdout[-2000:] + proc.stderr[-2000:]
    if workload in PER_SOLVE_RECORDED:
        # a committed record that no longer describes the code fails here
        record = json.loads((ROOT / f"BENCH_{workload}.json").read_text(encoding="utf-8"))
        counts = next(run for run in record["runs"] if run["seed"] == 1)["counts"]
        assert detail["counts"]["admm.iterations"] == (
            counts["solve_iterations"] / counts["solve_samples"])


@pytest.mark.parametrize("step, rows", [
    # the alias names the one step class, whose own name pytest would print
    pytest.param(qbp.admm.AffineProjector, "constraint_system",
                 id="AffineProjector-constraint_system"),
    (lambda system: qbp.admm._PenalizedStep(system, 1e-3), "real_measurement_matrix"),
    (lambda system: qbp.admm._PenalizedStep(system, 0.0), "constraint_system"),
])
def test_factored_steps_still_build_the_traced_rows(monkeypatch, step, rows):
    # the harness traces the row builders on every workload, phantom-s8
    # included, whose magnitude measurements take the factored X1 step: every
    # construction, dense or factored, must build its rows through the one
    # name the harness traces for its program.  The budget step reads
    # real_measurement_matrix only because holes-qbpd traces it.
    calls = {}
    for name in ("constraint_system", "real_measurement_matrix"):
        build = getattr(qbp.admm, name)
        calls[name] = made = []

        def counted(system, build=build, made=made):
            made.append(system)
            return build(system)

        monkeypatch.setattr(qbp.admm, name, counted)
    system, _ = pure_phase(5, 12, 2, "binary", 0)
    for entries in (0, math.inf):
        monkeypatch.setattr(qbp.admm, "FACTORED_MIN_ENTRIES", entries)
        for made in calls.values():
            made.clear()
        assert (step(system)._Vt is None) == (entries == 0)
        assert calls == {name: [system] if name == rows else [] for name in calls}


def test_benchmark_aliases_name_the_one_step_and_the_one_row_builder():
    # the harness traces these two names; each is a second name of the one
    # X1 step class or the one row builder, and neither is public
    assert qbp.admm.AffineProjector is qbp.admm._PenalizedStep
    assert qbp.admm.real_measurement_matrix is qbp.model.constraint_system
    assert "AffineProjector" not in qbp.admm.__all__
    for module in (qbp.admm, qbp.model):
        assert "real_measurement_matrix" not in module.__all__
