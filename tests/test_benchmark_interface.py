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
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qbp.admm
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


@pytest.mark.parametrize("workload", ["table-n20", "phantom-s8", "holes-qbpd"])
def test_traced_run_passes_its_gates(workload):
    # the shortest traced run: every wrapped layer is called, the hooks read
    # the arrays they size, and the call and iteration counts agree
    proc = _run([sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", "1"])
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:] + proc.stderr[-2000:]


@pytest.mark.parametrize("step, rows", [
    (qbp.admm.AffineProjector, "constraint_system"),
    (lambda system: qbp.admm._PenalizedStep(system, 1e-3), "real_measurement_matrix"),
])
def test_factored_steps_still_build_the_traced_rows(monkeypatch, step, rows):
    # the harness traces the row builders on every workload, phantom-s8
    # included, whose magnitude measurements take the factored X1 step: that
    # step must still factor its Gram matrix from the rows, through the names
    # the harness wraps
    calls = []
    build = getattr(qbp.admm, rows)

    def counted(system):
        calls.append(system)
        return build(system)

    monkeypatch.setattr(qbp.admm, rows, counted)
    monkeypatch.setattr(qbp.admm, "FACTORED_MIN_ENTRIES", 0)
    system, _ = pure_phase(5, 12, 2, "binary", 0)
    assert step(system)._Vt is None
    assert calls == [system]
