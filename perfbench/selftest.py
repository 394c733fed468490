"""Self-test: a deliberately corrupted result is counted as failed, not timed.

    python3 perfbench/selftest.py

First each output check is fed a clean solve and corrupted copies of it.
Then two workloads run end to end with a solver that corrupts its result,
and the run's verdict must count those calls as failed.  Takes a few
seconds; exit code 0 means every case behaved.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from checks import check_budget_solve, check_equality_solve, check_estimate  # noqa: E402
from run import _verdicts  # noqa: E402
from workloads import SOLVER, WORKLOADS, Log, import_qbp  # noqa: E402


def _expect(label: str, failures: list[str], should_fail: bool, problems: list[str]) -> None:
    verdict = "flagged" if failures else "passed"
    print(f"{label}: {verdict} {failures if failures else ''}")
    if bool(failures) != should_fail:
        problems.append(label)


def check_cases(q, problems: list[str]) -> None:
    system, x = q.generators.pure_phase(6, 30, 2, "binary", 3)
    config = q.admm.SolverConfig(max_iters=30000, **SOLVER)
    exact = q.admm.solve(system, 1.0, config)
    budget = q.admm.solve_denoising(system, 1.0, 1e-3, config)
    eps = SOLVER["eps_abs"]
    m = system.n + 1
    nan_Z = exact.Z.copy()
    nan_Z[1, 1] = np.nan
    # no magnitude measurement sees the corner entry, so this moves only the
    # spectrum, not the constraint gap
    low_Z = exact.Z.copy()
    low_Z[0, 0] -= 1.5
    cases = [
        ("clean solve", check_equality_solve(system, exact, eps), False),
        ("solve with a NaN entry", check_equality_solve(
            system, dataclasses.replace(exact, Z=nan_Z), eps), True),
        ("solve shifted off the constraints", check_equality_solve(
            system, dataclasses.replace(exact, Z=exact.Z + 0.05 * np.eye(m)), eps), True),
        ("solve with a negative eigenvalue", check_equality_solve(
            system, dataclasses.replace(exact, Z=low_Z), eps), True),
        ("solve that ran out of iterations", check_equality_solve(
            system, dataclasses.replace(exact, termination="max_iters"), eps), True),
        ("solve with a wrong-shaped Z", check_equality_solve(
            system, dataclasses.replace(exact, Z=exact.Z[1:, 1:]), eps), True),
        ("clean budget solve", check_budget_solve(system, budget, 1e-3), False),
        ("budget solve over its residual budget", check_budget_solve(
            system, dataclasses.replace(budget, Z=budget.Z * 1.5), 1e-3), True),
        ("clean estimate", check_estimate(x, system.n), False),
        ("estimate of the wrong shape", check_estimate(x[:-1], system.n), True),
        ("estimate with an infinity", check_estimate(np.where(x != 0, np.inf, x), system.n),
         True),
    ]
    for label, failures, should_fail in cases:
        _expect(label, failures, should_fail, problems)


def corrupted_runs(problems: list[str]) -> None:
    def corrupt(fn):
        def wrong(*args, **kwargs):
            result = fn(*args, **kwargs)
            return dataclasses.replace(result, Z=result.Z + 0.05 * np.eye(result.Z.shape[0]))
        return wrong

    table = WORKLOADS["table-n20"]
    q = import_qbp()
    spec = table.setup(q, seconds=table.trial_s)
    q.montecarlo.solve = corrupt(q.montecarlo.solve)
    log = Log()
    table.run(q, spec, 1, None, log)
    attempted, failed, notes = _verdicts(log)
    print(f"table-n20 with corrupted solves: {failed}/{attempted} failed {notes}")
    # qbp and qbp0 are corrupted, iht is not
    if failed != 2 * spec.trials or len(log.solve_s) != spec.trials:
        problems.append("table-n20 corrupted run")

    holes = WORKLOADS["holes-qbpd"]
    q = import_qbp()
    inputs = holes.setup(q, seconds=holes.solve_s)
    q.admm.solve_denoising = corrupt(q.admm.solve_denoising)
    log = Log()
    holes.run(q, inputs, 1, None, log)
    attempted, failed, notes = _verdicts(log)
    print(f"holes-qbpd with corrupted solves: {failed}/{attempted} failed {notes}")
    if failed != attempted:
        problems.append("holes-qbpd corrupted run")


def main() -> int:
    problems: list[str] = []
    check_cases(import_qbp(), problems)
    corrupted_runs(problems)
    for p in problems:
        print("UNEXPECTED:", p)
    print("selftest ok" if not problems else "selftest FAILED")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
