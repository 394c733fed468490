"""The README's commands and quick start stay in step with the code."""

import dataclasses
import inspect
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import qbp
from qbp.admm import SolverConfig, solve_denoising
from qbp.cli import _build_parser, main
from qbp.generators import pure_phase
from qbp.recovery import build_report

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _commands():
    """Every ``qbp ...`` line of the bash blocks, continuations joined."""
    out = []
    for block in re.findall(r"```bash\n(.*?)```", README, re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv and argv[0] == "qbp":
                out.append(argv[1:])
    return out


COMMANDS = _commands()


def test_readme_has_commands():
    assert len(COMMANDS) >= 8


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_parses(argv):
    try:
        _build_parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"qbp {' '.join(argv)} does not parse (exit {exc.code})")


def test_library_quick_start_runs(capsys):
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", README, re.DOTALL)
    exec(compile(block.group(1), "README quick start", "exec"), {})
    assert capsys.readouterr().out.strip()


def _call_forms():
    """Backticked ``name(arg, ...)`` and ``Class.method(arg, ...)`` spans of the
    prose, wrapped lines joined, whose name is a qbp function or method.

    Returns ``(text, callable, argument names)`` triples.
    """
    prose = re.sub(r"```.*?```", "", README, flags=re.DOTALL)
    prose = re.sub(r"\s*\n\s*", " ", prose)
    modules = [m for m in vars(qbp).values() if inspect.ismodule(m)]
    out = []
    for span in re.findall(r"`([^`]+)`", prose):
        match = re.fullmatch(r"(\w+)(?:\.(\w+))?\((.*)\)", span)
        if not match:
            continue
        head, attr, args = match.groups()
        for module in modules:
            target = getattr(module, head, None)
            if target is not None and attr:
                target = getattr(target, attr, None)
            if inspect.isfunction(target) or inspect.ismethod(target):
                names = [arg.split("=")[0].strip() for arg in args.split(",")]
                out.append((span, target, names))
                break
    return out


CALL_FORMS = _call_forms()


def test_readme_has_call_forms():
    assert len(CALL_FORMS) >= 3


@pytest.mark.parametrize("span, target, names", CALL_FORMS, ids=[c[0] for c in CALL_FORMS])
def test_readme_call_form_lists_the_parameters(span, target, names):
    params = [p for p in inspect.signature(target).parameters if p != "self"]
    assert names == params, f"README shows `{span}`; the signature is {params}"


def test_readme_lists_the_solve_report_keys(tmp_path, capsys):
    # the keys of the "The report ... carries ..." sentence, less the
    # parenthesized remarks, are those that qbp solve writes
    sentence = re.search(r"The report .*? carries (.*?)\.\s", README, re.DOTALL).group(1)
    documented = set(re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", sentence)))
    inst = tmp_path / "instance.json"
    assert main(["generate", "-n", "4", "-N", "10", "-k", "1", "-o", str(inst)]) == 0
    assert main(["solve", str(inst)]) == 0
    assert documented == set(json.loads(capsys.readouterr().out))


def _entry_point_names():
    """``(module, name)`` for each backticked identifier, or name of a
    backticked ``name(...)`` call, in the "Key entry points" bullets; the
    module is the bullet's ``qbp.<module>``."""
    section = README.split("Key entry points", 1)[1].split("\n## ", 1)[0]
    out = []
    for module, text in re.findall(r"^- `qbp\.(\w+)` — (.*?)(?=^- |\Z)", section,
                                   re.MULTILINE | re.DOTALL):
        for span in re.findall(r"`([^`]+)`", text):
            match = re.fullmatch(r"(\w+)(?:\(.*\))?", span)
            if match:
                out.append((module, match.group(1)))
    return out


def _resolves(module, name):
    """The name is in any qbp module, is an attribute of one of its own
    module's classes (dataclass fields included) or an entry of one of its
    string tuples, or is a numpy.linalg name."""
    own = vars(getattr(qbp, module))
    for value in own.values():
        if inspect.isclass(value) and (
                hasattr(value, name)
                or dataclasses.is_dataclass(value)
                and name in {f.name for f in dataclasses.fields(value)}):
            return True
        if isinstance(value, tuple) and name in value and all(
                isinstance(entry, str) for entry in value):
            return True
    modules = [m for m in vars(qbp).values() if inspect.ismodule(m)]
    return any(hasattr(m, name) for m in modules) or hasattr(np.linalg, name)


def test_key_entry_points_name_what_the_modules_hold():
    names = _entry_point_names()
    assert {module for module, _ in names} >= {"model", "admm", "recovery",
                                               "generators", "montecarlo"}
    missing = [f"qbp.{module}: `{name}`" for module, name in names
               if not _resolves(module, name)]
    assert not missing, f"README lists names its modules do not hold: {missing}"


# Traced ADMM iterations of each committed benchmark record at relabel seed 3;
# the solver's arithmetic fixes them, so a change of count is a change of
# iterates
RECORDED_ITERATIONS = {"phantom-s8": 3048, "holes-qbpd": 6356, "table-n20": 8535}


@pytest.mark.parametrize("workload", sorted(RECORDED_ITERATIONS))
def test_bench_record_matches_the_readme(workload):
    record = json.loads((ROOT / f"BENCH_{workload}.json").read_text(encoding="utf-8"))
    assert record["workload"] == workload
    traced = record["traced"]
    assert traced["seed"] == 3 and traced["correct"] and not traced["gates"]
    assert traced["counts"]["admm.iterations"] == RECORDED_ITERATIONS[workload]
    assert all(run["correct"] for run in record["runs"])
    # the README quotes each workload's median solve time to three digits
    paragraph = re.search(r"The committed performance record.*?\n\n", README,
                          re.DOTALL).group(0)
    quoted = dict((name, value) for value, name in re.findall(
        r"([\d.]+) s on ([\w-]+)", re.sub(r"\s+", " ", paragraph)))
    median = record["end_to_end"]["solve_s_p50"]["median"]
    assert quoted[workload] == f"{median:.3g}"
    # and the table's median throughput, trials per second, to three digits
    if workload == "table-n20":
        rate = re.search(r"([\d.]+) trials per second", re.sub(r"\s+", " ", paragraph))
        assert rate.group(1) == f"{record['end_to_end']['trials_per_s']['median']:.3g}"


def test_holes_preset_figures_match_the_solver():
    # the preset's two stops: (iterations, recovery error) at the default
    # tolerances and at 1e-5, as the README quotes them
    text = re.sub(r"\s+", " ", README)
    match = re.search(r"at the defaults the run stops after (\d+) iterations with recovery"
                      r" error ([\d.e-]+) .*? after (\d+) iterations with ([\d.e-]+) at 1e-5",
                      text)
    quoted = [(int(match.group(1)), match.group(2)), (int(match.group(3)), match.group(4))]
    system, x = pure_phase(16, 60, 3, "binary", 0)
    configs = [SolverConfig(), SolverConfig(eps_abs=1e-5, eps_rel=1e-5, max_iters=30000)]
    for (iterations, error), config in zip(quoted, configs):
        result = solve_denoising(system, 100.0, 0.0012, config)
        report = build_report(system, result, x, 1e-2)
        digits = len(error.split("e")[0].partition(".")[2])
        assert result.iterations == iterations
        assert float(f"{report.error:.{digits}e}") == float(error)
