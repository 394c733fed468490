"""End-to-end command-line behaviour: pipelines, exit codes, file formats."""

import argparse
import csv
import dataclasses
import io
import json
import sys

import numpy as np
import pytest

import qbp.cli
import qbp.montecarlo
from qbp.admm import SolverConfig, SolverResult
from qbp.cli import main
from qbp.model import (
    DimensionMismatchError,
    NonFiniteValueError,
    QuadraticMeasurement,
    QuadraticSystem,
)
from qbp.montecarlo import _SOLVER_ERRORS
from qbp.recovery import judge_success
from qbp.serialize import InstanceFormatError, load_system, save_system, vector_from_pairs

from support import unitary_sensing_system, zero_valued_system

# the full key sets of the documents the commands write
REPORT_KEYS = {"x_hat", "rank_ratio", "feasibility_residual", "sparsity", "iterations",
               "termination", "lambda", "success", "error", "mode", "primal_residual",
               "dual_residual", "rho_final", "objective", "data_residual", "wall_time_s"}
DIAGNOSE_KEYS = {
    "coherence": {"mu", "bound", "cardinality", "rank_ratio", "certified",
                  "skipped_columns"},
    "rip": {"k", "samples", "epsilon", "epsilon_l1"},
    "solve": {"iterations", "termination", "lambda", "rho_final", "primal_residual",
              "dual_residual", "objective", "data_residual"},
}


def _load(path):
    with open(path, encoding="utf-8") as stream:
        return load_system(stream)


def _save(system, path):
    with open(path, "w", encoding="utf-8") as stream:
        save_system(system, stream)


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "generate" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["basic_format", "verbose"])
def test_unknown_log_level_is_input_error(value, tmp_path, capsys, monkeypatch):
    # a logging attribute that is not a level, and a word that is neither
    monkeypatch.setenv("QBP_LOG", value)
    assert main(["generate", "-o", str(tmp_path / "inst.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("qbp: error: QBP_LOG") and repr(value) in err
    assert "Traceback" not in err


def test_log_level_is_read_in_any_case(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(qbp.cli.logging, "basicConfig", lambda **kw: calls.append(kw))
    monkeypatch.setenv("QBP_LOG", " Debug ")
    assert main(["generate", "-o", str(tmp_path / "inst.json")]) == 0
    assert [kw["level"] for kw in calls] == ["DEBUG"]


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert main(["solve", "--bogus"]) == 1
    assert "error" in capsys.readouterr().err
    # a prefix of a declared option is not accepted in its place
    assert main(["solve", "--lam", "2"]) == 1
    assert "unrecognized arguments: --lam" in capsys.readouterr().err


def test_generate_writes_loadable_instance(tmp_path):
    inst = tmp_path / "instance.json"
    truth = tmp_path / "truth.json"
    argv = [
        "generate", "--ensemble", "purephase", "-n", "6", "-N", "12",
        "-k", "1", "--seed", "3", "-o", str(inst), "--truth", str(truth),
    ]
    assert main(argv) == 0
    system = _load(inst)
    assert system.n == 6
    assert system.num_measurements == 12
    doc = json.loads(truth.read_text())
    assert doc["n"] == 6
    assert len(doc["x"]) == 6

    # Same arguments, same bytes.
    inst2 = tmp_path / "again.json"
    truth2 = tmp_path / "truth2.json"
    argv2 = argv[:-3] + [str(inst2), "--truth", str(truth2)]
    assert main(argv2) == 0
    assert inst2.read_bytes() == inst.read_bytes()
    assert truth2.read_text() == truth.read_text()


def test_generate_to_stdout(capsys):
    assert main(["generate", "-n", "3", "-N", "4", "-k", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 3
    assert len(doc["measurements"]) == 4


def test_generate_solve_pipeline_recovers_truth(tmp_path):
    inst = tmp_path / "instance.json"
    truth = tmp_path / "truth.json"
    report_path = tmp_path / "report.json"
    assert main([
        "generate", "--ensemble", "purephase", "-n", "8", "-N", "40",
        "-k", "2", "--seed", "7", "-o", str(inst), "--truth", str(truth),
    ]) == 0
    assert main([
        "solve", str(inst), "--lambda", "10", "--truth", str(truth),
        "--tol", "1e-2", "--eps-abs", "1e-5", "--eps-rel", "1e-5",
        "--max-iters", "30000", "-o", str(report_path),
    ]) == 0
    report = json.loads(report_path.read_text())
    assert report["mode"] == "qbp"
    assert report["success"] is True
    assert report["error"] < 1e-2
    assert "beta" not in report
    assert report["termination"] == "converged"


def test_solve_without_truth_reports_structure(tmp_path, capsys):
    inst = tmp_path / "instance.json"
    assert main(["generate", "--n", "20", "--N", "25", "--k", "3",
                 "--seed", "7", "-o", str(inst)]) == 0
    assert main(["solve", str(inst), "--lambda", "50"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["success"] is None
    assert report["error"] is None
    assert report["lambda"] == 50.0
    assert report["mode"] == "qbp"
    assert set(report) == REPORT_KEYS
    assert len(report["x_hat"]) == 20
    # the loop's final state: converged means both residuals met their tolerances
    assert report["termination"] == "converged"
    assert 0.0 <= report["primal_residual"] and 0.0 <= report["dual_residual"]
    assert report["rho_final"] > 0.0 and report["objective"] > 0.0


def test_solve_scores_a_general_instance_without_phase_alignment(tmp_path, capsys):
    # a system with linear terms fixes the signal's phase: the error is the
    # plain relative error, as in the Monte Carlo records
    inst = tmp_path / "instance.json"
    truth = tmp_path / "truth.json"
    assert main(["generate", "-n", "6", "-N", "10", "-k", "1", "--seed", "1",
                 "-o", str(inst), "--truth", str(truth)]) == 0
    capsys.readouterr()
    assert main(["solve", str(inst), "--lambda", "5", "--truth", str(truth)]) == 0
    report = json.loads(capsys.readouterr().out)
    x_hat = vector_from_pairs(report["x_hat"])
    x = vector_from_pairs(json.loads(truth.read_text())["x"])
    exact = judge_success(x_hat, x, 1e-3, phase_invariant=False)[1]
    assert exact != judge_success(x_hat, x, 1e-3, phase_invariant=True)[1]
    assert report["error"] == exact


def test_out_of_range_truth_entry_is_input_error(tmp_path, capsys):
    inst = tmp_path / "instance.json"
    truth = tmp_path / "truth.json"
    assert main(["generate", "--ensemble", "purephase", "-n", "2", "-N", "8",
                 "-k", "1", "--seed", "0", "-o", str(inst)]) == 0
    truth.write_text('{"x": [[1' + "0" * 400 + ', 0.0], [0.0, 0.0]]}')
    assert main(["solve", str(inst), "--truth", str(truth)]) == 1
    err = capsys.readouterr().err
    assert "qbp: error: x[0][0]: number out of the float range" in err


def test_solve_reads_stdin(tmp_path, capsys, monkeypatch):
    inst = tmp_path / "instance.json"
    assert main(["generate", "--ensemble", "purephase", "-n", "4", "-N", "16",
                 "-k", "1", "--seed", "0", "-o", str(inst)]) == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(inst.read_text()))
    assert main(["solve", "--lambda", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mode"] == "qbp"


def test_generate_writes_truth_to_stdout(tmp_path, capsys):
    inst = tmp_path / "instance.json"
    argv = ["generate", "-n", "4", "-N", "8", "-k", "1", "--seed", "2"]
    assert main(argv + ["-o", str(inst), "--truth", "-"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 4 and len(doc["x"]) == 4
    assert _load(inst).n == 4


def test_generate_truth_and_instance_cannot_share_stdout(capsys):
    for argv in (["--truth", "-"], ["-o", "-", "--truth", "-"]):
        assert main(["generate", "-n", "4", "-N", "8", "-k", "1"] + argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--truth -" in captured.err


def test_instance_and_truth_cannot_share_a_file(tmp_path, capsys, monkeypatch):
    # one file named twice, also through another spelling of its path
    monkeypatch.chdir(tmp_path)
    shared = tmp_path / "shared.json"
    for other in ("shared.json", "./shared.json", str(shared)):
        assert main(["generate", "-n", "4", "-N", "8", "-k", "1",
                     "-o", str(shared), "--truth", other]) == 1
        captured = capsys.readouterr()
        assert f"--truth {other}" in captured.err
        assert captured.out == "" and not shared.exists()
    assert main(["generate", "-n", "4", "-N", "8", "-k", "1", "-o", str(shared)]) == 0
    before = shared.read_text()
    assert main(["solve", str(shared), "--truth", "shared.json"]) == 1
    assert "--truth shared.json" in capsys.readouterr().err
    assert shared.read_text() == before


@pytest.mark.parametrize("command", ["solve", "diagnose"])
def test_an_output_may_not_overwrite_the_instance(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    inst = tmp_path / "instance.json"
    assert main(["generate", "-n", "4", "-N", "8", "-k", "1", "-o", str(inst)]) == 0
    before = inst.read_bytes()
    monkeypatch.setattr(qbp.cli, "load_system", None)  # nothing may be read
    for output in ("instance.json", "./instance.json", str(inst)):
        assert main([command, str(inst), "-o", output]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--output {output} names the same file or stream as instance" in captured.err
        assert inst.read_bytes() == before


def test_a_failed_generate_writes_nothing(tmp_path, capsys):
    inst, truth = tmp_path / "instance.json", tmp_path / "truth.json"
    argv = ["generate", "-n", "4", "-N", "8", "-k", "1"]
    missing = str(tmp_path / "nodir" / "file.json")
    # either destination may be the one that cannot be opened
    assert main(argv + ["-o", str(inst), "--truth", missing]) == 1
    assert main(argv + ["-o", missing, "--truth", str(truth)]) == 1
    assert "No such file or directory" in capsys.readouterr().err
    assert not inst.exists() and not truth.exists()
    # files that were there keep their bytes
    inst.write_text("old instance")
    truth.write_text("old truth")
    assert main(argv + ["-o", str(inst), "--truth", missing]) == 1
    assert main(argv + ["-o", missing, "--truth", str(truth)]) == 1
    assert inst.read_text() == "old instance" and truth.read_text() == "old truth"
    # and a generate that succeeds replaces them whole
    assert main(argv + ["-o", str(inst), "--truth", str(truth)]) == 0
    assert _load(inst).n == 4 and json.loads(truth.read_text())["n"] == 4


def test_solve_reads_truth_from_stdin(tmp_path, capsys, monkeypatch):
    inst = tmp_path / "instance.json"
    truth = tmp_path / "truth.json"
    assert main(["generate", "--ensemble", "purephase", "-n", "4", "-N", "16",
                 "-k", "1", "--seed", "0", "-o", str(inst), "--truth", str(truth)]) == 0
    argv = ["solve", str(inst), "--lambda", "2", "--tol", "1e-2", "--truth"]
    assert main(argv + [str(truth)]) == 0
    from_file = json.loads(capsys.readouterr().out)
    monkeypatch.setattr(sys, "stdin", io.StringIO(truth.read_text()))
    assert main(argv + ["-"]) == 0
    from_stdin = json.loads(capsys.readouterr().out)
    assert from_stdin["error"] == from_file["error"]
    assert from_stdin["success"] is True


def test_solve_truth_and_instance_cannot_share_stdin(tmp_path, capsys, monkeypatch):
    inst = tmp_path / "instance.json"
    assert main(["generate", "-n", "4", "-N", "8", "-k", "1", "-o", str(inst)]) == 0
    for instance in ([], ["-"]):
        monkeypatch.setattr(sys, "stdin", io.StringIO(inst.read_text()))
        assert main(["solve"] + instance + ["--truth", "-"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--truth -" in captured.err


def test_mode_flag_is_usage_error(tmp_path, capsys):
    # --epsilon alone selects the residual-budget program
    argv = ["solve", str(tmp_path / "whatever.json"), "--mode", "qbpd"]
    assert main(argv + ["--epsilon", "1e-3"]) == 1
    assert "unrecognized arguments: --mode" in capsys.readouterr().err


def test_epsilon_switches_to_denoising(tmp_path):
    inst = tmp_path / "instance.json"
    report_path = tmp_path / "report.json"
    assert main(["generate", "--ensemble", "purephase", "-n", "4", "-N", "16",
                 "-k", "1", "--seed", "0", "-o", str(inst)]) == 0
    assert main([
        "solve", str(inst), "--lambda", "2", "--epsilon", "1e-4",
        "--eps-abs", "1e-5", "--eps-rel", "1e-5", "-o", str(report_path),
    ]) == 0
    report = json.loads(report_path.read_text())
    assert report["mode"] == "qbpd"
    assert set(report) == REPORT_KEYS
    assert report["data_residual"] <= 1e-4 + 1e-6


def test_non_finite_arguments_are_usage_errors(tmp_path, capsys):
    inst = tmp_path / "instance.json"
    assert main(["generate", "--ensemble", "purephase", "-n", "6", "-N", "30",
                 "-k", "2", "--seed", "3", "-o", str(inst)]) == 0
    capsys.readouterr()
    for extra in (["--epsilon", "nan"], ["--lambda", "nan"],
                  ["--eps-abs", "inf"], ["--eps-abs", "nan"]):
        assert main(["solve", str(inst)] + extra) == 1, extra
        assert "qbp: error:" in capsys.readouterr().err


def test_bad_success_threshold_is_usage_error(tmp_path, capsys, monkeypatch):
    inst = tmp_path / "instance.json"
    assert main(["generate", "--ensemble", "purephase", "-n", "6", "-N", "30",
                 "-k", "2", "--seed", "3", "-o", str(inst)]) == 0
    capsys.readouterr()

    def no_solve(*args, **kwargs):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(qbp.cli, "solve", no_solve)
    monkeypatch.setattr(qbp.montecarlo, "solve", no_solve)
    for tol in ("nan", "-1", "inf"):
        for argv in (["solve", str(inst)],
                     ["montecarlo", "--ensemble", "purephase", "-n", "6", "-N", "30",
                      "-k", "2", "--methods", "qbp", "--trials", "2"]):
            assert main(argv + ["--tol", tol]) == 1, (argv[0], tol)
            err = capsys.readouterr().err
            assert "qbp: error: tol must be finite and nonnegative" in err


def test_phantom_has_no_success_threshold(capsys):
    # phantom prints pixel errors and never judges success, so it takes no --tol
    assert main(["phantom", "--side", "2", "-k", "1", "--tol", "5"]) == 1
    assert "unrecognized arguments: --tol 5" in capsys.readouterr().err


def test_phantom_rejects_a_negative_measurement_count(capsys):
    assert main(["phantom", "--side", "2", "-k", "1", "-N", "-4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "qbp: error: N must be at least 1, got -4\n"


def test_phantom_rejects_a_zero_measurement_count(capsys):
    # 0 is a bad count like any other, not a request for the default 2 * side^2
    assert main(["phantom", "--side", "2", "-k", "1", "-N", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "qbp: error: N must be at least 1, got 0\n"


@pytest.mark.parametrize("command", ["generate", "phantom", "diagnose"])
def test_a_negative_seed_is_input_error(tmp_path, capsys, command):
    argv = {"generate": ["generate", "-n", "4", "-N", "8", "-k", "1"],
            "phantom": ["phantom", "--side", "2", "-k", "1"],
            "diagnose": ["diagnose", str(tmp_path / "instance.json")]}[command]
    assert main(["generate", "-n", "2", "-N", "4", "-k", "1",
                 "-o", str(tmp_path / "instance.json")]) == 0
    out = tmp_path / "out"
    assert main(argv + ["--seed", "-1", "-o", str(out)]) == 1
    assert capsys.readouterr().err == "qbp: error: seed must be at least 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("option, value, message", [
    ("--seed", "-1", "seed must be at least 0, got -1"),
    ("--rip-samples", "0", "samples must be at least 1, got 0"),
    ("--rip-k", "10", "k must be in [1, 9]"),
    # 0 is a bad k, not a request for the default
    ("--rip-k", "0", "k must be at least 1, got 0"),
])
def test_diagnose_checks_its_sampling_before_it_solves(tmp_path, capsys, monkeypatch,
                                                       option, value, message):
    inst = tmp_path / "instance.json"
    assert main(["generate", "-n", "2", "-N", "4", "-k", "1", "-o", str(inst)]) == 0

    def no_solve(*args, **kwargs):
        raise AssertionError("diagnose solved before it checked its arguments")

    monkeypatch.setattr(qbp.cli, "solve", no_solve)
    out = tmp_path / "out"
    assert main(["diagnose", str(inst), option, value, "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"qbp: error: {message}\n"
    assert not out.exists()


def test_fourier_ensemble_takes_a_square_n_and_its_signal(capsys):
    argv = ["generate", "--ensemble", "fourier", "-N", "12", "-k", "2"]
    for n in ("20", "7", "1"):
        assert main(argv + ["-n", n]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"n = side^2 with side >= 2, got n={n}" in captured.err
    assert main(argv + ["-n", "9", "--truth", "-", "-o", "/dev/null"]) == 0
    x = vector_from_pairs(json.loads(capsys.readouterr().out)["x"], "x")
    assert x.size == 9 and set(x[x != 0]) == {1.0}


def test_truth_syntax_error_is_located(tmp_path, capsys):
    inst = tmp_path / "instance.json"
    truth = tmp_path / "truth.json"
    assert main(["generate", "-n", "2", "-N", "8", "-k", "1", "-o", str(inst)]) == 0
    truth.write_text('{"x": [[1.0 0.0]]}')
    assert main(["solve", str(inst), "--truth", str(truth)]) == 1
    err = capsys.readouterr().err
    assert "qbp: error: line 1 column 13: Expecting ',' delimiter" in err


@pytest.mark.parametrize("error, code, prefix", [
    (OSError("device lost"), 1, "qbp: error:"),
    (InstanceFormatError("x", "bad pair"), 1, "qbp: error:"),
    (DimensionMismatchError("bad size"), 1, "qbp: error:"),
    (NonFiniteValueError("bad value"), 1, "qbp: error:"),
    (ValueError("bad argument"), 1, "qbp: error:"),
] + [(cls("no fit"), 2, "qbp: solver error:") for cls in _SOLVER_ERRORS],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
def test_each_error_class_maps_to_one_exit_code(tmp_path, capsys, monkeypatch,
                                                error, code, prefix):
    inst = tmp_path / "instance.json"
    assert main(["generate", "-n", "2", "-N", "8", "-k", "1", "-o", str(inst)]) == 0

    def failing_solve(*args, **kwargs):
        raise error

    monkeypatch.setattr(qbp.cli, "solve", failing_solve)
    assert main(["solve", str(inst)]) == code
    assert capsys.readouterr().err == f"{prefix} {error}\n"


def test_solve_report_is_strict_json_for_an_all_zero_truth(tmp_path, capsys):
    # the relative error against a zero signal is infinite and is written as null
    inst = tmp_path / "instance.json"
    truth = tmp_path / "truth.json"
    assert main(["generate", "--ensemble", "purephase", "-n", "4", "-N", "16",
                 "-k", "1", "--seed", "0", "-o", str(inst)]) == 0
    truth.write_text(json.dumps({"x": [[0.0, 0.0]] * 4}))
    assert main(["solve", str(inst), "--truth", str(truth)]) == 0

    def reject(name):
        raise ValueError(f"not strict JSON: {name}")

    report = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert report["success"] is False
    assert report["error"] is None


def test_missing_instance_file_is_input_error(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "absent.json")]) == 1
    assert "qbp: error:" in capsys.readouterr().err


def test_malformed_instance_file_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["solve", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "qbp: error:" in err
    assert "line" in err


def test_contradictory_instance_is_solver_error(tmp_path, capsys):
    measurements = [
        QuadraticMeasurement(0.0, [0.0], [0.0], [[1.0]], y)
        for y in (4.0, 5.0)
    ]
    path = tmp_path / "contradiction.json"
    _save(QuadraticSystem(measurements), path)
    # their least-squares residual is 0.5: without a budget the message names
    # only that floor, and a smaller budget is infeasible too
    assert main(["solve", str(path)]) == 2
    assert capsys.readouterr().err == (
        "qbp: solver error: inconsistent measurements: least-squares floor 5.000e-01\n")
    assert main(["solve", str(path), "--epsilon", "0.1"]) == 2
    assert capsys.readouterr().err == (
        "qbp: solver error: inconsistent measurements: least-squares floor 5.000e-01"
        " exceeds the residual budget 1.000e-01\n")


def test_zero_budget_solves_a_zero_valued_instance(tmp_path, capsys):
    # all-zero data still leaves the feasibility test its rounding slack
    system, _ = zero_valued_system(4, 6, np.random.default_rng(17))
    path = tmp_path / "zeros.json"
    _save(system, path)
    assert main(["solve", str(path), "--epsilon", "0", "--eps-abs", "1e-5",
                 "--eps-rel", "1e-5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mode"] == "qbpd"
    assert report["termination"] == "converged"
    assert report["data_residual"] <= 1e-20


def test_truth_file_must_be_an_object_of_the_right_length(tmp_path, capsys):
    inst = tmp_path / "instance.json"
    truth = tmp_path / "truth.json"
    assert main(["generate", "--ensemble", "purephase", "-n", "4", "-N", "16",
                 "-k", "1", "--seed", "0", "-o", str(inst)]) == 0
    truth.write_text("[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]")
    assert main(["solve", str(inst), "--truth", str(truth)]) == 1
    assert "qbp: error: $: expected a JSON object" in capsys.readouterr().err
    # the signal's length is checked before the solve too
    truth.write_text('{"x": [[1.0, 0.0], [0.0, 0.0]]}')
    assert main(["solve", str(inst), "--truth", str(truth)]) == 1
    assert "qbp: error: x: expected a list of 4 pairs" in capsys.readouterr().err


def test_montecarlo_writes_csv_and_summary(tmp_path, capsys):
    out = tmp_path / "records.csv"
    assert main([
        "montecarlo", "--ensemble", "general", "-n", "6", "-N", "10",
        "-k", "1", "--methods", "qbp,bp,iht", "--trials", "4",
        "--lambda", "5", "--seed", "1", "-o", str(out),
    ]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 4 * 3
    assert lines[0].startswith("trial,method,success")
    summary = capsys.readouterr().out.strip().splitlines()
    assert len(summary) == 3
    assert all("recovered" in line for line in summary)
    methods = {line.split(":")[0] for line in summary}
    assert methods == {"qbp", "bp", "iht"}


def test_montecarlo_refuses_a_method_named_twice(tmp_path, capsys):
    out = tmp_path / "records.csv"
    assert main([
        "montecarlo", "-n", "4", "-N", "10", "-k", "1", "--trials", "2",
        "--methods", "qbp,qbp,iht", "-o", str(out),
    ]) == 1
    assert "methods must name each method once" in capsys.readouterr().err
    assert not out.exists()


def test_montecarlo_refuses_a_budget_without_qbpd(tmp_path, capsys):
    out = tmp_path / "records.csv"
    assert main([
        "montecarlo", "-n", "4", "-N", "10", "-k", "1", "--trials", "2",
        "--methods", "qbp", "--epsilon", "1e-3", "-o", str(out),
    ]) == 1
    assert "qbp: error: epsilon 0.001 is read only by qbpd" in capsys.readouterr().err
    assert not out.exists()


def test_montecarlo_help_lists_every_method(capsys, monkeypatch):
    # wide enough that argparse keeps the help on one line
    monkeypatch.setenv("COLUMNS", "200")
    assert main(["montecarlo", "--help"]) == 0
    assert "comma list from " + ",".join(qbp.montecarlo._METHODS) in capsys.readouterr().out


def test_diagnose_flags_orthonormal_sensing(tmp_path):
    x = np.array([0.0, 2.0, 0.0], dtype=complex)
    system = unitary_sensing_system(x, kind="dft")
    inst = tmp_path / "instance.json"
    report_path = tmp_path / "diagnosis.json"
    _save(system, inst)
    assert main([
        "diagnose", str(inst), "--lambda", "0.5", "--rip-samples", "50",
        "--eps-abs", "1e-7", "--eps-rel", "1e-7", "--max-iters", "20000",
        "-o", str(report_path),
    ]) == 0
    doc = json.loads(report_path.read_text())
    assert {key: set(value) for key, value in doc.items()} == DIAGNOSE_KEYS
    assert doc["coherence"]["mu"] < 1e-8
    assert doc["coherence"]["certified"] is True
    assert doc["coherence"]["bound"] is not None
    assert doc["coherence"]["skipped_columns"] == 0
    assert doc["rip"]["k"] == 4
    assert doc["rip"]["epsilon"] < 1e-6
    assert doc["solve"]["termination"] == "converged"
    assert doc["solve"]["lambda"] == 0.5


def test_diagnose_accepts_an_instance_with_one_informative_column(tmp_path, capsys):
    # magnitudes of a scalar see only X11: three of the four lifted columns
    # are zero, so the coherence is undefined and the certificate refused
    inst = tmp_path / "instance.json"
    assert main(["generate", "--ensemble", "purephase", "-n", "1", "-N", "3", "-k", "1",
                 "-o", str(inst)]) == 0
    assert main(["diagnose", str(inst)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {key: set(value) for key, value in doc.items()} == DIAGNOSE_KEYS
    assert doc["coherence"]["mu"] is None and doc["coherence"]["bound"] is None
    assert doc["coherence"]["skipped_columns"] == 3
    assert doc["coherence"]["certified"] is False
    assert doc["solve"]["termination"] == "converged"


def _solver_group(command):
    parser = qbp.cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    group = next(g for g in sub.choices[command]._action_groups
                 if g.title == "solver options")
    return {a.option_strings[0]: a for a in group._group_actions}


@pytest.mark.parametrize("command, lam, budget", [
    ("solve", 1.0, True), ("montecarlo", 50.0, True), ("diagnose", 1.0, False),
    ("phantom", 1.0, True),
])
def test_each_lifted_command_declares_lambda_among_its_solver_options(command, lam, budget):
    options = _solver_group(command)
    stops = ["--eps-abs", "--eps-rel", "--max-iters"]
    assert list(options) == ["--lambda"] + ["--epsilon"] * budget + stops
    assert options["--lambda"].dest == "lam" and options["--lambda"].default == lam
    if budget:
        assert options["--epsilon"].default is None


def test_montecarlo_builds_its_spec_from_every_option(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(qbp.cli, "run_monte_carlo",
                        lambda spec, jobs: seen.append((spec, jobs)) or [])
    assert main([
        "montecarlo", "--ensemble", "purephase", "-n", "6", "-N", "14", "-k", "2",
        "--signal", "gaussian", "--seed", "4", "--methods", "qbpd, iht",
        "--lambda", "3", "--epsilon", "0.01", "--trials", "7", "--tol", "0.02",
        "--iht-max-iters", "30", "--jobs", "2", "--eps-abs", "1e-4",
        "--eps-rel", "2e-4", "--max-iters", "500", "-o", str(tmp_path / "r.csv"),
    ]) == 0
    assert seen == [(qbp.montecarlo.ExperimentSpec(
        n=6, N=14, k=2, ensemble="purephase", signal="gaussian", methods=("qbpd", "iht"),
        lam=3.0, epsilon=0.01, trials=7, seed=4, tol=0.02, iht_max_iters=30,
        solver=SolverConfig(eps_abs=1e-4, eps_rel=2e-4, max_iters=500),
    ), 2)]


def test_every_solver_result_field_reaches_both_reports(tmp_path, capsys):
    # derived from the dataclass, so a field added to SolverResult is checked
    # in both documents without editing this test
    fields = {f.name for f in dataclasses.fields(SolverResult)} - {"Z", "lam"} | {"lambda"}
    inst = tmp_path / "instance.json"
    assert main(["generate", "-n", "4", "-N", "10", "-k", "1", "-o", str(inst)]) == 0
    assert main(["solve", str(inst)]) == 0
    assert fields <= set(json.loads(capsys.readouterr().out))
    assert main(["diagnose", str(inst), "--rip-samples", "5"]) == 0
    assert fields <= set(json.loads(capsys.readouterr().out)["solve"])


def test_phantom_pipeline(tmp_path, capsys):
    out = tmp_path / "pixels.csv"
    assert main(["phantom", "--side", "4", "-k", "3", "--seed", "0",
                 "-o", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 16
    worst = max(float(row["abs_error"]) for row in rows)
    assert worst < 1e-3
    status = capsys.readouterr().out
    assert "pixel error" in status
    assert "rank ratio" in status


def test_csv_outputs_share_one_line_terminator(tmp_path):
    # montecarlo and phantom both write through csv.writer, so their files
    # end every line the same way
    records, pixels = tmp_path / "records.csv", tmp_path / "pixels.csv"
    assert main(["montecarlo", "--ensemble", "general", "-n", "4", "-N", "8", "-k", "1",
                 "--methods", "iht", "--trials", "2", "-o", str(records)]) == 0
    assert main(["phantom", "--side", "2", "-k", "1", "-o", str(pixels)]) == 0
    endings = set()
    for path in (records, pixels):
        lines = path.read_bytes().splitlines(keepends=True)
        assert len(lines) > 2
        endings |= {line[len(line.rstrip(b"\r\n")):] for line in lines}
    assert len(endings) == 1, endings


def test_phantom_residual_budget(tmp_path, capsys):
    # --epsilon runs the image pipeline through the residual-budget program
    out = tmp_path / "pixels.csv"
    assert main(["phantom", "--side", "3", "-k", "2", "--epsilon", "1e-4",
                 "-o", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 9
    assert max(float(row["abs_error"]) for row in rows) < 1e-3
    status = capsys.readouterr().out
    assert "converged" in status
    assert "pixel error" in status
