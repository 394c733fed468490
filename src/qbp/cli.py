"""Command-line interface.

Subcommands: ``generate`` random instances, ``solve`` one instance,
``montecarlo`` repeated trials to CSV, ``diagnose`` recoverability of an
instance, ``phantom`` the image-recovery pipeline.  Exit codes: 0 success,
1 usage or input error, 2 solver failure.  ``QBP_LOG=debug|info|warning|error``
(any case) sets the level of solver progress logged on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import logging
import os
import sys
import time

import numpy as np

from qbp.admm import SolverConfig, solve, solve_denoising
from qbp.generators import SIGNALS, fourier_basis, phantom_instance
from qbp.model import _require_nonnegative
from qbp.montecarlo import (
    _METHODS,
    _SOLVER_ERRORS,
    ENSEMBLES,
    ExperimentSpec,
    make_instance,
    run_monte_carlo,
    summarize,
    write_csv,
)
from qbp.recovery import (
    SUCCESS_TOL,
    _check_rip_sampling,
    align_phase,
    build_report,
    certify_coherence,
    sample_rip,
)
from qbp.serialize import (
    InstanceFormatError,
    _pairs,
    load_system,
    read_json,
    report_to_dict,
    result_to_dict,
    save_system,
    vector_to_pairs,
    write_json,
)

logger = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    # options are accepted under their full names only; argparse would
    # otherwise take a prefix such as --lam for --lambda
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # usage problems exit with code 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _solver_options(parser, lam, budget=None):
    """--lambda (default ``lam``), --epsilon (help ``budget``) if given, the stopping rule."""
    defaults = SolverConfig()
    group = parser.add_argument_group("solver options")
    group.add_argument("--lambda", dest="lam", type=float, default=lam, help="l1 weight")
    if budget is not None:
        group.add_argument("--epsilon", type=float, default=None, help=budget)
    group.add_argument("--eps-abs", type=float, default=defaults.eps_abs,
                       help="absolute stopping tolerance")
    group.add_argument("--eps-rel", type=float, default=defaults.eps_rel,
                       help="relative stopping tolerance")
    group.add_argument("--max-iters", type=int, default=defaults.max_iters,
                       help="iteration cap")


def _from_args(cls, args, **named):
    """``cls`` built from its fields' same-named options, bar those in ``named``."""
    return cls(**{f.name: getattr(args, f.name) for f in dataclasses.fields(cls)
                  if f.name not in named}, **named)


def _config_from(args) -> SolverConfig:
    return _from_args(SolverConfig, args)


def _keep_apart(inputs: dict, outputs: dict) -> None:
    """No two of a command's inputs and outputs may share a file or a stream.

    Each maps an option to its path: None when not given, "-" (the default
    of an omitted instance or output) for stdin or stdout, else a file
    compared by real path.
    """
    seen = {}
    for paths, stdio in ((inputs, "stdin"), (outputs, "stdout")):
        for option, path in paths.items():
            if path is None:
                continue
            place = stdio if path == "-" else os.path.realpath(path)
            if place in seen:
                raise ValueError(f"{option} {path} names the same file or stream as"
                                 f" {seen[place]}: give each its own")
            seen[place] = option


def _reading(path):
    """stdin for "-", else ``path`` opened as UTF-8 text."""
    return contextlib.nullcontext(sys.stdin) if path == "-" else open(path, encoding="utf-8")


@contextlib.contextmanager
def _writing(*paths):
    """UTF-8 text streams for ``paths``: stdout for "-", None for None.

    The files all open, keeping their contents, before any is emptied, and
    a failed open removes the ones created before it: a failed command
    leaves every destination as it was.
    """
    files = {}
    with contextlib.ExitStack() as stack, contextlib.ExitStack() as undo:
        for path in [p for p in paths if p not in (None, "-")]:
            new = not os.path.lexists(path)
            # csv asks for newline=""; the JSON writers emit "\n" either way
            files[path] = stack.enter_context(open(path, "a", encoding="utf-8", newline=""))
            if new:
                undo.callback(os.remove, path)
        undo.pop_all()
        for stream in files.values():
            if os.path.isfile(stream.name):  # /dev/null has no length to cut
                stream.truncate(0)
        yield [sys.stdout if path == "-" else files.get(path) for path in paths]


def _status_stream(path):
    # status lines stay out of data written to stdout
    return sys.stderr if path == "-" else sys.stdout


def _read_truth(path, n: int) -> np.ndarray:
    with _reading(path) as stream:
        doc = read_json(stream)
    if not isinstance(doc, dict):
        raise InstanceFormatError("$", "expected a JSON object")
    return _pairs(doc.get("x"), (n,), "x")


def _timed_solve(args, system):
    """Solve under the command's options: ``(result, wall seconds)``.

    ``--epsilon`` selects the residual-budget program.
    """
    config = _config_from(args)
    start = time.perf_counter()
    if args.epsilon is not None:
        result = solve_denoising(system, args.lam, args.epsilon, config)
    else:
        result = solve(system, args.lam, config)
    return result, time.perf_counter() - start


def _cmd_generate(args) -> int:
    _keep_apart({}, {"--output": args.output, "--truth": args.truth})
    spec = ExperimentSpec(n=args.n, N=args.N, k=args.k, ensemble=args.ensemble,
                          signal=args.signal)
    system, x = make_instance(spec, args.seed)
    with _writing(args.output, args.truth) as (out, truth):
        save_system(system, out)
        if truth is not None:
            write_json({"n": system.n, "x": vector_to_pairs(x)}, truth)
    logger.info("generated %s instance: n=%d N=%d k=%d seed=%d",
                args.ensemble, system.n, args.N, args.k, args.seed)
    return 0


def _cmd_solve(args) -> int:
    _keep_apart({"instance": args.instance, "--truth": args.truth},
                {"--output": args.output})
    _require_nonnegative("tol", args.tol)
    with _reading(args.instance) as stream:
        system = load_system(stream)
    # a bad truth file is an input error, found before the solve
    x_true = _read_truth(args.truth, system.n) if args.truth else None
    result, wall = _timed_solve(args, system)
    report = build_report(system, result, x_true, args.tol)
    with _writing(args.output) as (stream,):
        write_json(report_to_dict(report, result, wall_time_s=wall,
                                  mode="qbp" if args.epsilon is None else "qbpd"), stream)
    logger.info("solve finished: %s after %d iterations (%.2fs)",
                result.termination, result.iterations, wall)
    return 0


def _parse_methods(text: str) -> tuple[str, ...]:
    return tuple(m.strip() for m in text.split(",") if m.strip())


def _cmd_montecarlo(args) -> int:
    spec = _from_args(ExperimentSpec, args, methods=_parse_methods(args.methods),
                      epsilon=args.epsilon if args.epsilon is not None else 0.0,
                      solver=_config_from(args))
    records = run_monte_carlo(spec, jobs=args.jobs)
    with _writing(args.out) as (stream,):
        write_csv(records, stream)
    for method, stats in summarize(records).items():
        print(
            f"{method}: {stats['successes']}/{stats['trials']} recovered"
            f" (rate {stats['success_rate']:.2f},"
            f" median error {stats['median_error']:.3e},"
            f" mean iterations {stats['mean_iterations']:.0f})",
            file=_status_stream(args.out),
        )
    return 0


def _cmd_diagnose(args) -> int:
    _keep_apart({"instance": args.instance}, {"--output": args.output})
    with _reading(args.instance) as stream:
        system = load_system(stream)
    rip_k = min(4, (system.n + 1) ** 2) if args.rip_k is None else args.rip_k
    _check_rip_sampling(system.n, rip_k, args.rip_samples, args.seed)
    result = solve(system, args.lam, _config_from(args))
    cert = certify_coherence(system, result.Z)
    rip = sample_rip(system, rip_k, args.rip_samples, args.seed)
    with _writing(args.output) as (stream,):
        write_json({
            "coherence": dataclasses.asdict(cert),
            "rip": dataclasses.asdict(rip),
            "solve": result_to_dict(result),
        }, stream)
    return 0


def _cmd_phantom(args) -> int:
    side = args.side
    N = 2 * side * side if args.N is None else args.N
    system, x_true = phantom_instance(side, args.k, N, args.seed)
    result, wall = _timed_solve(args, system)
    report = build_report(system, result)
    basis = fourier_basis(side)
    truth_img = (basis @ x_true).real.reshape(side, side)
    aligned = align_phase(report.x_hat, x_true)
    recon_img = (basis @ aligned).real.reshape(side, side)
    with _writing(args.out) as (stream,):
        writer = csv.writer(stream)
        writer.writerow(("row", "col", "truth", "recovered", "abs_error"))
        # csv writes a float as str, its shortest round-trip form
        for r in range(side):
            for c in range(side):
                t, v = float(truth_img[r, c]), float(recon_img[r, c])
                writer.writerow((r, c, t, v, abs(t - v)))
    err = np.abs(truth_img - recon_img)
    print(
        f"phantom side={side} k={args.k} N={N}: {result.termination}"
        f" ({result.iterations} iterations, {wall:.1f}s),"
        f" pixel error mean {err.mean():.3e} max {err.max():.3e},"
        f" rank ratio {report.rank_ratio:.3e}",
        file=_status_stream(args.out),
    )
    return 0


def _instance_options(parser):
    # generate and montecarlo draw their instances from the same ensembles
    parser.add_argument("--ensemble", choices=ENSEMBLES, default="general")
    parser.add_argument("-n", "--n", type=int, default=20, help="signal dimension")
    parser.add_argument("-N", "--N", type=int, default=25,
                        help="number of measurements")
    parser.add_argument("-k", "--k", type=int, default=3, help="signal sparsity")
    parser.add_argument("--signal", choices=SIGNALS, default="binary")
    parser.add_argument("--seed", type=int, default=0)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qbp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a random instance as JSON")
    _instance_options(gen)
    gen.add_argument("-o", "--output", default="-", help="instance path (default stdout)")
    gen.add_argument("--truth", help="also write the planted signal here (- for stdout)")
    gen.set_defaults(func=_cmd_generate)

    slv = sub.add_parser("solve", help="solve one instance and report the recovery")
    slv.add_argument("instance", nargs="?", default="-", help="instance path (default stdin)")
    slv.add_argument("--truth", help="planted-signal JSON to score against (- for stdin)")
    slv.add_argument("--tol", type=float, default=SUCCESS_TOL, help="success threshold")
    slv.add_argument("-o", "--output", default="-", help="report path (default stdout)")
    _solver_options(slv, 1.0, "residual budget; solves the qbpd program")
    slv.set_defaults(func=_cmd_solve)

    mc = sub.add_parser("montecarlo", help="run repeated trials and write CSV records")
    _instance_options(mc)
    mc.add_argument("--methods", default="qbp,qbp0,bp,iht",
                    help="comma list from " + ",".join(_METHODS))
    mc.add_argument("--trials", type=int, default=100)
    mc.add_argument("--tol", type=float, default=SUCCESS_TOL)
    mc.add_argument("--iht-max-iters", type=int, default=1000,
                    help="iteration budget for the iht method")
    mc.add_argument("--jobs", type=int, default=1)
    mc.add_argument("-o", "--out", default="-", help="CSV path (default stdout)")
    _solver_options(mc, 50.0, "residual budget for the qbpd method")
    mc.set_defaults(func=_cmd_montecarlo)

    diag = sub.add_parser("diagnose", help="recoverability diagnostics for an instance")
    diag.add_argument("instance", nargs="?", default="-", help="instance path (default stdin)")
    diag.add_argument("--rip-k", type=int, default=None,
                      help="sparsity level for isometry sampling (default min(4, (n+1)^2))")
    diag.add_argument("--rip-samples", type=int, default=200)
    diag.add_argument("--seed", type=int, default=0)
    diag.add_argument("-o", "--output", default="-", help="report path (default stdout)")
    _solver_options(diag, 1.0)
    diag.set_defaults(func=_cmd_diagnose)

    ph = sub.add_parser("phantom", help="recover a piecewise-constant test image")
    ph.add_argument("--side", type=int, default=8)
    ph.add_argument("-k", "--k", type=int, default=10,
                    help="kept Fourier coefficients")
    ph.add_argument("-N", "--N", type=int, default=None,
                    help="measurements (default 2 * side^2)")
    ph.add_argument("--seed", type=int, default=0)
    ph.add_argument("-o", "--out", default="-", help="per-pixel CSV path (default stdout)")
    _solver_options(ph, 1.0, "residual budget; switches to the denoising solver")
    ph.set_defaults(func=_cmd_phantom, eps_abs=1e-5, eps_rel=1e-5, max_iters=40000)

    return parser


def _configure_logging() -> None:
    value = os.environ.get("QBP_LOG", "").strip()
    if value.upper() not in ("", "DEBUG", "INFO", "WARNING", "ERROR"):
        raise ValueError(f"QBP_LOG must be debug, info, warning or error, got {value!r}")
    if value:
        logging.basicConfig(level=value.upper(), stream=sys.stderr,
                            format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _configure_logging()
        return args.func(args)
    except _SOLVER_ERRORS as exc:
        print(f"qbp: solver error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"qbp: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
