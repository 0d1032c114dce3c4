"""Command-line interface: run one experiment preset, write CSV and SVG.

Exit codes: 0 success, 2 invalid configuration, 3 numerical failure
(running out of memory included).
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys

from .adaptive import (
    EXPERIMENTS,
    ExperimentConfig,
    emit_csv,
    emit_svg_plot,
    fit_rate,
    run_experiment,
)
from .estimators import NumericalError

EXIT_BAD_CONFIG = 2
EXIT_NUMERICAL = 3


def build_parser():
    parser = argparse.ArgumentParser(
        prog="crbem",
        description="Nonconforming boundary elements on the unit-square "
                    "screen with two-level error estimators")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run an experiment preset")
    run.add_argument("--experiment", required=True, choices=EXPERIMENTS)
    run.add_argument("--theta", type=float, default=ExperimentConfig.theta,
                     help="marking fraction in (0,1) for adaptive presets")
    run.add_argument("--beta", type=float, default=ExperimentConfig.beta,
                     help="grading exponent for graded presets")
    run.add_argument("--levels", type=int, default=ExperimentConfig.max_levels,
                     help="maximum number of refinement levels")
    run.add_argument("--max-fine-dofs", type=int,
                     default=ExperimentConfig.max_fine_dofs,
                     help="stop before the refined mesh exceeds this many DOFs")
    run.add_argument("--out-csv", required=True, help="CSV output path")
    run.add_argument("--out-svg", default=None, help="SVG plot output path")
    run.add_argument("--dump-meshes", default=None,
                     help="directory for per-level mesh files")
    run.add_argument("--quiet", action="store_true")
    return parser


def _output_error(args):
    """Why an output path cannot be written, or None.  It is checked
    before the run, so a bad path costs no computation."""
    given = [(flag, os.path.realpath(path)) for flag, path in (
        ("--out-csv", args.out_csv), ("--out-svg", args.out_svg),
        ("--dump-meshes", args.dump_meshes)) if path]
    for (flag, path), (other, other_path) in itertools.combinations(given, 2):
        if path == other_path:
            return f"{flag} and {other} name the same path {path}"
    for flag, path in (("--out-csv", args.out_csv),
                       ("--out-svg", args.out_svg)):
        if path is None:
            continue
        if os.path.isdir(path):
            return f"{flag} {path} is a directory"
        if not os.path.basename(path):
            return f"{flag} {path!r} does not name a file"
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            return f"{flag} {path}: directory {parent} does not exist"
        if not os.access(parent, os.W_OK):
            return f"{flag} {path}: directory {parent} is not writable"
    if args.dump_meshes == "":
        return "--dump-meshes '' does not name a directory"
    if args.dump_meshes is not None:
        # the run creates what is missing below the nearest existing path
        existing = os.path.abspath(args.dump_meshes)
        while not os.path.exists(existing):
            existing = os.path.dirname(existing)
        where = f"--dump-meshes {args.dump_meshes}: {existing}"
        if not os.path.isdir(existing):
            return f"{where} is not a directory"
        if not os.access(existing, os.W_OK):
            return f"{where} is not writable"
    return None


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)

    config = ExperimentConfig(
        experiment=args.experiment,
        theta=args.theta,
        beta=args.beta,
        max_levels=args.levels,
        max_fine_dofs=args.max_fine_dofs,
        dump_meshes=args.dump_meshes,
    )
    try:
        config.validate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    problem = _output_error(args)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return EXIT_BAD_CONFIG

    try:
        records = run_experiment(config)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        # a dense table or matrix of the next level that does not fit
        print(f"numerical failure: out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    if not records:
        print(f"error: no level fits within --max-fine-dofs "
              f"{config.max_fine_dofs}", file=sys.stderr)
        return EXIT_BAD_CONFIG

    emit_csv(records, args.out_csv)
    if args.out_svg:
        emit_svg_plot(records, args.out_svg)

    if not args.quiet:
        for rec in records:
            msg = (f"level {rec.level:2d}  N={rec.n_coarse:6d}"
                   f"  rho2={rec.rho2:.6e}  conf_gap2={rec.conf_gap2:.6e}")
            if rec.mu_tilde2 is not None:
                msg += f"  mu_tilde2={rec.mu_tilde2:.6e}"
            print(msg)
        try:
            slope = fit_rate(records, "mu_tilde2")
            print(f"trailing mu_tilde2 slope vs N: {slope:+.3f}")
        except ValueError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
