"""Command-line interface: `lolab run|scaling|level-profile|phi|verify|game`.

Exit codes: 0 success, 1 usage error, 2 I/O error, 3 verification failure
(`verify` only).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import harness
from .bounds import verify_induction_step, worst_cell
from .heuristics import STRATEGIES

CLI_BUDGET_CAP = 10 ** 9
# largest `verify --p-resolution`: each of the sweep's p-grid arrays stays near 8 MB
CLI_P_RESOLUTION_CAP = 2 ** 20


class UsageError(ValueError):
    """Bad command-line input; like every ValueError, it exits with code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_n_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"bad n list {text!r}") from None
    if not values:
        raise UsageError("empty n list")
    return values


def _experiment_config(args) -> harness.ExperimentConfig:
    if args.budget is not None and args.budget > CLI_BUDGET_CAP:
        raise UsageError(f"budget exceeds the CLI cap {CLI_BUDGET_CAP}")
    return harness.ExperimentConfig(
        algo=args.algo,
        n_values=_parse_n_list(args.n),
        reps=args.reps,
        seed=args.seed,
        budget=CLI_BUDGET_CAP if args.budget is None else args.budget,
    )


def _json_lines(obj: dict) -> list[str]:
    return [json.dumps(obj, indent=2, sort_keys=True)]


def _sweep_summary(report) -> str:
    """One line on the cells swept and skipped and the worst swept cell,
    the one that decides the verdict."""
    skipped = sum(c.skipped for c in report.cells)
    worst = worst_cell(report.cells)
    return (f"verify: {len(report.cells) - skipped} cells swept, {skipped} "
            f"skipped; worst cell k={worst.k} m={worst.m} log2_B={worst.log2_B!r}: "
            f"max R(p) = {worst.max_r!r} at p = {worst.argmax_p!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lolab",
                     description="elitist LeadingOnes simulation and bound laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p, reps_default, formats=("csv", "json")):
        p.add_argument("--algo", required=True, choices=sorted(STRATEGIES))
        p.add_argument("--n", required=True, help="comma-separated list of sizes")
        p.add_argument("--reps", type=int, default=reps_default)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--budget", type=int, default=None,
                       help=f"query budget per run (cap {CLI_BUDGET_CAP})")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=formats, default="csv")

    add_run_flags(sub.add_parser("run", help="emit one record per run"), 1)
    add_run_flags(sub.add_parser("scaling", help="fit the scaling exponent"), 200)
    add_run_flags(sub.add_parser("level-profile", help="per-level query means"), 500, ("csv",))

    p_phi = sub.add_parser("phi", help="cardinality DP table as CSV")
    p_phi.add_argument("--kmax", type=int, required=True)
    p_phi.add_argument("--mmax", type=int, required=True)
    p_phi.add_argument("--eps", type=float, default=harness.DEFAULT_EPS)
    p_phi.add_argument("--out", default=None)

    p_verify = sub.add_parser("verify", help="induction-step sweep report as JSON")
    p_verify.add_argument("--eps", type=float, default=harness.DEFAULT_EPS)
    p_verify.add_argument("--p-resolution", type=int, default=4096,
                          help=f"p grid points per cell (cap {CLI_P_RESOLUTION_CAP})")
    p_verify.add_argument("--max-total", type=int, default=200,
                          help="largest k+m cell swept")
    p_verify.add_argument("--out", default=None)

    p_game = sub.add_parser("game", help="exact level-game value from a spec file")
    p_game.add_argument("--spec", required=True, help="game spec file")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "out", None) == "":
            raise UsageError("--out must not be empty")
        if args.command == "run":
            records = harness.run_experiment(_experiment_config(args))
            harness.emit(harness.record_lines(records, args.format), args.out)
        elif args.command == "scaling":
            report = harness.cmd_scaling(_experiment_config(args))
            if args.format == "csv":
                harness.emit(report.csv_lines(), args.out)
            else:
                harness.emit(_json_lines(dataclasses.asdict(report)), args.out)
        elif args.command == "level-profile":
            rows = harness.cmd_level_profile(_experiment_config(args))
            harness.emit(harness.level_profile_csv_lines(rows), args.out)
        elif args.command == "phi":
            harness.emit(harness.cmd_phi(args.kmax, args.mmax, args.eps), args.out)
        elif args.command == "verify":
            if args.p_resolution > CLI_P_RESOLUTION_CAP:
                raise UsageError(f"p-resolution exceeds the CLI cap {CLI_P_RESOLUTION_CAP}")
            report = verify_induction_step(p_resolution=args.p_resolution,
                                           eps=args.eps, max_total=args.max_total)
            harness.emit(_json_lines(report.to_json_dict()), args.out)
            print(_sweep_summary(report), file=sys.stderr)
            if not report.passed:
                print(f"verification FAILED: max R(p) = {report.max_r!r}",
                      file=sys.stderr)
                return 3
        elif args.command == "game":
            with open(args.spec, "r", encoding="utf-8") as fh:
                text = fh.read()
            value, states = harness.cmd_game(text)
            print(repr(value))
            print(f"game: {states} memo states", file=sys.stderr)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
