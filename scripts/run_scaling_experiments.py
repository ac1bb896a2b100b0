#!/usr/bin/env python3
"""Scaling study for the three shipped strategies.

Runs rls and oea over n in {32..256} and memlog over {64..1024}, writes one
CSV per strategy next to --outdir and prints the fitted exponents.  RLS and
the (1+1) EA should fit alpha ~ 2; memlog grows like n log n, so its power-law
exponent over this window sits slightly above 1.
"""
import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from elitist_lo_lab.harness import SCALING_MIN_REPS, ExperimentConfig, cmd_scaling, emit


STUDIES = {
    "rls": ([32, 64, 128, 256], 200),
    "oea": ([32, 64, 128, 256], 200),
    "memlog": ([64, 128, 256, 512, 1024], 50),
}


def scaling_reps(text: str) -> int:
    reps = int(text)
    if reps < SCALING_MIN_REPS:
        raise argparse.ArgumentTypeError(f"scaling needs reps >= {SCALING_MIN_REPS}, got {reps}")
    return reps


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results", help="CSV output directory")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=scaling_reps, default=None,
                        help=f"override repetitions for every study (>= {SCALING_MIN_REPS})")
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for algo, (ns, reps) in STUDIES.items():
        config = ExperimentConfig(algo, ns, args.reps or reps, seed=args.seed)
        report = cmd_scaling(config)
        path = outdir / f"scaling_{algo}.csv"
        emit(report.csv_lines(), str(path))
        print(f"{algo:7s} alpha={report.alpha:.3f} coeff={report.coeff:.4g} "
              f"r2={report.r_squared:.4f} -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
