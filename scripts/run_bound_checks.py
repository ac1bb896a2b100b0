#!/usr/bin/env python3
"""Drive the lower-bound machinery end to end and print a short report:
the cardinality DP table, the DP-vs-game dominance sweep, the level-entry
information check, and the induction-step sweep at the default and at a
deliberately broken eps.

Exits 1 when a check fails: the dominance slack falls below -1e-9, a
level-entry check is violated, the sweep fails at the default eps, or the
sweep at the broken eps (the negative control) passes.
"""
import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from elitist_lo_lab.bounds import (
    DEFAULT_EPS,
    ENTRY_MAPS,
    LevelGameSolver,
    PhiSolver,
    canonical_families,
    level_entry_information_check,
    verify_induction_step,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-total", type=int, default=6, choices=range(2, 7),
                        help="largest k+m for the dominance sweep")
    args = parser.parse_args()

    phi = PhiSolver()
    print("phi table spot values:")
    for k, m, C in [(0, 3, 1), (1, 1, 2), (2, 2, 6), (3, 3, 20)]:
        print(f"  phi({k},{m},{C}) = {float(phi.value(k, m, C)):.6f}")

    game = LevelGameSolver()
    t0 = time.time()
    worst_slack = float("inf")
    checked = 0
    for total in range(2, args.max_total + 1):
        for k in range(0, total):
            m = total - k
            row = phi.float_row(k, m)
            for fam in canonical_families(total, k):
                value = game.value(total, k, fam)
                slack = value - row[len(fam)]
                worst_slack = min(worst_slack, slack)
                checked += 1
    print(f"dominance: {checked} canonical families, min(game - dp) = "
          f"{worst_slack:.3e} (>= -1e-9) in {time.time()-t0:.1f}s")
    failed = worst_slack < -1e-9

    for name, entry_map in sorted(ENTRY_MAPS.items()):
        prob, ok = level_entry_information_check(10, 8, entry_map)
        print(f"level entry ({name}, n=10, k=8): Pr[B <= 2^(m+1)] = "
              f"{float(prob):.4f} -> {'ok' if ok else 'VIOLATED'}")
        failed |= not ok

    for eps, should_pass in ((DEFAULT_EPS, True), (1.0, False)):
        report = verify_induction_step(eps=eps, p_resolution=2048)
        print(f"induction sweep eps={eps:.6g}: max R(p) = {report.max_r:.5f} "
              f"-> {'pass' if report.passed else 'fail'}")
        failed |= report.passed != should_pass
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
