"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live; the
whole suite is deterministic (fixed master seeds).
"""
import itertools
import math
import random
import time

import numpy as np

from elitist_lo_lab.bounds import (
    ENTRY_MAPS,
    LevelGameSolver,
    LevelSecret,
    PhiSolver,
    canonical_families,
    level_entry_information_check,
    onebit_simulation,
    verify_induction_step,
)
from elitist_lo_lab.framework import (
    make_monotone_transform,
    run_one_plus_one,
    verify_ranking_invariance,
)
from elitist_lo_lab.harness import ExperimentConfig, fit_power_law, run_experiment
from elitist_lo_lab.heuristics import Memlog, OneEa, Rls, make_strategy, memlog_query_bound
from elitist_lo_lab.lo_core import lo_value, random_instance

from test_heuristics import run_coupled


def _report(num: int, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {status} ({elapsed:.1f}s / budget {budget:.0f}s): {detail}")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


def _mean_totals(algo: str, n_values, reps: int, seed: int) -> dict[int, float]:
    totals: dict[int, list[int]] = {n: [] for n in n_values}
    for rec in run_experiment(ExperimentConfig(algo, list(n_values), reps, seed)):
        totals[rec.n].append(rec.total_queries)
    return {n: sum(v) / len(v) for n, v in totals.items()}


def test_criterion_1_rls_quadratic_scaling():
    t0 = time.perf_counter()
    ns = [32, 64, 128, 256]
    means = _mean_totals("rls", ns, reps=200, seed=101)
    alpha, _, _ = fit_power_law(ns, [means[n] for n in ns])
    ratio = means[256] / 256**2
    # independent closed-form oracle: every level is visited with probability
    # 1/2 and left after expected n queries
    oracle = (1 + 256 * 256 / 2) / 256**2
    ok = 1.85 <= alpha <= 2.15 and 0.40 <= ratio <= 0.60 and 0.40 <= oracle <= 0.60
    elapsed = time.perf_counter() - t0
    _report(1, ok, f"alpha={alpha:.3f}, T/n^2 at 256 = {ratio:.3f} (oracle {oracle:.3f})",
            elapsed, 120)


def _oea_level_sum_oracle(n: int) -> float:
    # visited levels cost 1 / ((1/n) (1-1/n)^k) queries, visit probability 1/2
    q = 1.0 - 1.0 / n
    return 1 + sum(0.5 * n * q ** (-k) for k in range(n))


def test_criterion_2_oea_quadratic_scaling():
    t0 = time.perf_counter()
    ns = [32, 64, 128, 256]
    means = _mean_totals("oea", ns, reps=200, seed=202)
    alpha, _, _ = fit_power_law(ns, [means[n] for n in ns])
    oracle = _oea_level_sum_oracle(256)
    deviation = abs(means[256] - oracle) / oracle
    ok = 1.85 <= alpha <= 2.15 and deviation <= 0.10
    elapsed = time.perf_counter() - t0
    _report(2, ok,
            f"alpha={alpha:.3f}, mean at 256 = {means[256]:.0f} vs oracle "
            f"{oracle:.0f} ({100 * deviation:.1f}% off)", elapsed, 300)


def test_criterion_3_memlog_upper_bound():
    t0 = time.perf_counter()
    ns = [64, 256, 1024]
    totals: dict[int, list[int]] = {n: [] for n in ns}
    ok = True
    for rec in run_experiment(ExperimentConfig("memlog", ns, reps=50, seed=303)):
        totals[rec.n].append(rec.total_queries)
        if not rec.hit_optimum or rec.total_queries > memlog_query_bound(rec.n):
            ok = False
    means = {n: sum(v) / len(v) for n, v in totals.items()}
    x = np.log([math.log2(n) for n in ns])
    y = np.log([means[n] / n for n in ns])
    slope = float(np.polyfit(x, y, 1)[0])
    ok = ok and 0.7 <= slope <= 1.3
    elapsed = time.perf_counter() - t0
    _report(3, ok,
            f"all runs hit the optimum within 2n(ceil(log2 n)+2); "
            f"T/n vs log n exponent = {slope:.3f}", elapsed, 60)


def test_criterion_4_per_level_profile():
    t0 = time.perf_counter()
    n, reps = 128, 500
    visits: dict[int, int] = {}
    sums: dict[int, int] = {}
    for rec in run_experiment(ExperimentConfig("rls", [n], reps, seed=404)):
        for level, count in rec.per_level:
            visits[level] = visits.get(level, 0) + 1
            sums[level] = sums.get(level, 0) + count
    band_levels = [k for k in range(n) if n / 16 <= n - k <= n / 8]
    means_ok = True
    for k in band_levels:
        mean_queries = sums[k] / visits[k]
        if not 0.8 * n <= mean_queries <= 1.2 * n:
            means_ok = False
    freq_ok = all(
        0.4 <= visits.get(k, 0) / reps <= 0.6 for k in range(n)
    )
    ok = means_ok and freq_ok
    elapsed = time.perf_counter() - t0
    _report(4, ok,
            f"levels with n/16 <= n-k <= n/8 average within [0.8n, 1.2n]: "
            f"{means_ok}; all visit frequencies in [0.4, 0.6]: {freq_ok}",
            elapsed, 60)


def test_criterion_5_phi_machinery():
    t0 = time.perf_counter()
    solver = PhiSolver()
    exact_ok = all(solver.value(k, 0, 1) == 0 for k in range(0, 9))
    from fractions import Fraction
    exact_ok = exact_ok and all(
        solver.value(k, m, 1) == Fraction(m + 1, 2)
        for k in range(0, 9) for m in range(1, 8) if k + m <= 16
    )

    monotone_ok = True
    for k in range(0, 17):
        for m in range(1, 17 - k):
            row = solver.float_row(k, m)
            if len(row) > 2 and float(np.min(row[2:] - row[1:-1])) < -1e-9:
                monotone_ok = False

    game = LevelGameSolver()
    dominance_ok = True
    checked = 0
    for total in range(2, 7):
        for k in range(0, total):
            m = total - k
            if m < 1:
                continue
            for fam in canonical_families(total, k):
                value = game.value(total, k, fam)
                relax = float(solver.float_row(k, m)[len(fam)])
                checked += 1
                if value < relax - 1e-9:
                    dominance_ok = False
    exact_game_ok = game.value(2, 1, [(0,), (1,)]) == 1.5

    ok = exact_ok and monotone_ok and dominance_ok and exact_game_ok
    elapsed = time.perf_counter() - t0
    _report(5, ok,
            f"exact base cases: {exact_ok}; monotone in C (k+m<=16): "
            f"{monotone_ok}; dominance on {checked} canonical families: "
            f"{dominance_ok}; game(1,1,full)=1.5: {exact_game_ok}",
            elapsed, 300)


def test_criterion_6_induction_sweep():
    t0 = time.perf_counter()
    report = verify_induction_step(p_resolution=4096, eps=1.0 / 2048.0,
                                   max_total=200)
    control = verify_induction_step(p_resolution=4096, eps=1.0, max_total=200)
    ok = report.passed and report.max_r <= 1.0 and not control.passed
    elapsed = time.perf_counter() - t0
    _report(6, ok,
            f"eps=1/2048 sweep max R(p) = {report.max_r:.5f} <= 1; "
            f"eps=1 control max R(p) = {control.max_r:.3f} > 1", elapsed, 120)


def test_criterion_7_level_entry_information():
    t0 = time.perf_counter()
    ok = True
    worst = 1.0
    for n in (9, 10):
        for k in (n - 2, n - 3):
            for name, entry_map in sorted(ENTRY_MAPS.items()):
                prob, meets = level_entry_information_check(n, k, entry_map)
                worst = min(worst, float(prob))
                if not meets:
                    ok = False
    elapsed = time.perf_counter() - t0
    _report(7, ok,
            f"three entry maps at n in {{9,10}}, k in {{n-2,n-3}}: "
            f"min Pr[B <= 2^(m+1)] = {worst:.3f} >= 1/2", elapsed, 60)


def test_criterion_8_onebit_simulation_certificate():
    t0 = time.perf_counter()
    n, k = 5, 2
    m = n - k
    # XOR-translating start and secrets together preserves the construction,
    # so the start point is fixed to the all-zero string w.l.o.g.
    start = 0
    points = range(1, 2**n)
    secrets = [
        LevelSecret(mask, 0, b)
        for mask in range(1 << n) if mask.bit_count() == k
        for b in range(n) if not (mask >> b) & 1
    ]
    assert len(secrets) == math.comb(n, k) * m
    ok = True
    worst = 0
    count = 0
    for trace in itertools.permutations(points, 3):
        for secret in secrets:
            sim = onebit_simulation(n, start, trace, secret)
            count += 1
            overhead = len(sim.queries) - sim.steps_processed
            worst = max(worst, overhead)
            if len(sim.queries) > sim.steps_processed + m or not sim.info_dominance_ok:
                ok = False
    elapsed = time.perf_counter() - t0
    _report(8, ok,
            f"{count} (trace, secret) pairs exhaustively replayed; "
            f"max overhead {worst} <= m = {m}", elapsed, 600)


def test_criterion_9_protocol_properties():
    t0 = time.perf_counter()
    rng = random.Random(909)

    invariance_ok = True
    for strategy_cls in (Rls, OneEa, Memlog):
        for trial in range(20):
            inst = random_instance(16, rng)
            transform = make_monotone_transform(16, rng)
            if not verify_ranking_invariance(strategy_cls, inst, transform,
                                             seed=rng.randrange(2**30)):
                invariance_ok = False

    elitism_ok = True
    algos = ("rls", "oea", "memlog")
    for i in range(10_000):
        inst = random_instance(8, rng)
        strategy = make_strategy(algos[i % 3])
        curve = []

        def observer(event):
            if event[0] == "step":
                _, inc, off, outcome, accepted = event
                curve.append(lo_value(inst, off if accepted else inc))

        run_one_plus_one(strategy, inst, seed=rng.randrange(2**30),
                         observer=observer)
        if any(a > b for a, b in zip(curve, curve[1:])):
            elitism_ok = False

    coupling_ok = True
    for _ in range(100):
        n = rng.randrange(4, 33)
        inst = random_instance(n, rng)
        rec, traj, rec2, traj2 = run_coupled(Rls, inst, rng.randrange(2**30))
        if traj != traj2 or rec.total_queries != rec2.total_queries:
            coupling_ok = False

    ok = invariance_ok and elitism_ok and coupling_ok
    elapsed = time.perf_counter() - t0
    _report(9, ok,
            f"ranking invariance (60 runs): {invariance_ok}; elitism in 10^4 "
            f"runs: {elitism_ok}; RLS coupling on 100 pairs: {coupling_ok}",
            elapsed, 600)
