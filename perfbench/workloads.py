"""The four benchmark workloads.

Each workload drives elitist_lo_lab only through public functions, derives
every input (master seeds, cross-check cells) from the benchmark seed, checks
every output it produces, and repeats a fixed unit of work.  `run.py` times
the units; `tracing.py` supplies the per-layer split for a traced unit.

Operations counted for `attempted`/`failed`: every run record, every scaling
report, every CLI invocation and output file, every anchor digest, and every
check of the bound sweep.
"""
from __future__ import annotations

import bisect
import hashlib
import json
import math
import random
import sys
import time
from fractions import Fraction

import numpy as np

from elitist_lo_lab import cli, harness
from elitist_lo_lab.bounds import (
    DEFAULT_EPS,
    ENTRY_MAPS,
    LevelGameSolver,
    PhiSolver,
    canonical_families,
    level_entry_information_check,
    verify_induction_step,
)
from elitist_lo_lab.harness import ExperimentConfig
from elitist_lo_lab.heuristics import memlog_query_bound

clock = time.perf_counter_ns

# The host's speed drifts by tens of percent over minutes, so every reported
# time is scaled by ref_ns / (mean duration of a fixed, program-free kernel
# timed within KERNEL_WINDOW_NS of the interval measured).  The kernel runs
# for about KERNEL_SHARE of the wall time, in short chunks, so its mean tracks
# the speed the program saw.  ref_ns is a chunk's median duration on the
# 2-core Xeon VM the benchmark was written on.
KERNEL_SHARE = 0.1
KERNEL_EVERY_NS = 100_000_000
KERNEL_WINDOW_NS = 500_000_000

# Fixed configurations whose outputs were digested at the commit that added
# the benchmark; a digest mismatch means the program's output bytes changed.
ANCHOR_SEED = 2016


class Tally:
    """Counts checked operations and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {what}", file=sys.stderr)


def _kernel() -> int:
    """Fixed work that touches nothing of the program: int arithmetic and
    list stores.  It allocates no object the cyclic garbage collector
    tracks, so the size of the program's heap does not change its speed."""
    slots = [0] * 1024
    s = 0
    for i in range(10000):
        s = (s + i * 2654435761) & 0xFFFFFFFF
        slots[i & 1023] ^= s
    return s


class ArrayKernel:
    """`_kernel` plus a table gather and minimum over 2^18-entry uint32
    arrays, the operations `canonical_families` spends its time in.  The
    bound sweep is mostly that numpy work, whose speed drifts differently
    from bytecode's."""

    ref_ns = 5_000_000

    def __init__(self):
        self._idx = np.arange(1 << 18, dtype=np.uint32)
        self._table = np.arange(1 << 9, dtype=np.uint32)[::-1].copy()
        self._out = np.full(1 << 18, 1 << 30, dtype=np.uint32)

    def __call__(self) -> None:
        gathered = self._table[self._idx & 511] | self._table[self._idx >> 9]
        np.minimum(self._out, gathered, out=self._out)
        _kernel()


class Meter:
    """Times a reference kernel when `tick` finds KERNEL_EVERY_NS passed,
    for KERNEL_SHARE of the time since the last samples, and keeps the time
    it spent, which callers leave out of their own."""

    def __init__(self, kernel=_kernel, ref_ns: int = 2_000_000):
        self.kernel = kernel
        self.ref_ns = ref_ns
        self.times: list[int] = []     # clock reading at the end of each sample
        self._cum = [0]                # prefix sums of sample durations
        self.spent = 0
        self._last = clock()

    def sample(self, chunks: int = 1) -> None:
        kernel = self.kernel
        for _ in range(chunks):
            t0 = clock()
            kernel()
            t1 = clock()
            self.times.append(t1)
            self._cum.append(self._cum[-1] + t1 - t0)
            self.spent += t1 - t0
        self._last = t1

    def tick(self) -> None:
        gap = clock() - self._last
        if gap >= KERNEL_EVERY_NS:
            self.sample(max(1, round(gap * KERNEL_SHARE / self.ref_ns)))

    def factor(self, start: int, end: int) -> float:
        """Scale for a time measured between clock readings start and end."""
        lo = bisect.bisect_left(self.times, start - KERNEL_WINDOW_NS)
        hi = bisect.bisect_right(self.times, end + KERNEL_WINDOW_NS)
        return self.ref_ns * (hi - lo) / (self._cum[hi] - self._cum[lo])


class RunHook:
    """Timestamps each repetition that `harness.run_experiment` yields.

    The one hook in the timed run: two clock reads per repetition, taken
    around the generator's resumption, so the consumer's own work (the CLI's
    record serialization, the scaling aggregation) is not included.  Between
    repetitions it lets the meter sample.  `runs` collects (record,
    nanoseconds, end clock reading) until the caller takes them.
    """

    def __init__(self, meter: Meter):
        self.runs: list = []
        self._real = None
        self._meter = meter

    def __enter__(self):
        real = self._real = harness.run_experiment
        runs = self.runs
        tick = self._meter.tick

        def run_experiment(config):
            it = real(config)
            while True:
                tick()
                t0 = clock()
                try:
                    rec = next(it)
                except StopIteration:
                    return
                t1 = clock()
                runs.append((rec, t1 - t0, t1))
                yield rec

        harness.run_experiment = run_experiment
        return self

    def __exit__(self, *exc):
        harness.run_experiment = self._real

    def take(self) -> list:
        out = self.runs[:]
        del self.runs[:]
        return out


def _record_text(rec) -> str:
    per_level = "|".join(f"{k}:{c}" for k, c in rec.per_level)
    return (f"{rec.algo},{rec.n},{rec.seed},{rec.total_queries},"
            f"{int(rec.hit_optimum)},{int(rec.budget_exhausted)},{per_level}")


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else chunk.encode())
        h.update(b"\n")
    return h.hexdigest()


def check_record(rec, n_values, tally: Tally) -> None:
    """One run: it has an expected size, reached the optimum, its per-level
    charges sum to its total, and a memlog run stays within
    memlog_query_bound."""
    ok = (rec.n in n_values and rec.hit_optimum and not rec.budget_exhausted
          and sum(c for _, c in rec.per_level) == rec.total_queries)
    if ok and rec.algo == "memlog":
        ok = rec.total_queries <= memlog_query_bound(rec.n)
    tally.check(ok, f"run record {_record_text(rec)}")


class Workload:
    """A unit of work repeated by the timed loop.

    `unit(i)` runs the i-th unit (inputs derived from the seed and i) and
    returns whatever `check` needs; `check` returns a UnitStats.
    """

    name = ""
    anchor_digest = ""

    def __init__(self, seed: int, size: str, out_dir):
        self.seed = seed
        self.out_dir = out_dir
        self.meter = Meter()

    def unit_seed(self, i: int, tag: str) -> int:
        return random.Random(f"{self.name}/{self.seed}/{i}/{tag}").getrandbits(63)

    def check_anchor(self, tally: Tally) -> None:
        got = self.anchor()
        tally.check(got == self.anchor_digest,
                    f"{self.name} anchor digest {got} != {self.anchor_digest}")


class UnitStats:
    """What one unit contributes to the end-to-end metrics."""

    def __init__(self, work: int, ref: list[tuple[int, int]], work_is_ref: bool = False):
        self.work = work          # queries (simulation) or checks (bounds)
        self.ref = ref            # (ns, end clock reading) per reference repetition
        self.work_is_ref = work_is_ref  # the work took the ref times, not the whole unit


class SimWorkload(Workload):
    """Simulation workload: records come through the RunHook."""

    def __init__(self, seed: int, size: str, out_dir):
        super().__init__(seed, size, out_dir)
        self.hook = RunHook(self.meter)

    def stats(self, runs, expected: dict[str, tuple], tally: Tally) -> UnitStats:
        """Check every record; `expected` maps algo -> (n_values, runs)."""
        counts = {algo: 0 for algo in expected}
        queries = 0
        ref = []
        for rec, ns, end in runs:
            check_record(rec, expected[rec.algo][0] if rec.algo in expected else (), tally)
            counts[rec.algo] = counts.get(rec.algo, 0) + 1
            queries += rec.total_queries
            if (rec.algo, rec.n) == self.ref_cell:
                ref.append((ns, end))
        for algo, (_, want) in expected.items():
            tally.check(counts[algo] == want,
                        f"{self.name}: {counts[algo]} {algo} runs, expected {want}")
        return UnitStats(queries, ref)


class QuadraticNarrow(SimWorkload):
    """`cmd_scaling` (the `lolab scaling` path) for rls and oea over the
    acceptance n grid; every offspring flips about one bit."""

    name = "quadratic-narrow"
    anchor_digest = "86d1c03833da84c6066e3775135316f07d35373e885f2658b80610270beb4b4c"

    def __init__(self, seed: int, size: str, out_dir):
        super().__init__(seed, size, out_dir)
        self.n_values = [32, 64, 128, 256] if size == "full" else [8, 16, 32]
        self.ref_cell = ("rls", self.n_values[-1])
        self.reps = 50  # the smallest count cmd_scaling accepts

    def _studies(self, n_values, seeds):
        reports = []
        for algo in ("rls", "oea"):
            config = ExperimentConfig(algo, list(n_values), self.reps, seed=seeds[algo])
            reports.append((config, harness.cmd_scaling(config)))
        return reports

    def unit(self, i: int):
        return self._studies(self.n_values, {a: self.unit_seed(i, a) for a in ("rls", "oea")})

    def check(self, reports, runs, tally: Tally) -> UnitStats:
        for config, report in reports:
            totals: dict[int, list[int]] = {}
            for rec, _, _ in runs:
                if rec.algo == config.algo:
                    totals.setdefault(rec.n, []).append(rec.total_queries)
            rows_ok = [r.n for r in report.rows] == config.n_values and all(
                r.reps == config.reps == len(totals[r.n])
                and math.isclose(r.mean, sum(totals[r.n]) / r.reps, rel_tol=1e-12)
                for r in report.rows)
            # alpha near 2 is the paper's Theta(n^2); 50 repetitions put the
            # fitted exponent well inside this window
            tally.check(rows_ok and 1.8 <= report.alpha <= 2.2,
                        f"{config.algo} scaling report rows/alpha={report.alpha}")
        per_algo = self.reps * len(self.n_values)
        return self.stats(runs, {"rls": (self.n_values, per_algo),
                                 "oea": (self.n_values, per_algo)}, tally)

    def anchor(self) -> str:
        with self.hook:
            reports = self._studies([8, 16, 32], {"rls": ANCHOR_SEED, "oea": ANCHOR_SEED})
            runs = self.hook.take()
        rows = [f"{c.algo},{r.n},{r.reps},{r.mean!r}" for c, rep in reports for r in rep.rows]
        return _digest([_record_text(rec) for rec, _, _ in runs] + rows)


class MemlogWide(SimWorkload):
    """`run_experiment` for memlog at n = 1024 and 4096; probes flip hundreds
    of bits, so the oracle's wide (numpy) path does the work."""

    name = "memlog-wide"
    anchor_digest = "6df4f6b54d9ccaeacd07734a45a0eb7811b9dcea3cce1982f0a5e2cf636704db"

    def __init__(self, seed: int, size: str, out_dir):
        super().__init__(seed, size, out_dir)
        # eight n=1024 runs per n=4096 run keep the reference cell's median
        # inside one cluster of repetition times and give it enough samples
        self.plan = [(1024, 8), (4096, 1)] if size == "full" else [(64, 8), (256, 1)]
        self.ref_cell = ("memlog", self.plan[0][0])

    def _batches(self, plan, seeds):
        for (n, reps), seed in zip(plan, seeds):
            for _ in harness.run_experiment(ExperimentConfig("memlog", [n], reps, seed=seed)):
                pass

    def unit(self, i: int):
        self._batches(self.plan, [self.unit_seed(i, str(n)) for n, _ in self.plan])

    def check(self, _, runs, tally: Tally) -> UnitStats:
        n_values = [n for n, _ in self.plan]
        return self.stats(runs, {"memlog": (n_values, sum(r for _, r in self.plan))}, tally)

    def anchor(self) -> str:
        with self.hook:
            self._batches([(64, 3), (256, 3), (1024, 1)], [ANCHOR_SEED] * 3)
            runs = self.hook.take()
        return _digest(_record_text(rec) for rec, _, _ in runs)


class SmallRuns(SimWorkload):
    """`lolab run` through in-process `cli.main` at tiny n with many
    repetitions, writing CSV and JSON record files."""

    name = "small-runs"
    anchor_digest = "54d8f24b87097ffaf404d3572496ac98151f80b10473822ee42420feb3723391"
    algos = ("rls", "oea", "memlog")

    def __init__(self, seed: int, size: str, out_dir):
        super().__init__(seed, size, out_dir)
        self.n_values = [4, 8, 16]
        self.reps = 200 if size == "full" else 20
        self.ref_cell = ("rls", 4)

    def _invocations(self, reps, seeds):
        """Run `lolab run` once per (algo, format); return (algo, fmt, path, rc)."""
        done = []
        n_arg = ",".join(map(str, self.n_values))
        for algo in self.algos:
            for fmt in ("csv", "json"):
                path = self.out_dir / f"{self.name}-{algo}.{fmt}"
                rc = cli.main(["run", "--algo", algo, "--n", n_arg, "--reps", str(reps),
                               "--seed", str(seeds[algo]), "--out", str(path),
                               "--format", fmt])
                done.append((algo, fmt, path, rc))
        return done

    def unit(self, i: int):
        return self._invocations(self.reps, {a: self.unit_seed(i, a) for a in self.algos})

    def check(self, done, runs, tally: Tally) -> UnitStats:
        per_call = self.reps * len(self.n_values)
        for j, (algo, fmt, path, rc) in enumerate(done):
            recs = [rec for rec, _, _ in runs[j * per_call:(j + 1) * per_call]]
            tally.check(rc == 0 and _file_matches(path, fmt, recs),
                        f"lolab run --algo {algo} --format {fmt}: exit {rc}, {path.name}")
        per_algo = 2 * per_call
        return self.stats(runs, {a: (self.n_values, per_algo) for a in self.algos}, tally)

    def anchor(self) -> str:
        with self.hook:
            done = self._invocations(20, {a: ANCHOR_SEED for a in self.algos})
            self.hook.take()
        return _digest(path.read_bytes() for _, _, path, _ in done)


def _file_matches(path, fmt: str, recs) -> bool:
    """The record file parses back to exactly the records the run produced."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if fmt == "csv":
        if lines[:2] != [harness.CSV_HEADER, ",".join(harness.RUN_CSV_COLUMNS)]:
            return False
        return lines[2:] == [_record_text(rec) for rec in recs]
    want = [{"algo": r.algo, "n": r.n, "seed": r.seed, "total_queries": r.total_queries,
             "hit_optimum": r.hit_optimum, "budget_exhausted": r.budget_exhausted,
             "per_level": [[k, c] for k, c in r.per_level]} for r in recs]
    return [json.loads(line) for line in lines] == want


# -- bounds -----------------------------------------------------------------------

# phi spot values printed by scripts/run_bound_checks.py, exact at the commit
# that added the benchmark
PHI_SPOT_VALUES = {
    (0, 3, 1): Fraction(2),
    (1, 1, 2): Fraction(3, 2),
    (2, 2, 6): Fraction(5, 2),
    (3, 3, 20): Fraction(7, 2),
}


class Calls:
    """Call-site timers for the bound sweep: per-name totals, and spans
    (children of span 0, the pass) when `spans` is a list.  The meter may
    sample after each timed call."""

    def __init__(self, meter: Meter, spans: list | None = None):
        self.ns: dict[str, int] = {}
        self.count: dict[str, int] = {}
        self.meter = meter
        self.spans = spans

    def call(self, name: str, fn, *args, **kwargs):
        t0 = clock()
        out = fn(*args, **kwargs)
        t1 = clock()
        self.add(name, t0, t1)
        return out

    def add(self, name: str, t0: int, t1: int) -> None:
        self.ns[name] = self.ns.get(name, 0) + t1 - t0
        self.count[name] = self.count.get(name, 0) + 1
        if self.spans is not None:
            self.spans.append((name, t0, t1, 0, None))
        self.meter.tick()


class BoundsSweep(Workload):
    """The checks of scripts/run_bound_checks.py at their defaults plus a
    PhiSolver.float_row table; no simulation layer runs."""

    name = "bounds-sweep"

    def __init__(self, seed: int, size: str, out_dir):
        super().__init__(seed, size, out_dir)
        kernel = ArrayKernel()
        self.meter = Meter(kernel, kernel.ref_ns)
        full = size == "full"
        self.max_total = 6 if full else 4          # dominance sweep, k+m
        self.families = 2564 if full else 29       # canonical families swept
        self.table_total = 16 if full else 10      # float_row table, k+m
        self.entry = (10, 8) if full else (6, 4)   # level entry (n, k)
        rng = random.Random(f"{self.name}/{seed}")
        self.cells = []
        for _ in range(8):
            total = rng.randint(2, 8)
            m = rng.randint(1, total)
            k = total - m
            self.cells.append((k, m, rng.randint(1, math.comb(total, m))))
        self.calls = Calls(self.meter)

    def unit(self, i: int):
        """One pass with fresh solvers, so no memo survives between passes."""
        calls = self.calls
        self.families_seen = 0
        phi = PhiSolver()
        game = LevelGameSolver()
        results = {"spot": {}, "slacks": [], "checks": [], "rows": {}, "cells": [],
                   "entry": [], "induction": []}
        for key in PHI_SPOT_VALUES:
            results["spot"][key] = calls.call("bounds.phi_value", phi.value, *key)
        for total in range(2, self.max_total + 1):
            for k in range(total):
                m = total - k
                row = calls.call("bounds.float_row", phi.float_row, k, m)
                fams = calls.call("bounds.canonical_families", canonical_families, total, k)
                self.families_seen += len(fams)
                for fam in fams:
                    t0 = clock()
                    slack = game.value(total, k, fam) - row[len(fam)]
                    t1 = clock()
                    calls.add("bounds.game_value", t0, t1)
                    results["slacks"].append(slack)
                    results["checks"].append((t1 - t0, t1))
        for k in range(self.table_total + 1):
            for m in range(1, self.table_total + 1 - k):
                results["rows"][(k, m)] = calls.call("bounds.float_row", phi.float_row, k, m)
        for k, m, C in self.cells:
            exact = calls.call("bounds.phi_value", phi.value, k, m, C)
            results["cells"].append(((k, m, C), exact, phi.float_row(k, m)[C]))
        for name, entry_map in sorted(ENTRY_MAPS.items()):
            results["entry"].append((name, calls.call(
                "bounds.level_entry", level_entry_information_check, *self.entry, entry_map)))
        for eps in (DEFAULT_EPS, 1.0):
            results["induction"].append((eps, calls.call(
                "bounds.induction_sweep", verify_induction_step, eps=eps, p_resolution=2048)))
        return results

    def check(self, res, _runs, tally: Tally) -> UnitStats:
        for key, want in PHI_SPOT_VALUES.items():
            tally.check(res["spot"][key] == want, f"phi{key} = {res['spot'][key]}")
        for j, slack in enumerate(res["slacks"]):
            tally.check(slack >= -1e-9, f"dominance slack {slack} at family {j}")
        tally.check(len(res["slacks"]) == self.families,
                    f"{len(res['slacks'])} canonical families, expected {self.families}")
        for (k, m), row in res["rows"].items():
            tally.check(len(row) == math.comb(k + m, m) + 1
                        and bool((row[2:] - row[1:-1] >= -1e-9).all()),
                        f"float_row({k}, {m}) not monotone in C")
        for cell, exact, approx in res["cells"]:
            tally.check(abs(float(exact) - float(approx)) <= 1e-9,
                        f"phi{cell}: exact {exact} vs float_row {approx}")
        for name, (prob, ok) in res["entry"]:
            tally.check(ok and prob >= Fraction(1, 2), f"level entry {name}: {prob}")
        for eps, report in res["induction"]:
            want = eps == DEFAULT_EPS  # eps = 1 is the negative control
            tally.check(report.passed == want,
                        f"induction sweep eps={eps}: passed={report.passed}")
        return UnitStats(len(res["checks"]), res["checks"], work_is_ref=True)

    def check_anchor(self, tally: Tally) -> None:
        """The pinned phi spot values play the anchor's part in every pass."""


WORKLOADS = {
    "quadratic-narrow": QuadraticNarrow,
    "memlog-wide": MemlogWide,
    "small-runs": SmallRuns,
    "bounds-sweep": BoundsSweep,
}


def make(name: str, seed: int, size: str, out_dir) -> Workload:
    return WORKLOADS[name](seed, size, out_dir)
