#!/usr/bin/env python3
"""Benchmark for elitist-lo-lab: one workload per invocation.

From the root of a checkout:

    python3 perfbench/run.py --workload quadratic-narrow --seed 1 --seconds 20 --trace 0

The program is imported from the checkout's `src/`; nothing is installed.
With `--trace 0` the timed run reports the end-to-end metrics; with
`--trace 1` one unit runs untraced and then again traced, which gives the
per-layer metrics and the tracing overhead.  The last line of stdout is a
JSON object with the keys correct, attempted, failed and metrics; the line
before it is the full report (environment, failed_share, run_p90_ms,
counts).  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 5

UNITS = {
    "setup_s": "s", "wall_s": "s", "queries_per_s": "1/s", "run_p50_ms": "ms",
    "run_p90_ms": "ms", "peak_rss_mb": "MB", "failed_share": "share",
    "lo_core.compare_us": "us", "lo_core.compare_calls": "count",
    "lo_core.flip_bits_mean": "bits", "lo_core.wide_share": "share",
    "lo_core.oracle_init_us": "us", "lo_core.random_instance_us": "us",
    "harness.instance_us": "us", "harness.serialize_us": "us",
    "heuristics.step_us": "us", "heuristics.learn_us": "us",
    "heuristics.pack_state_us": "us", "framework.run_us_per_query": "us",
    "framework.loop_overhead_us": "us",
    "bounds.canonical_families_s": "s", "bounds.game_value_s": "s",
    "bounds.game_calls": "count", "bounds.families_count": "count",
    "bounds.float_row_s": "s", "bounds.phi_value_s": "s",
    "bounds.induction_sweep_s": "s", "bounds.level_entry_s": "s",
    "trace_overhead_pct": "%",
}
END_TO_END = ("setup_s", "wall_s", "queries_per_s", "run_p50_ms", "peak_rss_mb")
PER_LAYER = tuple(k for k in UNITS
                  if k not in END_TO_END and k not in ("run_p90_ms", "failed_share"))
BOUNDS_CALLS = ("canonical_families", "game_value", "float_row", "phi_value",
                "induction_sweep", "level_entry")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("quadratic-narrow", "memlog-wide", "small-runs", "bounds-sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="measure for about this long (at least one unit)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every workload for the smoke test")
    p.add_argument("--setup-only", action="store_true",
                   help="import and build the inputs, then exit (set-up probe)")
    return p.parse_args(argv)


def import_program():
    """Import elitist_lo_lab from this checkout's src/, and only from there."""
    sys.path.insert(0, str(SRC))
    try:
        import elitist_lo_lab
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import elitist_lo_lab from {SRC}: {exc}")
    if not pathlib.Path(elitist_lo_lab.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: elitist_lo_lab resolved outside {SRC}")


def environment() -> dict:
    import numpy
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            load = [float(x) for x in fh.read().split()[:3]]
    except OSError:
        load = list(os.getloadavg())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "loadavg": load}


def measure_setup(args, meter) -> float:
    """Median scaled wall time of fresh processes that import the program and
    build this workload's inputs from the seed (interpreter start included);
    the meter samples between probes."""
    cmd = [sys.executable, str(pathlib.Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-only"]
    times = []
    start = time.perf_counter_ns()
    for _ in range(SETUP_PROBES):
        meter.sample(10)
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120, check=False)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.decode(errors='replace')}")
    meter.sample(10)
    return statistics.median(times) * meter.factor(start, time.perf_counter_ns())


def run_unit(workload, i, tally):
    """Run and check unit i; return (wall seconds without the meter's own
    samples, (start, end) clock readings, UnitStats)."""
    meter = workload.meter
    meter.sample()
    spent = meter.spent
    hook = getattr(workload, "hook", None)
    t0 = time.perf_counter_ns()
    if hook is not None:
        with hook:
            out = workload.unit(i)
            runs = hook.take()
    else:
        out = workload.unit(i)
        runs = []
    t1 = time.perf_counter_ns()
    wall = (t1 - t0 - (meter.spent - spent)) / 1e9
    meter.sample()
    return wall, (t0, t1), workload.check(out, runs, tally)


def timed_run(workload, tally, seconds) -> tuple[dict, dict]:
    """Repeat units while the next one is expected to end within `seconds`.
    Every time is scaled by the meter's factor around it (see
    workloads.Meter)."""
    units = []
    start = time.perf_counter()
    while True:
        units.append(run_unit(workload, len(units), tally))
        if time.perf_counter() - start + statistics.median(u[0] for u in units) > seconds:
            break
    factor = workload.meter.factor
    factors = [factor(*span) for _, span, _ in units]
    walls, ref_ms, work, work_s = [], [], 0, 0.0
    for (wall, _, stats), unit_factor in zip(units, factors):
        walls.append(wall * unit_factor)
        ref = [ns * factor(end - ns, end) / 1e6 for ns, end in stats.ref]
        ref_ms.extend(ref)
        work += stats.work
        work_s += sum(ref) / 1e3 if stats.work_is_ref else wall * unit_factor
    metrics = {
        "wall_s": statistics.median(walls),
        "queries_per_s": work / work_s,
        "run_p50_ms": statistics.median(ref_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"units": len(units), "unit_wall_s_raw": [u[0] for u in units],
              "unit_factor": factors, "work": work, "ref_runs": len(ref_ms)}
    if len(ref_ms) >= 100:
        metrics["run_p90_ms"] = statistics.quantiles(ref_ms, n=10)[8]
    return metrics, detail


def traced_run(workload, tally, span_path) -> tuple[dict, dict]:
    """Unit 0 untraced, then unit 0 traced; per-layer metrics from the latter,
    times scaled by the traced unit's factor."""
    import tracing
    import workloads

    untraced, untraced_span, _ = run_unit(workload, 0, tally)
    metrics = dict.fromkeys(PER_LAYER, 0)
    if isinstance(workload, workloads.BoundsSweep):
        spans = [None]
        calls = workload.calls = workloads.Calls(workload.meter, spans)
        t0 = time.perf_counter_ns()
        traced, traced_span, _ = run_unit(workload, 0, tally)
        spans[0] = ("unit", t0, time.perf_counter_ns(), None, None)
        factor = workload.meter.factor(*traced_span)
        metrics.update({f"bounds.{c}_s": calls.ns.get(f"bounds.{c}", 0) * factor / 1e9
                        for c in BOUNDS_CALLS})
        metrics["bounds.game_calls"] = calls.count.get("bounds.game_value", 0)
        metrics["bounds.families_count"] = workload.families_seen
    else:
        with tracing.Tracer() as tracer:
            traced, traced_span, _ = run_unit(workload, 0, tally)
        traced -= tracer.bookkeeping_ns / 1e9
        factor = workload.meter.factor(*traced_span)
        spans = tracer.spans
        metrics.update(tracer.metrics(factor))
        tally.check(tracer.t["mismatched"] == 0,
                    f"{tracer.t['mismatched']} replayed compares disagree with the run")
    untraced_factor = workload.meter.factor(*untraced_span)
    metrics["trace_overhead_pct"] = (traced * factor / (untraced * untraced_factor) - 1) * 100
    tracing.write_spans(span_path, spans)
    return metrics, {"untraced_wall_s_raw": untraced, "traced_wall_s_raw": traced,
                     "unit_factor": [untraced_factor, factor], "spans": len(spans),
                     "span_file": str(span_path.relative_to(ROOT))}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.make(args.workload, args.seed, args.size, OUT_DIR)
    if args.setup_only:
        return 0
    env = environment()
    tally = workloads.Tally()
    try:
        if args.trace:
            workload.check_anchor(tally)
            span_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
            metrics, detail = traced_run(workload, tally, span_path)
        else:
            setup_s = measure_setup(args, workload.meter)
            workload.check_anchor(tally)
            metrics, detail = timed_run(workload, tally, args.seconds)
            metrics["setup_s"] = setup_s
    except Exception:
        traceback.print_exc()
        print("perfbench: workload raised; no result", file=sys.stderr)
        return 1
    metrics["failed_share"] = tally.failed / max(tally.attempted, 1)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "env": env, **detail,
              "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}}
    print(json.dumps(report))
    names = PER_LAYER if args.trace else END_TO_END
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": metrics[k], "unit": UNITS[k]} for k in names}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
