"""Per-layer split of a simulation unit, timed at the calls into each layer.

While a `Tracer` is installed it replaces these attributes of the program's
modules and puts them back on exit:

  * harness.rep_seed, harness.random_instance -- instance set-up per run;
  * framework.CountingOracle -- oracle construction inside the runner;
  * harness.run_one_plus_one -- the whole run, with the strategy wrapped in
    `TimedStrategy` (step, learn, pack_state) and the runner's `observer`
    hook recording every (incumbent, offspring, outcome);
  * harness.record_csv_line, framework.RunRecord.to_json -- serialization.

`CountingOracle.compare` is not wrapped: after each run its recorded
(incumbent, offspring) pairs are replayed through a fresh oracle, which
gives the compare time without a proxy in the hot loop, and every replayed
outcome must equal the recorded one.  Replay time is bookkeeping and is kept
out of the traced unit's wall time.

Spans stay in memory as (name, start_ns, end_ns, parent, attrs) tuples.  A
run span carries its per-query children (one step, learn, compare and, for
memlog, pack_state per step) as nanosecond totals rather than one span per
query.
"""
from __future__ import annotations

import json
import time

from elitist_lo_lab import framework, harness, lo_core

clock = time.perf_counter_ns

# share of compares whose flip mask reaches the oracle's wide-path threshold
WIDE_BITS = 48


class TimedStrategy:
    """Strategy proxy that times step, learn and (when declared) pack_state."""

    def __init__(self, inner):
        self.name = inner.name
        self.fresh_state = inner.fresh_state
        self._step = inner.step
        self._learn = inner.learn
        self.step_ns = self.learn_ns = self.pack_ns = 0
        if hasattr(inner, "state_budget_bits"):
            self.state_budget_bits = inner.state_budget_bits
            self._pack = inner.pack_state
            self.pack_state = self._pack_state

    def step(self, incumbent, state, rng):
        t0 = clock()
        out = self._step(incumbent, state, rng)
        self.step_ns += clock() - t0
        return out

    def learn(self, outcome, state):
        t0 = clock()
        self._learn(outcome, state)
        self.learn_ns += clock() - t0

    def _pack_state(self, state):
        t0 = clock()
        out = self._pack(state)
        self.pack_ns += clock() - t0
        return out


def replay(inst, events):
    """Replay one run's compares; return (ns, compares, flipped bits, wide
    compares, mismatched outcomes)."""
    oracle = lo_core.CountingOracle(inst)
    oracle.submit(events[0][1])
    steps = events[1:]
    pairs = [(e[1], e[2]) for e in steps]
    compare = oracle.compare
    t0 = clock()
    outcomes = [compare(x, y) for x, y in pairs]
    ns = clock() - t0
    flips = [(x.word ^ y.word).bit_count() for x, y in pairs]
    mismatched = sum(got != e[3] for got, e in zip(outcomes, steps))
    return ns, len(pairs), sum(flips), sum(f >= WIDE_BITS for f in flips), mismatched


class Tracer:
    """Installs the timing wrappers for one traced unit (a context manager)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.t: dict[str, int] = dict.fromkeys((
            "queries", "run_ns", "step_ns", "learn_ns", "pack_ns",
            "compare_ns", "compares", "flips", "wide", "mismatched",
            "oracle_inits", "oracle_init_ns", "rep_seed_ns", "instances",
            "random_instance_ns", "serialized", "serialize_ns"), 0)
        self.bookkeeping_ns = 0
        self._parent = 0  # span 0 is the traced unit
        self._saved: list[tuple] = []

    def _patch(self, owner, attr, make):
        real = getattr(owner, attr)
        self._saved.append((owner, attr, real))
        setattr(owner, attr, make(real))

    def __enter__(self):
        t, spans = self.t, self.spans
        spans.append(None)
        self._start = clock()

        def timed(name, ns_key, count_key=None):
            def make(real):
                def wrapper(*args, **kwargs):
                    t0 = clock()
                    out = real(*args, **kwargs)
                    t1 = clock()
                    t[ns_key] += t1 - t0
                    if count_key:
                        t[count_key] += 1
                    spans.append((name, t0, t1, self._parent, None))
                    return out
                return wrapper
            return make

        self._patch(harness, "rep_seed", timed("harness.rep_seed", "rep_seed_ns"))
        self._patch(harness, "random_instance",
                    timed("lo_core.random_instance", "random_instance_ns", "instances"))
        self._patch(framework, "CountingOracle",
                    timed("lo_core.CountingOracle", "oracle_init_ns", "oracle_inits"))
        self._patch(harness, "record_csv_line",
                    timed("harness.record_csv_line", "serialize_ns", "serialized"))
        self._patch(framework.RunRecord, "to_json",
                    timed("framework.RunRecord.to_json", "serialize_ns", "serialized"))
        self._patch(harness, "run_one_plus_one", self._timed_run)
        return self

    def __exit__(self, *exc):
        self.spans[0] = ("unit", self._start, clock(), None, None)
        while self._saved:
            owner, attr, real = self._saved.pop()
            setattr(owner, attr, real)

    def _timed_run(self, real):
        t, spans = self.t, self.spans

        def run_one_plus_one(strategy, inst, seed, budget=None, **kwargs):
            proxy = TimedStrategy(strategy)
            events = []
            span = len(spans)
            spans.append(None)  # filled in below; children point at this index
            self._parent = span
            t0 = clock()
            rec = real(proxy, inst, seed, budget, observer=events.append, **kwargs)
            t1 = clock()
            self._parent = 0
            b0 = clock()
            compare_ns, compares, flips, wide, mismatched = replay(inst, events)
            del events
            t["queries"] += rec.total_queries
            t["run_ns"] += t1 - t0
            t["step_ns"] += proxy.step_ns
            t["learn_ns"] += proxy.learn_ns
            t["pack_ns"] += proxy.pack_ns
            t["compare_ns"] += compare_ns
            t["compares"] += compares
            t["flips"] += flips
            t["wide"] += wide
            t["mismatched"] += mismatched
            spans[span] = ("framework.run_one_plus_one", t0, t1, 0, {
                "algo": rec.algo, "n": rec.n, "queries": rec.total_queries,
                "steps": compares,
                "heuristics.step_ns": proxy.step_ns,
                "heuristics.learn_ns": proxy.learn_ns,
                "heuristics.pack_state_ns": proxy.pack_ns,
                "lo_core.compare_replayed_ns": compare_ns,
                "flipped_bits": flips, "mismatched": mismatched,
            })
            self.bookkeeping_ns += clock() - b0
            return rec

        return run_one_plus_one

    def metrics(self, factor: float) -> dict[str, float]:
        """Per-layer metrics, times per charged query unless noted and
        multiplied by the unit's scale factor."""
        t = self.t
        q = t["queries"]

        def per(key, base):
            return t[key] * factor / base / 1000.0 if base else 0.0

        run_us = per("run_ns", q)
        children = {
            "heuristics.step_us": per("step_ns", q),
            "heuristics.learn_us": per("learn_ns", q),
            "heuristics.pack_state_us": per("pack_ns", q),
            "lo_core.compare_us": per("compare_ns", q),
        }
        compares = t["compares"]
        return {
            **children,
            "lo_core.compare_calls": compares,
            "lo_core.flip_bits_mean": t["flips"] / compares if compares else 0.0,
            "lo_core.wide_share": t["wide"] / compares if compares else 0.0,
            "lo_core.oracle_init_us": per("oracle_init_ns", t["oracle_inits"]),
            "lo_core.random_instance_us": per("random_instance_ns", t["instances"]),
            "harness.instance_us": per("rep_seed_ns", t["instances"])
            + per("random_instance_ns", t["instances"]),
            "harness.serialize_us": per("serialize_ns", t["serialized"]),
            "framework.run_us_per_query": run_us,
            "framework.loop_overhead_us": run_us - sum(children.values()),
        }


def write_spans(path, spans) -> None:
    """One JSON object per span; `parent` is the index of the causing span."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, (name, start, end, parent, attrs) in enumerate(spans):
            row = {"id": i, "name": name, "start_ns": start, "end_ns": end, "parent": parent}
            if attrs:
                row.update(attrs)
            fh.write(json.dumps(row) + "\n")
