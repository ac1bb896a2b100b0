"""memlog's halving select against its bisection reference.

`Memlog.step` cuts the first half of the candidate set P0 off `p0_mask` at a
position read from `free`, the ascending list of unmarked positions, so a
halving query costs one shift, one subtract and one AND.  The reference
below is the form it replaced, kept verbatim: it bisects for the narrowest
low window of `p0_mask` holding half of P0's positions.  Every run must
agree query for query: records, observer events, the oracle's
`best_fitness_seen` and the packed state after every step.
"""
import hashlib
import math
import random

import pytest

from elitist_lo_lab.framework import run_one_plus_one
from elitist_lo_lab.heuristics import Memlog, memlog_query_bound
from elitist_lo_lab.lo_core import (
    EQUAL,
    GREATER,
    LESS,
    BitString,
    CountingOracle,
    Ordering,
    random_instance,
    set_bits,
)


# -- reference implementation ----------------------------------------------------


def lowest_set_bits(mask: int, count: int) -> int:
    """Mask of the `count` lowest set bits of mask (all of them if fewer).

    Bisects for the narrowest low window of mask holding `count` set bits.
    """
    lo, hi = 0, mask.bit_length()
    while lo < hi:
        mid = (lo + hi) // 2
        if (mask & ((1 << mid) - 1)).bit_count() < count:
            lo = mid + 1
        else:
            hi = mid
    return mask & ((1 << lo) - 1)


class ReferenceMemlogState:
    __slots__ = ("n", "b1", "outcomes", "halving", "p0_mask", "p0_size", "pending_first")

    def __init__(self, n: int):
        self.n = n
        self.b1 = 0                       # marker word, one bit per position
        self.outcomes: list[int] = []     # B2: 1 = kept first half, 0 = second
        self.halving = False
        self.p0_mask = 0                  # candidate cache, = candidate_positions()
        self.p0_size = 0
        self.pending_first = 0            # first-half mask of the pending query


class ReferenceMemlog:
    """Memlog with the bisection select."""

    name = "memlog"

    def fresh_state(self, n: int, rng: random.Random) -> ReferenceMemlogState:
        return ReferenceMemlogState(n)

    def step(self, incumbent: BitString, state: ReferenceMemlogState,
             rng: random.Random) -> BitString:
        if not state.halving:
            # probe: flip all zero-B1 positions at once
            mask = ((1 << incumbent.n) - 1) ^ state.b1
            if mask == 0:
                raise RuntimeError("memlog probe with all positions marked")
            return incumbent.flip_mask(mask)
        first = lowest_set_bits(state.p0_mask, (state.p0_size + 1) // 2)
        state.pending_first = first
        return incumbent.flip_mask(first)

    def learn(self, outcome: Ordering, state: ReferenceMemlogState) -> None:
        if not state.halving:
            if outcome == GREATER:
                return  # fitness grew; probe again
            if outcome == EQUAL:
                raise RuntimeError("memlog invariant violated: probe came back EQUAL")
            # LESS: some marked-prefix gap exists; search zeros(B1) for it
            zeros = ((1 << state.n) - 1) ^ state.b1
            count = zeros.bit_count()
            if count == 1:
                state.b1 |= zeros
                return
            state.halving = True
            state.outcomes = []
            state.p0_mask = zeros
            state.p0_size = count
            return
        if outcome == GREATER:
            # forced accept; fitness only grew, so B1 stays valid
            self._reset_halving(state)
            return
        state.outcomes.append(1 if outcome == LESS else 0)
        half = (state.p0_size + 1) // 2
        first = state.pending_first
        if outcome == LESS:
            state.p0_mask = first
            state.p0_size = half
        else:
            state.p0_mask ^= first
            state.p0_size -= half
        if state.p0_size == 1:
            state.b1 |= state.p0_mask
            self._reset_halving(state)

    @staticmethod
    def _reset_halving(state: ReferenceMemlogState) -> None:
        state.halving = False
        state.outcomes = []
        state.p0_mask = 0
        state.p0_size = 0
        state.pending_first = 0

    def state_budget_bits(self, n: int) -> int:
        # B1 (n bits) + self-delimited halving record (ceil(log2 n) + 1 bits)
        # + phase flag and byte padding
        return n + max(1, math.ceil(math.log2(n))) + 16

    def pack_state(self, state: ReferenceMemlogState) -> bytes:
        n = state.n
        record = 1
        for bit in state.outcomes:
            record = (record << 1) | bit
        packed = state.b1 | (record << n) | (int(state.halving) << (n + record.bit_length()))
        nbytes = (n + record.bit_length() + 2 + 7) // 8
        return packed.to_bytes(max(nbytes, 1), "little")


# -- recording a run ---------------------------------------------------------------


# from this n on, a run's trace is compared as a running sha256: its offspring
# and packed states would take tens of MB as lists at n = 4096
WIDE = 1024


class Trace:
    """A run's observer events and packed states, in order: kept as a list
    below WIDE, folded into a sha256 from WIDE on."""

    def __init__(self, n):
        self.nbytes = (n + 7) // 8
        self.items = [] if n < WIDE else None
        self.sha = hashlib.sha256()

    def _word(self, x):
        return x.word.to_bytes(self.nbytes, "little")

    def event(self, event):
        if self.items is not None:
            self.items.append(event)
        elif event[0] == "init":
            self.sha.update(b"i" + self._word(event[1]))
        else:
            _, _, offspring, outcome, accepted = event
            self.sha.update(b"s%d%d" % (outcome + 1, accepted) + self._word(offspring))

    def packed(self, data):
        if self.items is not None:
            self.items.append(data)
        else:
            self.sha.update(b"p%d:" % len(data) + data)

    def value(self):
        return self.items if self.items is not None else self.sha.hexdigest()


class Recorded:
    """Strategy proxy that logs every packed state and keeps the run's state."""

    def __init__(self, inner, trace):
        self.name = inner.name
        self.inner = inner
        self.trace = trace
        self.state = None
        self.step = inner.step
        self.learn = inner.learn
        self.state_budget_bits = inner.state_budget_bits

    def fresh_state(self, n, rng):
        self.state = self.inner.fresh_state(n, rng)
        return self.state

    def pack_state(self, state):
        data = self.inner.pack_state(state)
        self.trace.packed(data)
        return data


def _run(make_strategy, inst, seed, budget, accept_equal):
    trace = Trace(inst.n)
    strategy = Recorded(make_strategy(), trace)
    oracles = []

    def counting_oracle(instance, record_queries):
        oracles.append(CountingOracle(instance, record_queries=record_queries))
        return oracles[-1]

    rec = run_one_plus_one(strategy, inst, seed, budget, accept_equal=accept_equal,
                           oracle=counting_oracle, observer=trace.event,
                           record_queries=inst.n < WIDE)
    return rec, trace.value(), oracles[0], strategy.state


def _assert_same_run(inst, seed, budget, accept_equal):
    """Run both selects; return the reference record and whether the run was
    cut inside a halving phase."""
    ref, ref_trace, ref_oracle, ref_state = _run(ReferenceMemlog, inst, seed, budget,
                                                 accept_equal)
    new, new_trace, new_oracle, new_state = _run(Memlog, inst, seed, budget, accept_equal)
    assert new == ref
    assert new.queries == ref.queries  # RunRecord equality skips them
    assert new_trace == ref_trace
    assert new_oracle.best_fitness_seen == ref_oracle.best_fitness_seen
    assert new_oracle.query_count == ref_oracle.query_count
    return ref, ref.budget_exhausted and ref_state.halving


# -- the select, query for query ---------------------------------------------------


SIZES = (1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 255, 256, 257)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("accept_equal", (True, False))
def test_select_matches_reference(n, accept_equal):
    mid_halving = 0
    for seed in range(3):
        inst = random_instance(n, random.Random(8000 + 10 * n + seed))
        ref, _ = _assert_same_run(inst, seed, None, accept_equal)
        assert ref.hit_optimum
        assert ref.total_queries <= memlog_query_bound(n)
        # cuts spread over the run, most of them land inside a halving phase
        total = ref.total_queries
        for budget in sorted({0, 1, 2, total // 3, total // 2, total - 1}):
            _, cut_halving = _assert_same_run(inst, seed, budget, accept_equal)
            mid_halving += cut_halving
    if n >= 3:  # at n <= 2 every probe LESS marks its singleton at once
        assert mid_halving > 0


@pytest.mark.parametrize("n,seeds,accept_equal", [
    (1024, (0, 1), (True, False)),
    (4096, (0,), (True,)),
])
def test_select_matches_reference_wide(n, seeds, accept_equal):
    mid_halving = 0
    for seed in seeds:
        inst = random_instance(n, random.Random(8000 + n + seed))
        for accept in accept_equal:
            ref, _ = _assert_same_run(inst, seed, None, accept)
            assert ref.hit_optimum
            _, cut_halving = _assert_same_run(inst, seed, ref.total_queries // 2 + 1, accept)
            mid_halving += cut_halving
    assert mid_halving > 0


def test_select_matches_reference_many_small_cases():
    rng = random.Random(81)
    for trial in range(200):
        n = rng.randrange(1, 40)
        inst = random_instance(n, rng)
        _assert_same_run(inst, trial, rng.choice((None, rng.randrange(1, 8 * n + 4))),
                         accept_equal=rng.random() < 0.5)


def test_select_matches_reference_on_scripted_outcomes():
    # outcomes drawn at random instead of by an oracle reach states no run
    # reaches, such as a probe coming back LESS with one unmarked position
    rng = random.Random(5)
    singleton_probes = 0
    for trial in range(300):
        n = rng.randrange(1, 40)
        full = (1 << n) - 1
        x = BitString.random(n, rng)
        ref, new = ReferenceMemlog(), Memlog()
        ref_state, new_state = ref.fresh_state(n, rng), new.fresh_state(n, rng)
        while ref_state.b1 != full:
            y = new.step(x, new_state, rng)
            assert y == ref.step(x, ref_state, rng)
            if new_state.halving:
                outcome = rng.choices((LESS, EQUAL, GREATER), (9, 9, 2))[0]
            else:
                outcome = rng.choices((LESS, GREATER), (9, 1))[0]
                singleton_probes += outcome == LESS and len(new_state.free) == 1
            new.learn(outcome, new_state)
            ref.learn(outcome, ref_state)
            assert new.pack_state(new_state) == ref.pack_state(ref_state)
            assert new_state.free == set_bits(full ^ new_state.b1)
            if outcome == GREATER:
                x = y
        with pytest.raises(RuntimeError):
            new.step(x, new_state, rng)
    assert singleton_probes > 0


# -- the reference's bisection -----------------------------------------------------


def test_lowest_set_bits_matches_naive_scan():
    rng = random.Random(3)
    cases = [(0, 0), (0, 3), (rng.getrandbits(50), 0), ((1 << 4096) - 1, 0)]
    for _ in range(500):
        n = rng.randrange(1, 160)
        cases.append((rng.getrandbits(n), rng.randrange(0, n + 2)))
    for n in (64, 65, 200, 1024, 4096):
        # masks with at least 64 set bits
        mask = rng.getrandbits(n) | sum(1 << i for i in rng.sample(range(n), 64))
        total = mask.bit_count()
        cases += [(mask, 0), (mask, 1), (mask, 63), (mask, 64), (mask, total // 2),
                  (mask, total), (mask, total + 1), (mask, rng.randrange(total + 1))]
    for mask, count in cases:
        positions = [i for i in range(mask.bit_length()) if (mask >> i) & 1]
        want = sum(1 << i for i in positions[:count])
        assert lowest_set_bits(mask, count) == want
