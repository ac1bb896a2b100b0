"""Concrete elitist (1+1) strategies: RLS, the (1+1) EA, and memlog, the
marker-block strategy that reaches the optimum in O(n log n) queries using
n + O(log n) bits of extra state.

All three consult only three-way comparison outcomes.  RLS consumes exactly
one rng draw per step and the (1+1) EA a geometric-skip stream, which the
unbiasedness coupling tests rely on.
"""
from __future__ import annotations

import math
import random

import numpy as np

from .framework import run_one_plus_one, RunRecord
from .lo_core import EQUAL, GREATER, LESS, BitString, LoInstance, Ordering, set_bits


def rls_step(x: BitString, rng: random.Random) -> BitString:
    """Flip exactly one position, chosen uniformly at random."""
    return x.flip(rng.randrange(x.n))


def oea_step(x: BitString, rng: random.Random) -> BitString:
    """Flip each position independently with probability 1/n.

    The all-zero flip mask (offspring equal to the parent) is allowed.
    Positions are visited by geometric skips, so the cost is proportional to
    the number of flips rather than to n.
    """
    n = x.n
    if n == 1:
        return x.flip(0)
    log_keep = math.log(1.0 - 1.0 / n)
    word = x.word
    i = 0
    while True:
        u = rng.random()
        if u <= 0.0:
            break
        i += int(math.log(u) / log_keep)
        if i >= n:
            break
        word ^= 1 << i
        i += 1
    return BitString(n, word)


class Rls:
    """Randomized local search: uniform single-bit flips, no state."""

    name = "rls"

    def fresh_state(self, n: int, rng: random.Random):
        return None

    def step(self, incumbent: BitString, state, rng: random.Random) -> BitString:
        return rls_step(incumbent, rng)

    def learn(self, outcome: Ordering, state) -> None:
        pass


class OneEa:
    """The (1+1) EA: standard-bit-mutation offspring, no state."""

    name = "oea"

    def fresh_state(self, n: int, rng: random.Random):
        return None

    def step(self, incumbent: BitString, state, rng: random.Random) -> BitString:
        return oea_step(incumbent, rng)

    def learn(self, outcome: Ordering, state) -> None:
        pass


class MemlogState:
    """Marker block B1, the bounded halving record B2, and the derived
    candidate set P0 (a cache, recomputable from B1 and B2)."""

    __slots__ = ("n", "b1", "outcomes", "halving", "p0_mask", "p0_size", "pending_first")

    def __init__(self, n: int):
        self.n = n
        self.b1 = 0                       # marker word, one bit per position
        self.outcomes: list[int] = []     # B2: 1 = kept first half, 0 = second
        self.halving = False
        self.p0_mask = 0                  # candidate cache, = candidate_positions()
        self.p0_size = 0
        self.pending_first = 0            # first-half mask of the pending query


def lowest_set_bits(mask: int, count: int) -> int:
    """Mask of the `count` lowest set bits of mask (all of them if fewer)."""
    if mask.bit_count() >= 64:
        nbytes = (mask.bit_length() + 7) // 8
        raw = np.frombuffer(mask.to_bytes(nbytes, "little"), dtype=np.uint8)
        bits = np.unpackbits(raw, bitorder="little")
        keep = bits & (np.cumsum(bits) <= count)
        return int.from_bytes(np.packbits(keep, bitorder="little").tobytes(), "little")
    out = 0
    for pos in set_bits(mask)[:count]:
        out |= 1 << pos
    return out


def candidate_positions(state: MemlogState) -> list[int]:
    """Recompute P0 from B1 and the halving record (checks the cache is
    genuinely derived state)."""
    p0 = [i for i in range(state.n) if not (state.b1 >> i) & 1]
    for bit in state.outcomes:
        half = (len(p0) + 1) // 2
        p0 = p0[:half] if bit else p0[half:]
    return p0


class Memlog:
    """Marker-block strategy.

    B1 marks positions known to lie among the first f(x) significant
    positions.  A phase starts with a probe that flips every zero-B1 position
    at once: the outcome is GREATER exactly when B1 already marks the whole
    significant prefix (fitness grows, B2 resets), and LESS otherwise, which
    starts a binary search for a markable position inside P0 = zeros(B1).
    During halving, GREATER accepts the offspring and resets B2, LESS keeps
    the first half of P0, EQUAL keeps the second half; a singleton P0 is
    marked in B1 without a further query.

    The strategy cannot read f(x), so the dichotomy "does B1 mark the whole
    prefix" is decided by the probe's comparison outcome; after any accepted
    jump the next probe restarts the halving from P0 = zeros(B1).  Every
    phase costs at most ceil(log2 n) + 1 queries and increases
    f(x) + popcount(B1), so a run needs at most 2n(ceil(log2 n) + 2) queries
    including the initial sample.
    """

    name = "memlog"

    def fresh_state(self, n: int, rng: random.Random) -> MemlogState:
        return MemlogState(n)

    def step(self, incumbent: BitString, state: MemlogState,
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

    def learn(self, outcome: Ordering, state: MemlogState) -> None:
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
    def _reset_halving(state: MemlogState) -> None:
        state.halving = False
        state.outcomes = []
        state.p0_mask = 0
        state.p0_size = 0
        state.pending_first = 0

    # -- state budget --------------------------------------------------------

    def state_budget_bits(self, n: int) -> int:
        # B1 (n bits) + self-delimited halving record (ceil(log2 n) + 1 bits)
        # + phase flag and byte padding
        return n + max(1, math.ceil(math.log2(n))) + 16

    def pack_state(self, state: MemlogState) -> bytes:
        n = state.n
        record = 1
        for bit in state.outcomes:
            record = (record << 1) | bit
        packed = state.b1 | (record << n) | (int(state.halving) << (n + record.bit_length()))
        nbytes = (n + record.bit_length() + 2 + 7) // 8
        return packed.to_bytes(max(nbytes, 1), "little")


def memlog_run(inst: LoInstance, seed: int, budget: int | None = None,
               observer=None) -> RunRecord:
    """Run memlog through the elitist (1+1) runner with its declared
    extra-state budget enforced."""
    return run_one_plus_one(Memlog(), inst, seed, budget, observer=observer)


def memlog_query_bound(n: int) -> int:
    """Worst-case total queries for a memlog run, initial sample included."""
    return 2 * n * (max(1, math.ceil(math.log2(n))) + 2)


STRATEGIES = {
    "rls": Rls,
    "oea": OneEa,
    "memlog": Memlog,
}


def make_strategy(name: str):
    try:
        return STRATEGIES[name]()
    except KeyError:
        raise ValueError(f"unknown strategy {name!r}; known: {sorted(STRATEGIES)}") from None
