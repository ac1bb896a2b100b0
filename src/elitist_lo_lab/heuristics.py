"""Concrete elitist (1+1) strategies: RLS, the (1+1) EA, and memlog, the
marker-block strategy that reaches the optimum in O(n log n) queries using
n + O(log n) bits of extra state.

All three consult only three-way comparison outcomes.  RLS draws its index
by `randrange`'s rejection loop (one or more `getrandbits` calls per step)
and the (1+1) EA a geometric-skip stream of `random` calls, which the
unbiasedness coupling tests rely on.
"""
from __future__ import annotations

import functools
import math
import random

from .lo_core import EQUAL, GREATER, LESS, BitString, Ordering, _unchecked


def rls_step(x: BitString, rng: random.Random) -> BitString:
    """Flip exactly one position, chosen uniformly at random.

    The index is drawn as `rng.randrange(n)` draws it, `getrandbits` of
    n.bit_length() bits until one is below n, without randrange's two frames.
    """
    n = x.n
    k = n.bit_length()
    i = rng.getrandbits(k)
    while i >= n:
        i = rng.getrandbits(k)
    return x.flip(i)


@functools.cache
def _log_keep(n: int) -> float:
    """log(1 - 1/n), the log-probability that a position is not flipped."""
    return math.log(1.0 - 1.0 / n)


def oea_step(x: BitString, rng: random.Random) -> BitString:
    """Flip each position independently with probability 1/n.

    The all-zero flip mask (offspring equal to the parent) is allowed.
    Positions are visited by geometric skips, so the cost is proportional to
    the number of flips rather than to n.
    """
    n = x.n
    if n == 1:
        return x.flip(0)
    log_keep = _log_keep(n)
    log, floor = math.log, math.floor
    draw = rng.random
    word = x.word
    i = 0
    while True:
        u = draw()
        if u <= 0.0:
            break
        i += floor(log(u) / log_keep)  # = int(): the quotient is >= 0
        if i >= n:
            break
        word ^= 1 << i
        i += 1
    return _unchecked(n, word)  # every flipped i is below n


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
    """Marker block B1 and the bounded halving record B2, plus two caches
    derived from them.

    B1 and B2 (with the phase flag) are the strategy's state; `pack_state`
    serializes exactly these and the runner checks them against
    `state_budget_bits`.  `free` lists the zero-B1 positions in ascending
    order and is a function of B1 alone.  While halving, the candidate set
    P0 is `free[lo:lo + p0_size]` and `p0_mask` holds the same positions as
    a word; both are recomputable from B1 and B2.
    Halving keeps the first or the second half of P0 in that order, so P0
    stays a contiguous slice of `free` and the first half is cut off
    `p0_mask` just above the position `free[lo + half - 1]`.
    """

    __slots__ = ("n", "b1", "outcomes", "halving", "p0_mask", "p0_size", "pending_first",
                 "free", "lo")

    def __init__(self, n: int):
        self.n = n
        self.b1 = 0                       # marker word, one bit per position
        self.outcomes: list[int] = []     # B2: 1 = kept first half, 0 = second
        self.halving = False
        self.p0_mask = 0                  # candidate cache, P0 as a word
        self.p0_size = 0
        self.pending_first = 0            # first-half mask of the pending query
        self.free = list(range(n))        # zero-B1 positions, ascending (cache)
        self.lo = 0                       # P0 = free[lo:lo + p0_size]


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
        # P0's first half is free[lo:lo + half]: cut p0_mask above its last
        last = state.free[state.lo + (state.p0_size + 1) // 2 - 1]
        first = state.p0_mask & ((2 << last) - 1)
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
            count = len(state.free)
            if count == 1:
                state.b1 |= zeros
                state.free.clear()
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
            state.lo += half
        if state.p0_size == 1:
            state.b1 |= state.p0_mask
            del state.free[state.lo]
            self._reset_halving(state)

    @staticmethod
    def _reset_halving(state: MemlogState) -> None:
        state.halving = False
        state.outcomes = []
        state.p0_mask = 0
        state.p0_size = 0
        state.pending_first = 0
        state.lo = 0

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
