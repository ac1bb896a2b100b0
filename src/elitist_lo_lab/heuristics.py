"""Concrete elitist (1+1) strategies: RLS, the (1+1) EA, and memlog, the
marker-block strategy that reaches the optimum in O(n log n) queries using
n + O(log n) bits of extra state.

All three consult only three-way comparison outcomes.  RLS draws its index
by `randrange`'s rejection loop (one or more `getrandbits` calls per step)
and the (1+1) EA a geometric-skip stream of `random` calls, which the
unbiasedness coupling tests rely on.

These classes are the plain reference form of each strategy, which
`run_one_plus_one`'s protocol loop runs.  A plain run of exactly `Rls`,
`OneEa` or `Memlog` takes `framework._run_fused` instead, with that type's
body from `framework._LOOPS`, which must make the same draws and return
the same record.  The three classes have empty `__slots__`, so a plain
instance has exactly its class's methods and memlog's declared state
budget, which holds by construction and which no fused run checks;
another budget or method takes a subclass, which runs the protocol loop.
Every run accepts ties (an offspring that is not LESS).
The fused (1+1) EA body inlines `oea_mask` and ends each mask on a
threshold from `_stop_below` rather than `oea_mask`'s last log and floor.
From n = `framework._SKIP_FROM[cls]` on, the fused rls and (1+1) EA runs
draw their rng words in bulk and compute the same positions and steps
with numpy (`framework._skip_levels`); this module stays numpy-free.
"""
from __future__ import annotations

import functools
import math
import random

from .lo_core import EQUAL, GREATER, LESS, BitString, Ordering


def rls_step(x: BitString, rng: random.Random) -> BitString:
    """Flip exactly one position, chosen uniformly at random."""
    return x.flip(rng.randrange(x.n))


@functools.cache
def _log_keep(n: int) -> float:
    """log(1 - 1/n), the log-probability that a position is not flipped."""
    return math.log(1.0 - 1.0 / n)


@functools.cache
def _stop_below(n: int) -> list[float]:
    """For n >= 2, thresholds on which `oea_mask`'s skip loop surely ends:
    a draw u < below[i] taken at position i skips to n or beyond.

    below[i] is (1 - 1/n)^(n - i) less a relative margin of 1e-9, so the
    exact log(u) / _log_keep(n) for such a u exceeds n - i by about
    1e-9 * n, far above the float error of the loop's quotient (every
    threshold is at least 1/4, so no tiny u is involved).  below[n] is inf:
    a mask whose last flip is at n - 1 ends on its next draw.
    """
    log_keep = _log_keep(n)
    return [math.exp((n - i) * log_keep) * (1 - 1e-9) for i in range(n)] + [math.inf]


def oea_mask(n: int, rng: random.Random) -> int:
    """A standard-bit-mutation flip mask: each of the n positions is set
    independently with probability 1/n.

    The all-zero mask (offspring equal to the parent) is allowed; at n = 1
    the mask is 1 and nothing is drawn.  Positions are visited by geometric
    skips, so the cost is proportional to the number of flips rather than
    to n, and every set bit is below n.
    """
    if n == 1:
        return 1
    log_keep = _log_keep(n)
    log, floor = math.log, math.floor
    draw = rng.random
    mask = 0
    i = 0
    while True:
        u = draw()
        if u <= 0.0:
            break
        i += floor(log(u) / log_keep)  # = int(): the quotient is >= 0
        if i >= n:
            break
        mask |= 1 << i
        i += 1
    return mask


def oea_step(x: BitString, rng: random.Random) -> BitString:
    """Flip each position independently with probability 1/n (`oea_mask`)."""
    n = x.n
    return BitString(n, x.word ^ oea_mask(n, rng))


class Rls:
    """Randomized local search: uniform single-bit flips, no state.

    A plain `Rls` run takes `run_one_plus_one`'s fused loop, which makes
    the draws of `rls_step` without calling `step`; a subclass does not.
    """

    __slots__ = ()
    name = "rls"

    def fresh_state(self, n: int, rng: random.Random):
        return None

    def step(self, incumbent: BitString, state, rng: random.Random) -> BitString:
        return rls_step(incumbent, rng)

    def learn(self, outcome: Ordering, state) -> None:
        pass


class OneEa:
    """The (1+1) EA: standard-bit-mutation offspring, no state.

    A plain `OneEa` run takes `run_one_plus_one`'s fused loop, which makes
    the draws of `oea_mask` without calling `step`; a subclass does not.
    """

    __slots__ = ()
    name = "oea"

    def fresh_state(self, n: int, rng: random.Random):
        return None

    def step(self, incumbent: BitString, state, rng: random.Random) -> BitString:
        return oea_step(incumbent, rng)

    def learn(self, outcome: Ordering, state) -> None:
        pass


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


class MemlogState:
    """Marker block B1 and the bounded halving record B2, plus the
    candidate cache derived from them.

    B1 and B2 (with the phase flag) are the strategy's state; `pack_state`
    serializes exactly these and the runner checks them against
    `state_budget_bits`.  B2 is `record`, a self-delimited int: a leading 1,
    then one bit per halving outcome (1 = kept the first half, 0 = the
    second), so it is 1 outside halving.  While halving, `p0_mask` holds the
    candidate set P0 as a word and `p0_size` its size; both are recomputable
    from B1 and B2.  `p0_size` is 0 outside halving and at least 2 within
    it, so it doubles as the phase flag.

    Only the protocol loop builds a `MemlogState`; `run_one_plus_one`'s
    fused memlog loop keeps B1's zeros as a word and a list, and P0 and
    B2's length as small ints.
    """

    __slots__ = ("n", "b1", "record", "p0_mask", "p0_size", "pending")

    def __init__(self, n: int):
        self.n = n
        self.b1 = 0                       # marker word, one bit per position
        self.record = 1                   # B2: leading 1, then one bit per halving
        self.p0_mask = 0                  # candidate cache, P0 as a word
        self.p0_size = 0
        self.pending = 0                  # flip mask of the pending query


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

    A halving query flips P0's first half, `lowest_set_bits` of `p0_mask`.
    B2 gets one bit per halving query that leaves P0 with two or more
    positions, so it has at most max(1, ceil(log2 n)) bits, its leading 1
    included, and the declared budget, `state_budget_bits(n)`, fits a full
    B1 with it and the phase flag by construction.  A plain `Memlog` run
    takes `run_one_plus_one`'s fused loop, which runs a search (the probe
    and its halving queries) at a time on small ints, from where P0's
    first half ends against the lowest unmarked position of rank < f and
    against sigma[f], and calls none of these methods; a subclass does
    not, and the protocol loop checks its budget after every step.
    """

    __slots__ = ()
    name = "memlog"

    def fresh_state(self, n: int, rng: random.Random) -> MemlogState:
        return MemlogState(n)

    def step(self, incumbent: BitString, state: MemlogState,
             rng: random.Random) -> BitString:
        if not state.p0_size:
            # probe: flip all zero-B1 positions at once
            mask = ((1 << incumbent.n) - 1) ^ state.b1
            if mask == 0:
                raise RuntimeError("memlog probe with all positions marked")
            state.pending = mask
            return incumbent.flip_mask(mask)
        first = lowest_set_bits(state.p0_mask, (state.p0_size + 1) // 2)
        state.pending = first
        return incumbent.flip_mask(first)

    def learn(self, outcome: Ordering, state: MemlogState) -> None:
        if not state.p0_size:
            if outcome == GREATER:
                return  # fitness grew; probe again
            if outcome == EQUAL:
                raise RuntimeError("memlog invariant violated: probe came back EQUAL")
            # LESS: some marked-prefix gap exists; search zeros(B1) for it
            zeros = state.pending  # the probe's mask, zeros(B1)
            count = zeros.bit_count()
            if count == 1:  # only scripted outcome sequences reach this
                state.b1 |= zeros
                return
            state.p0_mask = zeros
            state.p0_size = count
            return
        if outcome == GREATER:
            # forced accept; fitness only grew, so B1 stays valid
            self._reset_halving(state)
            return
        half = (state.p0_size + 1) // 2
        first = state.pending
        if outcome == LESS:
            state.record = (state.record << 1) | 1
            state.p0_mask = first
            state.p0_size = half
        else:
            state.record <<= 1
            state.p0_mask ^= first
            state.p0_size -= half
        if state.p0_size == 1:
            state.b1 |= state.p0_mask
            self._reset_halving(state)

    @staticmethod
    def _reset_halving(state: MemlogState) -> None:
        state.record = 1
        state.p0_mask = 0
        state.p0_size = 0
        state.pending = 0

    # -- state budget --------------------------------------------------------

    def state_budget_bits(self, n: int) -> int:
        # B1 (n bits) + self-delimited halving record (ceil(log2 n) + 1 bits)
        # + phase flag and byte padding
        return n + max(1, math.ceil(math.log2(n))) + 16

    def pack_state(self, state: MemlogState) -> bytes:
        """B1 in the low n bits, B2 above it, then the phase flag, as
        ceil((n + len(B2) + 2) / 8) little-endian bytes."""
        n, record = state.n, state.record
        used = n + record.bit_length()  # bits below the phase flag
        packed = state.b1 | record << n | bool(state.p0_size) << used
        return packed.to_bytes((used + 9) >> 3, "little")


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
