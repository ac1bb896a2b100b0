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
with numpy, in one level-skipping engine, `framework._skip_levels`, over
chunks of rls's positions (`framework._rls_chunks`) or of the EA's masks
(`framework._oea_chunks`).  This module stays numpy-free.
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
    lo, hi = 0, mask.bit_length() if count > 0 else 0  # count <= 0 selects nothing
    above = mask.bit_count() - count  # set bits that stay above the window
    while lo < hi:
        mid = (lo + hi) // 2
        if (mask >> mid).bit_count() > above:
            lo = mid + 1
        else:
            hi = mid
    return mask & ((1 << lo) - 1)


class MemlogState:
    """Marker block B1, halving record B2 and the phase flag: exactly what
    `pack_state` packs and the protocol loop charges to `state_budget_bits`.

    B2 is `record`, a self-delimited int: a leading 1, then one bit per
    halving outcome (1 = kept the first half, 0 = the second), so it is 1
    outside halving.  The candidate set P0 is read off it (`_window`).
    Only the protocol loop builds a `MemlogState`.
    """

    __slots__ = ("n", "b1", "record", "halving")

    def __init__(self, n: int):
        self.n = n
        self.b1 = 0          # marker word, one bit per position
        self.record = 1      # B2: leading 1, then one bit per halving
        self.halving = False


def _window(size: int, record: int) -> tuple[int, int]:
    """P0 as the index window [lo, hi) into the `size` zeros of B1: from
    (0, size), each of B2's outcome bits, highest first, keeps
    [lo, mid) (1) or [mid, hi) (0), with mid = (lo + hi + 1) >> 1."""
    lo, hi = 0, size
    for i in range(record.bit_length() - 2, -1, -1):
        mid = (lo + hi + 1) >> 1
        if record >> i & 1:
            hi = mid
        else:
            lo = mid
    return lo, hi


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

    P0 is the index window [lo, hi) into zeros(B1) that `_window` reads
    off B2, and a halving query flips the zeros of index in [lo, mid),
    selected with `lowest_set_bits`.  B2 gets one bit per halving query
    that leaves P0 with two or more positions, so it has at most
    max(1, ceil(log2 n)) bits, its leading 1 included: a full B1, that B2
    and the phase flag are exactly `state_budget_bits(n)`.  A plain
    `Memlog` run takes `run_one_plus_one`'s fused loop, which runs a
    search (the probe and its halving queries) at a time on small ints,
    from where P0's first half ends against the lowest unmarked position
    of rank < f and against sigma[f], and calls none of these methods; a
    subclass does not, and the protocol loop checks its budget after
    every step.
    """

    __slots__ = ()
    name = "memlog"

    def fresh_state(self, n: int, rng: random.Random) -> MemlogState:
        return MemlogState(n)

    def step(self, incumbent: BitString, state: MemlogState,
             rng: random.Random) -> BitString:
        zeros = ((1 << state.n) - 1) ^ state.b1
        if not state.halving:
            # probe: flip all zero-B1 positions at once
            if zeros == 0:
                raise RuntimeError("memlog probe with all positions marked")
            return incumbent.flip_mask(zeros)
        lo, hi = _window(zeros.bit_count(), state.record)
        low = lowest_set_bits(zeros, (lo + hi + 1) >> 1)  # the zeros of index < mid
        return incumbent.flip_mask(low ^ lowest_set_bits(low, lo))

    def learn(self, outcome: Ordering, state: MemlogState) -> None:
        size = state.n - state.b1.bit_count()  # L, the number of zeros of B1
        if not state.halving:
            if outcome == GREATER:
                return  # fitness grew; probe again
            if outcome == EQUAL:
                raise RuntimeError("memlog invariant violated: probe came back EQUAL")
            # LESS: some marked-prefix gap exists; search zeros(B1) for it
            if size == 1:  # only scripted outcome sequences reach this
                state.b1 = (1 << state.n) - 1  # mark the one zero
                return
            state.halving = True
            return
        if outcome == GREATER:
            # forced accept; fitness only grew, so B1 stays valid
            state.record, state.halving = 1, False
            return
        lo, hi = _window(size, state.record)
        mid = (lo + hi + 1) >> 1
        if outcome == LESS:
            state.record = (state.record << 1) | 1
            hi = mid
        else:
            state.record <<= 1
            lo = mid
        if hi - lo == 1:  # mark P0's one position, the zero of index lo
            zeros = ((1 << state.n) - 1) ^ state.b1
            rest = zeros ^ lowest_set_bits(zeros, lo)
            state.b1 |= rest & -rest
            state.record, state.halving = 1, False

    # -- state budget --------------------------------------------------------

    def state_budget_bits(self, n: int) -> int:
        # B1 (n bits) + the longest B2 (max(1, ceil(log2 n)) bits) + the
        # phase flag; (n - 1).bit_length() is ceil(log2 n) exactly
        return n + max(1, (n - 1).bit_length()) + 1

    def pack_state(self, state: MemlogState) -> int:
        """B1 in the low n bits, B2 above it, then the phase flag."""
        n, record = state.n, state.record
        return state.b1 | record << n | state.halving << (n + record.bit_length())


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
