"""The (1+1) elitist protocol runner: comparison-only information flow,
elitist selection, and run orchestration.

The runner owns the oracle and performs every comparison itself; a strategy
receives only three-way comparison outcomes, which makes the elitist
information restriction structural rather than conventional.

Runs are single-threaded; concurrent runs need disjoint oracle and state
objects.  The level-skipping engine draws from one numpy MT19937 per
thread, which each run overwrites with its own rng's state, so runs in
separate threads stay independent.  (strategy, instance, seed, budget)
fully determine a run.
"""
from __future__ import annotations

import ctypes
import functools
import json
import math
import random
import threading
from bisect import bisect_left
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Callable, Protocol

import numpy as np

from .heuristics import Memlog, OneEa, Rls, _log_keep, _stop_below
from .lo_core import (
    INIT_LEVEL,
    LESS,
    BitString,
    CountingOracle,
    LoInstance,
    Ordering,
    _climb,
)


class StateBudgetExceeded(RuntimeError):
    """A strategy's serialized state outgrew its declared bit budget."""


class Strategy(Protocol):
    """A (1+1) step rule.

    The runner calls `fresh_state` once per run, then alternates `step`
    (propose an offspring from the incumbent) and `learn` (receive the
    three-way comparison of the offspring against the incumbent).  Strategies
    never see numeric fitness values: the runner keeps the oracle and passes
    on comparison outcomes only.

    Optional extras:
      * state_budget_bits(n): declared bound on the packed state size; the
        runner enforces it after every step.
      * pack_state(state): serialize the state to bytes for enforcement;
        the runner calls it once per step.

    A plain run of `Rls`, `OneEa` or `Memlog` (exactly that class, no
    observer or oracle) takes its body in `_LOOPS`, which keeps the
    strategy's state in locals and calls none of its methods; each body
    runs a fitness level at a time, and memlog's declared state budget
    holds by construction, so nothing checks it.  These classes have
    empty `__slots__`, so a plain instance cannot override a method or
    the budget.  Such a run builds no `CountingOracle`: the rls and
    (1+1) EA bodies keep the incumbent's prefix mask as one int and extend
    it with `_climb`, as the oracle does, and memlog's keeps a heap of the
    prefix's unmarked positions.  From n = `_SKIP_FROM[cls]` on, the rls
    and (1+1) EA bodies charge each fitness level's queries at once from
    words drawn in bulk by a numpy MT19937 set to the run's rng state,
    which takes the generator's state back at the end.  A subclass always
    runs the protocol loop and its own methods.
    """

    name: str

    def fresh_state(self, n: int, rng: random.Random): ...

    def step(self, incumbent: BitString, state, rng: random.Random) -> BitString: ...

    def learn(self, outcome: Ordering, state) -> None: ...


@dataclass
class RunRecord:
    """One optimization run, as emitted by the runner."""

    algo: str
    n: int
    seed: int
    total_queries: int
    hit_optimum: bool
    budget_exhausted: bool
    per_level: list[tuple[int, int]]

    def to_json(self) -> str:
        """The record as one JSON object, fields in order and per_level as
        [level, count] pairs, with `json.dumps`'s default separators, built
        as one f-string; only `algo` needs `json.dumps` to be escaped."""
        per_level = ", ".join([f"[{k}, {c}]" for k, c in self.per_level])
        return (f'{{"algo": {json.dumps(self.algo)}, "n": {self.n}, "seed": {self.seed}, '
                f'"total_queries": {self.total_queries}, '
                f'"hit_optimum": {"true" if self.hit_optimum else "false"}, '
                f'"budget_exhausted": {"true" if self.budget_exhausted else "false"}, '
                f'"per_level": [{per_level}]}}')


def _finish_record(algo: str, inst: LoInstance, seed: int,
                   oracle: CountingOracle, budget_exhausted: bool) -> RunRecord:
    return RunRecord(
        algo=algo,
        n=inst.n,
        seed=seed,
        total_queries=oracle.query_count,
        hit_optimum=oracle.optimum_found,
        budget_exhausted=budget_exhausted,
        per_level=sorted(oracle.per_level_counts.items()),
    )


def run_one_plus_one(
    strategy: Strategy,
    inst: LoInstance,
    seed: int,
    budget: int | None = None,
    *,
    oracle: Callable[..., CountingOracle] | None = None,
    observer: Callable | None = None,
) -> RunRecord:
    """Run a (1+1) elitist strategy until the optimum is sampled or the
    budget (charged queries) is exhausted.

    The incumbent is replaced iff compare(offspring, incumbent) is not
    LESS, so ties are accepted; the protocol permits either tie rule.  The
    initial point is uniform.

    `seed` seeds the run's rng, whose first draw, the start point's
    `getrandbits(n)`, is the one `random_instance(n, random.Random(seed))`
    draws z with: one integer passed to both starts the run at the optimum.
    Derive two, as the harness does (`mix64(rs ^ 0x1)`, `mix64(rs ^ 0x2)`).

    `oracle`, when set, replaces the `CountingOracle` class: it is called as
    oracle(inst) and must return a CountingOracle.

    `observer`, when set, receives ("init", point) once and then
    ("step", incumbent, offspring, outcome, accepted) per step.  It is the
    runner's one white-box hook, used by `verify_ranking_invariance` and by
    white-box tests.

    When `type(strategy)` is a key of `_LOOPS` and `oracle` and `observer`
    are None, `_run_fused` runs it with the same draws, errors, record and
    final rng state.  Every other call runs the protocol loop
    below, which stays the reference.
    """
    if type(strategy) in _LOOPS and oracle is None and observer is None:
        return _run_fused(strategy, inst, seed, budget)
    n = inst.n
    rng = random.Random(seed)
    oracle = (oracle or CountingOracle)(inst)
    pack = None
    if hasattr(strategy, "state_budget_bits"):
        budget_bits = strategy.state_budget_bits(n)
        pack = strategy.pack_state
        max_bytes = (budget_bits + 7) // 8  # a packed state may pad to whole bytes
    state = strategy.fresh_state(n, rng)

    if budget is not None and budget < 1:
        return _finish_record(strategy.name, inst, seed, oracle, True)

    incumbent = BitString.random(n, rng)
    oracle.submit(incumbent)
    if observer is not None:
        observer(("init", incumbent))

    # bound once: the loop below runs once per query
    step, learn, compare = strategy.step, strategy.learn, oracle.compare
    budget_exhausted = False
    while not oracle.optimum_found:
        if budget is not None and oracle.query_count >= budget:
            budget_exhausted = True
            break
        offspring = step(incumbent, state, rng)
        if not isinstance(offspring, BitString) or offspring.n != n:
            raise ValueError(f"strategy {strategy.name} emitted a wrong-length offspring")
        outcome = compare(incumbent, offspring)
        learn(outcome, state)
        accepted = outcome != LESS
        if observer is not None:
            observer(("step", incumbent, offspring, outcome, accepted))
        if accepted:
            incumbent = offspring
        if pack is not None and len(packed := pack(state)) > max_bytes:
            raise StateBudgetExceeded(f"{strategy.name}: packed state is "
                                      f"{len(packed) * 8} bits, declared budget {budget_bits}")

    return _finish_record(strategy.name, inst, seed, oracle, budget_exhausted)


def _run_fused(strategy: Rls | OneEa | Memlog, inst: LoInstance, seed: int,
               budget: int | None) -> RunRecord:
    """The protocol loop for a plain `Rls`, `OneEa` or `Memlog`, over ints.

    It draws the start point, charged to INIT_LEVEL, and finds its fitness
    by `_climb`, a scan over sigma; the body `_LOOPS[type(strategy)]` runs
    the queries after it and returns (queries, f).  A body keeps the diff
    word d = x ^ z of the incumbent x (memlog's on its unmarked positions
    only), its fitness f and the per-level counts; the rls and (1+1) EA
    bodies also keep the mask prefix = prefix[f] of the positions
    sigma[:f].  The incumbent is always the best point charged so far, so
    each query is charged to level f and decided as
    `CountingOracle.compare` decides it: LESS iff it meets prefix, else
    GREATER iff it clears sigma[f].  f never falls, so after a GREATER
    query `_climb`, the oracle's own climb, ORs into prefix each position
    that f passes, and a run takes O(n) memory.

    Each body runs a level per outer iteration: an inner loop runs level
    f's queries up to the GREATER one that ends it or the budget's last,
    counting them locally, and the outer loop charges counts[f] and
    `queries` once.  The rls and (1+1) EA bodies then call `_climb`, which
    moves f only if sigma[f] was cleared, so a GREATER query that uses up
    the budget still climbs, as the oracle does.
    """
    algo, n = strategy.name, inst.n
    rng = random.Random(seed)
    if budget is not None and budget < 1:
        return RunRecord(algo, n, seed, 0, False, True, [])
    d = rng.getrandbits(n) ^ inst.z.word  # the draw BitString.random(n, rng) makes
    f, prefix = _climb(d, 0, 0, inst.sigma)
    counts = [0] * (n + 1)
    stop = math.inf if budget is None else budget
    queries, f = _LOOPS[type(strategy)](inst, rng, d, f, prefix, counts, stop)
    per_level = [(INIT_LEVEL, 1)] + [(level, c) for level, c in enumerate(counts) if c]
    return RunRecord(algo, n, seed, queries, f == n, f < n, per_level)


def _rls_loop(inst: LoInstance, rng: random.Random, d: int, f: int, prefix: int,
              counts: list[int], stop: float) -> tuple[int, int]:
    """rls after the start point, a level at a time.  Each query flips
    position i, drawn by `randrange(n)`'s `getrandbits` rejection loop,
    whose significance rank r = sigma^-1(i) decides the outcome: r < f
    breaks the prefix (LESS), r == f repairs position sigma[f] (GREATER)
    and ends the level, r > f is EQUAL.  From n = `_SKIP_FROM[Rls]` on,
    `_skip_levels` runs the queries instead."""
    n, sigma = inst.n, inst.sigma
    if n >= _SKIP_FROM[Rls]:
        return _skip_levels(True, inst, rng, d, f, counts, stop)
    rank = [0] * n
    for r, pos in enumerate(sigma):
        rank[pos] = r
    getrandbits, k = rng.getrandbits, n.bit_length()
    queries = 1
    while f < n and queries < stop:
        left, c = stop - queries, 0
        while c < left:
            i = getrandbits(k)
            while i >= n:
                i = getrandbits(k)
            c += 1
            r = rank[i]
            if r >= f:  # not LESS: accept
                d ^= 1 << i
                if r == f:
                    break
        counts[f] += c
        queries += c
        f, prefix = _climb(d, f, prefix, sigma)
    return queries, f


def _oea_loop(inst: LoInstance, rng: random.Random, d: int, f: int, prefix: int,
              counts: list[int], stop: float) -> tuple[int, int]:
    """The (1+1) EA after the start point, a level at a time.  Each query
    XORs into d the mask of `oea_mask`'s geometric-skip loop, inlined,
    except on the draw that ends it: a draw u below `_stop_below(n)[i]` at
    position i, whose step would reach n, ends the mask on one list read
    and one compare (a u of 0.0, on which `oea_mask` stops at once, is
    below every threshold).  From n = `_SKIP_FROM[OneEa]` on,
    `_skip_levels` runs the queries instead."""
    n = inst.n
    queries = 1
    if n == 1:  # oea_mask(1, rng) is 1 and draws nothing: one query repairs the bit
        if f == 0 and queries < stop:
            counts[0], queries, f = 1, 2, 1
        return queries, f
    if n >= _SKIP_FROM[OneEa]:
        return _skip_levels(False, inst, rng, d, f, counts, stop)
    sigma = inst.sigma
    draw, log, floor = rng.random, math.log, math.floor
    log_keep, below = _log_keep(n), _stop_below(n)
    while f < n and queries < stop:
        left, c, target = stop - queries, 0, sigma[f]
        while c < left:
            y, i = d, 0
            while (u := draw()) >= below[i]:  # oea_mask's skip loop
                i += floor(log(u) / log_keep)
                if i >= n:
                    break
                y ^= 1 << i
                i += 1
            c += 1
            if not y & prefix:  # not LESS: accept
                d = y
                if not y >> target & 1:  # GREATER
                    break
        counts[f] += c
        queries += c
        f, prefix = _climb(d, f, prefix, sigma)
    return queries, f


@functools.cache
def _bit_reversals(k: int) -> tuple[int, ...]:
    """rev_k(t) for t < 2^k: the k bits of t in reverse order."""
    rev = [0]
    for _ in range(k):  # rev_{j+1}(t) is 2 rev_j(t), plus 1 for t >= 2^j
        rev = [r << 1 for r in rev] + [r << 1 | 1 for r in rev]
    return tuple(rev)


@functools.lru_cache(maxsize=8)  # a harness runs one n after another
def _leaf_codes(n: int) -> tuple[int, ...]:
    """The sorted rev_K(t) for t < n, K = (n - 1).bit_length(): the leaf
    codes of memlog's first search tree on n positions, which each run
    copies; the sort costs about 2% of a run at n = 1024 and 4096."""
    return tuple(sorted(_bit_reversals((n - 1).bit_length())[:n]))


def _memlog_loop(inst: LoInstance, rng: random.Random, d: int, f: int, prefix: int,
                 counts: list[int], stop: float) -> tuple[int, int]:
    """memlog after the start point, a fitness level at a time; it draws
    nothing more from the rng.

    A search is the probe, which flips all of `free`, the ascending list of
    its L unmarked positions, and after a LESS probe the halving queries,
    each flipping P0's first half free[lo:mid], with
    mid = (lo + hi + 1) >> 1, for P0 = free[lo:hi], up to the query that
    marks a position or comes back GREATER.  f is fixed within a search,
    so a query is LESS iff it flips a gap (an unmarked position of rank
    < f), else GREATER iff it flips sigma[f], which is never marked, else
    EQUAL.  Let iy and ig be the indices in `free` of the lowest gap and
    of sigma[f]; with no gap the probe is GREATER.  The search tree on
    indices 0..L-1 is fixed by L: with K = (L - 1).bit_length(), write
    each leaf as its path from the root, K bits with the first step
    highest and 1 for a second half, a leaf at depth K - 1 padded with a 0
    bit.  Label the leaves t = 0..L-1: halving at the ceil can send to a
    node's first half its ceil(m/2) labels whose next bit, read from the
    lowest, is 0, so each path is its label's K bits reversed and the
    leaves, left to right, carry `codes`, the sorted rev_K(t) for t < L;
    a leaf is at depth K iff its code is odd or the next code is
    code + 1.  So for cy and cg the codes of iy and ig:
      * iy < ig: the search follows iy to its leaf and marks free[iy],
        after 1 + depth(iy) queries (iy + 1 < L, so the next code exists);
      * ig < iy: it comes back GREATER at the node where the two leaves
        part, on bit s = (cy ^ cg).bit_length() - 1, after 1 + K - s
        queries, with mid the index of the first code >= cy >> s << s.
    A mark takes L to L - 1, which removes the code rev_K(L - 1); when
    L - 1 reaches 2^(K-1), K drops by one and the tree is full, so its
    codes are 0..L-2.  rev_K(t) is `_bit_reversals` of the run's first K,
    shifted right by the drops so far; the run's first codes are
    `_leaf_codes(n)`.  The gaps are the unmarked positions of rank < f,
    kept in the heap `gaps`: it starts as sigma[:f], takes each position
    that f passes, never marked since every mark is of a gap, and a mark
    pops its minimum, the position it marks.

    Each outer iteration runs level f.  sigma[f] and the gaps are all in
    `free`, which is sorted, so iy < ig iff gaps[0] < sigma[f]: the inner
    loop runs the level's searches that mark, each bisecting the new
    lowest gap's index from the last mark's, and keeps their queries in a
    local count.  A mark only removes a gap, and sigma[f] is never one,
    so the search that ends the level comes back GREATER; only it finds
    sigma[f] in `free` and checks that it is there, once per level.
    counts[f] and `queries` are settled once after the marks, where a
    budget they use up exactly ends the run, and once after the GREATER
    search; a search that would pass the budget is charged up to it.

    d follows the accepted queries: the EQUAL halves free[:lo] in one XOR
    at the mark of free[lo] = free[iy], or with the GREATER half
    free[lo:mid] before the new f is scanned for (`_climb`, inlined).
    Each XOR flips every position below the last one it must, marked
    positions too, so d is the incumbent's diff word on the unmarked
    positions only; the scan reads ranks above f, which are never marked.

    It neither packs nor checks memlog's state: `Memlog`'s declared budget,
    `state_budget_bits(n)`, fits a full B1 with the longest record a search
    writes, and `Memlog` has no instance dict, so a plain run cannot
    declare another.  A subclass with a smaller budget runs the protocol
    loop, which checks it.
    """
    n, sigma = inst.n, inst.sigma
    free = list(range(n))
    gaps = list(sigma[:f])
    heapify(gaps)
    size, k = n, (n - 1).bit_length()  # L and K
    rev, shift, half = _bit_reversals(k), 0, (1 << k) >> 1
    codes = list(_leaf_codes(n))
    queries = 1
    while f < n and queries < stop:
        target, left, c, iy = sigma[f], stop - queries, 0, 0
        while gaps and (g := gaps[0]) < target:  # a search that marks g
            iy = bisect_left(free, g, iy)
            cy = codes[iy]
            c += k + 1 if cy & 1 or codes[iy + 1] == cy + 1 else k
            if c > left:  # the budget cuts it
                counts[f] += left
                return stop, f
            if iy:
                d ^= (1 << g) - 1
            heappop(gaps)
            del free[iy]
            size -= 1
            del codes[bisect_left(codes, rev[size] >> shift)]
            if size == half:
                k, shift, half = k - 1, shift + 1, half >> 1
                codes = list(range(size))
        counts[f] += c
        queries += c
        ig = bisect_left(free, target)
        if ig == size or free[ig] != target:
            raise RuntimeError("memlog invariant violated: sigma[f] is marked")
        if gaps:  # GREATER where the two leaves part
            iy = bisect_left(free, gaps[0], ig + 1)
            cy = codes[iy]
            s = (cy ^ codes[ig]).bit_length() - 1
            h, mid = 1 + k - s, bisect_left(codes, cy >> s << s)
        else:  # the probe is GREATER
            h, mid = 1, size
        if h > stop - queries:  # the budget cuts it
            counts[f] += stop - queries
            return stop, f
        counts[f] += h
        queries += h
        d ^= (2 << free[mid - 1]) - 1
        # `_climb` inlined, past sigma[f] untested: the call and the
        # test cost 2-4% of a whole run at n = 1024 and 4096
        heappush(gaps, target)
        f += 1
        while f < n and not d >> sigma[f] & 1:
            heappush(gaps, sigma[f])
            f += 1
    return queries, f


# From these n on, a plain rls or (1+1) EA run skips levels.  Whole runs,
# per-query loop (a level at a time) against `_skip_levels`, interleaved,
# 20 runs per cell, best of 5, three passes (2-core VM, the engine drawing
# from numpy's MT19937).  rls read 0.30 against 0.41 ms at n = 48, 0.37
# against 0.49 at 56, 0.62 against 0.55 at 64 and 1.17 against 0.80 at 96
# in the first pass; the loop won every pass to 56, the two split at 60
# and 63, and the engine won every pass from 64 on.  oea: the loop won
# every pass at n = 32 to 34 (0.63 against 0.88 ms at 32 in the first)
# and at 36 (0.87 against 0.96 in the first, by 0.3% in the third), the
# two split at 35, and the engine won every pass at 37 and from 38 on
# (1.02 against 0.96 at 38, 1.53 against 1.24 at 48).  At n <= 16 the
# engine's fixed numpy cost makes a run 3-22 times slower.
_SKIP_FROM = {Rls: 64, OneEa: 37}
# Queries' worth of words drawn at once: 4096 raised a process's peak RSS
# by about 0.8 MB over runs to n = 256, 2048 by about 0.25 MB.
_CHUNK = 2048


_MT = threading.local()


def _mt_source(rng: random.Random):
    """This thread's numpy MT19937 bit generator `bg`, set to rng's state,
    with a Generator `gen` over it, `view`, bg's live state struct
    (key[624], pos) as 625 uint32, and `hand_back(snapshot, words)`, which
    sets bg to a copy of the view taken earlier, draws `words` words and
    hands bg's state back to rng with rng's `gauss_next` kept.

    CPython's `random` and numpy's MT19937 run the same generator on the
    same (key, pos) state, the one `Random.getstate()[1]` holds:
    `random_raw` yields the words `getrandbits(32)` does, and
    `gen.random()` the doubles `random()` does, (a >> 5) * 2^26 + (b >> 6)
    over 2^53 for the next words a and b.  A thread builds its generator
    on its first call, which imports `numpy.random`, and checks the view
    against the public `bg.state` once; each call overwrites its state.
    """
    try:
        bg, gen, view = _MT.source
    except AttributeError:
        from numpy.random import MT19937, Generator
        bg = MT19937(0)
        struct = (ctypes.c_uint32 * 625).from_address(bg.ctypes.state_address)
        view = np.frombuffer(struct, np.uint32)
        state = bg.state["state"]
        if view[:624].tolist() != state["key"].tolist() or view[624] != state["pos"]:
            raise RuntimeError("numpy's MT19937 state is not laid out as (key[624], pos)")
        gen = Generator(bg)
        _MT.source = bg, gen, view
    version, key, gauss_next = rng.getstate()
    # the legacy-tuple setter takes 3 us, the dict one with an ndarray key about 60
    bg.state = ("MT19937", key[:624], key[624])

    def hand_back(snapshot: np.ndarray, words: int) -> None:
        view[:] = snapshot
        bg.random_raw(words, output=False)
        rng.setstate((version, tuple(view.tolist()), gauss_next))

    return bg, gen, view, hand_back


def _oea_steps(u: np.ndarray, n: int) -> np.ndarray:
    """`oea_mask`'s step floor(log(u) / _log_keep(n)) for each draw u,
    capped at n (a u of 0.0 gives n).

    np.log may differ from math.log by an ulp, which moves the floor only
    where the quotient lies next to an integer, so every draw whose
    quotient is within 1e-9 (relative) of one is redone with math.log.
    """
    log_keep = _log_keep(n)
    with np.errstate(divide="ignore"):
        log_u = np.log(u)
    s = np.floor(log_u * ((1 - 1e-9) / log_keep))
    near = (s != np.floor(log_u * ((1 + 1e-9) / log_keep))).nonzero()[0]
    if len(near):
        log, floor = math.log, math.floor
        s[near] = [floor(log(x) / log_keep) for x in u[near].tolist()]
    return np.minimum(s, n).astype(np.int64)


def _rls_chunks(bg: np.random.MT19937, n: int, rank: np.ndarray):
    """Chunks of rls queries for `_skip_levels`, drawn from `bg`: a word w
    is the position w >> (32 - k), rejected when it is n or more, as in
    `randrange`.  A query flips one position, so its minimum rank is that
    position's."""
    k = n.bit_length()

    def chunk(count):
        pos = bg.random_raw((count << k) // n) >> (32 - k)
        at = (pos < n).nonzero()[0]
        r = rank[pos[at]]
        return r, r, r, np.arange(len(r) + 1), at + 1

    return chunk


def _oea_chunks(gen: np.random.Generator, n: int, rank: np.ndarray):
    """Chunks of (1+1) EA queries for `_skip_levels`: each double of the
    Generator `gen`, two words, is a `random()` draw and each draw an
    `oea_mask` step s.

    With base[j] the sum of s + 1 over the draws before j, a mask that
    starts at draw a ends on the first draw j with base[j + 1] - base[a]
    > n, and a step of n ends any mask.  So a run of steps below n whose
    s + 1 sum to at most n, with the step of n after it, is one mask; the
    longer runs are cut by a few rounds of `searchsorted`.  The steps of a
    mask that the chunk leaves unfinished open the next chunk.
    """
    # a draw whose position passes n - 1 (at most 2n) ends its mask and flips nothing: rank n
    rank_n = np.append(rank, np.full(n + 1, n))
    carry = np.zeros(0, np.int64)

    def chunk(count):
        nonlocal carry
        u = gen.random(2 * count)
        s = np.concatenate((carry, _oea_steps(u, n)))
        size = len(s)
        base = np.zeros(size + 1, np.int64)
        np.cumsum(s + 1, out=base[1:])
        is_end = s >= n
        hard = is_end.nonzero()[0]
        cuts = np.empty(len(hard) + 2, np.int64)  # -1, the hard ends, size
        cuts[0], cuts[1:-1], cuts[-1] = -1, hard, size
        a, top = cuts[:-1] + 1, base[cuts[1:]]
        while len(a):  # a mask from a whose steps pass n before top ends softly
            lim = base[a] + n
            long = lim < top
            top = top[long]
            a = np.searchsorted(base, lim[long], side="right")
            is_end[a - 1] = True
        ends = is_end.nonzero()[0]
        bounds = np.zeros(len(ends) + 1, np.int64)  # 0, then each mask's end + 1
        np.add(ends, 1, out=bounds[1:])
        used = bounds[-1]
        carry = s[used:]
        starts = bounds[:-1]
        mask_of = np.repeat(np.arange(len(ends)), bounds[1:] - starts)
        r = rank_n[base[1:used + 1] - 1 - base[starts][mask_of]]
        min_rank = np.full(len(ends), n)
        np.minimum.at(min_rank, mask_of, r)
        words = 2 * (bounds[1:] - (size - len(u)))
        return min_rank, r, min_rank[mask_of], bounds, words

    return chunk


def _skip_levels(rls: bool, inst: LoInstance, rng: random.Random, d: int, f: int,
                 counts: list[int], stop: float) -> tuple[int, int]:
    """The rest of a fused rls or (1+1) EA run, a level at a time.

    Takes the diff word d and fitness f after the start point and returns
    (queries, f) at the end, with `counts` charged as the per-query loop
    charges it.  The queries are drawn in chunks from the rng's own words.
    A query's outcome at level f follows from the minimum rank r of its
    flips (n for an empty mask): r < f is LESS, r == f GREATER, r > f
    EQUAL.  So the whole stretch up to the next query of minimum rank f is
    charged to level f at once, and the accepted queries in it (minimum
    rank >= f) XOR the parity of their flips into `diff`, the diff word in
    rank order; the new f is its lowest set bit above the old f.  An rls
    query flips one rank and is rejected iff that rank is below f, and f
    never falls, so nothing reads those bits again: an rls stretch XORs
    every flip, unfiltered.  An EA mask rejected for a rank below f may
    flip ranks above f too, so the EA keeps the filter.  A chunk gives,
    per query, its minimum rank and the words it used, and per draw the
    rank it flips (n for none) and its query's minimum rank.

    The rng hands its state once to this thread's numpy MT19937
    (`_mt_source`), which draws every chunk: the EA's doubles straight
    from the Generator, rls's words raw.  A copy of the generator's state
    struct opens each chunk.  At the end the generator is set back to the
    copy before the chunk that holds the last charged query's last draw,
    redraws up to there and hands its state back to the rng, so the final
    rng state is the per-query loop's.
    """
    n = inst.n
    sigma = np.array(inst.sigma)
    rank = np.empty(n, np.int64)
    rank[sigma] = np.arange(n)
    bits = np.unpackbits(np.frombuffer(d.to_bytes((n + 7) >> 3, "little"), np.uint8),
                         bitorder="little")
    # diff[n] takes the EA's rank n; a level search that reaches it gives n either way
    diff = np.append(bits[sigma], 0).astype(np.int64)
    bg, gen, view, hand_back = _mt_source(rng)
    chunk = _rls_chunks(bg, n, rank) if rls else _oea_chunks(gen, n, rank)
    mark = view.copy(), 0
    queries = 1  # the start point
    while f < n and queries < stop:
        state = view.copy()
        min_rank, flip_rank, flip_min, bounds, words = chunk(min(_CHUNK, stop - queries))
        p, end = 0, len(min_rank)
        while p < end:
            last = p + int((min_rank[p:] == f).argmax())
            greater = min_rank[last] == f
            if not greater:
                last = end - 1
            if last - p >= stop - queries:
                last, greater = p + stop - queries - 1, False
            counts[f] += last + 1 - p
            queries += last + 1 - p
            mark = state, int(words[last])
            a, b = bounds[p], bounds[last + 1]
            flipped = flip_rank[a:b] if rls else flip_rank[a:b][flip_min[a:b] >= f]
            diff ^= np.bincount(flipped, minlength=n + 1) & 1
            p = last + 1
            if greater:
                above = diff[f + 1:]
                i = int(above.argmax())
                f = f + 1 + i if above[i] else n
            if f == n or queries >= stop:
                break
    hand_back(*mark)
    return queries, f


# The fused bodies; `run_one_plus_one` takes `_run_fused` iff type(strategy) is a key.
_LOOPS = {Rls: _rls_loop, OneEa: _oea_loop, Memlog: _memlog_loop}


def make_monotone_transform(n: int, rng: random.Random) -> Callable[[int], int]:
    """A random strictly increasing map on [0..n] (positive random gaps)."""
    values = []
    acc = rng.randrange(-50, 50)
    for _ in range(n + 1):
        acc += rng.randrange(1, 7)
        values.append(acc)
    return lambda v: values[v]


class MonotoneOracle(CountingOracle):
    """The oracle for transform(f): `submit` returns the transformed value.

    `transform` must be strictly increasing, so comparisons and the level
    accounting, which use raw LO values, are those of the oracle for f.
    """

    def __init__(self, instance: LoInstance, transform: Callable[[int], int]):
        super().__init__(instance)
        self.transform = transform

    def submit(self, x: BitString) -> int:
        return self.transform(super().submit(x))


def verify_ranking_invariance(
    strategy: Callable[[], Strategy],
    inst: LoInstance,
    monotone_transform: Callable[[int], int],
    seed: int,
) -> bool:
    """Run a fresh strategy from the zero-argument factory `strategy` (a
    strategy class is one) on the oracle for f and another on the oracle
    for transform(f), with the same seed; True iff the query sequences,
    collected through `observer`, coincide.  Each run stops after
    1,000,000 queries, a bound for a strategy that never finishes.

    Any strategy that consults only comparison outcomes passes for every
    strictly increasing transform; one that learns numeric values through
    some other channel can fail (the tests' negative control does).
    """
    for v in range(inst.n):
        if not monotone_transform(v) < monotone_transform(v + 1):
            raise ValueError("transform is not strictly increasing on [0..n]")
    runs = []
    for oracle in (None, functools.partial(MonotoneOracle, transform=monotone_transform)):
        queries = []

        def observe(event):  # the start point, then each step's offspring
            queries.append(event[1] if event[0] == "init" else event[2])

        run_one_plus_one(strategy(), inst, seed, 1_000_000, oracle=oracle, observer=observe)
        runs.append(queries)
    return runs[0] == runs[1]
