"""Lower-bound machinery for the elitist level game.

Contents:
  * level_entry_information_check -- exhaustive verification that a level
    entry map leaves the information measure B = binom(k+m, m) / C, where C
    counts the k-configurations compatible with the algorithm's state, at
    most 2^(m+1) with probability >= 1/2 (> 1/2 for any map, by counting).
    Configurations are (mask, word) int64 arrays from
    enumerate_k_configurations, a map turns them into one int64 image per
    configuration, and the check runs over the whole arrays at once;
  * onebit_simulation -- replay of a multi-bit level trace through one-bit
    flips, with the s + m length certificate and the information dominance
    certificate;
  * PhiSolver -- the cardinality dynamic program relaxing the level game:
    integer configuration counts C make the recursion's branch probability
    p = c/C exact and the minimization finite;
  * LevelGameSolver -- exact optimal-policy value of the one-bit-flip level
    game on tiny position sets;
  * phi_closed_form / verify_induction_step -- the closed-form lower bound
    eps*(k+m)*(1 - log2(B)/(2m)) and a numeric grid sweep of the induction
    step's R(p) <= 1 inequality.  The sweep is numeric evidence at the chosen
    eps, not a proof.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .lo_core import EQUAL, GREATER, LESS, Ordering, set_bits


def enumerate_k_configurations(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Every k-configuration over n positions as int64 arrays (masks, words).

    A configuration is a set P of k significant positions with their target
    bits: masks[i] has the bits of P set and words[i] holds the target bits
    at their positions, so a string y agrees with it iff
    (y ^ words[i]) & masks[i] is 0.  Position sets come in `combinations`
    order, each with its 2^k words in `product` order, the lowest position
    the most significant digit.  Both arrays are read-only, so an entry map
    cannot change the configurations it is checked against.
    """
    if n > 14:
        raise ValueError("exhaustive enumeration is limited to n <= 14")
    if not 0 <= k <= n:
        raise ValueError(f"k={k} out of range [0, {n}]")
    sets = math.comb(n, k)
    positions = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations(range(n), k)), dtype=np.int64, count=sets * k)
    bits = np.left_shift(1, positions).reshape(sets, k)
    # digits[j, i] is the bit at the i-th lowest position in word j
    digits = (np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    masks = np.repeat(bits.sum(axis=1), 1 << k)
    words = (bits @ digits.T).ravel()
    masks.flags.writeable = words.flags.writeable = False
    return masks, words


def level_entry_information_check(
    n: int, k: int, entry_map: Callable[[np.ndarray, np.ndarray, int], np.ndarray]
) -> tuple[Fraction, bool]:
    """Exhaustively check Pr[B <= 2^(m+1)] >= 1/2 for a level entry map.

    entry_map(masks, words, n) gets every k-configuration over n positions
    as `enumerate_k_configurations` gives them and returns an integer
    ndarray of the same shape: images[i], in [0, 2^n), is the string the
    algorithm rewrites its point to on entering level k when the revealed
    configuration is (masks[i], words[i]).  The map must be consistent:
    each image agrees with its configuration on the configuration's
    positions.  Under the uniform configuration draw, B after entry is
    binom(n, k) divided by the number of configurations sharing the image.

    Counting lemma: Pr > 1/2 for any map into n-bit strings, so each check
    (criterion 7's too) is a checked instance.  A configuration sent to w is
    bad iff count(w) 2^(m+1) < binom(n, k), so each of the at most 2^n bad
    images holds fewer than binom(n, k) / 2^(m+1) of them: fewer than
    2^n binom(n, k) / 2^(m+1) = binom(n, k) 2^k / 2, half of all, are bad.
    """
    masks, words = enumerate_k_configurations(n, k)
    m = n - k
    images = entry_map(masks, words, n)
    if (not isinstance(images, np.ndarray) or images.dtype.kind not in "iu"
            or images.shape != masks.shape):
        raise ValueError("entry map must return an integer ndarray with one image "
                         "per configuration")
    if ((images < 0) | (images >> n != 0)).any():
        raise ValueError(f"entry map images must lie in [0, 2^{n})")
    images = images.astype(np.int64, copy=False)
    wrong = (images ^ words) & masks
    if wrong.any():
        first = int(wrong[np.flatnonzero(wrong)[0]])
        raise ValueError(
            "inconsistent entry map: output disagrees with the "
            f"configuration at position {(first & -first).bit_length() - 1}"
        )
    _, counts = np.unique(images, return_counts=True)
    # B = binom(n, k) / count <= 2^(m+1)  <=>  count * 2^(m+1) >= binom(n, k)
    good = int(counts[counts << (m + 1) >= math.comb(n, k)].sum())
    prob = Fraction(good, len(images))
    return prob, prob >= Fraction(1, 2)


# -- one-bit simulation of multi-bit level traces ------------------------------


@dataclass(frozen=True)
class LevelSecret:
    """The hidden part of a level: the k-configuration, as the mask of its
    positions and the word of its target bits, plus the position of the
    next significant bit (never inside the configuration)."""

    mask: int
    word: int
    next_significant: int

    def __post_init__(self):
        if self.mask < 0:
            raise ValueError("mask must be non-negative")
        if self.word & ~self.mask:
            raise ValueError("word has bits outside the mask")
        if self.next_significant >= 0 and (self.mask >> self.next_significant) & 1:
            raise ValueError("next significant position lies inside the configuration")


def _outcome_of_flips(flipped: int, pmask: int, next_bit: int) -> Ordering:
    if flipped & pmask:
        return LESS
    if (flipped >> next_bit) & 1:
        return GREATER
    return EQUAL


@functools.cache
def _one_flip_secrets(n: int, k: int) -> tuple[dict[Ordering, int], ...]:
    """Per position q, the index masks of the level secrets under which
    flipping q alone gives each outcome.  A secret is a k-set P and a next
    significant position b outside it (the start fixes the values on P),
    indexed with P in `combinations` order and b ascending."""
    secrets = [(sum(1 << p for p in ps), b)
               for ps in itertools.combinations(range(n), k)
               for b in range(n) if b not in ps]
    table = []
    for q in range(n):
        # one binary digit per secret, the last secret's the most significant
        outcomes = [_outcome_of_flips(1 << q, pmask, b) for pmask, b in reversed(secrets)]
        table.append({o: int("".join("1" if x == o else "0" for x in outcomes), 2)
                      for o in Ordering})
    return tuple(table)


def _narrowed(known: int, one_flip: Sequence[dict[Ordering, int]], positions: list[int],
              outcome: Ordering) -> int:
    """The secrets of `known` under which flipping all of `positions` at
    once gives `outcome`, LESS or EQUAL: several flips drop iff one of them
    drops and stay iff every one stays."""
    if outcome == LESS:
        return known & functools.reduce(operator.or_, (one_flip[q][LESS] for q in positions), 0)
    return functools.reduce(operator.and_, (one_flip[q][EQUAL] for q in positions), known)


@dataclass
class OneBitSimulation:
    """Result of replaying a multi-bit level trace through one-bit flips."""

    queries: list[int]
    outcomes: list[Ordering]
    steps_processed: int
    length_bound: int
    length_ok: bool
    info_dominance_ok: bool


def onebit_simulation(
    n: int,
    start: int,
    queries: Sequence[int],
    secret: LevelSecret,
) -> OneBitSimulation:
    """Replay a deterministic level trace of n-bit points using only
    one-bit flips of the level-entry point.

    For each multi-bit query the replay flips the differing positions one at
    a time from `start`, skipping strings it already queried on this level,
    and stops the step early on a fitness drop (or when the level is left).
    The certificates: the replay uses at most s + m queries, where s is the
    number of input steps processed and m the number of insignificant bits,
    and after every step the secrets compatible with the replay's outcomes
    are among those compatible with the original trace's (information
    dominance).  The secret table has binom(n, k)(n - k) entries per mask,
    so n is limited to 14, as in `level_entry_information_check`.
    """
    if n > 14:
        raise ValueError("exhaustive enumeration is limited to n <= 14")
    pmask = secret.mask
    k = pmask.bit_count()
    m = n - k
    next_bit = secret.next_significant
    if pmask >> n or not 0 <= next_bit < n:
        raise ValueError(f"secret outside [0, {n}): configuration positions "
                         f"{set_bits(pmask)}, next significant position {next_bit}")
    if start < 0 or start >> n:
        raise ValueError(f"start point outside [0, 2^{n})")
    # start must sit exactly on level k: agree with the configuration,
    # disagree with the target at the next significant position
    if bad := (start ^ secret.word) & pmask:
        raise ValueError("trace does not start at fitness k: start point disagrees "
                         f"with the configuration at {(bad & -bad).bit_length() - 1}")

    one_flip = _one_flip_secrets(n, k)
    replay_secrets = trace_secrets = (1 << math.comb(n, k) * m) - 1
    out_queries: list[int] = []
    out_outcomes: list[Ordering] = []
    asked: set[int] = set()
    dominance_ok = True
    steps_processed = 0

    for y in queries:
        if y < 0 or y >> n:
            raise ValueError(f"trace point outside [0, 2^{n})")
        steps_processed += 1
        flipped = y ^ start
        positions = set_bits(flipped)
        replay_outcome = EQUAL
        for q in positions:
            if q in asked:
                continue
            asked.add(q)
            replay_outcome = _outcome_of_flips(1 << q, pmask, next_bit)
            out_queries.append(start ^ 1 << q)
            out_outcomes.append(replay_outcome)
            replay_secrets &= one_flip[q][replay_outcome]
            if replay_outcome != EQUAL:
                break

        original_outcome = _outcome_of_flips(flipped, pmask, next_bit)
        if GREATER in (original_outcome, replay_outcome):
            break
        # dominance matters only while the level is still active: it is
        # what lets the replay determine the trace's next query
        trace_secrets = _narrowed(trace_secrets, one_flip, positions, original_outcome)
        dominance_ok = dominance_ok and not replay_secrets & ~trace_secrets

    bound = steps_processed + m
    return OneBitSimulation(
        queries=out_queries,
        outcomes=out_outcomes,
        steps_processed=steps_processed,
        length_bound=bound,
        length_ok=len(out_queries) <= bound,
        info_dominance_ok=dominance_ok,
    )


# -- the cardinality dynamic program for Phi -----------------------------------


@functools.cache
def _level_counts(k: int, m: int) -> tuple[int, ...]:
    """g(0..km) of [k+m choose m]_q, the product over i <= m of (1 - q^(k+i))
    / (1 - q^i); each partial product [k+i choose i]_q has degree ki <= km."""
    size = k * m + 1
    g = [1] + [0] * (size - 1)
    for i in range(1, m + 1):
        for N in range(size - 1, k + i - 1, -1):  # times 1 - q^(k+i)
            g[N] -= g[N - k - i]
        for N in range(i, size):  # over 1 - q^i
            g[N] += g[N - i]
    return tuple(g)


class PhiSolver:
    """Evaluation of the integer-split relaxation of the level game.

    Phi_hat(k, 0, C) = 0, and for m >= 1

        Phi_hat(k, m, C) = 1 + min over integer c in
            [max(0, C - binom(k+m-1, m)), min(C, binom(k+m-1, m-1))] of
            (c/C) * ((m-1)/m) * Phi_hat(k, m-1, c)
            + ((C-c)/C) * Phi_hat(k-1, m, C-c),

    with a zero-weight branch (c = 0 or c = C) contributing nothing.  The
    integer count c plays the role of the branch probability p = c/C, which
    makes the minimization finite and the values exact rationals.

    Phi_hat has the closed form Phi_hat(k, m, C) = 1 + (sum of the C
    smallest elements of S(k, m)) / C for m >= 1, where S(k, 0) = {0} and
    S(k, m) is the multiset union of (m-1)/m * (1 + S(k, m-1)) and
    1 + S(k-1, m), the second part empty when k = 0.  Proof sketch, by
    induction on k+m: C * (Phi_hat - 1) is a prefix sum of sorted slopes, so
    F[c] = (m-1)/m * c * Phi_hat(k, m-1, c) and G[c] = c * Phi_hat(k-1, m, c)
    are convex, with F[0] = G[0] = 0 and the two parts of S(k, m) as slopes.
    The min over c is their (min,+) convolution, which for convex sequences
    sums the C smallest merged slopes.  A mean of the C smallest elements is
    nondecreasing in C, so every row is monotone by construction.

    Level counts: for m >= 1 each element of S(k, m) is (m-1)/2 + N/m with
    integer N in [0, km]; the first part of the union keeps N and the second
    adds m, so N's multiplicity g(N) obeys the q-Pascal rule: it is the
    coefficient of q^N in the Gaussian binomial [k+m choose m]_q (partitions
    of N into at most m parts, each at most k).  So Phi_hat(k, m, C) =
    ((m+1)mC + 2 S_C) / (2mC), where S_C = N_1 + ... + N_C over the C smallest
    N, each taken g(N) times; g(0) = 1 gives Phi_hat(k, m, 1) = (m+1)/2, and
    g's symmetry about km/2 gives Phi_hat(k, m, binom(k+m, m)) = (k+m+1)/2.

    That quotient is the one evaluation rule: `value` returns a cell as a
    `Fraction`, `float_row` a whole row in float64.  For k + m <= MAX_TOTAL
    the numerator, at most (2k+m+1)mC, and the denominator 2mC are integers
    below 2^31, so each step of the row's build is exact and its one IEEE
    division per cell gives the correctly rounded float(value(k, m, C)).
    """

    MAX_TOTAL = 24

    @staticmethod
    def _validate(k: int, m: int) -> None:
        if k < 0 or m < 0:
            raise ValueError("k and m must be non-negative")
        if k + m > PhiSolver.MAX_TOTAL:
            raise ValueError(f"k+m={k + m} exceeds the table guard {PhiSolver.MAX_TOTAL}")

    def value(self, k: int, m: int, C: int) -> Fraction:
        self._validate(k, m)
        total = math.comb(k + m, m)
        if not 1 <= C <= total:
            raise ValueError(f"C={C} out of range [1, {total}] for k={k}, m={m}")
        if m == 0:
            return Fraction(0)
        left, level_sum = C, 0
        for N, count in enumerate(_level_counts(k, m)):
            take = min(count, left)
            level_sum += N * take
            left -= take
        return Fraction((m + 1) * m * C + 2 * level_sum, 2 * m * C)

    def float_row(self, k: int, m: int) -> np.ndarray:
        """A new row of Phi_hat(k, m, C) for C = 1..binom(k+m, m) in float64,
        cell C equal to float(value(k, m, C)); index 0 is NaN padding."""
        self._validate(k, m)
        g = _level_counts(k, m)
        row = np.zeros(math.comb(k + m, m) + 1)
        row[0] = np.nan
        if m:
            num = row[1:]
            # every g(N) >= 1, so each level N >= 1 starts at its own cell,
            # right after levels 0..N-1; summing those marks gives N_C
            num[np.cumsum(g[:-1], dtype=np.intp)] = 1.0
            np.cumsum(num, out=num)
            num *= 2
            num += (m + 1) * m
            np.cumsum(num, out=num)  # (m+1)mC + 2 S_C
            den = np.arange(1.0, len(num) + 1)
            den *= 2 * m
            num /= den
        return row


# -- exact one-bit-flip level game ---------------------------------------------


@functools.cache
def _removals(u: int) -> tuple[tuple[int, ...], ...]:
    """removed[q][P] for every position q < u and mask P < 2^u: P with
    position q removed and the positions above it moved down one."""
    tables = []
    for q in range(u):
        low = (1 << q) - 1
        tables.append(tuple((P & low) | ((P >> 1) & ~low) for P in range(1 << u)))
    return tuple(tables)


class LevelGameSolver:
    """Exact optimal expected number of one-bit-flip queries to leave a
    fitness level, by exhaustive policy search.

    The hidden state is a pair (P, b*): P is drawn uniformly from the given
    family of k-position sets and b*, the next significant position, is
    uniform among the positions outside P.  A query at position q drops
    fitness iff q in P, leaves the level iff q = b*, and reveals q
    insignificant otherwise; the candidate family is filtered accordingly.

    The memo is keyed by the raw state (u, sorted masks), so isomorphic
    states get separate entries; they also get bitwise equal values, since a
    state's value depends only on its isomorphism class: each cost is built
    by the same float operations from the values of isomorphic children, and
    `min` does not depend on the order of the positions.  A solver instance
    is confined to one thread.

    Dominance lemma: in exact arithmetic a state of C distinct k-sets over
    u positions, m = u - k >= 1, has value V >= PhiSolver's
    Phi_hat(k, m, C).  Proof, by induction on u.  A query q that nd of the
    C members contain costs 1 + (nd/C) V(drops) + ((C-nd)/C) ((m-1)/m)
    V(keeps), where the drops are nd distinct (k-1)-sets and the keeps
    c = C - nd distinct k-sets, both over the u - 1 other positions, so
    c lies in Phi_hat's range [max(0, C - binom(u-1, m)),
    min(C, binom(u-1, m-1))] and the children are states of (k-1, m) and
    (k, m-1).  With V >= Phi_hat on them and non-negative weights, q costs
    at least Phi_hat's term at c, hence at least Phi_hat(k, m, C); a
    zero-weight branch (nd = 0, or m = 1 for the keeps) drops out on both
    sides, and skipping the q with nd = C can only raise the min.  Base:
    u = 1 is k = 0, m = 1, where V = 1 = Phi_hat(0, 1, 1).
    """

    MAX_POSITIONS = 7

    def __init__(self):
        self._memo: dict[tuple[int, tuple[int, ...]], float] = {}

    @property
    def memo_states(self) -> int:
        return len(self._memo)

    def value(self, n_positions: int, k: int, family: Iterable) -> float:
        if n_positions > self.MAX_POSITIONS:
            raise ValueError(
                f"n'={n_positions} exceeds the game guard {self.MAX_POSITIONS}"
            )
        masks = []
        for P in family:
            mask = 0
            for pos in P:
                if not 0 <= pos < n_positions:
                    raise ValueError(f"position {pos} out of range")
                mask |= 1 << pos
            if mask.bit_count() != k:
                raise ValueError("every family member must have exactly k positions")
            masks.append(mask)
        if not masks:
            raise ValueError("the candidate family must be non-empty")
        if len(set(masks)) != len(masks):
            raise ValueError("the candidate family must not repeat position sets")
        if k >= n_positions:
            raise ValueError("need at least one position outside every set (m >= 1)")
        key = (n_positions, tuple(sorted(masks)))
        cached = self._memo.get(key)
        return self._value(*key) if cached is None else cached

    def _value(self, u: int, masks: tuple[int, ...]) -> float:
        """Solve and memoize a state that is not in the memo yet.

        masks are distinct, ascending and over positions 0..u-1: `value`
        rejects repeats, and removing a position q that every member of a
        group contains, or that every member lacks, is one-to-one on that
        group and keeps its order.  So the drops and the keeps of q, each
        reduced that way, are already their children's memo keys, and no
        sort is needed.
        """
        memo = self._memo
        C = len(masks)
        mu = u - masks[0].bit_count()
        keep_ratio = (mu - 1) / mu
        child = u - 1
        best = math.inf
        for q, removed in enumerate(_removals(u)):
            qb = 1 << q
            drops = []
            keeps = []
            for P in masks:
                if P & qb:
                    drops.append(removed[P])
                else:
                    keeps.append(removed[P])
            nd = len(drops)
            if nd == C:
                continue  # known-significant position: querying it is pure waste
            cost = 1.0
            if nd:
                key = (child, tuple(drops))
                v = memo.get(key)
                if v is None:
                    v = self._value(*key)
                cost += (nd / C) * v
            p_eq = ((C - nd) / C) * keep_ratio
            if p_eq > 0.0:
                key = (child, tuple(keeps))
                v = memo.get(key)
                if v is None:
                    v = self._value(*key)
                cost += p_eq * v
            if cost < best:
                best = cost
        memo[(u, masks)] = best
        return best


# canonical_families: candidates per chunk of the family space, and maps
# per block applied at once to the survivors of the first maps
_FAMILY_CHUNK = 1 << 16
_MAP_BLOCK = 32


def canonical_families(n_positions: int, k: int) -> list[tuple[tuple[int, ...], ...]]:
    """All non-empty families of k-subsets of [n_positions], one representative
    per position-relabeling orbit, in ascending order of their family masks.

    Family space is encoded as bitmasks over the lexicographic list of
    k-subsets; a family w is a representative iff it is the minimum of its
    orbit under the induced action of S_n, that is iff g(w) >= w for every
    induced map g other than the identity.  Each map keeps only the
    candidates it does not lower, so the order of the maps changes the work
    but not the result.  The maps that move the fewest k-subsets (for
    0 < k < n the transpositions) cut the most: in the (6, 3) case the 15
    transpositions leave 7,131 of the 2^20 families.  They run first, over
    the family space in chunks of _FAMILY_CHUNK candidates, which bounds the
    size of every temporary array; the survivors then meet the other maps
    in blocks of _MAP_BLOCK.
    """
    sets = list(itertools.combinations(range(n_positions), k))
    ns = len(sets)
    if ns > 20:
        raise ValueError("family space too large to enumerate")
    # maps[g, i] is the index of the image of sets[i] under permutation g,
    # found through the image's position bitmask
    members = np.zeros((ns, n_positions), dtype=np.int64)
    for i, s in enumerate(sets):
        members[i, list(s)] = 1
    perms = np.array(list(itertools.permutations(range(n_positions))), dtype=np.int64)
    perms = perms.reshape(math.factorial(n_positions), n_positions)
    index_of = np.zeros(1 << n_positions, dtype=np.int64)
    index_of[members @ (1 << np.arange(n_positions))] = np.arange(ns)
    maps = np.unique(index_of[(1 << perms) @ members.T], axis=0)
    moved = (maps != np.arange(ns)).sum(axis=1)
    order = np.argsort(moved, kind="stable")
    order = order[moved[order] > 0]  # the identity lowers nothing
    maps, moved = maps[order], moved[order]
    first = int(np.count_nonzero(moved == moved[0])) if len(maps) else 0

    lo_bits = ns // 2
    lo_mask = (1 << lo_bits) - 1
    targets = np.uint32(1) << maps.astype(np.uint32)

    def half_tables(block: slice) -> list[np.ndarray]:
        """t_lo[g, w] and t_hi[g, w], the images under the block's maps of
        the low and high half-masks w, built by doubling: the entries with
        the next source bit set are the old ones plus its target.  A
        block's tables are built just before it is applied, so the tables of
        all the maps are never held at once."""
        tables = []
        for part in (targets[block, :lo_bits], targets[block, lo_bits:]):
            table = np.zeros((len(part), 1 << part.shape[1]), dtype=np.uint32)
            for j in range(part.shape[1]):
                table[:, 1 << j:2 << j] = table[:, :1 << j] | part[:, j:j + 1]
            tables.append(table)
        return tables

    t_lo, t_hi = half_tables(slice(0, first))
    survivors = []
    for start in range(0, 1 << ns, _FAMILY_CHUNK):
        cand = np.arange(start, min(start + _FAMILY_CHUNK, 1 << ns), dtype=np.uint32)
        for g in range(first):
            cand = cand[(t_lo[g][cand & lo_mask] | t_hi[g][cand >> lo_bits]) >= cand]
        survivors.append(cand)
    cand = np.concatenate(survivors)
    for g in range(first, len(maps), _MAP_BLOCK):
        t_lo, t_hi = half_tables(slice(g, g + _MAP_BLOCK))
        images = t_lo[:, cand & lo_mask] | t_hi[:, cand >> lo_bits]
        cand = cand[(images >= cand).all(axis=0)]
    return [tuple(sets[i] for i in set_bits(fm)) for fm in cand.tolist() if fm]


# -- closed-form bound and the induction-step sweep ----------------------------


def phi_closed_form(k: int, m: int, B: float, eps: float) -> float:
    """eps * (k+m) * (1 - log2(B) / (2m)); may be negative.  Raises
    ValueError when the value overflows, as it does for a huge eps."""
    if k < 0 or m < 1:
        raise ValueError("need k >= 0 and m >= 1")
    if B < 1:
        raise ValueError("B must be >= 1")
    if not 0 < eps < math.inf:
        raise ValueError("eps must be finite and positive")
    value = eps * (k + m) * (1.0 - math.log2(B) / (2.0 * m))
    if not math.isfinite(value):
        raise ValueError(f"closed form overflows at eps={eps!r}")
    return value


# The default eps used by the sweep; the induction argument constrains
# 1024*eps/(e*ln 2) <= 1/2, i.e. eps <= e*ln(2)/2048 ~ 9.2e-4, and 1/2048
# sits safely below that.
DEFAULT_EPS = 1.0 / 2048.0

# verify_induction_step's grid: m >= 2 and log2 B < 2m in every cell
K_GRID = (0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144)
M_GRID = (2, 3, 4, 5, 8, 13, 21, 34, 55)
LOGB_FRACTIONS = (
    0.0, 1 / 16, 1 / 8, 1 / 4, 3 / 8, 1 / 2, 5 / 8, 3 / 4, 7 / 8, 15 / 16, 63 / 64,
)


def induction_r_values(k: int, m: int, log2_B: float, p: np.ndarray,
                       eps: float) -> np.ndarray:
    """The seven-term R(p) sum from the induction step, vectorized over an
    ascending p.

    Zero-weight conventions: at p = 0 every first-branch term (the five terms
    carrying a factor p) vanishes; at p = 1 both second-branch terms vanish.
    """
    if m < 2:
        raise ValueError("the interior induction step needs m >= 2")
    S = k + m
    p = np.asarray(p, dtype=float)
    if (p[1:] < p[:-1]).any():
        raise ValueError("p must be ascending")
    R = np.zeros_like(p)
    # p ascending: p > 0 is a suffix and p < 1 a prefix
    lo = int(p.searchsorted(0.0, side="right"))
    hi = int(p.searchsorted(1.0, side="left"))

    # With S = k + m, pe = p*eps and qe = (1-p)*eps:
    #   L1 = log2_B + log2(m/S) - log2(p)    M1 = log2(m/S) - log2(p)
    #   shrink = 1 - L1 / (2(m-1))
    #   X1 = pe*(S-1)/m*shrink  A1 = pe*shrink  Y1 = pe*S*M1 / (2m)
    #   Z = pe*S*M1 / (2m(m-1))  X2 = pe*S*log2_B / (2m(m-1))
    #   L2 = log2_B + log2(k/S) - log2(1-p)  M2 = log2(k/S) - log2(1-p)
    #   A2 = qe*(1 - L2/(2m))  Y2 = qe*S*M2 / (2m)
    # Each term is built in place (out=) by the same IEEE operations, in the
    # same left-to-right order, so reusing the buffers moves no bit.  Each
    # branch's sum is added to R's zeros, which turns a -0.0 sum into +0.0.

    # first branch (factor p): X1 + A1 + Y1 + Z + X2
    pa = p[lo:]
    if pa.size:
        log_m = np.log2(m / S)
        log_pa = np.log2(pa)
        M1 = log_m - log_pa
        t = np.subtract(log2_B + log_m, log_pa, out=log_pa)         # L1
        t /= 2.0 * (m - 1)
        shrink = np.subtract(1.0, t, out=t)
        pe = pa * eps
        acc = pe * (S - 1)
        acc /= m
        acc *= shrink                                               # X1
        acc += np.multiply(pe, shrink, out=shrink)                  # + A1
        peS = np.multiply(pe, S, out=pe)
        peSM = np.multiply(peS, M1, out=M1)
        acc += np.divide(peSM, 2.0 * m, out=t)                      # + Y1
        acc += np.divide(peSM, 2.0 * m * (m - 1), out=peSM)         # + Z
        X2 = np.multiply(peS, log2_B, out=peS)
        X2 /= 2.0 * m * (m - 1)
        acc += X2                                                   # + X2
        R[lo:] += acc

    # second branch (factor 1-p): A2 + Y2
    pb = p[:hi]
    if pb.size:
        if k == 0:
            raise ValueError("p < 1 requires k >= 1 (p_min = 1 when k = 0)")
        qe = np.subtract(1.0, pb)
        log_k = np.log2(k / S)
        log_qb = np.log2(qe)
        M2 = log_k - log_qb
        qe *= eps
        t = np.subtract(log2_B + log_k, log_qb, out=log_qb)         # L2
        t /= 2.0 * m
        A2 = np.subtract(1.0, t, out=t)
        A2 *= qe
        Y2 = np.multiply(qe, S, out=qe)
        Y2 *= M2
        Y2 /= 2.0 * m
        A2 += Y2
        R[:hi] += A2

    return R


@dataclass
class InductionCell:
    k: int
    m: int
    log2_B: float
    p_min: float
    p_max: float
    max_r: float | None
    argmax_p: float | None
    skipped: bool
    reason: str | None = None


@dataclass
class InductionReport:
    eps: float
    p_resolution: int
    passed: bool
    max_r: float
    cells: list[InductionCell] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["pass"] = d.pop("passed")
        return d


def worst_cell(cells: list[InductionCell]) -> InductionCell:
    """The first swept cell whose max_r is NaN, else the first swept cell
    with the largest max_r: the cell that decides the sweep's verdict."""
    swept = [c for c in cells if not c.skipped]
    nan = next((c for c in swept if math.isnan(c.max_r)), None)
    return nan if nan is not None else max(swept, key=lambda c: c.max_r)


def verify_induction_step(
    p_resolution: int = 4096,
    eps: float = DEFAULT_EPS,
    max_total: int = 200,
) -> InductionReport:
    """Sweep R(p) over the module grid; pass iff max R(p) <= 1.

    The cells are k in K_GRID and m in M_GRID with k + m <= max_total, and
    log2 B at each of LOGB_FRACTIONS * 2m, so m >= 2 and log2 B < 2m
    throughout.  A cell whose [p_min, p_max] interval is empty is reported
    as skipped; every other cell is swept over p_resolution points that
    include both endpoints.  Numeric evidence at the chosen eps, not a
    proof.  A max_total that leaves no cell swept raises ValueError rather
    than pass vacuously.
    """
    if not 0 < eps < math.inf:
        raise ValueError("eps must be finite and positive")
    if p_resolution < 2:
        raise ValueError("p_resolution must be >= 2 to include both endpoints")
    cells: list[InductionCell] = []
    base = np.arange(p_resolution, dtype=float)
    # a huge eps overflows R to inf/NaN, which fails the cell below
    with np.errstate(over="ignore", invalid="ignore"):
        for k in K_GRID:
            for m in M_GRID:
                if k + m > max_total:
                    continue
                for frac in LOGB_FRACTIONS:
                    log2_B = frac * 2.0 * m
                    B = 2.0 ** log2_B
                    S = k + m
                    p_min = max(0.0, 1.0 - B * k / S)
                    p_max = min(1.0, B * m / S)
                    if p_min > p_max:
                        cells.append(InductionCell(
                            k, m, log2_B, p_min, p_max, None, None,
                            skipped=True, reason="empty [p_min, p_max] interval",
                        ))
                        continue
                    # np.linspace(p_min, p_max, p_resolution), step for step
                    p = base * ((p_max - p_min) / (p_resolution - 1))
                    p += p_min
                    p[-1] = p_max
                    r = induction_r_values(k, m, log2_B, p, eps)
                    idx = int(np.argmax(r))
                    max_r = float(r[idx])
                    # argmax returns the first NaN, so a NaN cell fails the sweep
                    cells.append(InductionCell(
                        k, m, log2_B, p_min, p_max, max_r, float(p[idx]), skipped=False,
                    ))
    if all(c.skipped for c in cells):
        raise ValueError(f"no cell swept: every grid cell has k+m > max_total={max_total}")
    max_r = worst_cell(cells).max_r
    return InductionReport(
        eps=eps,
        p_resolution=p_resolution,
        passed=max_r <= 1.0,
        max_r=max_r,
        cells=cells,
    )


# -- example entry maps for the level-entry check ------------------------------


def entry_map_constant(masks: np.ndarray, words: np.ndarray, n: int) -> np.ndarray:
    """Write the configuration's bits and fill every free position with 0."""
    return words.copy()


def entry_map_lowest_free_index(masks: np.ndarray, words: np.ndarray, n: int) -> np.ndarray:
    """Encode the lowest free position's index, LSB first, into the free
    positions (ascending)."""
    images = words.copy()
    free = ~masks & ((1 << n) - 1)
    # the lowest free bit is a power of two, or 0 when no position is free
    payload = np.searchsorted(np.left_shift(1, np.arange(n)), free & -free)
    while payload.any():
        low = free & -free  # 0 once the free positions run out
        images |= low * (payload & 1)
        free ^= low
        payload >>= 1
    return images


def entry_map_prefix_parity(masks: np.ndarray, words: np.ndarray, n: int) -> np.ndarray:
    """Fill each free position q with the parity of the number of significant
    positions below q."""
    # prefix XOR of the mask shifted up by one: bit q is the parity of the
    # significant positions below q
    parity = masks << 1
    shift = 1
    while shift < n:
        parity ^= parity << shift
        shift <<= 1
    return words | (parity & ~masks & ((1 << n) - 1))


ENTRY_MAPS = {
    "constant": entry_map_constant,
    "lowest_free_index": entry_map_lowest_free_index,
    "prefix_parity": entry_map_prefix_parity,
}
