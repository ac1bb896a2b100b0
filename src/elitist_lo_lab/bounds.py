"""Lower-bound machinery for the elitist level game.

Contents:
  * available_information -- the information measure B = binom(k+m, m) / C,
    where C counts the k-configurations compatible with the algorithm's state;
  * level_entry_information_check -- exhaustive verification that a level
    entry map leaves B <= 2^(m+1) with probability >= 1/2;
  * onebit_simulation -- replay of a multi-bit level trace through one-bit
    flips, with the s + m length certificate;
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

import heapq
import itertools
import math
from collections import Counter
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .lo_core import BitString, set_bits


# -- information measure -------------------------------------------------------


def available_information(k: int, m: int, C) -> Fraction:
    """B = binom(k+m, m) / C, the factor by which the possible target
    configurations have been narrowed down.  Exact rational."""
    if k < 0 or m < 0:
        raise ValueError("k and m must be non-negative")
    total = math.comb(k + m, m)
    if not 1 <= C <= total:
        raise ValueError(f"C={C} out of range [1, {total}] for k={k}, m={m}")
    return Fraction(total, C)


@dataclass(frozen=True)
class InfoState:
    """A level-game knowledge state: k unknown-significant and m insignificant
    positions with C compatible configurations (so B = binom(k+m, m) / C).

    The filter transitions mirror a one-bit query's outcomes: an
    insignificant answer keeping c configurations moves to (k, m-1, c), a
    significant answer keeping c moves to (k-1, m, c).
    """

    k: int
    m: int
    C: int

    def __post_init__(self):
        available_information(self.k, self.m, self.C)  # range validation

    @property
    def b(self) -> Fraction:
        return available_information(self.k, self.m, self.C)

    def filter_insignificant(self, c: int) -> "InfoState":
        if not 1 <= c <= self.C:
            raise ValueError("kept count must be in [1, C]")
        return InfoState(self.k, self.m - 1, c)

    def filter_significant(self, c: int) -> "InfoState":
        if not 1 <= c <= self.C:
            raise ValueError("kept count must be in [1, C]")
        return InfoState(self.k - 1, self.m, c)


@dataclass(frozen=True)
class KConfiguration:
    """A set P of k significant positions together with their target bits.

    Positions are 0-based and sorted; values[i] is the target bit at
    positions[i].
    """

    positions: tuple[int, ...]
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.positions) != len(self.values):
            raise ValueError("positions and values must have equal length")
        if any(v not in (0, 1) for v in self.values):
            raise ValueError("values must be bits")
        if list(self.positions) != sorted(set(self.positions)):
            raise ValueError("positions must be sorted and distinct")

    @property
    def k(self) -> int:
        return len(self.positions)


def enumerate_k_configurations(n: int, k: int) -> Iterable[KConfiguration]:
    for positions in itertools.combinations(range(n), k):
        for values in itertools.product((0, 1), repeat=k):
            yield KConfiguration(positions, values)


def level_entry_information_check(
    n: int, k: int, entry_map: Callable[[KConfiguration, int], BitString]
) -> tuple[Fraction, bool]:
    """Exhaustively check Pr[B <= 2^(m+1)] >= 1/2 for a level entry map.

    entry_map(config, n) is the string the algorithm rewrites its point to on
    entering level k when the revealed configuration is `config`; it must be
    consistent (agree with the configuration on its positions).  Under the
    uniform configuration draw, B after entry is binom(n, k) divided by the
    number of configurations sharing the chosen string.
    """
    if n > 14:
        raise ValueError("exhaustive enumeration is limited to n <= 14")
    if not 0 <= k <= n:
        raise ValueError(f"k={k} out of range [0, {n}]")
    m = n - k
    images: list[int] = []  # aligned with the enumeration order
    for cfg in enumerate_k_configurations(n, k):
        y0 = entry_map(cfg, n)
        if not isinstance(y0, BitString) or y0.n != n:
            raise ValueError("entry map must return a length-n BitString")
        for pos, val in zip(cfg.positions, cfg.values):
            if (y0.word >> pos) & 1 != val:
                raise ValueError(
                    "inconsistent entry map: output disagrees with the "
                    f"configuration at position {pos}"
                )
        images.append(y0.word)
    counts = Counter(images)
    total_sets = math.comb(n, k)
    # B = total_sets / count <= 2^(m+1)  <=>  count * 2^(m+1) >= total_sets
    good = sum(1 for w in images if counts[w] << (m + 1) >= total_sets)
    prob = Fraction(good, len(images))
    return prob, prob >= Fraction(1, 2)


# -- one-bit simulation of multi-bit level traces ------------------------------


@dataclass(frozen=True)
class LevelSecret:
    """The hidden part of a level: the k-configuration plus the position of
    the next significant bit (never inside the configuration)."""

    config: KConfiguration
    next_significant: int

    def __post_init__(self):
        if self.next_significant in self.config.positions:
            raise ValueError("next significant position lies inside the configuration")


DROP = "drop"
STAY = "equal"
LEAVE = "leave"


def _outcome_of_flips(flipped: int, pmask: int, next_bit: int) -> str:
    if flipped & pmask:
        return DROP
    if (flipped >> next_bit) & 1:
        return LEAVE
    return STAY


@dataclass
class OneBitSimulation:
    """Result of replaying a multi-bit level trace through one-bit flips."""

    queries: list[BitString]
    outcomes: list[str]
    step_slices: list[tuple[int, int]]
    steps_processed: int
    length_bound: int
    length_ok: bool
    info_dominance_ok: bool | None


def onebit_simulation(
    start: BitString,
    queries: Sequence[BitString],
    secret: LevelSecret,
    check_information: bool = True,
) -> OneBitSimulation:
    """Replay a deterministic level trace using only one-bit flips of the
    level-entry point.

    For each multi-bit query the replay flips the differing positions one at
    a time from `start`, skipping strings it already queried on this level,
    and stops the step early on a fitness drop (or when the level is left).
    The certificate: the replay uses at most s + m queries, where s is the
    number of input steps processed and m the number of insignificant bits,
    and (when check_information) after every step the replay's surviving
    secret set is contained in the original trace's surviving secret set.
    """
    n = start.n
    cfg = secret.config
    k = cfg.k
    m = n - k
    pmask = 0
    for pos in cfg.positions:
        pmask |= 1 << pos
    next_bit = secret.next_significant
    # start must sit exactly on level k: agree with the configuration,
    # disagree with the target at the next significant position
    for pos, val in zip(cfg.positions, cfg.values):
        if (start.word >> pos) & 1 != val:
            raise ValueError("trace does not start at fitness k: start point "
                             f"disagrees with the configuration at {pos}")

    all_secrets = None
    compat_original: set | None = None
    compat_replay: set | None = None
    if check_information:
        all_secrets = [
            (spmask, b)
            for sp in itertools.combinations(range(n), k)
            for spmask in [sum(1 << p for p in sp)]
            for b in range(n)
            if not (spmask >> b) & 1
        ]
        compat_original = set(all_secrets)
        compat_replay = set(all_secrets)

    out_queries: list[BitString] = []
    out_outcomes: list[str] = []
    step_slices: list[tuple[int, int]] = []
    asked: set[int] = set()
    dominance_ok = True if check_information else None
    steps_processed = 0
    left = False

    for y in queries:
        if y.n != n:
            raise ValueError("trace point has the wrong length")
        steps_processed += 1
        flipped = y.word ^ start.word
        step_start = len(out_queries)
        original_outcome = _outcome_of_flips(flipped, pmask, next_bit)

        for q in set_bits(flipped):
            if q in asked:
                continue
            asked.add(q)
            one = start.flip(q)
            outcome = _outcome_of_flips(1 << q, pmask, next_bit)
            out_queries.append(one)
            out_outcomes.append(outcome)
            if check_information:
                if outcome == DROP:
                    compat_replay = {s for s in compat_replay if (s[0] >> q) & 1}
                elif outcome == STAY:
                    compat_replay = {
                        s for s in compat_replay
                        if not (s[0] >> q) & 1 and s[1] != q
                    }
                else:
                    compat_replay = {
                        s for s in compat_replay
                        if not (s[0] >> q) & 1 and s[1] == q
                    }
            if outcome in (DROP, LEAVE):
                break
        step_slices.append((step_start, len(out_queries)))

        if out_outcomes and out_outcomes[-1] == LEAVE:
            left = True
        if check_information and not left and original_outcome != LEAVE:
            # dominance matters only while the level is still active: it is
            # what lets the replay determine the trace's next query
            if original_outcome == DROP:
                compat_original = {s for s in compat_original if flipped & s[0]}
            else:
                compat_original = {
                    s for s in compat_original
                    if not flipped & s[0] and not (flipped >> s[1]) & 1
                }
            if not compat_replay <= compat_original:
                dominance_ok = False
        if original_outcome == LEAVE or left:
            break

    bound = steps_processed + m
    return OneBitSimulation(
        queries=out_queries,
        outcomes=out_outcomes,
        step_slices=step_slices,
        steps_processed=steps_processed,
        length_bound=bound,
        length_ok=len(out_queries) <= bound,
        info_dominance_ok=dominance_ok,
    )


# -- the cardinality dynamic program for Phi -----------------------------------


class PhiSolver:
    """Memoized evaluation of the integer-split relaxation of the level game.

    Phi_hat(k, 0, C) = 0, and for m >= 1

        Phi_hat(k, m, C) = 1 + min over integer c in
            [max(0, C - binom(k+m-1, m)), min(C, binom(k+m-1, m-1))] of
            (c/C) * ((m-1)/m) * Phi_hat(k, m-1, c)
            + ((C-c)/C) * Phi_hat(k-1, m, C-c),

    with a zero-weight branch (c = 0 or c = C) contributing nothing.  The
    integer count c plays the role of the branch probability p = c/C, which
    makes the minimization finite and the values exact rationals.

    Both paths evaluate the closed form Phi_hat(k, m, C) = 1 + (sum of the C
    smallest elements of S(k, m)) / C for m >= 1, where S(k, 0) = {0} and
    S(k, m) is the multiset union of (m-1)/m * (1 + S(k, m-1)) and
    1 + S(k-1, m), the second part empty when k = 0.  Proof sketch, by
    induction on k+m: C * (Phi_hat - 1) is a prefix sum of sorted slopes, so
    F[c] = (m-1)/m * c * Phi_hat(k, m-1, c) and G[c] = c * Phi_hat(k-1, m, c)
    are convex, with F[0] = G[0] = 0 and the two parts of S(k, m) as slopes.
    The min over c is their (min,+) convolution, which for convex sequences
    sums the C smallest merged slopes.  A mean of the C smallest elements is
    nondecreasing in C, so every row is monotone by construction.

    `value` computes single cells exactly from the shortest sorted prefix of
    S the cell needs; `float_row` computes a whole (k, m) row in float64
    (documented comparison slack 1e-9) from one sort and one cumulative sum.
    A solver instance is confined to one thread.
    """

    MAX_TOTAL = 24

    def __init__(self):
        # (k, m) -> a sorted prefix of S(k, m) and its running sums
        self._prefixes: dict[tuple[int, int], tuple[list[Fraction], list[Fraction]]] = {}
        self._slopes: dict[tuple[int, int], np.ndarray] = {}
        self._rows: dict[tuple[int, int], np.ndarray] = {}

    @staticmethod
    def _validate(k: int, m: int, C: int) -> None:
        if k < 0 or m < 0:
            raise ValueError("k and m must be non-negative")
        if k + m > PhiSolver.MAX_TOTAL:
            raise ValueError(f"k+m={k + m} exceeds the table guard {PhiSolver.MAX_TOTAL}")
        total = math.comb(k + m, m)
        if not 1 <= C <= total:
            raise ValueError(f"C={C} out of range [1, {total}] for k={k}, m={m}")

    def value(self, k: int, m: int, C: int) -> Fraction:
        self._validate(k, m, C)
        if m == 0:
            return Fraction(0)
        return 1 + self._prefix(k, m, C)[1][C - 1] / C

    def _prefix(self, k: int, m: int, length: int) -> tuple[list[Fraction], list[Fraction]]:
        """The smallest elements of S(k, m) in order, at least `length` of
        them or all, with their running sums.  Prefix lengths are powers of
        two, so sweeping a row C by C costs O(|S|) per (k, m)."""
        if m == 0:
            return [Fraction(0)], [Fraction(0)]
        length = min(math.comb(k + m, m), 1 << (length - 1).bit_length())
        cached = self._prefixes.get((k, m))
        if cached is None or len(cached[0]) < length:
            weight = Fraction(m - 1, m)
            parts = [(weight * (1 + s) for s in self._prefix(k, m - 1, length)[0])]
            if k:
                parts.append(1 + s for s in self._prefix(k - 1, m, length)[0])
            slopes = list(itertools.islice(heapq.merge(*parts), length))
            cached = self._prefixes[(k, m)] = slopes, list(itertools.accumulate(slopes))
        return cached

    def _float_slopes(self, k: int, m: int) -> np.ndarray:
        """All of S(k, m) in float64, sorted."""
        if m == 0:
            return np.zeros(1)
        slopes = self._slopes.get((k, m))
        if slopes is None:
            parts = [(m - 1) / m * (1.0 + self._float_slopes(k, m - 1))]
            if k:
                parts.append(1.0 + self._float_slopes(k - 1, m))
            slopes = self._slopes[(k, m)] = np.sort(np.concatenate(parts))
        return slopes

    def float_row(self, k: int, m: int) -> np.ndarray:
        """Row of Phi_hat(k, m, C) for C = 1..binom(k+m, m) in float64;
        index 0 is NaN padding."""
        if k < 0 or m < 0:
            raise ValueError("k and m must be non-negative")
        row = self._rows.get((k, m))
        if row is None:
            slopes = self._float_slopes(k, m)
            row = np.full(len(slopes) + 1, np.nan)
            row[1:] = 1.0 + np.cumsum(slopes) / np.arange(1, len(slopes) + 1) if m else 0.0
            self._rows[(k, m)] = row
        return row


# -- exact one-bit-flip level game ---------------------------------------------


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
        return self._value(n_positions, tuple(sorted(masks)))

    # masks are over positions 0..u-1; duplicates encode posterior multiplicity
    def _value(self, u: int, masks: tuple[int, ...]) -> float:
        key = (u, masks)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        C = len(masks)
        kappa = masks[0].bit_count()
        mu = u - kappa
        best = math.inf
        for q in range(u):
            qb = 1 << q
            drops = [P for P in masks if P & qb]
            nd = len(drops)
            if nd == C:
                continue  # known-significant position: querying it is pure waste
            cost = 1.0
            if nd:
                cost += (nd / C) * self._value(u - 1, self._reduce(drops, q))
            p_eq = ((C - nd) / C) * ((mu - 1) / mu)
            if p_eq > 0.0:
                keeps = [P for P in masks if not P & qb]
                cost += p_eq * self._value(u - 1, self._reduce(keeps, q))
            if cost < best:
                best = cost
        self._memo[key] = best
        return best

    @staticmethod
    def _reduce(masks: list[int], q: int) -> tuple[int, ...]:
        """Remove position q and close the index gap."""
        low = (1 << q) - 1
        return tuple(sorted((m & low) | ((m >> 1) & ~low) for m in masks))


def canonical_families(n_positions: int, k: int) -> list[tuple[tuple[int, ...], ...]]:
    """All non-empty families of k-subsets of [n_positions], one representative
    per position-relabeling orbit.

    Family space is encoded as bitmasks over the lexicographic list of
    k-subsets; a family w is a representative iff it is the minimum of its
    orbit under the induced action of S_n, that is iff g(w) >= w for every
    induced map g.  The candidates start as the whole family space and each
    map keeps only those it does not lower, so the 2^20 families of the
    (3, 3) case cost a few full-array passes instead of one per map.
    """
    sets = list(itertools.combinations(range(n_positions), k))
    ns = len(sets)
    if ns > 20:
        raise ValueError("family space too large to enumerate")
    index_of = {s: i for i, s in enumerate(sets)}
    induced = []
    seen = set()
    for perm in itertools.permutations(range(n_positions)):
        mapping = tuple(
            index_of[tuple(sorted(perm[p] for p in s))] for s in sets
        )
        if mapping not in seen:
            seen.add(mapping)
            induced.append(mapping)

    lo_bits = ns // 2
    lo_mask = (1 << lo_bits) - 1
    cand = np.arange(1 << ns, dtype=np.uint32)
    for mapping in induced:
        # table[w] is the image of the half-mask w, built by doubling: the
        # entries with the next source bit set are the old ones plus its target
        tables = []
        for targets in (mapping[:lo_bits], mapping[lo_bits:]):
            table = np.zeros(1, dtype=np.uint32)
            for target in targets:
                table = np.concatenate((table, table | (1 << target)))
            tables.append(table)
        t_lo, t_hi = tables
        cand = cand[(t_lo[cand & lo_mask] | t_hi[cand >> lo_bits]) >= cand]
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

DEFAULT_K_GRID = (0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144)
DEFAULT_M_GRID = (2, 3, 4, 5, 8, 13, 21, 34, 55)
DEFAULT_LOGB_FRACTIONS = (
    0.0, 1 / 16, 1 / 8, 1 / 4, 3 / 8, 1 / 2, 5 / 8, 3 / 4, 7 / 8, 15 / 16, 63 / 64,
)


def induction_r_values(k: int, m: int, log2_B: float, p: np.ndarray,
                       eps: float) -> np.ndarray:
    """The seven-term R(p) sum from the induction step, vectorized over p.

    Zero-weight conventions: at p = 0 every first-branch term (the five terms
    carrying a factor p) vanishes; at p = 1 both second-branch terms vanish.
    """
    if m < 2:
        raise ValueError("the interior induction step needs m >= 2")
    S = k + m
    p = np.asarray(p, dtype=float)
    R = np.zeros_like(p)
    interior_lo = p > 0.0
    interior_hi = p < 1.0

    # first branch (factor p): X1, A1, Y1, Z, X2
    pa = p[interior_lo]
    if pa.size:
        L1 = log2_B + np.log2(m / S) - np.log2(pa)
        M1 = np.log2(m / S) - np.log2(pa)
        X1 = pa * eps * (S - 1) / m * (1.0 - L1 / (2.0 * (m - 1)))
        A1 = pa * eps * (1.0 - L1 / (2.0 * (m - 1)))
        Y1 = pa * eps * S * M1 / (2.0 * m)
        Z = pa * eps * S * M1 / (2.0 * m * (m - 1))
        X2 = pa * eps * S * log2_B / (2.0 * m * (m - 1))
        R[interior_lo] += X1 + A1 + Y1 + Z + X2

    # second branch (factor 1-p): A2, Y2
    pb = p[interior_hi]
    if pb.size:
        if k == 0:
            raise ValueError("p < 1 requires k >= 1 (p_min = 1 when k = 0)")
        L2 = log2_B + np.log2(k / S) - np.log2(1.0 - pb)
        M2 = np.log2(k / S) - np.log2(1.0 - pb)
        A2 = (1.0 - pb) * eps * (1.0 - L2 / (2.0 * m))
        Y2 = (1.0 - pb) * eps * S * M2 / (2.0 * m)
        R[interior_hi] += A2 + Y2

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


def verify_induction_step(
    k_grid: Sequence[int] = DEFAULT_K_GRID,
    m_grid: Sequence[int] = DEFAULT_M_GRID,
    logb_fractions: Sequence[float] = DEFAULT_LOGB_FRACTIONS,
    p_resolution: int = 4096,
    eps: float = DEFAULT_EPS,
    max_total: int = 200,
) -> InductionReport:
    """Sweep R(p) over a (k, m, log2 B) grid; pass iff max R(p) <= 1.

    log2 B is placed at logb_fractions * 2m, covering [0, 2m); cells with
    m < 2 or log2 B >= 2m are reported as skipped (the closed form is trivial
    or handled separately there).  Every sweep includes both endpoints
    p_min and p_max.  Numeric evidence at the chosen eps, not a proof.
    A grid with no swept cell raises ValueError rather than pass vacuously.
    """
    if not 0 < eps < math.inf:
        raise ValueError("eps must be finite and positive")
    if p_resolution < 2:
        raise ValueError("p_resolution must be >= 2 to include both endpoints")
    cells: list[InductionCell] = []
    global_max = -math.inf
    for k in k_grid:
        for m in m_grid:
            if k + m > max_total:
                continue
            for frac in logb_fractions:
                log2_B = frac * 2.0 * m
                if m < 2 or log2_B >= 2.0 * m:
                    cells.append(InductionCell(
                        k, m, log2_B, math.nan, math.nan, None, None,
                        skipped=True,
                        reason="trivial cell (m < 2 or log2 B >= 2m)",
                    ))
                    continue
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
                p = np.linspace(p_min, p_max, p_resolution)
                # a huge eps overflows R to inf/NaN, which fails the cell below
                with np.errstate(over="ignore", invalid="ignore"):
                    r = induction_r_values(k, m, log2_B, p, eps)
                idx = int(np.argmax(r))
                max_r = float(r[idx])
                cells.append(InductionCell(
                    k, m, log2_B, p_min, p_max, max_r, float(p[idx]), skipped=False,
                ))
                # argmax returns the first NaN, which then fails the sweep
                if max_r > global_max or math.isnan(max_r):
                    global_max = max_r
    if all(c.skipped for c in cells):
        raise ValueError("no cell swept: every grid cell is trivial or has "
                         f"k+m > max_total={max_total}")
    return InductionReport(
        eps=eps,
        p_resolution=p_resolution,
        passed=global_max <= 1.0,
        max_r=global_max,
        cells=cells,
    )


# -- example entry maps for the level-entry check ------------------------------


def entry_map_constant(cfg: KConfiguration, n: int) -> BitString:
    """Write the configuration's bits and fill every free position with 0."""
    word = 0
    for pos, val in zip(cfg.positions, cfg.values):
        word |= val << pos
    return BitString(n, word)


def entry_map_lowest_free_index(cfg: KConfiguration, n: int) -> BitString:
    """Encode the lowest free position's index, LSB first, into the free
    positions (ascending)."""
    word = 0
    for pos, val in zip(cfg.positions, cfg.values):
        word |= val << pos
    sig = set(cfg.positions)
    free = [q for q in range(n) if q not in sig]
    if free:
        payload = free[0]
        for i, q in enumerate(free):
            word |= ((payload >> i) & 1) << q
    return BitString(n, word)


def entry_map_prefix_parity(cfg: KConfiguration, n: int) -> BitString:
    """Fill each free position q with the parity of the number of significant
    positions below q."""
    word = 0
    sig = set(cfg.positions)
    for pos, val in zip(cfg.positions, cfg.values):
        word |= val << pos
    below = 0
    for q in range(n):
        if q in sig:
            below += 1
        else:
            word |= (below & 1) << q
    return BitString(n, word)


ENTRY_MAPS = {
    "constant": entry_map_constant,
    "lowest_free_index": entry_map_lowest_free_index,
    "prefix_parity": entry_map_prefix_parity,
}
