"""Generalized LeadingOnes instances, fitness evaluation, and counting oracles.

An instance is a pair (z, sigma): fitness of x is the length of the longest
prefix, in the significance order sigma, on which x agrees with the target
string z.  Positions are stored 0-based internally; reported position lists
are 1-based, as are the positions in `lolab game` spec files (parsed in
`harness`).
"""
from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from enum import IntEnum
from itertools import accumulate


def set_bits(mask: int) -> list[int]:
    """Indices of the set bits of a non-negative int, ascending."""
    out: list[int] = []
    base = 0
    while mask:
        chunk = mask & 0xFFFFFFFFFFFFFFFF
        while chunk:
            low = chunk & -chunk
            out.append(base + low.bit_length() - 1)
            chunk ^= low
        mask >>= 64
        base += 64
    return out


class Ordering(IntEnum):
    """Three-way comparison outcome; the only fitness signal a strategy sees."""

    LESS = -1
    EQUAL = 0
    GREATER = 1


LESS = Ordering.LESS
EQUAL = Ordering.EQUAL
GREATER = Ordering.GREATER

# Pseudo-level that the very first query of a run is charged to.
INIT_LEVEL = -1


class BitString:
    """Immutable word-packed bit string of length n.

    Bit i of `word` is position i (0-based; position i+1 in 1-based terms).
    Treated as a value type: never mutate `word` or `n` after construction.
    """

    __slots__ = ("n", "word")

    def __init__(self, n: int, word: int = 0):
        if n < 1:
            raise ValueError(f"bit string length must be >= 1, got {n}")
        if word < 0 or word >> n:
            raise ValueError("word has bits outside the string length")
        self.n = n
        self.word = word

    @classmethod
    def zeros(cls, n: int) -> "BitString":
        return cls(n, 0)

    @classmethod
    def ones(cls, n: int) -> "BitString":
        return cls(n, (1 << n) - 1)

    @classmethod
    def from_bits(cls, bits) -> "BitString":
        bits = list(bits)
        word = 0
        for i, b in enumerate(bits):
            if b not in (0, 1):
                raise ValueError(f"bit value must be 0 or 1, got {b!r}")
            word |= b << i
        return cls(len(bits), word)

    @classmethod
    def from_str(cls, s: str) -> "BitString":
        """Parse e.g. "1101"; the first character is position 1."""
        return cls.from_bits(int(c) for c in s)

    @classmethod
    def random(cls, n: int, rng: random.Random) -> "BitString":
        return cls(n, rng.getrandbits(n))

    def bit(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(f"position {i} out of range for n={self.n}")
        return (self.word >> i) & 1

    def flip(self, i: int) -> "BitString":
        n = self.n
        if not 0 <= i < n:
            raise IndexError(f"position {i} out of range for n={n}")
        return _unchecked(n, self.word ^ (1 << i))

    def flip_mask(self, mask: int) -> "BitString":
        n = self.n
        if mask >> n:
            raise ValueError("flip mask has bits outside the string length")
        return _unchecked(n, self.word ^ mask)

    def to01(self) -> str:
        return "".join(str((self.word >> i) & 1) for i in range(self.n))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitString)
            and other.n == self.n
            and other.word == self.word
        )

    def __hash__(self) -> int:
        return hash((self.n, self.word))

    def __repr__(self) -> str:
        return f"BitString({self.n}, {self.to01()!r})"


_new = object.__new__


def _unchecked(n: int, word: int) -> BitString:
    """BitString(n, word) without the range checks, for callers whose own
    check already proves n >= 1 and 0 <= word < 2**n."""
    out = _new(BitString)
    out.n = n
    out.word = word
    return out


@dataclass(frozen=True)
class LoInstance:
    """Target string z plus significance order sigma.

    sigma[j] (0-based) is the position whose agreement with z is checked
    j+1-th; fitness values live in [0..n].
    """

    n: int
    z: BitString
    sigma: tuple[int, ...]

    def __post_init__(self):
        if self.z.n != self.n:
            raise ValueError("target string length does not match n")
        if len(self.sigma) != self.n:
            raise ValueError("sigma length does not match n")
        if sorted(self.sigma) != list(range(self.n)):
            raise ValueError("sigma is not a permutation of 0..n-1")


def lo_value(inst: LoInstance, x: BitString) -> int:
    """Length of the longest common prefix of x and z in the order sigma.

    Reference implementation by direct scan; the oracle fast path must agree
    with this exactly.
    """
    if x.n != inst.n:
        raise ValueError(f"point has length {x.n}, instance has n={inst.n}")
    zw, xw = inst.z.word, x.word
    for j, pos in enumerate(inst.sigma):
        if ((zw >> pos) ^ (xw >> pos)) & 1:
            return j
    return inst.n


def random_instance(n: int, rng: random.Random) -> LoInstance:
    """Uniform instance: z uniform over {0,1}^n, sigma uniform over S_n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    z = BitString.random(n, rng)
    sigma = list(range(n))
    rng.shuffle(sigma)
    return LoInstance(n, z, tuple(sigma))


def identity_instance(n: int) -> LoInstance:
    """The all-ones target with the identity order (classic LeadingOnes)."""
    return LoInstance(n, BitString.ones(n), tuple(range(n)))


def significant_prefix(inst: LoInstance, k: int) -> list[tuple[int, int]]:
    """White-box accessor: the first k significant positions and target bits.

    Positions are reported 1-based.
    Touches no oracle counter.
    """
    if not 0 <= k <= inst.n:
        raise ValueError(f"k={k} out of range [0, {inst.n}]")
    zw = inst.z.word
    return [(pos + 1, (zw >> pos) & 1) for pos in inst.sigma[:k]]


class CountingOracle:
    """Query-metered, comparison-only access to one LO instance.

    Counters:
      * query_count -- total charged queries.
      * best_fitness_seen -- best raw fitness among charged queries (None
        before the first query).
      * per_level_counts -- queries charged per best-so-far level at issue
        time; the very first query is charged to INIT_LEVEL, and the query
        that enters a new level is charged to the level being left.

    Fitness is read off prefix masks: `_prefix[k]` has the positions
    sigma[:k] set, so f(x) >= k iff (x ^ z) & _prefix[k] is 0, and f(x) is
    found by bisection on k, one AND per step.  `compare` needs at most two
    ANDs to decide its outcome from f(x): y is LESS when it breaks the
    prefix of length f(x), EQUAL when it keeps it but not the next one, and
    GREATER otherwise, and only then is f(y) bisected on [f(x)+1, n].  A
    LESS outcome leaves every counter as it is without f(y), because
    f(y) < f(x) <= best_fitness_seen once x has been charged; for an x never
    charged, f(y) is bisected on [0, f(x)-1] as well.  The oracle keeps the
    (word, fitness) pairs of the incumbent and of the last EQUAL or GREATER
    offspring, so an accepted offspring is never evaluated twice.

    Owned by exactly one run at a time; concurrent runs need disjoint oracles.
    """

    def __init__(self, instance: LoInstance, record_queries: bool = False):
        self.instance = instance
        self.query_count = 0
        self.best_fitness_seen: int | None = None
        self.per_level_counts: dict[int, int] = {}
        self.optimum_found = False
        self.queries: list[BitString] | None = [] if record_queries else None
        self._n = instance.n
        self._z = instance.z.word
        self._prefix = list(accumulate((1 << pos for pos in instance.sigma),
                                       operator.or_, initial=0))
        self._incumbent = self._offspring = (None, 0)

    def _bisect(self, diff: int, lo: int, hi: int) -> int:
        """Fitness of the point z ^ diff, known to lie in [lo, hi]."""
        prefix = self._prefix
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if diff & prefix[mid]:
                hi = mid - 1
            else:
                lo = mid
        return lo

    def _count(self, x: BitString, f: int) -> None:
        """Charge one query with known fitness f: update all counters.
        `compare` repeats these lines inline; keep the two in step."""
        best = self.best_fitness_seen
        level = INIT_LEVEL if best is None else best
        counts = self.per_level_counts
        counts[level] = counts.get(level, 0) + 1
        self.query_count += 1
        if best is None or f > best:
            self.best_fitness_seen = f
        if f == self._n:
            self.optimum_found = True
        if self.queries is not None:
            self.queries.append(x)

    # -- public API ----------------------------------------------------------

    def submit(self, x: BitString) -> int:
        """Charge one query for x and return its raw fitness.

        Runner-side API: strategies must never see this value; the runner
        exposes only comparisons derived from it.  x becomes the cached
        incumbent.
        """
        n = self._n
        if x.n != n:
            raise ValueError(f"point has length {x.n}, instance has n={n}")
        f = self._bisect(x.word ^ self._z, 0, n)
        self._incumbent = (x.word, f)
        self._count(x, f)
        return f

    def compare(self, x: BitString, y: BitString) -> Ordering:
        """Three-way order of f(y) versus f(x), charging one query for y.

        x is normally the incumbent, whose fitness was already charged; any
        other x costs one more bisection.  Never exposes a numeric fitness to
        the caller.  This is the per-query hot path, so the cache lookup for
        f(x) and the charge (`_count`) are written out in this one frame.
        """
        n = self._n
        if x.n != n or y.n != n:
            raise ValueError("dimension mismatch in compare")
        xw = x.word
        cached_word, fx = self._incumbent
        if xw != cached_word:
            cached_word, fx = self._offspring
            if xw != cached_word:
                fx = self._bisect(xw ^ self._z, 0, n)
            self._incumbent = (xw, fx)
        diff = y.word ^ self._z
        prefix = self._prefix
        best = self.best_fitness_seen
        if diff & prefix[fx]:
            if best is None or best < fx:  # x was never charged
                fy = self._bisect(diff, 0, fx - 1)
            else:  # f(y) < fx <= best: fx - 1 moves the same counters
                fy = fx - 1
            outcome = LESS
        else:
            if fx == n or diff & prefix[fx + 1]:
                fy, outcome = fx, EQUAL
            else:
                fy, outcome = self._bisect(diff, fx + 1, n), GREATER
            self._offspring = (y.word, fy)
        level = INIT_LEVEL if best is None else best
        counts = self.per_level_counts
        counts[level] = counts.get(level, 0) + 1
        self.query_count += 1
        if best is None or fy > best:
            self.best_fitness_seen = fy
        if fy == n:
            self.optimum_found = True
        if self.queries is not None:
            self.queries.append(y)
        return outcome
