"""Generalized LeadingOnes instances, fitness evaluation, and counting oracles.

An instance is a pair (z, sigma): fitness of x is the length of the longest
prefix, in the significance order sigma, on which x agrees with the target
string z.  Positions are stored 0-based internally; reported position lists
are 1-based, as are the positions in `lolab game` spec files (parsed in
`harness`).
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from enum import IntEnum


def set_bits(mask: int) -> list[int]:
    """Indices of the set bits of a non-negative int, ascending."""
    if mask < 0:  # mask & -mask never clears a negative mask
        raise ValueError("set_bits of a negative int")
    out: list[int] = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
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
    def random(cls, n: int, rng: random.Random) -> "BitString":
        return cls(n, rng.getrandbits(n))

    def flip(self, i: int) -> "BitString":
        if not 0 <= i < self.n:
            raise IndexError(f"position {i} out of range for n={self.n}")
        return BitString(self.n, self.word ^ (1 << i))

    def flip_mask(self, mask: int) -> "BitString":
        """Flip the set bits of mask; a mask with bits outside the string
        leaves some outside the word, which the constructor rejects."""
        return BitString(self.n, self.word ^ mask)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitString)
            and other.n == self.n
            and other.word == self.word
        )

    def __hash__(self) -> int:
        return hash((self.n, self.word))

    def __repr__(self) -> str:
        bits = "".join(str((self.word >> i) & 1) for i in range(self.n))
        return f"BitString({self.n}, {bits!r})"


@dataclass(frozen=True)
class LoInstance:
    """Target z, an n-bit int (bit i is position i), and significance order sigma.

    sigma[j] (0-based) is the position whose agreement with z is checked
    j+1-th; fitness values live in [0..n].
    """

    n: int
    z: int
    sigma: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.z < 0 or self.z >> self.n:
            raise ValueError("target has bits outside the string length")
        if len(self.sigma) != self.n:
            raise ValueError("sigma length does not match n")
        if set(self.sigma) != set(range(self.n)):
            raise ValueError("sigma is not a permutation of 0..n-1")


def lo_value(inst: LoInstance, x: BitString) -> int:
    """Length of the longest common prefix of x and z in the order sigma.

    Reference implementation by direct scan; the oracle fast path must agree
    with this exactly.
    """
    if x.n != inst.n:
        raise ValueError(f"point has length {x.n}, instance has n={inst.n}")
    d = inst.z ^ x.word
    for j, pos in enumerate(inst.sigma):
        if d >> pos & 1:
            return j
    return inst.n


def random_instance(n: int, rng: random.Random) -> LoInstance:
    """Uniform instance: z uniform over {0,1}^n, sigma uniform over S_n.

    z is `rng.getrandbits(n)`; sigma is `rng.shuffle(list(range(n)))`
    written out: the same Fisher-Yates swaps from the top, each j drawn as
    `_randbelow(i + 1)` draws it (`getrandbits` of (i + 1).bit_length()
    bits, redrawn while above i), so the instance and the rng's final
    state are the stdlib's, without a call per element.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    z = rng.getrandbits(n)
    sigma = list(range(n))
    getrandbits = rng.getrandbits
    for i in range(n - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        sigma[i], sigma[j] = sigma[j], sigma[i]
    return LoInstance(n, z, tuple(sigma))


def _climb(d: int, f: int, prefix: int, sigma: tuple[int, ...]) -> tuple[int, int]:
    """The fitness of the point z ^ d, known to be at least f, and its
    prefix mask, from f and prefix[f], the mask of the positions sigma[:f]:
    f rises past each position sigma[f] that d clears, and prefix takes
    each position passed."""
    n = len(sigma)
    while f < n and not d >> sigma[f] & 1:
        prefix |= 1 << sigma[f]
        f += 1
    return f, prefix


class CountingOracle:
    """Query-metered, comparison-only access to one LO instance.

    Counters:
      * query_count -- total charged queries.
      * best_fitness_seen -- best raw fitness among charged queries (None
        before the first query).
      * per_level_counts -- queries charged per best-so-far level at issue
        time; the very first query is charged to INIT_LEVEL, and the query
        that enters a new level is charged to the level being left.

    The oracle holds one point, the incumbent, as (word, fitness, prefix
    mask), where the prefix mask of a point of fitness f has the positions
    sigma[:f] set.  `submit(x)` makes x the incumbent.  `compare(x, y)`
    raises ValueError unless x is the incumbent, as a (1+1) elitist query
    ranks an offspring only against its parent, and decides y with at most
    one AND and one shift: LESS when y ^ z meets the mask, EQUAL when it
    keeps the mask but not position sigma[f(x)], and GREATER otherwise,
    and only then does `_climb` find f(y), scanning sigma from f(x) on.  A
    LESS y is charged as f(x) - 1, which moves the counters as f(y) would,
    since x was charged and f(y) < f(x); an EQUAL or GREATER y becomes the
    incumbent, the runner's tie rule.  So a run's climbs scan sigma once in
    all and the oracle takes O(n) memory.  `submit` and `compare` charge
    every query through `_count`, the only writer of the counters.

    Owned by exactly one run at a time; concurrent runs need disjoint oracles.
    """

    def __init__(self, instance: LoInstance):
        self.query_count = 0
        self.best_fitness_seen: int | None = None
        self.per_level_counts: dict[int, int] = {}
        self.optimum_found = False
        self._n = instance.n
        self._z = instance.z
        self._sigma = instance.sigma
        self._incumbent = (None, 0, 0)

    def _count(self, f: int) -> None:
        """Charge one query with known fitness f: update all counters."""
        best = self.best_fitness_seen
        level = INIT_LEVEL if best is None else best
        counts = self.per_level_counts
        counts[level] = counts.get(level, 0) + 1
        self.query_count += 1
        if best is None or f > best:
            self.best_fitness_seen = f
        if f == self._n:
            self.optimum_found = True

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
        f, prefix = _climb(x.word ^ self._z, 0, 0, self._sigma)
        self._incumbent = (x.word, f, prefix)
        self._count(f)
        return f

    def compare(self, x: BitString, y: BitString) -> Ordering:
        """Three-way order of f(y) versus f(x), charging one query for y.

        x must be the incumbent; an EQUAL or GREATER y replaces it.  Never
        exposes a numeric fitness to the caller.
        """
        n = self._n
        if x.n != n or y.n != n:
            raise ValueError("dimension mismatch in compare")
        word, fx, prefix = self._incumbent
        if x.word != word:
            raise ValueError("compare ranks an offspring only against the incumbent")
        diff = y.word ^ self._z
        if diff & prefix:
            self._count(fx - 1)
            return LESS
        if fx == n or diff >> self._sigma[fx] & 1:
            fy, outcome = fx, EQUAL
        else:
            fy, prefix = _climb(diff, fx, prefix, self._sigma)
            outcome = GREATER
        self._incumbent = (y.word, fy, prefix)
        self._count(fy)
        return outcome
