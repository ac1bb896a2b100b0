"""Generalized LeadingOnes instances, fitness evaluation, and counting oracles.

An instance is a pair (z, sigma): fitness of x is the length of the longest
prefix, in the significance order sigma, on which x agrees with the target
string z.  Positions are stored 0-based internally; every on-disk format and
reported position list is 1-based.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

# flip masks at least this wide take the vectorized path
_WIDE_DELTA = 48


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


def trailing_ones(word: int) -> int:
    """Number of trailing one bits of a non-negative int."""
    return ((word + 1) & ~word).bit_length() - 1


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
        if not 0 <= i < self.n:
            raise IndexError(f"position {i} out of range for n={self.n}")
        return BitString(self.n, self.word ^ (1 << i))

    def flip_mask(self, mask: int) -> "BitString":
        if mask >> self.n:
            raise ValueError("flip mask has bits outside the string length")
        return BitString(self.n, self.word ^ mask)

    def count_ones(self) -> int:
        return self.word.bit_count()

    def hamming(self, other: "BitString") -> int:
        if other.n != self.n:
            raise ValueError("length mismatch")
        return (self.word ^ other.word).bit_count()

    def to01(self) -> str:
        return "".join(str((self.word >> i) & 1) for i in range(self.n))

    def bits(self) -> list[int]:
        return [(self.word >> i) & 1 for i in range(self.n)]

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


def validate_permutation(sigma) -> tuple[int, ...]:
    """Check that sigma is a bijection on {0, ..., n-1}; return it as a tuple."""
    sigma = tuple(sigma)
    n = len(sigma)
    if sorted(sigma) != list(range(n)):
        raise ValueError("sigma is not a permutation of 0..n-1")
    return sigma


def invert_permutation(sigma: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(sigma)
    for rank, pos in enumerate(sigma):
        inv[pos] = rank
    return tuple(inv)


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
        validate_permutation(self.sigma)

    def rank_of(self) -> tuple[int, ...]:
        """Inverse permutation: rank_of()[pos] = significance rank of pos."""
        return invert_permutation(self.sigma)


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

    Positions are reported 1-based, matching the on-disk instance format.
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

    Fitness is evaluated through one primitive, `_translate`: a point's
    agreement word has bit j set iff the point agrees with z at sigma[j],
    so fitness is the number of trailing ones, and flipping the positions
    in a mask XORs their significance ranks into the word.  The oracle keeps
    the agreement words of the incumbent and of the last offspring, so a
    query costs one translation by its flip mask.  `_translate` picks its
    method from the mask weight alone: a Python loop over the set bits below
    `_WIDE_DELTA` bits, a numpy gather by sigma from there on.

    Owned by exactly one run at a time; concurrent runs need disjoint oracles.
    """

    def __init__(self, instance: LoInstance, record_queries: bool = False):
        self.instance = instance
        self.query_count = 0
        self.best_fitness_seen: int | None = None
        self.per_level_counts: dict[int, int] = {}
        self.optimum_found = False
        self.queries: list[BitString] | None = [] if record_queries else None
        self._rank_of = invert_permutation(instance.sigma)
        self._sigma = np.array(instance.sigma, dtype=np.intp)
        self._nbytes = (instance.n + 7) // 8
        # the complement of z agrees with z nowhere: its agreement word is 0
        self._last_word = instance.z.word ^ ((1 << instance.n) - 1)
        self._last_norm = 0
        # the last offspring compared, accepted or not
        self._offspring = (None, 0)

    def _translate(self, norm: int, delta: int) -> int:
        """XOR the significance-rank image of flip mask delta into norm."""
        if delta.bit_count() < _WIDE_DELTA:
            rank_of = self._rank_of
            for pos in set_bits(delta):
                norm ^= 1 << rank_of[pos]
            return norm
        raw = np.frombuffer(delta.to_bytes(self._nbytes, "little"), dtype=np.uint8)
        bits = np.unpackbits(raw, bitorder="little", count=self.instance.n)
        ranked = np.packbits(bits[self._sigma], bitorder="little")
        return norm ^ int.from_bytes(ranked.tobytes(), "little")

    def _normalize(self, word: int) -> int:
        """Agreement word of the point `word`: the last offspring's when it
        is that point, else translated from the last materialized point."""
        if word != self._last_word:
            offspring_word, offspring_norm = self._offspring
            if word == offspring_word:
                self._last_norm = offspring_norm
            else:
                self._last_norm = self._translate(self._last_norm, word ^ self._last_word)
            self._last_word = word
        return self._last_norm

    def _count(self, x: BitString, f: int) -> None:
        """Charge one query with known fitness f: update all counters."""
        best = self.best_fitness_seen
        level = INIT_LEVEL if best is None else best
        counts = self.per_level_counts
        counts[level] = counts.get(level, 0) + 1
        self.query_count += 1
        if best is None or f > best:
            self.best_fitness_seen = f
        if f == self.instance.n:
            self.optimum_found = True
        if self.queries is not None:
            self.queries.append(x)

    # -- public API ----------------------------------------------------------

    def submit(self, x: BitString) -> int:
        """Charge one query for x and return its raw fitness.

        Runner-side API: strategies must never see this value; runners expose
        only comparisons or ranks derived from it.
        """
        if x.n != self.instance.n:
            raise ValueError(f"point has length {x.n}, instance has n={self.instance.n}")
        f = trailing_ones(self._normalize(x.word))
        self._count(x, f)
        return f

    def compare(self, x: BitString, y: BitString) -> Ordering:
        """Three-way order of f(y) versus f(x), charging one query for y.

        x must be the incumbent whose fitness was already charged.  Never
        exposes a numeric fitness to the caller.
        """
        n = self.instance.n
        if x.n != n or y.n != n:
            raise ValueError("dimension mismatch in compare")
        norm_x = self._normalize(x.word)
        fx = trailing_ones(norm_x)
        norm_y = self._translate(norm_x, x.word ^ y.word)
        self._offspring = (y.word, norm_y)
        fy = trailing_ones(norm_y)
        self._count(y, fy)
        if fy < fx:
            return LESS
        if fy > fx:
            return GREATER
        return EQUAL


# -- instance text format ----------------------------------------------------
#
# One instance per file:
#   n=<int>
#   z=<bitstring>
#   sigma=<space-separated 1-based permutation>


def format_instance(inst: LoInstance) -> str:
    sigma_1 = " ".join(str(p + 1) for p in inst.sigma)
    return f"n={inst.n}\nz={inst.z.to01()}\nsigma={sigma_1}\n"


def parse_instance(text: str) -> LoInstance:
    lines = [ln.rstrip() for ln in text.splitlines() if ln.strip() != ""]
    if len(lines) != 3:
        raise ValueError(f"expected 3 non-empty lines, got {len(lines)}")
    fields = {}
    for line, key in zip(lines, ("n", "z", "sigma")):
        prefix = key + "="
        if not line.startswith(prefix):
            raise ValueError(f"expected line starting with {prefix!r}, got {line!r}")
        fields[key] = line[len(prefix):].strip()
    try:
        n = int(fields["n"])
    except ValueError:
        raise ValueError(f"bad n value {fields['n']!r}") from None
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    zs = fields["z"]
    if len(zs) != n or any(c not in "01" for c in zs):
        raise ValueError(f"z must be a {n}-character bit string, got {zs!r}")
    try:
        sigma_1 = [int(tok) for tok in fields["sigma"].split()]
    except ValueError:
        raise ValueError("sigma entries must be integers") from None
    if sorted(sigma_1) != list(range(1, n + 1)):
        raise ValueError("sigma is not a 1-based permutation of 1..n")
    return LoInstance(n, BitString.from_str(zs), tuple(p - 1 for p in sigma_1))


def load_instance(path) -> LoInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def save_instance(inst: LoInstance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_instance(inst))
