import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elitist_lo_lab.lo_core import (
    EQUAL,
    GREATER,
    INIT_LEVEL,
    LESS,
    BitString,
    CountingOracle,
    LoInstance,
    lo_value,
    random_instance,
    set_bits,
)


def bits(s: str) -> BitString:
    """Parse e.g. "1101"; the first character is position 1."""
    return BitString(len(s), int(s[::-1], 2))


def make_instance(z: str, sigma_1based) -> LoInstance:
    return LoInstance(len(z), bits(z).word, tuple(p - 1 for p in sigma_1based))


def target(inst: LoInstance) -> BitString:
    """The target z as a point."""
    return BitString(inst.n, inst.z)


def expected_order(inst: LoInstance, x: BitString, y: BitString):
    fx, fy = lo_value(inst, x), lo_value(inst, y)
    return GREATER if fy > fx else LESS if fy < fx else EQUAL


class ReferenceCounters:
    """The oracle's counters recomputed from lo_value of each charged point."""

    def __init__(self, inst: LoInstance):
        self.inst = inst
        self.best = None
        self.per_level: dict[int, int] = {}
        self.optimum = False

    def charge(self, point: BitString) -> int:
        """Charge one query for point; return its fitness."""
        f = lo_value(self.inst, point)
        level = INIT_LEVEL if self.best is None else self.best
        self.per_level[level] = self.per_level.get(level, 0) + 1
        self.best = f if self.best is None else max(self.best, f)
        self.optimum = self.optimum or f == self.inst.n
        return f

    def assert_matches(self, oracle: CountingOracle) -> None:
        assert oracle.best_fitness_seen == self.best
        assert oracle.per_level_counts == self.per_level
        assert oracle.optimum_found == self.optimum
        assert oracle.query_count == sum(self.per_level.values())


# -- lo_value -------------------------------------------------------------------


def test_lo_value_identity_order():
    inst = make_instance("1111", (1, 2, 3, 4))
    assert lo_value(inst, bits("1101")) == 2


def test_lo_value_optimum_is_n():
    rng = random.Random(5)
    for _ in range(20):
        inst = random_instance(rng.randrange(1, 12), rng)
        assert lo_value(inst, target(inst)) == inst.n


def test_lo_value_permuted_order():
    # sigma = (3,1,4,2,5): checks position 3 first, then 1, then 4, ...
    inst = make_instance("00000", (3, 1, 4, 2, 5))
    assert lo_value(inst, bits("01011")) == 2


def test_lo_value_dimension_mismatch():
    inst = make_instance("111", (1, 2, 3))
    with pytest.raises(ValueError):
        lo_value(inst, bits("11"))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_lo_value_bounds_and_optimum_unique(data):
    n = data.draw(st.integers(1, 10))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    inst = random_instance(n, rng)
    x = BitString(n, data.draw(st.integers(0, 2**n - 1)))
    v = lo_value(inst, x)
    assert 0 <= v <= n
    assert (v == n) == (x.word == inst.z)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_lo_value_prefix_agreement(data):
    n = data.draw(st.integers(1, 10))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    inst = random_instance(n, rng)
    x = BitString(n, data.draw(st.integers(0, 2**n - 1)))
    k = data.draw(st.integers(0, n))
    agrees = all(not ((x.word ^ inst.z) >> pos) & 1 for pos in inst.sigma[:k])
    assert (lo_value(inst, x) >= k) == agrees


def test_lo_value_prefix_agreement_exhaustive_n4():
    import itertools

    n = 4
    for zw in range(2**n):
        for sigma in itertools.permutations(range(n)):
            inst = LoInstance(n, zw, sigma)
            for xw in range(2**n):
                x = BitString(n, xw)
                v = lo_value(inst, x)
                for k in range(n + 1):
                    agrees = all(not ((xw ^ zw) >> p) & 1 for p in sigma[:k])
                    assert (v >= k) == agrees


def test_oracle_fast_path_at_word_boundaries():
    # widths around the 64-bit digit boundaries of the prefix masks
    rng = random.Random(19)
    for n in (47, 48, 49, 63, 64, 65, 127, 128, 129):
        inst = random_instance(n, rng)
        oracle = CountingOracle(inst)
        x = BitString.random(n, rng)
        oracle.submit(x)
        for _ in range(30):
            if rng.random() < 0.5:
                y = BitString.random(n, rng)  # wide delta
            else:
                y = x.flip(rng.randrange(n))  # sparse delta
            fx, fy = lo_value(inst, x), lo_value(inst, y)
            expected = GREATER if fy > fx else LESS if fy < fx else EQUAL
            assert oracle.compare(x, y) == expected
            if fy >= fx:
                x = y
    # flip masks of 47 and 48 bits, after a first submit far from the
    # complement of z
    for n in (96, 130):
        inst = random_instance(n, rng)
        oracle = CountingOracle(inst)
        x = target(inst).flip_mask(sum(1 << i for i in rng.sample(range(n), n // 3)))
        assert (x.word ^ inst.z ^ ((1 << n) - 1)).bit_count() >= 48
        assert oracle.submit(x) == lo_value(inst, x)
        for width in (47, 48) * 15:
            y = x.flip_mask(sum(1 << i for i in rng.sample(range(n), width)))
            fx, fy = lo_value(inst, x), lo_value(inst, y)
            expected = GREATER if fy > fx else LESS if fy < fx else EQUAL
            assert oracle.compare(x, y) == expected
            if fy >= fx:
                x = y


def test_oracle_incumbent_at_optimum():
    rng = random.Random(37)
    for n in (1, 2, 5, 64, 200):
        inst = random_instance(n, rng)
        oracle = CountingOracle(inst)
        ref = ReferenceCounters(inst)
        z = target(inst)
        assert oracle.submit(z) == n
        ref.charge(z)
        offspring = [z] + [z.flip(i) for i in rng.sample(range(n), min(n, 8))]
        for y in offspring:
            assert oracle.compare(z, y) == (EQUAL if y == z else LESS)
            ref.charge(y)
            ref.assert_matches(oracle)


def test_oracle_n1():
    for z in ("0", "1"):
        inst = make_instance(z, (1,))
        other = bits("1" if z == "0" else "0")
        oracle = CountingOracle(inst)
        assert oracle.submit(other) == 0
        assert oracle.compare(other, other) == EQUAL
        assert not oracle.optimum_found
        assert oracle.compare(other, bits(z)) == GREATER
        assert oracle.compare(bits(z), other) == LESS
        assert oracle.compare(bits(z), bits(z)) == EQUAL
        assert oracle.submit(bits(z)) == 1
        assert oracle.best_fitness_seen == 1 and oracle.optimum_found
        assert oracle.per_level_counts == {INIT_LEVEL: 1, 0: 2, 1: 3}


def test_set_bits_matches_naive_scan():
    rng = random.Random(29)
    masks = [0, 1 << 63, 1 << 64, 1 << 65]
    masks += [rng.getrandbits(rng.randrange(1, 301)) for _ in range(300)]
    for mask in masks:
        assert set_bits(mask) == [i for i in range(mask.bit_length()) if (mask >> i) & 1]


@pytest.mark.parametrize("mask", [-1, -5, -(1 << 70)])
def test_set_bits_rejects_a_negative_int(mask):
    # mask & -mask never clears a negative mask, so the scan would not end
    with pytest.raises(ValueError, match="negative"):
        set_bits(mask)


# -- random_instance ------------------------------------------------------------


def test_random_instance_deterministic():
    a = random_instance(9, random.Random(123))
    b = random_instance(9, random.Random(123))
    assert a == b


def test_random_instance_n1():
    seen = {random_instance(1, random.Random(s)).z for s in range(64)}
    assert seen == {0, 1}


def test_random_instance_rejects_n0():
    with pytest.raises(ValueError):
        random_instance(0, random.Random(0))


def stdlib_instance(n: int, seed: int):
    """The instance draw as the stdlib makes it: z by getrandbits(n), then
    sigma by Random.shuffle; returns (z word, sigma, final rng state)."""
    rng = random.Random(seed)
    z = rng.getrandbits(n)
    sigma = list(range(n))
    rng.shuffle(sigma)
    return z, tuple(sigma), rng.getstate()


@pytest.mark.parametrize("n", [*range(1, 70), 255, 256, 257, 1024, 4096])
def test_random_instance_replicates_stdlib_shuffle(n):
    for seed in range(20):
        rng = random.Random(seed)
        inst = random_instance(n, rng)
        assert (inst.z, inst.sigma, rng.getstate()) == stdlib_instance(n, seed)


def test_random_instance_uniform_chi_square():
    # 2^3 * 3! = 48 equally likely instances; chi-square at significance 0.001
    rng = random.Random(2024)
    draws = 100_000
    counts = {}
    for _ in range(draws):
        inst = random_instance(3, rng)
        key = (inst.z, inst.sigma)
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 48
    expected = draws / 48
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    # upper 0.1% point of chi-square with 47 degrees of freedom
    assert chi2 < 82.7204


# -- compare and the counting oracle ---------------------------------------------


def test_compare_equal_on_same_point():
    inst = make_instance("1011", (1, 2, 3, 4))
    oracle = CountingOracle(inst)
    x = bits("0011")
    oracle.submit(x)
    assert oracle.compare(x, x) == EQUAL


def test_compare_optimum_dominates():
    rng = random.Random(7)
    for _ in range(20):
        inst = random_instance(6, rng)
        oracle = CountingOracle(inst)
        x = BitString.random(6, rng)
        oracle.submit(x)
        expected = EQUAL if x.word == inst.z else GREATER
        assert oracle.compare(x, target(inst)) == expected


def test_compare_less_example():
    inst = make_instance("1111", (1, 2, 3, 4))
    oracle = CountingOracle(inst)
    x = bits("1100")
    oracle.submit(x)
    assert oracle.compare(x, bits("1010")) == LESS


def test_compare_dimension_mismatch():
    inst = make_instance("111", (1, 2, 3))
    oracle = CountingOracle(inst)
    with pytest.raises(ValueError):
        oracle.compare(bits("111"), bits("11"))


def test_compare_is_pure_apart_from_counters():
    # a LESS y leaves the incumbent, so the same compare repeats its outcome
    rng = random.Random(11)
    inst = random_instance(7, rng)
    oracle = CountingOracle(inst)
    x = BitString.random(7, rng)
    while lo_value(inst, x) == 0:
        x = BitString.random(7, rng)
    y = x.flip(inst.sigma[0])  # breaks the first position of x's prefix
    oracle.submit(x)
    assert lo_value(inst, y) < lo_value(inst, x)
    results = {oracle.compare(x, y) for _ in range(10)}
    assert results == {LESS}
    assert oracle.query_count == 11


def test_compare_raises_for_a_fresh_point():
    rng = random.Random(17)
    for n in (1, 5, 70):
        inst = random_instance(n, rng)
        oracle = CountingOracle(inst)
        x = BitString.random(n, rng)
        oracle.submit(x)
        fresh = x.flip(rng.randrange(n))
        with pytest.raises(ValueError, match="incumbent"):
            oracle.compare(fresh, x)
        assert oracle.query_count == 1


def test_compare_raises_for_the_old_incumbent():
    # after an EQUAL or a GREATER, the offspring is the incumbent
    inst = make_instance("1111", (1, 2, 3, 4))
    oracle = CountingOracle(inst)
    x = bits("1100")  # fitness 2
    oracle.submit(x)
    for y, outcome in ((bits("1101"), EQUAL), (bits("1110"), GREATER)):
        assert oracle.compare(x, y) == outcome
        with pytest.raises(ValueError, match="incumbent"):
            oracle.compare(x, y)
        x = y
    assert oracle.query_count == 3


def test_compare_raises_before_any_submit():
    inst = make_instance("1011", (1, 2, 3, 4))
    oracle = CountingOracle(inst)
    with pytest.raises(ValueError, match="incumbent"):
        oracle.compare(bits("0011"), target(inst))
    assert oracle.query_count == 0 and oracle.best_fitness_seen is None


def test_compare_dimension_mismatch_raises_first():
    inst = make_instance("111", (1, 2, 3))
    oracle = CountingOracle(inst)
    oracle.submit(bits("100"))
    for x, y in ((bits("100"), bits("11")), (bits("11"), bits("100")), (bits("11"), bits("11"))):
        with pytest.raises(ValueError, match="dimension mismatch"):
            oracle.compare(x, y)


def test_oracle_counters_and_charging():
    inst = make_instance("1111", (1, 2, 3, 4))
    oracle = CountingOracle(inst)
    x = bits("1100")  # fitness 2
    oracle.submit(x)
    assert oracle.query_count == 1
    assert oracle.best_fitness_seen == 2
    assert oracle.per_level_counts == {INIT_LEVEL: 1}
    # a worse query is charged to the current best level
    oracle.compare(x, bits("0111"))
    assert oracle.per_level_counts == {INIT_LEVEL: 1, 2: 1}
    # the level-entering query is charged to the level being left
    oracle.compare(x, bits("1110"))
    assert oracle.best_fitness_seen == 3
    assert oracle.per_level_counts == {INIT_LEVEL: 1, 2: 2}
    assert not oracle.optimum_found
    oracle.compare(bits("1110"), target(inst))
    assert oracle.optimum_found
    assert oracle.per_level_counts == {INIT_LEVEL: 1, 2: 2, 3: 1}
    assert oracle.query_count == sum(oracle.per_level_counts.values())


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_oracle_fast_path_matches_direct_scan(data):
    n = data.draw(st.integers(1, 16))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    inst = random_instance(n, rng)
    oracle = CountingOracle(inst)
    ref = ReferenceCounters(inst)
    x = BitString.random(n, rng)
    oracle.submit(x)
    ref.charge(x)
    ref.assert_matches(oracle)
    for _ in range(12):
        y = BitString(n, data.draw(st.integers(0, 2**n - 1)))
        fx, fy = lo_value(inst, x), lo_value(inst, y)
        expected = GREATER if fy > fx else LESS if fy < fx else EQUAL
        assert oracle.compare(x, y) == expected
        ref.charge(y)
        ref.assert_matches(oracle)
        if fy >= fx:
            x = y
    assert oracle.query_count == sum(oracle.per_level_counts.values())


def test_best_fitness_seen_is_monotone():
    rng = random.Random(13)
    inst = random_instance(10, rng)
    oracle = CountingOracle(inst)
    x = BitString.random(10, rng)
    oracle.submit(x)
    best_values = [oracle.best_fitness_seen]
    for _ in range(50):
        y = BitString.random(10, rng)
        if oracle.compare(x, y) != LESS:
            x = y
        best_values.append(oracle.best_fitness_seen)
        assert best_values[-1] == lo_value(inst, x)
    assert all(a <= b for a, b in zip(best_values, best_values[1:]))


# -- BitString ---------------------------------------------------------------------


def test_bitstring_basics():
    b = BitString(4, 0b1011)
    assert b.n == 4
    assert repr(b) == "BitString(4, '1101')"
    assert b.flip(1) == bits("1001")
    assert b == bits("1101")
    assert len({b, bits("1101")}) == 1


def test_bitstring_rejects_bad_input():
    with pytest.raises(ValueError):
        BitString(0)
    with pytest.raises(ValueError):
        BitString(3, 8)
    with pytest.raises(IndexError):
        bits("101").flip(3)


@pytest.mark.parametrize("n, z, sigma", [
    (0, 0, ()),
    (3, 8, (0, 1, 2)),
    (3, -1, (0, 1, 2)),
    (3, 5, (1, 0)),
    (3, 5, (1, 1, 0)),
    (3, 5, (0, 1, 3)),
    (3, 5, (2, 3, 1)),
    (3, 5, (0, "1", 2)),
], ids=["n-zero", "z-length", "z-negative", "sigma-length", "repeated", "out-of-range",
        "one-based", "str-entry"])
def test_lo_instance_rejects_bad_fields(n, z, sigma):
    with pytest.raises(ValueError):
        LoInstance(n, z, sigma)


def test_lo_instance_accepts_shuffled_permutation():
    n = 4096
    sigma = list(range(n))
    random.Random(4096).shuffle(sigma)
    assert LoInstance(n, 0, tuple(sigma)).sigma == tuple(sigma)


def test_identity_instance():
    # the all-ones target in the identity order is classic LeadingOnes
    n = 5
    inst = LoInstance(n, (1 << n) - 1, tuple(range(n)))
    for xw in range(1 << n):
        x01 = format(xw, f"0{n}b")[::-1]  # position 1 first
        assert lo_value(inst, BitString(n, xw)) == (x01 + "0").index("0")
