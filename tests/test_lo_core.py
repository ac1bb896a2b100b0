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
    identity_instance,
    lo_value,
    random_instance,
    set_bits,
    significant_prefix,
)


def make_instance(z: str, sigma_1based) -> LoInstance:
    return LoInstance(len(z), BitString.from_str(z),
                      tuple(p - 1 for p in sigma_1based))


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

    def charge(self, point: BitString) -> None:
        f = lo_value(self.inst, point)
        level = INIT_LEVEL if self.best is None else self.best
        self.per_level[level] = self.per_level.get(level, 0) + 1
        self.best = f if self.best is None else max(self.best, f)
        self.optimum = self.optimum or f == self.inst.n

    def assert_matches(self, oracle: CountingOracle) -> None:
        assert oracle.best_fitness_seen == self.best
        assert oracle.per_level_counts == self.per_level
        assert oracle.optimum_found == self.optimum
        assert oracle.query_count == sum(self.per_level.values())


# -- lo_value -------------------------------------------------------------------


def test_lo_value_identity_order():
    inst = make_instance("1111", (1, 2, 3, 4))
    assert lo_value(inst, BitString.from_str("1101")) == 2


def test_lo_value_optimum_is_n():
    rng = random.Random(5)
    for _ in range(20):
        inst = random_instance(rng.randrange(1, 12), rng)
        assert lo_value(inst, inst.z) == inst.n


def test_lo_value_permuted_order():
    # sigma = (3,1,4,2,5): checks position 3 first, then 1, then 4, ...
    inst = make_instance("00000", (3, 1, 4, 2, 5))
    assert lo_value(inst, BitString.from_str("01011")) == 2


def test_lo_value_dimension_mismatch():
    inst = make_instance("111", (1, 2, 3))
    with pytest.raises(ValueError):
        lo_value(inst, BitString.from_str("11"))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_lo_value_bounds_and_optimum_unique(data):
    n = data.draw(st.integers(1, 10))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    inst = random_instance(n, rng)
    x = BitString(n, data.draw(st.integers(0, 2**n - 1)))
    v = lo_value(inst, x)
    assert 0 <= v <= n
    assert (v == n) == (x == inst.z)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_lo_value_prefix_agreement(data):
    n = data.draw(st.integers(1, 10))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    inst = random_instance(n, rng)
    x = BitString(n, data.draw(st.integers(0, 2**n - 1)))
    k = data.draw(st.integers(0, n))
    agrees = all(x.bit(pos) == inst.z.bit(pos) for pos in inst.sigma[:k])
    assert (lo_value(inst, x) >= k) == agrees


def test_lo_value_prefix_agreement_exhaustive_n4():
    import itertools

    n = 4
    for zw in range(2**n):
        for sigma in itertools.permutations(range(n)):
            inst = LoInstance(n, BitString(n, zw), sigma)
            for xw in range(2**n):
                x = BitString(n, xw)
                v = lo_value(inst, x)
                for k in range(n + 1):
                    agrees = all(x.bit(p) == inst.z.bit(p) for p in sigma[:k])
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
        x = inst.z.flip_mask(sum(1 << i for i in rng.sample(range(n), n // 3)))
        assert (x.word ^ inst.z.word ^ ((1 << n) - 1)).bit_count() >= 48
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
        assert oracle.submit(inst.z) == n
        ref.charge(inst.z)
        offspring = [inst.z] + [inst.z.flip(i) for i in rng.sample(range(n), min(n, 8))]
        for y in offspring:
            assert oracle.compare(inst.z, y) == (EQUAL if y == inst.z else LESS)
            ref.charge(y)
            ref.assert_matches(oracle)


def test_oracle_n1():
    for z in ("0", "1"):
        inst = make_instance(z, (1,))
        other = BitString.from_str("1" if z == "0" else "0")
        oracle = CountingOracle(inst)
        assert oracle.submit(other) == 0
        assert oracle.compare(other, other) == EQUAL
        assert not oracle.optimum_found
        assert oracle.compare(other, inst.z) == GREATER
        assert oracle.compare(inst.z, other) == LESS
        assert oracle.compare(inst.z, inst.z) == EQUAL
        assert oracle.submit(inst.z) == 1
        assert oracle.best_fitness_seen == 1 and oracle.optimum_found
        assert oracle.per_level_counts == {INIT_LEVEL: 1, 0: 2, 1: 3}


def test_oracle_compare_on_uncharged_point():
    rng = random.Random(41)
    for n in (1, 3, 16, 70, 300):
        for _ in range(20):
            inst = random_instance(n, rng)
            oracle = CountingOracle(inst)
            ref = ReferenceCounters(inst)
            for _ in range(4):
                # neither x nor y has been submitted, nor compared as y
                x, y = BitString.random(n, rng), BitString.random(n, rng)
                if rng.random() < 0.5:
                    y = x.flip(rng.randrange(n))
                assert oracle.compare(x, y) == expected_order(inst, x, y)
                ref.charge(y)
                ref.assert_matches(oracle)


def test_set_bits_matches_naive_scan():
    rng = random.Random(29)
    masks = [0, 1 << 63, 1 << 64, 1 << 65]
    masks += [rng.getrandbits(rng.randrange(1, 301)) for _ in range(300)]
    for mask in masks:
        assert set_bits(mask) == [i for i in range(mask.bit_length()) if (mask >> i) & 1]


# -- random_instance ------------------------------------------------------------


def test_random_instance_deterministic():
    a = random_instance(9, random.Random(123))
    b = random_instance(9, random.Random(123))
    assert a == b


def test_random_instance_n1():
    seen = {random_instance(1, random.Random(s)).z.to01() for s in range(64)}
    assert seen == {"0", "1"}


def test_random_instance_rejects_n0():
    with pytest.raises(ValueError):
        random_instance(0, random.Random(0))


def test_random_instance_uniform_chi_square():
    # 2^3 * 3! = 48 equally likely instances; chi-square at significance 0.001
    rng = random.Random(2024)
    draws = 100_000
    counts = {}
    for _ in range(draws):
        inst = random_instance(3, rng)
        key = (inst.z.word, inst.sigma)
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
    x = BitString.from_str("0011")
    oracle.submit(x)
    assert oracle.compare(x, x) == EQUAL


def test_compare_optimum_dominates():
    rng = random.Random(7)
    for _ in range(20):
        inst = random_instance(6, rng)
        oracle = CountingOracle(inst)
        x = BitString.random(6, rng)
        oracle.submit(x)
        expected = EQUAL if x == inst.z else GREATER
        assert oracle.compare(x, inst.z) == expected


def test_compare_less_example():
    inst = make_instance("1111", (1, 2, 3, 4))
    oracle = CountingOracle(inst)
    x = BitString.from_str("1100")
    oracle.submit(x)
    assert oracle.compare(x, BitString.from_str("1010")) == LESS


def test_compare_dimension_mismatch():
    inst = make_instance("111", (1, 2, 3))
    oracle = CountingOracle(inst)
    with pytest.raises(ValueError):
        oracle.compare(BitString.from_str("111"), BitString.from_str("11"))


def test_compare_is_pure_apart_from_counters():
    rng = random.Random(11)
    inst = random_instance(7, rng)
    oracle = CountingOracle(inst)
    x = BitString.random(7, rng)
    y = BitString.random(7, rng)
    oracle.submit(x)
    results = {oracle.compare(x, y) for _ in range(10)}
    assert len(results) == 1


def test_oracle_counters_and_charging():
    inst = make_instance("1111", (1, 2, 3, 4))
    oracle = CountingOracle(inst)
    x = BitString.from_str("1100")  # fitness 2
    oracle.submit(x)
    assert oracle.query_count == 1
    assert oracle.best_fitness_seen == 2
    assert oracle.per_level_counts == {INIT_LEVEL: 1}
    # a worse query is charged to the current best level
    oracle.compare(x, BitString.from_str("0111"))
    assert oracle.per_level_counts == {INIT_LEVEL: 1, 2: 1}
    # the level-entering query is charged to the level being left
    oracle.compare(x, BitString.from_str("1110"))
    assert oracle.best_fitness_seen == 3
    assert oracle.per_level_counts == {INIT_LEVEL: 1, 2: 2}
    assert not oracle.optimum_found
    oracle.compare(BitString.from_str("1110"), inst.z)
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
        oracle.compare(x, BitString.random(10, rng))
        best_values.append(oracle.best_fitness_seen)
    assert all(a <= b for a, b in zip(best_values, best_values[1:]))


# -- significant_prefix ----------------------------------------------------------


def test_significant_prefix_empty():
    inst = make_instance("101", (2, 3, 1))
    assert significant_prefix(inst, 0) == []


def test_significant_prefix_example():
    inst = make_instance("101", (2, 3, 1))
    assert significant_prefix(inst, 2) == [(2, 0), (3, 1)]


def test_significant_prefix_full():
    inst = make_instance("101", (2, 3, 1))
    assert significant_prefix(inst, 3) == [(2, 0), (3, 1), (1, 1)]


def test_significant_prefix_out_of_range():
    inst = make_instance("101", (2, 3, 1))
    with pytest.raises(ValueError):
        significant_prefix(inst, 4)


def test_significant_prefix_touches_no_counter():
    inst = make_instance("101", (2, 3, 1))
    oracle = CountingOracle(inst)
    significant_prefix(inst, 2)
    assert oracle.query_count == 0


# -- BitString ---------------------------------------------------------------------


def test_bitstring_basics():
    b = BitString.from_str("1101")
    assert b.n == 4
    assert b.to01() == "1101"
    assert b.flip(1).to01() == "1001"
    assert b == BitString.from_bits([1, 1, 0, 1])
    assert len({b, BitString.from_str("1101")}) == 1


def test_bitstring_rejects_bad_input():
    with pytest.raises(ValueError):
        BitString(0)
    with pytest.raises(ValueError):
        BitString(3, 8)
    with pytest.raises(IndexError):
        BitString.from_str("101").flip(3)
    with pytest.raises(ValueError):
        BitString.from_bits([0, 2])


@pytest.mark.parametrize("z, sigma", [
    ("10", (1, 2, 0)),
    ("101", (1, 0)),
    ("101", (1, 1, 0)),
    ("101", (0, 1, 3)),
    ("101", (2, 3, 1)),
], ids=["z-length", "sigma-length", "repeated", "out-of-range", "one-based"])
def test_lo_instance_rejects_bad_fields(z, sigma):
    with pytest.raises(ValueError):
        LoInstance(3, BitString.from_str(z), sigma)


def test_identity_instance():
    inst = identity_instance(5)
    assert lo_value(inst, BitString.from_str("11010")) == 2
