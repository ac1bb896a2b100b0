import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elitist_lo_lab.lo_core import (
    _WIDE_DELTA,
    EQUAL,
    GREATER,
    INIT_LEVEL,
    LESS,
    BitString,
    CountingOracle,
    LoInstance,
    format_instance,
    identity_instance,
    lo_value,
    parse_instance,
    random_instance,
    set_bits,
    significant_prefix,
)


def make_instance(z: str, sigma_1based) -> LoInstance:
    return LoInstance(len(z), BitString.from_str(z),
                      tuple(p - 1 for p in sigma_1based))


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
    # widths around the 64-bit chunking and the vectorized-path threshold
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
    # flip masks on either side of the wide-path threshold, after a first
    # submit whose translation from the complement of z is wide
    for n in (96, 130):
        inst = random_instance(n, rng)
        oracle = CountingOracle(inst)
        x = inst.z.flip_mask(sum(1 << i for i in rng.sample(range(n), n // 3)))
        assert (x.word ^ inst.z.word ^ ((1 << n) - 1)).bit_count() >= _WIDE_DELTA
        assert oracle.submit(x) == lo_value(inst, x)
        for width in (_WIDE_DELTA - 1, _WIDE_DELTA) * 15:
            y = x.flip_mask(sum(1 << i for i in rng.sample(range(n), width)))
            fx, fy = lo_value(inst, x), lo_value(inst, y)
            expected = GREATER if fy > fx else LESS if fy < fx else EQUAL
            assert oracle.compare(x, y) == expected
            if fy >= fx:
                x = y


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
    x = BitString.random(n, rng)
    oracle.submit(x)
    for _ in range(12):
        y = BitString(n, data.draw(st.integers(0, 2**n - 1)))
        fx, fy = lo_value(inst, x), lo_value(inst, y)
        expected = GREATER if fy > fx else LESS if fy < fx else EQUAL
        assert oracle.compare(x, y) == expected
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


# -- instance text format ---------------------------------------------------------


def test_instance_format_round_trip():
    rng = random.Random(17)
    for _ in range(25):
        inst = random_instance(rng.randrange(1, 12), rng)
        assert parse_instance(format_instance(inst)) == inst


def test_instance_format_example():
    text = "n=3\nz=101\nsigma=2 3 1\n"
    inst = parse_instance(text)
    assert inst == make_instance("101", (2, 3, 1))
    assert format_instance(inst) == text


def test_instance_parse_tolerates_trailing_whitespace():
    inst = parse_instance("n=3  \nz=101\t\nsigma=2 3 1   \n\n")
    assert inst == make_instance("101", (2, 3, 1))


@pytest.mark.parametrize("text", [
    "n=3\nz=10\nsigma=2 3 1",          # z wrong length
    "n=3\nz=102\nsigma=2 3 1",         # bad character
    "n=3\nz=101\nsigma=2 3 3",         # not a permutation
    "n=3\nz=101\nsigma=0 1 2",         # 0-based on disk is invalid
    "z=101\nn=3\nsigma=2 3 1",         # wrong line order
    "n=3\nz=101",                      # missing line
    "n=x\nz=101\nsigma=2 3 1",         # bad n
])
def test_instance_parse_rejects(text):
    with pytest.raises(ValueError):
        parse_instance(text)


def test_instance_file_round_trip(tmp_path):
    from elitist_lo_lab.lo_core import load_instance, save_instance

    inst = random_instance(7, random.Random(23))
    path = tmp_path / "instance.txt"
    save_instance(inst, path)
    assert load_instance(path) == inst


# -- BitString ---------------------------------------------------------------------


def test_bitstring_basics():
    b = BitString.from_str("1101")
    assert b.n == 4
    assert b.bits() == [1, 1, 0, 1]
    assert b.to01() == "1101"
    assert b.count_ones() == 3
    assert b.flip(1).to01() == "1001"
    assert b.hamming(BitString.from_str("0101")) == 1
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


def test_identity_instance():
    inst = identity_instance(5)
    assert lo_value(inst, BitString.from_str("11010")) == 2
