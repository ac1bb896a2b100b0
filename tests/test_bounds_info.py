import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from elitist_lo_lab.bounds import (
    ENTRY_MAPS,
    KConfiguration,
    LevelSecret,
    enumerate_k_configurations,
    entry_map_constant,
    level_entry_information_check,
    onebit_simulation,
)
from elitist_lo_lab.lo_core import BitString


# -- level-entry information ------------------------------------------------------


def test_configuration_count():
    n, k = 6, 4
    configs = list(enumerate_k_configurations(n, k))
    assert len(configs) == 2**k * math.comb(n, k)
    assert len(set(configs)) == len(configs)


@pytest.mark.parametrize("map_name", sorted(ENTRY_MAPS))
def test_entry_maps_meet_information_guarantee_small(map_name):
    entry_map = ENTRY_MAPS[map_name]
    for n in (5, 6, 7, 8):
        for k in (n - 2, n - 3):
            prob, ok = level_entry_information_check(n, k, entry_map)
            assert ok, (map_name, n, k, float(prob))


def test_lowest_free_index_map_n4_k2():
    from elitist_lo_lab.bounds import entry_map_lowest_free_index

    prob, ok = level_entry_information_check(4, 2, entry_map_lowest_free_index)
    assert ok and prob >= Fraction(1, 2)


def test_constant_map_information_closed_form():
    # with constant zero fill, a string's compatible sets are exactly the
    # k-supersets of its one-positions
    n, k = 6, 4
    prob, ok = level_entry_information_check(n, k, entry_map_constant)
    m = n - k
    threshold = Fraction(math.comb(n, k), 2 ** (m + 1))
    good = 0
    total = 0
    for cfg in enumerate_k_configurations(n, k):
        ones = sum(cfg.values)
        count = math.comb(n - ones, k - ones)
        total += 1
        if count >= threshold:
            good += 1
    assert prob == Fraction(good, total)
    assert ok


def _entry_probability(n: int, k: int, entry_map) -> Fraction:
    """Pr[B <= 2^(m+1)] with B = binom(n, k) / count compared as a rational."""
    configs = list(enumerate_k_configurations(n, k))
    images = [entry_map(cfg, n).word for cfg in configs]
    counts = Counter(images)
    bound = 2 ** (n - k + 1)
    good = sum(1 for w in images if Fraction(math.comb(n, k), counts[w]) <= bound)
    return Fraction(good, len(configs))


@pytest.mark.parametrize("map_name", sorted(ENTRY_MAPS))
def test_entry_check_matches_rational_reference(map_name):
    # (8, 7) and (4, 3) put some counts exactly on B = 2^(m+1)
    entry_map = ENTRY_MAPS[map_name]
    for n, k in ((8, 7), (4, 3), (6, 4), (7, 3)):
        prob, ok = level_entry_information_check(n, k, entry_map)
        ref = _entry_probability(n, k, entry_map)
        assert prob == ref and ok == (ref >= Fraction(1, 2)), (n, k)


def test_entry_check_handles_m_zero():
    prob, ok = level_entry_information_check(4, 4, entry_map_constant)
    assert prob == 1 and ok


def test_entry_check_rejects_inconsistent_map():
    def broken(cfg, n):
        return BitString(n, 0)  # ignores the configuration's values

    with pytest.raises(ValueError):
        level_entry_information_check(5, 2, broken)


def test_entry_check_rejects_large_n():
    with pytest.raises(ValueError):
        level_entry_information_check(15, 13, entry_map_constant)


# -- one-bit simulation -------------------------------------------------------------


def _secret(n, positions, start_word, next_significant):
    values = tuple((start_word >> p) & 1 for p in positions)
    return LevelSecret(KConfiguration(tuple(positions), values), next_significant)


def test_onebit_fixed_point():
    # a trace that already uses one-bit flips replays as itself
    n = 5
    start = BitString(n, 0)
    secret = _secret(n, (0, 1), 0, 3)
    queries = [start.flip(4), start.flip(2), start.flip(3)]
    sim = onebit_simulation(start, queries, secret)
    assert sim.queries == queries
    assert sim.length_ok
    assert len(sim.queries) == len(queries)
    assert sim.info_dominance_ok


def test_onebit_all_insignificant_flip():
    # one query flipping all m insignificant bits costs m one-bit queries
    # when the next significant bit comes last in position order
    n, k = 6, 3
    start = BitString(n, 0)
    positions = (0, 1, 2)
    m = n - k
    secret = _secret(n, positions, 0, next_significant=5)
    query = BitString(n, 0b111000)  # flips positions 3, 4, 5
    sim = onebit_simulation(start, [query], secret)
    assert len(sim.queries) == m
    assert sim.outcomes == ["equal", "equal", "leave"]
    assert sim.length_ok  # overhead m - 1 <= m
    assert sim.info_dominance_ok


def test_onebit_drop_stops_step_early():
    n = 5
    start = BitString(n, 0)
    secret = _secret(n, (0, 1), 0, 4)
    query = BitString(n, 0b00011)  # flips two significant positions
    sim = onebit_simulation(start, [query], secret)
    assert sim.outcomes == ["drop"]
    assert len(sim.queries) == 1
    assert sim.info_dominance_ok


def test_onebit_skips_previously_queried_strings():
    n = 5
    start = BitString(n, 0)
    secret = _secret(n, (0, 1), 0, 4)
    queries = [start.flip(2), BitString(n, 0b01100)]  # 2 repeats inside step 2
    sim = onebit_simulation(start, queries, secret)
    assert sim.queries == [start.flip(2), start.flip(3)]
    assert sim.info_dominance_ok


def test_onebit_rejects_bad_start():
    n = 5
    secret = _secret(n, (0, 1), 0b00011, 4)
    with pytest.raises(ValueError):
        onebit_simulation(BitString(n, 0), [BitString(n, 1)], secret)


def test_onebit_length_certificate_random_traces():
    rng = random.Random(40)
    n, k = 6, 3
    m = n - k
    start = BitString(n, rng.getrandbits(n))
    for _ in range(200):
        positions = tuple(sorted(rng.sample(range(n), k)))
        free = [p for p in range(n) if p not in positions]
        next_bit = rng.choice(free)
        secret = _secret(n, positions, start.word, next_bit)
        s = rng.randrange(1, 5)
        queries = []
        seen = {start.word}
        while len(queries) < s:
            w = rng.getrandbits(n)
            if w not in seen:
                seen.add(w)
                queries.append(BitString(n, w))
        sim = onebit_simulation(start, queries, secret)
        assert len(sim.queries) <= sim.steps_processed + m
        assert sim.length_ok
        assert sim.info_dominance_ok
