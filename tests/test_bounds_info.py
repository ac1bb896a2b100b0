import itertools
import math
import random
from collections import Counter, defaultdict
from fractions import Fraction

import pytest

from elitist_lo_lab import bounds
from elitist_lo_lab.bounds import (
    DROP,
    ENTRY_MAPS,
    LEAVE,
    STAY,
    KConfiguration,
    LevelSecret,
    enumerate_k_configurations,
    entry_map_constant,
    level_entry_information_check,
    onebit_simulation,
)
from elitist_lo_lab.lo_core import BitString, LoInstance, lo_value, set_bits


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


@pytest.mark.parametrize("bad_image", [
    lambda cfg, n: entry_map_constant(cfg, n).word,        # an int, not a BitString
    lambda cfg, n: entry_map_constant(cfg, n + 1),         # one position too long
    lambda cfg, n: BitString(n - 1, 0),                     # one position too short
])
def test_entry_check_rejects_non_bitstring_or_wrong_length(bad_image):
    with pytest.raises(ValueError, match="length-n BitString"):
        level_entry_information_check(5, 2, bad_image)


# exact probabilities of the three (10, 8) checks the bound checks script runs
ENTRY_PROBABILITIES_10_8 = {
    "constant": Fraction(247, 256),
    "lowest_free_index": Fraction(5569, 5760),
    "prefix_parity": Fraction(11107, 11520),
}


@pytest.mark.parametrize("map_name", sorted(ENTRY_PROBABILITIES_10_8))
def test_entry_check_pinned_at_10_8(map_name):
    prob, ok = level_entry_information_check(10, 8, ENTRY_MAPS[map_name])
    assert type(prob) is Fraction and prob == ENTRY_PROBABILITIES_10_8[map_name] and ok


def _reference_image(name, cfg, n):
    """The entry maps written out position by position over sets."""
    word = sum(val << pos for pos, val in zip(cfg.positions, cfg.values))
    free = [q for q in range(n) if q not in set(cfg.positions)]
    if name == "lowest_free_index" and free:
        for i, q in enumerate(free):
            word |= ((free[0] >> i) & 1) << q
    elif name == "prefix_parity":
        for q in free:
            word |= (sum(1 for pos in cfg.positions if pos < q) & 1) << q
    return word


@pytest.mark.parametrize("map_name", sorted(ENTRY_MAPS))
def test_entry_maps_match_positionwise_reference(map_name):
    entry_map = ENTRY_MAPS[map_name]
    for n in range(1, 9):
        for k in range(n + 1):
            for cfg in enumerate_k_configurations(n, k):
                assert entry_map(cfg, n).word == _reference_image(map_name, cfg, n), (n, cfg)
    # a caller-built configuration gets the same image as an enumerated one
    cfg = KConfiguration((1, 4, 6), (1, 0, 1))
    assert entry_map(cfg, 9).word == _reference_image(map_name, cfg, 9)


def test_enumerated_configurations_keep_caller_validation():
    # enumeration skips the checks its own output cannot fail; a configuration
    # built by a caller still runs them
    with pytest.raises(ValueError):
        KConfiguration((2, 1), (0, 1))
    with pytest.raises(ValueError):
        KConfiguration((1, 2), (0, 2))
    with pytest.raises(ValueError):
        KConfiguration((-1, 2), (0, 1))
    configs = list(enumerate_k_configurations(5, 2))
    rebuilt = [KConfiguration(c.positions, c.values) for c in configs]
    assert configs == rebuilt
    assert [(c.mask, c.word) for c in configs] == [(c.mask, c.word) for c in rebuilt]


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
    # the error names the lowest position where the start point disagrees
    n = 5
    secret = _secret(n, (0, 1, 3), 0b01011, 4)
    for word, pos in ((0, 0), (0b00001, 1), (0b00011, 3), (0b01001, 1), (0b11010, 0)):
        with pytest.raises(ValueError, match=f"with the configuration at {pos}$"):
            onebit_simulation(BitString(n, word), [BitString(n, 1)], secret)
    assert onebit_simulation(BitString(n, 0b01011), [], secret).queries == []


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


def test_onebit_rejects_secret_outside_the_string():
    n = 5
    start = BitString(n, 0)
    for secret in (LevelSecret(KConfiguration((1, 9), (0, 0)), 3),
                   _secret(n, (0, 1), 0, 7),
                   _secret(n, (0, 1), 0, -1)):
        with pytest.raises(ValueError, match=r"^secret outside \[0, 5\)"):
            onebit_simulation(start, [BitString(n, 0b00100)], secret)


def test_onebit_rejects_large_n_before_building_the_table():
    n = 15
    start = BitString(n, 0)
    secret = _secret(n, (0, 1), 0, 2)
    cached = bounds._one_flip_secrets.cache_info().currsize
    with pytest.raises(ValueError, match=r"^exhaustive enumeration is limited to n <= 14$"):
        onebit_simulation(start, [BitString(n, 0b100)], secret)
    assert bounds._one_flip_secrets.cache_info().currsize == cached


def test_secret_masks_match_lo_value():
    # start is the all-zero string; secret i = (P, b) is the instance that
    # checks P, then b, then the rest against the target 1 << b, so the
    # start has fitness k and lo_value gives every flip's outcome
    for n in range(1, 6):
        for k in range(n):
            secrets = [(ps, b) for ps in itertools.combinations(range(n), k)
                       for b in range(n) if b not in ps]
            expected = defaultdict(int)
            for i, (ps, b) in enumerate(secrets):
                order = ps + (b,) + tuple(p for p in range(n) if p not in ps and p != b)
                inst = LoInstance(n, BitString(n, 1 << b), order)
                for flipped in range(1 << n):
                    value = lo_value(inst, BitString(n, flipped))
                    outcome = DROP if value < k else STAY if value == k else LEAVE
                    expected[flipped, outcome] |= 1 << i
            one_flip = bounds._one_flip_secrets(n, k)
            every = (1 << len(secrets)) - 1
            for q in range(n):
                for outcome in (DROP, STAY, LEAVE):
                    assert one_flip[q][outcome] == expected[1 << q, outcome]
            for flipped in range(1 << n):
                for outcome in (DROP, STAY):
                    assert (bounds._narrowed(every, one_flip, set_bits(flipped), outcome)
                            == expected[flipped, outcome])


def test_onebit_dominance_fails_on_wrong_one_bit_outcomes(monkeypatch):
    # told that every one-bit flip keeps the fitness, the replay keeps
    # secrets the trace's drop has ruled out, and the certificate fails
    n, k = 5, 2
    start = BitString(n, 0)
    secret = _secret(n, (0, 1), 0, 4)
    bounds._one_flip_secrets(n, k)  # the table is built from true outcomes
    true_outcome = bounds._outcome_of_flips
    monkeypatch.setattr(bounds, "_outcome_of_flips", lambda flipped, pmask, next_bit: (
        STAY if flipped.bit_count() == 1 else true_outcome(flipped, pmask, next_bit)))
    sim = onebit_simulation(start, [BitString(n, 0b00101)], secret)
    assert sim.outcomes == [STAY, STAY]
    assert sim.length_ok
    assert not sim.info_dominance_ok
