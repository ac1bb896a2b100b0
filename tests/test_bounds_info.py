import itertools
import math
import random
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elitist_lo_lab import bounds
from elitist_lo_lab.bounds import (
    ENTRY_MAPS,
    LevelSecret,
    enumerate_k_configurations,
    entry_map_constant,
    level_entry_information_check,
    onebit_simulation,
)
from elitist_lo_lab.lo_core import (
    EQUAL,
    GREATER,
    LESS,
    BitString,
    LoInstance,
    lo_value,
    set_bits,
)


# -- level-entry information ------------------------------------------------------


def _reference_configurations(n, k):
    """(mask, word) of every k-configuration, one at a time: position sets in
    `combinations` order, values in `product` order (lowest position first)."""
    for positions in itertools.combinations(range(n), k):
        for values in itertools.product((0, 1), repeat=k):
            yield (sum(1 << p for p in positions),
                   sum(v << p for p, v in zip(positions, values)))


def test_configuration_arrays_match_reference_order():
    for n in range(1, 11):
        for k in range(n + 1):
            masks, words = enumerate_k_configurations(n, k)
            assert masks.dtype == words.dtype == np.int64
            assert list(zip(masks.tolist(), words.tolist())) == list(
                _reference_configurations(n, k)), (n, k)


def test_configuration_count():
    n, k = 6, 4
    masks, words = enumerate_k_configurations(n, k)
    assert len(masks) == len(words) == 2**k * math.comb(n, k)
    assert len(set(zip(masks.tolist(), words.tolist()))) == len(masks)


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
    for _, word in _reference_configurations(n, k):
        ones = word.bit_count()
        count = math.comb(n - ones, k - ones)
        total += 1
        if count >= threshold:
            good += 1
    assert prob == Fraction(good, total)
    assert ok


def _entry_probability(n: int, k: int, entry_map) -> Fraction:
    """Pr[B <= 2^(m+1)] with B = binom(n, k) / count compared as a rational."""
    images = entry_map(*enumerate_k_configurations(n, k), n).tolist()
    counts = Counter(images)
    bound = 2 ** (n - k + 1)
    good = sum(1 for w in images if Fraction(math.comb(n, k), counts[w]) <= bound)
    return Fraction(good, len(images))


@pytest.mark.parametrize("map_name", sorted(ENTRY_MAPS))
def test_entry_check_matches_rational_reference(map_name):
    # (8, 7) and (4, 3) put some counts exactly on B = 2^(m+1)
    entry_map = ENTRY_MAPS[map_name]
    for n, k in ((8, 7), (4, 3), (6, 4), (7, 3)):
        prob, ok = level_entry_information_check(n, k, entry_map)
        ref = _entry_probability(n, k, entry_map)
        assert prob == ref and ok == (ref >= Fraction(1, 2)), (n, k)


@given(st.sampled_from([(n, k) for n in range(1, 9) for k in range(n + 1)]),
       st.sampled_from([1, 2, 4, 16, 256]), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_entry_check_is_an_instance_of_the_counting_lemma(nk, fills, seed):
    # a random consistent map: each configuration writes its bits over one of
    # `fills` random words, so few fills make images collide, many spread them
    n, k = nk
    m = n - k
    rng = random.Random(seed)
    words = [rng.getrandbits(n) for _ in range(fills)]
    table = {(mask, word): (rng.choice(words) & ~mask) | word
             for mask, word in _reference_configurations(n, k)}
    prob, ok = level_entry_information_check(n, k, lambda masks, words, n: np.array(
        [table[cfg] for cfg in zip(masks.tolist(), words.tolist())]))
    total_sets = math.comb(n, k)
    counts = Counter(table.values())
    bad_images = [w for w, c in counts.items() if c << (m + 1) < total_sets]
    bad_mass = sum(counts[w] for w in bad_images)
    assert prob == 1 - Fraction(bad_mass, len(table))
    # each bad image holds fewer than binom(n, k) / 2^(m+1) configurations
    assert bad_mass == 0 or bad_mass << (m + 1) < len(bad_images) * total_sets
    # and there are at most 2^n images, so under half of all configurations are bad
    assert prob > Fraction(1, 2) and ok


def test_entry_check_handles_m_zero():
    prob, ok = level_entry_information_check(4, 4, entry_map_constant)
    assert prob == 1 and ok


def test_entry_check_rejects_inconsistent_map():
    def broken(masks, words, n):
        return np.zeros_like(words)  # ignores the configurations' values

    # the first configuration with a one among its values is the (0, 1) set
    # with values (0, 1): its image disagrees at position 1
    with pytest.raises(ValueError, match="configuration at position 1$"):
        level_entry_information_check(5, 2, broken)


def test_entry_map_cannot_rewrite_the_configurations():
    def overwrite(masks, words, n):
        words[:] = 0  # would make the all-zero image look consistent
        return words

    with pytest.raises(ValueError, match="read-only"):
        level_entry_information_check(5, 2, overwrite)


def test_entry_check_rejects_large_n():
    with pytest.raises(ValueError):
        level_entry_information_check(15, 13, entry_map_constant)
    # the enumeration builds whole arrays, so it keeps the guards itself
    for n, k in ((15, 13), (5, 6), (5, -1)):
        with pytest.raises(ValueError):
            enumerate_k_configurations(n, k)


@pytest.mark.parametrize("bad_image, rule", [
    pytest.param(lambda masks, words, n: words.tolist(), "integer ndarray", id="list"),
    pytest.param(lambda masks, words, n: words.astype(float), "integer ndarray", id="float"),
    pytest.param(lambda masks, words, n: words[:-1], "one image per configuration",
                 id="one-too-few"),
    pytest.param(lambda masks, words, n: words.reshape(1, -1), "one image per configuration",
                 id="two-dimensional"),
    pytest.param(lambda masks, words, n: words | (1 << n), r"lie in \[0, 2\^5\)",
                 id="too-large"),
    pytest.param(lambda masks, words, n: words - (masks == 3), r"lie in \[0, 2\^5\)",
                 id="negative"),
])
def test_entry_check_rejects_malformed_images(bad_image, rule):
    with pytest.raises(ValueError, match=rule):
        level_entry_information_check(5, 2, bad_image)


def test_entry_check_accepts_any_integer_dtype():
    for dtype in (np.uint8, np.int32, np.uint64):
        prob, ok = level_entry_information_check(
            6, 4, lambda masks, words, n: entry_map_constant(masks, words, n).astype(dtype))
        assert (prob, ok) == level_entry_information_check(6, 4, entry_map_constant)


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


def _reference_image(name, mask, word, n):
    """The entry maps written out position by position over sets."""
    positions = set_bits(mask)
    free = [q for q in range(n) if q not in positions]
    if name == "lowest_free_index" and free:
        for i, q in enumerate(free):
            word |= ((free[0] >> i) & 1) << q
    elif name == "prefix_parity":
        for q in free:
            word |= (sum(1 for pos in positions if pos < q) & 1) << q
    return word


@pytest.mark.parametrize("map_name", sorted(ENTRY_MAPS))
def test_entry_maps_match_positionwise_reference(map_name):
    entry_map = ENTRY_MAPS[map_name]
    for n in range(1, 9):
        for k in range(n + 1):
            masks, words = enumerate_k_configurations(n, k)
            images = entry_map(masks, words, n)
            assert images.dtype == np.int64
            for mask, word, image in zip(masks.tolist(), words.tolist(), images.tolist()):
                assert image == _reference_image(map_name, mask, word, n), (n, mask, word)
    # a hand-built configuration: positions 1, 4, 6 with values 1, 0, 1
    mask, word = 0b1010010, 0b1000010
    image = entry_map(np.array([mask]), np.array([word]), 9)
    assert image.tolist() == [_reference_image(map_name, mask, word, 9)]


# -- one-bit simulation -------------------------------------------------------------


def _secret(n, positions, start_word, next_significant):
    mask = sum(1 << p for p in positions)
    return LevelSecret(mask, start_word & mask, next_significant)


def test_level_secret_validates_its_fields():
    assert LevelSecret(0b1010, 0b0010, 0).word == 0b0010
    assert LevelSecret(0b1010, 0, -1).next_significant == -1  # onebit_simulation rejects it
    with pytest.raises(ValueError, match="non-negative"):
        LevelSecret(-2, 0, 0)
    with pytest.raises(ValueError, match="outside the mask"):
        LevelSecret(0b1010, 0b0100, 0)
    with pytest.raises(ValueError, match="outside the mask"):
        LevelSecret(0b1010, -1, 0)
    with pytest.raises(ValueError, match="inside the configuration"):
        LevelSecret(0b1010, 0, 3)


def test_onebit_fixed_point():
    # a trace that already uses one-bit flips replays as itself
    n = 5
    start = 0
    secret = _secret(n, (0, 1), 0, 3)
    queries = [start ^ 1 << 4, start ^ 1 << 2, start ^ 1 << 3]
    sim = onebit_simulation(n, start, queries, secret)
    assert sim.queries == queries
    assert sim.length_ok
    assert len(sim.queries) == len(queries)
    assert sim.info_dominance_ok


def test_onebit_all_insignificant_flip():
    # one query flipping all m insignificant bits costs m one-bit queries
    # when the next significant bit comes last in position order
    n, k = 6, 3
    start = 0
    positions = (0, 1, 2)
    m = n - k
    secret = _secret(n, positions, 0, next_significant=5)
    query = 0b111000  # flips positions 3, 4, 5
    sim = onebit_simulation(n, start, [query], secret)
    assert len(sim.queries) == m
    assert sim.outcomes == [EQUAL, EQUAL, GREATER]
    assert sim.length_ok  # overhead m - 1 <= m
    assert sim.info_dominance_ok


def test_onebit_drop_stops_step_early():
    n = 5
    start = 0
    secret = _secret(n, (0, 1), 0, 4)
    query = 0b00011  # flips two significant positions
    sim = onebit_simulation(n, start, [query], secret)
    assert sim.outcomes == [LESS]
    assert len(sim.queries) == 1
    assert sim.info_dominance_ok


def test_onebit_skips_previously_queried_strings():
    n = 5
    start = 0
    secret = _secret(n, (0, 1), 0, 4)
    queries = [start ^ 1 << 2, 0b01100]  # 2 repeats inside step 2
    sim = onebit_simulation(n, start, queries, secret)
    assert sim.queries == [start ^ 1 << 2, start ^ 1 << 3]
    assert sim.info_dominance_ok


def test_onebit_rejects_bad_start():
    # the error names the lowest position where the start point disagrees
    n = 5
    secret = _secret(n, (0, 1, 3), 0b01011, 4)
    for word, pos in ((0, 0), (0b00001, 1), (0b00011, 3), (0b01001, 1), (0b11010, 0)):
        with pytest.raises(ValueError, match=f"with the configuration at {pos}$"):
            onebit_simulation(n, word, [1], secret)
    assert onebit_simulation(n, 0b01011, [], secret).queries == []
    # a start or a trace point with bit n set, or negative, is no n-bit point
    for start in (0b01011 | 1 << n, -1):
        with pytest.raises(ValueError, match=r"^start point outside \[0, 2\^5\)$"):
            onebit_simulation(n, start, [], secret)
    for y in (0b01011 | 1 << n, -1):
        with pytest.raises(ValueError, match=r"^trace point outside \[0, 2\^5\)$"):
            onebit_simulation(n, 0b01011, [0b01111, y], secret)


def test_onebit_length_certificate_random_traces():
    rng = random.Random(40)
    n, k = 6, 3
    m = n - k
    start = rng.getrandbits(n)
    for _ in range(200):
        positions = tuple(sorted(rng.sample(range(n), k)))
        free = [p for p in range(n) if p not in positions]
        next_bit = rng.choice(free)
        secret = _secret(n, positions, start, next_bit)
        s = rng.randrange(1, 5)
        queries = []
        seen = {start}
        while len(queries) < s:
            w = rng.getrandbits(n)
            if w not in seen:
                seen.add(w)
                queries.append(w)
        sim = onebit_simulation(n, start, queries, secret)
        assert len(sim.queries) <= sim.steps_processed + m
        assert sim.length_ok
        assert sim.info_dominance_ok


def test_onebit_rejects_secret_outside_the_string():
    n = 5
    start = 0
    for secret in (LevelSecret(0b1000000010, 0, 3),
                   _secret(n, (0, 1), 0, 7),
                   _secret(n, (0, 1), 0, -1)):
        with pytest.raises(ValueError, match=r"^secret outside \[0, 5\)"):
            onebit_simulation(n, start, [0b00100], secret)


def test_onebit_rejects_large_n_before_building_the_table():
    n = 15
    start = 0
    secret = _secret(n, (0, 1), 0, 2)
    cached = bounds._one_flip_secrets.cache_info().currsize
    with pytest.raises(ValueError, match=r"^exhaustive enumeration is limited to n <= 14$"):
        onebit_simulation(n, start, [0b100], secret)
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
                inst = LoInstance(n, 1 << b, order)
                for flipped in range(1 << n):
                    value = lo_value(inst, BitString(n, flipped))
                    outcome = LESS if value < k else EQUAL if value == k else GREATER
                    expected[flipped, outcome] |= 1 << i
            one_flip = bounds._one_flip_secrets(n, k)
            every = (1 << len(secrets)) - 1
            for q in range(n):
                for outcome in (LESS, EQUAL, GREATER):
                    assert one_flip[q][outcome] == expected[1 << q, outcome]
            for flipped in range(1 << n):
                for outcome in (LESS, EQUAL):
                    assert (bounds._narrowed(every, one_flip, set_bits(flipped), outcome)
                            == expected[flipped, outcome])


def test_onebit_dominance_fails_on_wrong_one_bit_outcomes(monkeypatch):
    # told that every one-bit flip keeps the fitness, the replay keeps
    # secrets the trace's drop has ruled out, and the certificate fails
    n, k = 5, 2
    start = 0
    secret = _secret(n, (0, 1), 0, 4)
    bounds._one_flip_secrets(n, k)  # the table is built from true outcomes
    true_outcome = bounds._outcome_of_flips
    monkeypatch.setattr(bounds, "_outcome_of_flips", lambda flipped, pmask, next_bit: (
        EQUAL if flipped.bit_count() == 1 else true_outcome(flipped, pmask, next_bit)))
    sim = onebit_simulation(n, start, [0b00101], secret)
    assert sim.outcomes == [EQUAL, EQUAL]
    assert sim.length_ok
    assert not sim.info_dominance_ok
