import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elitist_lo_lab.framework import run_one_plus_one
from elitist_lo_lab.heuristics import (
    Memlog,
    MemlogState,
    OneEa,
    Rls,
    STRATEGIES,
    _window,
    lowest_set_bits,
    make_strategy,
    memlog_query_bound,
    oea_step,
    rls_step,
)
from elitist_lo_lab.lo_core import (
    EQUAL,
    GREATER,
    LESS,
    BitString,
    LoInstance,
    lo_value,
    random_instance,
    set_bits,
)


def invert_permutation(sigma: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(sigma)
    for rank, pos in enumerate(sigma):
        inv[pos] = rank
    return tuple(inv)


# -- RLS ---------------------------------------------------------------------------


def test_rls_step_n1_always_flips():
    rng = random.Random(0)
    x = BitString(1, 0)
    for _ in range(20):
        assert rls_step(x, rng) == BitString(1, 1)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_rls_step_hamming_distance_one(data):
    n = data.draw(st.integers(1, 40))
    x = BitString(n, data.draw(st.integers(0, 2**n - 1)))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    assert (x.word ^ rls_step(x, rng).word).bit_count() == 1


def test_rls_flip_position_uniformity():
    n, draws = 8, 100_000
    rng = random.Random(99)
    x = BitString(n)
    counts = [0] * n
    for _ in range(draws):
        y = rls_step(x, rng)
        counts[(x.word ^ y.word).bit_length() - 1] += 1
    for c in counts:
        assert abs(c / draws - 1 / n) < 0.01


# -- (1+1) EA ------------------------------------------------------------------------


def test_oea_step_n1_always_flips():
    rng = random.Random(1)
    x = BitString(1, 1)
    for _ in range(20):
        assert oea_step(x, rng) == BitString(1, 0)


def test_oea_no_flip_probability():
    # Pr[offspring = x] = (1 - 1/n)^n; at n=8 this is (7/8)^8 ~ 0.3436
    n, draws = 8, 100_000
    rng = random.Random(7)
    x = BitString(n)
    same = sum(oea_step(x, rng) == x for _ in range(draws))
    assert abs(same / draws - (1 - 1 / n) ** n) < 0.01


def test_oea_expected_flips_is_one():
    n, draws = 8, 100_000
    rng = random.Random(8)
    x = BitString(n)
    total = sum(oea_step(x, rng).word.bit_count() for _ in range(draws))
    assert abs(total / draws - 1.0) < 0.02


def test_oea_per_position_marginal():
    n, draws = 8, 100_000
    rng = random.Random(9)
    x = BitString(n)
    counts = [0] * n
    for _ in range(draws):
        w = oea_step(x, rng).word
        for i in range(n):
            counts[i] += (w >> i) & 1
    for c in counts:
        assert abs(c / draws - 1 / n) < 0.01


# -- unbiasedness coupling -------------------------------------------------------------


class ScriptedMaskStrategy:
    """Replays a fixed list of flip masks relative to the current incumbent."""

    name = "scripted"

    def __init__(self, masks):
        self.masks = list(masks)
        self._next = 0

    def fresh_state(self, n, rng):
        return None

    def step(self, incumbent, state, rng):
        mask = self.masks[self._next]
        self._next += 1
        return incumbent.flip_mask(mask)

    def learn(self, outcome, state):
        pass


def _agreement_word(x: BitString, inst: LoInstance) -> int:
    """Bit j set iff x agrees with the target at the j-th significant
    position: the coupling bijection onto the identity instance."""
    word = 0
    for j, pos in enumerate(inst.sigma):
        word |= (1 ^ ((x.word >> pos) ^ (inst.z >> pos)) & 1) << j
    return word


def _permute_mask(mask: int, rank_of) -> int:
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << rank_of[low.bit_length() - 1]
        mask ^= low
    return out


def run_coupled(strategy_cls, inst: LoInstance, seed: int):
    """Run the strategy on inst, then replay the position-relabeled,
    value-translated randomness on the identity instance; returns both
    fitness trajectories and totals."""
    n = inst.n
    events = []
    rec = run_one_plus_one(strategy_cls(), inst, seed, observer=events.append)
    init = next(e[1] for e in events if e[0] == "init")
    steps = [e for e in events if e[0] == "step"]
    traj = []
    for _, inc, off, outcome, accepted in steps:
        traj.append(lo_value(inst, off if accepted else inc))

    rank_of = invert_permutation(inst.sigma)
    masks = [_permute_mask(inc.word ^ off.word, rank_of)
             for _, inc, off, _, _ in steps]
    # seed 0 starts the replay at `start`; the identity target agrees with
    # it exactly at the ranks where init agrees with inst's target
    start = random.Random(0).getrandbits(n)
    agree = _agreement_word(init, inst)
    ident = LoInstance(n, start ^ agree ^ ((1 << n) - 1), tuple(range(n)))
    events2 = []
    rec2 = run_one_plus_one(ScriptedMaskStrategy(masks), ident, seed=0,
                            observer=events2.append)
    steps2 = [e for e in events2 if e[0] == "step"]
    traj2 = []
    for _, inc, off, outcome, accepted in steps2:
        traj2.append(lo_value(ident, off if accepted else inc))
    return rec, traj, rec2, traj2


@pytest.mark.parametrize("strategy_cls", [Rls, OneEa])
def test_unbiasedness_coupling(strategy_cls):
    rng = random.Random(202)
    for _ in range(25):
        n = rng.randrange(4, 24)
        inst = random_instance(n, rng)
        seed = rng.randrange(2**30)
        rec, traj, rec2, traj2 = run_coupled(strategy_cls, inst, seed)
        assert traj == traj2
        assert rec.total_queries == rec2.total_queries
        assert rec.per_level == rec2.per_level


# -- memlog -----------------------------------------------------------------------------


def test_memlog_n1():
    for seed in range(20):
        inst = random_instance(1, random.Random(seed + 5))
        rec = run_one_plus_one(Memlog(), inst, seed)
        assert rec.hit_optimum and rec.total_queries <= 2


def test_memlog_n2_all_instances():
    for zw in range(4):
        for sigma in ((0, 1), (1, 0)):
            inst = LoInstance(2, zw, sigma)
            for seed in range(8):
                rec = run_one_plus_one(Memlog(), inst, seed)
                assert rec.hit_optimum
                assert rec.total_queries <= 12


@pytest.mark.parametrize("n", [64, 256])
def test_memlog_bound_and_optimum(n):
    for seed in range(10):
        inst = random_instance(n, random.Random(seed + 31))
        rec = run_one_plus_one(Memlog(), inst, seed + 7000)
        assert rec.hit_optimum
        assert rec.total_queries <= memlog_query_bound(n)


class SpyMemlog(Memlog):
    """Memlog that snapshots its state (B1, B2 and the phase flag) and its
    packed int after every learn."""

    def __init__(self):
        self.snapshots = []
        self.packed = []

    def learn(self, outcome, state):
        super().learn(outcome, state)
        self.snapshots.append((state.b1, state.record, state.halving))
        self.packed.append(self.pack_state(state))


def candidate_positions(state: MemlogState) -> list[int]:
    """Recompute P0 from B1 and the halving record by splitting the list
    of B1's zeros, independently of `_window`'s index arithmetic."""
    p0 = [i for i in range(state.n) if not (state.b1 >> i) & 1]
    for bit in bin(state.record)[3:]:  # the outcome bits below the leading 1
        half = (len(p0) + 1) // 2
        p0 = p0[:half] if bit == "1" else p0[half:]
    return p0


def _ranks_of_bits(word: int, rank_of) -> list[int]:
    out = []
    while word:
        low = word & -word
        out.append(rank_of[low.bit_length() - 1])
        word ^= low
    return out


def test_memlog_whitebox_invariants():
    for n in (1, 2, 48, 65):
        _check_memlog_whitebox(n)


def _check_memlog_whitebox(n):
    clog = math.ceil(math.log2(n))
    halved = 0
    for seed in range(6):
        inst = random_instance(n, random.Random(seed + 61))
        rank_of = invert_permutation(inst.sigma)
        spy = SpyMemlog()
        events = []
        rec = run_one_plus_one(spy, inst, seed + 9000, observer=events.append)
        assert rec.hit_optimum
        steps = [e for e in events if e[0] == "step"]
        assert len(steps) == len(spy.snapshots)
        progress = []
        for (b1, record, halving), step in zip(spy.snapshots, steps):
            _, inc, off, outcome, accepted = step
            current = off if accepted else inc
            f = lo_value(inst, current)
            # every B1 mark sits among the first f significant positions
            assert all(r < f for r in _ranks_of_bits(b1, rank_of))
            # B2 record stays within its declared bound
            assert record.bit_length() - 1 <= clog
            if halving:
                # B2's index window into zeros(B1) is the candidate set,
                # which holds two positions or more
                halved += 1
                state = MemlogState(n)
                state.b1 = b1
                state.record = record
                zeros = set_bits(((1 << n) - 1) ^ b1)
                lo, hi = _window(len(zeros), record)
                assert zeros[lo:hi] == candidate_positions(state)
                assert hi - lo >= 2
            progress.append(f + b1.bit_count())
        # every clog+1 consecutive queries strictly increase f + |B1|
        window = clog + 1
        for i in range(len(progress) - window):
            assert progress[i + window] > progress[i]
    if n >= 48:
        assert halved > 0  # the halving-phase checks really ran


def test_memlog_state_packing_within_budget():
    strategy = Memlog()
    for n in (5, 17, 64):
        budget_bits = strategy.state_budget_bits(n)
        inst = random_instance(n, random.Random(n))
        spy = SpyMemlog()
        # a run seed equal to the instance seed would start on the optimum
        run_one_plus_one(spy, inst, seed=n + 1)
        assert len({b1 for b1, *_ in spy.snapshots}) > 2  # B1 changes during the run
        state = MemlogState(n)
        for b1, record, halving in spy.snapshots:
            state.b1 = b1
            state.record = record
            state.halving = halving
            packed = strategy.pack_state(state)
            assert packed.bit_length() <= budget_bits
            assert unpack_state(n, packed) == (b1, record, halving)


# sha256 of the `pack_state` ints after every protocol step of the runs in
# `test_memlog_pack_state_pin`, each written as (n + len(B2) + 9) >> 3
# little-endian bytes and concatenated; recorded when `MemlogState` kept
# its phase flag in a field of its own and packed to those bytes, so any
# changed bit shows here
PACK_STATE_DIGEST = "05713db2c2cb789089a367a4efcd8c2e91bb374456bbab5a44152a879e9357d9"


def test_memlog_pack_state_pin():
    digest = hashlib.sha256()
    steps = 0
    for n in [*range(1, 18), 64, 65, 1024]:
        spy = SpyMemlog()
        run_one_plus_one(spy, random_instance(n, random.Random(n)), seed=n + 1)
        steps += len(spy.packed)
        digest.update(b"".join(packed.to_bytes((n + record.bit_length() + 9) >> 3, "little")
                               for packed, (_, record, _) in zip(spy.packed, spy.snapshots)))
    assert steps == 13268
    assert digest.hexdigest() == PACK_STATE_DIGEST


def unpack_state(n, packed):
    """B1, B2 and the phase flag read back from memlog's packed int: B1 is
    the low n bits, and above it sits B2's leading 1 outside halving, or B2
    under a set phase flag while halving."""
    rest = packed >> n
    halving = rest != 1
    record = rest ^ (1 << (rest.bit_length() - 1)) if halving else 1
    return packed & ((1 << n) - 1), record, halving


@pytest.mark.parametrize("n", [*range(1, 18), *range(1024, 1032)])
def test_memlog_pack_state_after_every_b1_write(n):
    # Scripted outcomes reach both B1 write sites, the halving phase's
    # singleton and the probe's singleton LESS, which no oracle-driven run
    # reaches; after each, the packed state must hold B1, B2 and the phase
    # flag within the declared budget.
    rng = random.Random(7000 + n)
    strategy = Memlog()
    budget_bits = strategy.state_budget_bits(n)
    full = (1 << n) - 1
    writes = {"halving": 0, "probe": 0}
    for trial in range(3 if n < 1024 else 1):
        x = BitString.random(n, rng)
        state = strategy.fresh_state(n, rng)
        assert unpack_state(n, strategy.pack_state(state)) == (0, 1, False)
        while state.b1 != full:
            y = strategy.step(x, state, rng)
            was_halving, b1 = state.halving, state.b1
            if was_halving:
                outcome = rng.choices((LESS, EQUAL, GREATER), (9, 9, 2))[0]
            else:
                # a last unmarked position is always a LESS probe's singleton
                outcome = (LESS if (full ^ state.b1).bit_count() == 1
                           else rng.choices((LESS, GREATER), (9, 1))[0])
            strategy.learn(outcome, state)
            if state.b1 != b1:
                writes["halving" if was_halving else "probe"] += 1
            packed = strategy.pack_state(state)
            assert packed.bit_length() <= budget_bits
            assert unpack_state(n, packed) == (state.b1, state.record, state.halving)
            if outcome == GREATER:
                x = y
        with pytest.raises(RuntimeError):  # every position is marked
            strategy.step(x, state, rng)
    assert writes["halving"] > 0 or n == 1  # at n = 1 no phase halves
    assert writes["probe"] > 0


def test_lowest_set_bits_matches_naive_scan():
    rng = random.Random(3)
    cases = [(0, 0), (0, 3), (rng.getrandbits(50), 0), ((1 << 4096) - 1, 0)]
    for _ in range(500):
        n = rng.randrange(1, 160)
        cases.append((rng.getrandbits(n), rng.randrange(0, n + 2)))
    for n in (64, 65, 200, 1024, 4096):
        # masks with at least 64 set bits
        mask = rng.getrandbits(n) | sum(1 << i for i in rng.sample(range(n), 64))
        total = mask.bit_count()
        cases += [(mask, 0), (mask, 1), (mask, 63), (mask, 64), (mask, total // 2),
                  (mask, total), (mask, total + 1), (mask, rng.randrange(total + 1))]
    for mask, count in cases:
        positions = [i for i in range(mask.bit_length()) if (mask >> i) & 1]
        want = sum(1 << i for i in positions[:count])
        assert lowest_set_bits(mask, count) == want


# -- registry -----------------------------------------------------------------------


def test_strategy_registry():
    assert set(STRATEGIES) == {"rls", "oea", "memlog"}
    for name in STRATEGIES:
        assert make_strategy(name).name == name
    with pytest.raises(ValueError):
        make_strategy("simulated-annealing")
