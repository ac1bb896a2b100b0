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
    make_strategy,
    memlog_query_bound,
    oea_step,
    rls_step,
)
from elitist_lo_lab.lo_core import (
    BitString,
    LoInstance,
    identity_instance,
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
    x = BitString.from_str("0")
    for _ in range(20):
        assert rls_step(x, rng).to01() == "1"


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
    x = BitString.zeros(n)
    counts = [0] * n
    for _ in range(draws):
        y = rls_step(x, rng)
        counts[(x.word ^ y.word).bit_length() - 1] += 1
    for c in counts:
        assert abs(c / draws - 1 / n) < 0.01


# -- (1+1) EA ------------------------------------------------------------------------


def test_oea_step_n1_always_flips():
    rng = random.Random(1)
    x = BitString.from_str("1")
    for _ in range(20):
        assert oea_step(x, rng).to01() == "0"


def test_oea_no_flip_probability():
    # Pr[offspring = x] = (1 - 1/n)^n; at n=8 this is (7/8)^8 ~ 0.3436
    n, draws = 8, 100_000
    rng = random.Random(7)
    x = BitString.zeros(n)
    same = sum(oea_step(x, rng) == x for _ in range(draws))
    assert abs(same / draws - (1 - 1 / n) ** n) < 0.01


def test_oea_expected_flips_is_one():
    n, draws = 8, 100_000
    rng = random.Random(8)
    x = BitString.zeros(n)
    total = sum(oea_step(x, rng).word.bit_count() for _ in range(draws))
    assert abs(total / draws - 1.0) < 0.02


def test_oea_per_position_marginal():
    n, draws = 8, 100_000
    rng = random.Random(9)
    x = BitString.zeros(n)
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
        self._masks = list(masks)
        self._next = 0

    def fresh_state(self, n, rng):
        return None

    def step(self, incumbent, state, rng):
        mask = self._masks[self._next]
        self._next += 1
        return incumbent.flip_mask(mask)

    def learn(self, outcome, state):
        pass


def _agreement_word(x: BitString, inst: LoInstance) -> int:
    """Bit j set iff x agrees with the target at the j-th significant
    position: the coupling bijection onto the identity instance."""
    word = 0
    for j, pos in enumerate(inst.sigma):
        word |= (1 ^ ((x.word >> pos) ^ (inst.z.word >> pos)) & 1) << j
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
    ident = identity_instance(n)
    events2 = []
    rec2 = run_one_plus_one(
        ScriptedMaskStrategy(masks), ident, seed=0,
        initial=BitString(n, _agreement_word(init, inst)),
        observer=events2.append,
    )
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
            inst = LoInstance(2, BitString(2, zw), sigma)
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
    """Memlog that snapshots its state after every learn and checks there
    that the `free` cache is derived from B1 and, while halving, that P0 is
    the slice `free[lo:lo + p0_size]` of it."""

    def __init__(self):
        self.snapshots = []

    def learn(self, outcome, state):
        super().learn(outcome, state)
        assert state.free == set_bits(((1 << state.n) - 1) ^ state.b1)
        if state.halving:
            assert state.free[state.lo:state.lo + state.p0_size] == set_bits(state.p0_mask)
        self.snapshots.append((state.b1, tuple(state.outcomes), state.halving,
                               state.p0_mask, state.p0_size))


def candidate_positions(state: MemlogState) -> list[int]:
    """Recompute P0 from B1 and the halving record (checks the cache is
    genuinely derived state)."""
    p0 = [i for i in range(state.n) if not (state.b1 >> i) & 1]
    for bit in state.outcomes:
        half = (len(p0) + 1) // 2
        p0 = p0[:half] if bit else p0[half:]
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
        for (b1, outcomes, halving, p0_mask, p0_size), step in zip(spy.snapshots, steps):
            _, inc, off, outcome, accepted = step
            current = off if accepted else inc
            f = lo_value(inst, current)
            # every B1 mark sits among the first f significant positions
            assert all(r < f for r in _ranks_of_bits(b1, rank_of))
            # B2 record stays within its declared bound
            assert len(outcomes) <= clog
            if halving:
                # the cached candidate set is derived state and never empty
                halved += 1
                state = MemlogState(n)
                state.b1 = b1
                state.outcomes = list(outcomes)
                derived = candidate_positions(state)
                assert derived == set_bits(p0_mask)
                assert p0_size == len(derived) and p0_size >= 1
                assert p0_mask & b1 == 0
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
        run_one_plus_one(spy, inst, seed=n)
        state = MemlogState(n)
        for b1, outcomes, halving, p0_mask, p0_size in spy.snapshots:
            state.b1 = b1
            state.outcomes = list(outcomes)
            state.halving = halving
            packed = strategy.pack_state(state)
            assert len(packed) * 8 <= budget_bits + 7


# -- registry -----------------------------------------------------------------------


def test_strategy_registry():
    assert set(STRATEGIES) == {"rls", "oea", "memlog"}
    for name in STRATEGIES:
        assert make_strategy(name).name == name
    with pytest.raises(ValueError):
        make_strategy("simulated-annealing")
