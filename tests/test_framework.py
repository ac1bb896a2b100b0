import json
import random

import pytest

from elitist_lo_lab import framework
from elitist_lo_lab.framework import (
    RunRecord,
    StateBudgetExceeded,
    make_monotone_transform,
    run_one_plus_one,
    verify_ranking_invariance,
)
from elitist_lo_lab.heuristics import OneEa, Rls
from elitist_lo_lab.lo_core import (
    BitString,
    lo_value,
    random_instance,
)


class CheatStrategy:
    """White-box test strategy: always proposes the optimum."""

    name = "cheat"

    def __init__(self, z: BitString):
        self._z = z

    def fresh_state(self, n, rng):
        return None

    def step(self, incumbent, state, rng):
        return self._z

    def learn(self, outcome, state):
        pass


class PeekingStrategy:
    """Negative control: lets the last numeric value an oracle published on
    `channel` steer the proposals."""

    name = "peeker"

    def __init__(self, channel):
        self._channel = channel

    def fresh_state(self, n, rng):
        return None

    def step(self, incumbent, state, rng):
        return incumbent.flip(self._channel["value"] % incumbent.n)

    def learn(self, outcome, state):
        pass


def leaky_oracle(base, channel):
    """A subclass of oracle class `base` that publishes every value its
    `submit` returns on `channel`: a fitness leak outside the runner."""

    class LeakyOracle(base):
        def submit(self, x):
            channel["value"] = super().submit(x)
            return channel["value"]

    return LeakyOracle


class OverweightStrategy:
    """Declares a 4-bit state budget but packs two bytes."""

    name = "overweight"

    def fresh_state(self, n, rng):
        return {}

    def step(self, incumbent, state, rng):
        return incumbent.flip(0)

    def learn(self, outcome, state):
        pass

    def state_budget_bits(self, n):
        return 4

    def pack_state(self, state):
        return b"\x00\x00"


# -- run_one_plus_one ------------------------------------------------------------


def test_cheat_strategy_needs_two_queries():
    rng = random.Random(0)
    for seed in range(30):
        inst = random_instance(6, rng)
        rec = run_one_plus_one(CheatStrategy(inst.z), inst, seed)
        init = BitString.random(6, random.Random(seed))
        expected = 1 if init == inst.z else 2
        assert rec.total_queries == expected
        assert rec.hit_optimum


def test_rls_n1_at_most_two_queries():
    for seed in range(40):
        inst = random_instance(1, random.Random(seed + 1000))
        rec = run_one_plus_one(Rls(), inst, seed)
        assert rec.hit_optimum and rec.total_queries <= 2


def test_rls_mean_queries_n64():
    # closed-form oracle, independent of the simulator: each of the n levels
    # is visited with probability 1/2 and left after expected n queries
    n = 64
    oracle_mean = 1 + n * n / 2
    totals = []
    for rep in range(200):
        inst = random_instance(n, random.Random(10_000 + rep))
        rec = run_one_plus_one(Rls(), inst, seed=20_000 + rep)
        totals.append(rec.total_queries)
    mean = sum(totals) / len(totals)
    assert 0.40 <= mean / n**2 <= 0.60
    assert abs(mean - oracle_mean) <= 0.08 * oracle_mean


def test_run_record_determinism():
    inst = random_instance(16, random.Random(3))
    a = run_one_plus_one(Rls(), inst, seed=42)
    b = run_one_plus_one(Rls(), inst, seed=42)
    assert a == b


def test_budget_exhaustion():
    inst = random_instance(16, random.Random(4))
    rec = run_one_plus_one(OneEa(), inst, seed=5, budget=10)
    assert rec.budget_exhausted
    assert not rec.hit_optimum
    assert rec.total_queries == 10


def test_zero_budget():
    inst = random_instance(4, random.Random(4))
    rec = run_one_plus_one(Rls(), inst, seed=5, budget=0)
    assert rec.budget_exhausted and rec.total_queries == 0


def test_wrong_length_offspring_rejected():
    class BadStrategy:
        name = "bad"

        def fresh_state(self, n, rng):
            return None

        def step(self, incumbent, state, rng):
            return BitString(incumbent.n + 1)

        def learn(self, outcome, state):
            pass

    inst = random_instance(4, random.Random(1))
    with pytest.raises(ValueError):
        run_one_plus_one(BadStrategy(), inst, seed=0)


def test_per_level_sum_and_init_level():
    inst = random_instance(24, random.Random(9))
    rec = run_one_plus_one(Rls(), inst, seed=77)
    per_level = rec.per_level_dict()
    assert sum(per_level.values()) == rec.total_queries
    assert per_level[-1] == 1


def test_elitism_incumbent_fitness_non_decreasing():
    for seed in range(20):
        inst = random_instance(12, random.Random(seed + 50))
        fitness_curve = []

        def observer(event):
            if event[0] == "step":
                _, inc, off, outcome, accepted = event
                cur = lo_value(inst, off if accepted else inc)
                fitness_curve.append(cur)

        run_one_plus_one(Rls(), inst, seed, observer=observer)
        assert all(a <= b for a, b in zip(fitness_curve, fitness_curve[1:]))


def test_state_budget_enforced():
    inst = random_instance(8, random.Random(2))
    with pytest.raises(StateBudgetExceeded):
        run_one_plus_one(OverweightStrategy(), inst, seed=1, budget=100)


# -- RunRecord JSON ----------------------------------------------------------------


def test_run_record_json_schema_and_round_trip():
    inst = random_instance(10, random.Random(6))
    rec = run_one_plus_one(Rls(), inst, seed=11)
    d = json.loads(rec.to_json())
    assert set(d) == {"algo", "n", "seed", "total_queries", "hit_optimum",
                      "budget_exhausted", "per_level"}
    assert d["algo"] == "rls"
    assert isinstance(d["per_level"], list) and all(len(kv) == 2 for kv in d["per_level"])
    back = RunRecord.from_json_dict(d)
    assert back == RunRecord(rec.algo, rec.n, rec.seed, rec.total_queries,
                             rec.hit_optimum, rec.budget_exhausted, rec.per_level)


# -- ranking invariance -------------------------------------------------------------


def test_ranking_invariance_identity_transform():
    inst = random_instance(12, random.Random(31))
    assert verify_ranking_invariance(Rls, inst, lambda v: v, seed=5)
    # a strategy instance works as well as a factory
    assert verify_ranking_invariance(Rls(), inst, lambda v: v, seed=5)


def test_ranking_invariance_affine_transform():
    inst = random_instance(16, random.Random(32))
    for seed in range(5):
        assert verify_ranking_invariance(Rls, inst, lambda v: 2 * v + 1, seed=seed)


def test_ranking_invariance_random_transforms_all_strategies():
    from elitist_lo_lab.heuristics import Memlog

    rng = random.Random(33)
    inst = random_instance(16, rng)
    for strategy_cls in (Rls, OneEa, Memlog):
        for trial in range(3):
            transform = make_monotone_transform(16, rng)
            assert verify_ranking_invariance(strategy_cls, inst, transform,
                                             seed=trial)


def test_ranking_invariance_detects_peeking(monkeypatch):
    channel = {"value": 0}
    for name in ("CountingOracle", "MonotoneOracle"):
        monkeypatch.setattr(framework, name,
                            leaky_oracle(getattr(framework, name), channel))
    inst = random_instance(16, random.Random(34))
    assert not verify_ranking_invariance(
        lambda: PeekingStrategy(channel), inst, lambda v: 3 * v + 2, seed=3,
        budget=5000,
    )


def test_ranking_invariance_rejects_non_monotone():
    inst = random_instance(8, random.Random(35))
    with pytest.raises(ValueError):
        verify_ranking_invariance(Rls, inst, lambda v: 0, seed=1)
