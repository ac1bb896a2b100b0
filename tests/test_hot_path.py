"""The protocol loop, `CountingOracle.compare` and `oea_step` against
`lo_value`.

`run_one_plus_one`'s protocol loop with the Python strategies is the
reference that the fused loops must match (`test_fused_run.py`).  Here each
protocol run, of rls, oea, memlog and scripted flip masks under budgets 0,
1 and mid-run cuts, is checked query by query against `lo_value`, the
direct-scan fitness: every observer event's query, outcome and acceptance,
the record and the oracle's counters.  The observer each run passes keeps
rls, oea and memlog on the protocol loop.
`oea_step`'s draw stream is pinned against the uncached skip formula.
"""
import math
import random

import pytest

from elitist_lo_lab.framework import run_one_plus_one
from elitist_lo_lab.heuristics import Memlog, OneEa, Rls, oea_step, rls_step
from elitist_lo_lab.lo_core import (
    EQUAL,
    GREATER,
    LESS,
    BitString,
    CountingOracle,
    random_instance,
)

from test_heuristics import ScriptedMaskStrategy
from test_lo_core import ReferenceCounters


def reference_oea_step(x, rng):
    n = x.n
    if n == 1:
        return x.flip(0)
    log_keep = math.log(1.0 - 1.0 / n)
    word = x.word
    i = 0
    while True:
        u = rng.random()
        if u <= 0.0:
            break
        i += int(math.log(u) / log_keep)
        if i >= n:
            break
        word ^= 1 << i
        i += 1
    return BitString(n, word)


def scripted_masks(n, seed, count):
    """`count` flip masks drawn from their own seed: empty, single bits,
    sparse and dense words, and the full mask."""
    rng = random.Random(seed)
    full = (1 << n) - 1
    return [rng.choice((
        0, full, 1 << rng.randrange(n), rng.getrandbits(n),
        rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n),
    )) for _ in range(count)]


# -- the runner, query for query -------------------------------------------------


SIZES = (1, 2, 3, 63, 64, 65, 256)
SCRIPT_LENGTH = 300


def _strategies(n, seed):
    yield lambda: Rls()
    yield lambda: OneEa()
    yield lambda: Memlog()
    yield lambda: ScriptedMaskStrategy(scripted_masks(n, seed, SCRIPT_LENGTH))


def _assert_lo_value_run(strategy, inst, seed, budget):
    """Run the protocol loop and check it against `lo_value`; return the
    record and the (incumbent, offspring) pair of every step."""
    events, oracles = [], []

    def counting_oracle(instance):
        oracles.append(CountingOracle(instance))
        return oracles[-1]

    rec = run_one_plus_one(strategy, inst, seed, budget, oracle=counting_oracle,
                           observer=events.append)
    ref = ReferenceCounters(inst)
    queries, steps = [], []
    if events:
        kind, incumbent = events[0]
        assert kind == "init"
        # no strategy here draws in fresh_state, so the start point is the
        # rng's first draw
        assert incumbent == BitString.random(inst.n, random.Random(seed))
        fx = ref.charge(incumbent)
        queries.append(incumbent)
    for kind, x, y, outcome, accepted in events[1:]:
        assert kind == "step" and x == incumbent
        fy = ref.charge(y)
        assert outcome == (GREATER if fy > fx else LESS if fy < fx else EQUAL)
        assert accepted == (outcome != LESS)
        queries.append(y)
        steps.append((x, y))
        if accepted:
            incumbent, fx = y, fy
    ref.assert_matches(oracles[0])
    assert rec.total_queries == len(queries)
    assert rec.per_level == sorted(ref.per_level.items())
    assert rec.hit_optimum == ref.optimum
    assert rec.budget_exhausted == (not ref.optimum)
    if rec.budget_exhausted:
        assert budget is not None and len(queries) == max(budget, 0)
    return rec, steps


@pytest.mark.parametrize("n", SIZES)
def test_runner_matches_reference_loop(n):
    inst = random_instance(n, random.Random(9000 + n))
    cut = 0
    for index, make_strategy in enumerate(_strategies(n, seed=n)):
        seed = 100 * n + index
        scripted = index == 3
        # the scripted strategy runs out of masks, so its runs are always cut
        budgets = (SCRIPT_LENGTH // 2, SCRIPT_LENGTH) if scripted else (None, 2 * n + 5)
        for budget in budgets + (0, 1):
            strategy = make_strategy()
            rec, steps = _assert_lo_value_run(strategy, inst, seed, budget)
            if scripted:
                assert [x.word ^ y.word for x, y in steps] == strategy.masks[:len(steps)]
            elif index == 0:
                assert all((x.word ^ y.word).bit_count() == 1 for x, y in steps)
            cut += rec.budget_exhausted and rec.total_queries > 1
    if n >= 3:  # at n <= 2 a run ends within two queries
        assert cut > 0  # some runs really were cut mid-way


def test_runner_matches_reference_loop_many_seeds():
    # small n, many instances: every tie and LESS branch is hit often
    rng = random.Random(77)
    for trial in range(60):
        n = rng.choice((1, 2, 3, 5, 8))
        inst = random_instance(n, rng)
        for make_strategy in _strategies(n, seed=trial):
            budget = rng.choice((None, 3, 40))
            rng.random()  # unused; keeps this stream's cases unchanged
            _assert_lo_value_run(make_strategy(), inst, trial, budget)


# -- draw-stream pins ------------------------------------------------------------


PIN_SIZES = range(1, 601)  # includes 2^k and 2^k +- 1 up to 512


@pytest.mark.parametrize("seed", (0, 1, 2016))
def test_oea_step_draws_like_uncached_formula(seed):
    for n in PIN_SIZES:
        rng_new, rng_ref = random.Random(seed * 1000 + n), random.Random(seed * 1000 + n)
        x = BitString.random(n, rng_new)
        assert BitString.random(n, rng_ref) == x
        for _ in range(4):
            y_new, y_ref = oea_step(x, rng_new), reference_oea_step(x, rng_ref)
            assert y_new == y_ref
            assert rng_new.getstate() == rng_ref.getstate()
            x = y_new


def test_unchecked_offspring_are_valid_bitstrings():
    rng = random.Random(11)
    for n in (1, 2, 63, 64, 65, 300):
        x = BitString.random(n, rng)
        for y in (rls_step(x, rng), oea_step(x, rng), x.flip(n - 1),
                  x.flip_mask((1 << n) - 1), x.flip_mask(0)):
            assert type(y) is BitString
            assert BitString(y.n, y.word) == y  # the checked constructor accepts it
    x = BitString(3, 5)
    with pytest.raises(IndexError):
        x.flip(-1)
    for mask in (-1, 8, -8):
        with pytest.raises(ValueError):
            x.flip_mask(mask)
