"""The per-query hot path against its straightforward reference.

`run_one_plus_one`'s protocol loop, `CountingOracle.compare` and `oea_step`
are written for speed: the runner binds its calls once, `compare` inlines
the fitness cache and the charge, offspring are built without
re-validation and `oea_mask` memoizes its skip constant.  The reference
versions below are the plain forms they replaced, kept verbatim.  Every
run, counter, observer event and rng state must agree query for query.
The observer each run passes keeps rls and oea on the protocol loop; the
fused loop is compared against it in `test_fused_run.py`.
"""
import math
import random

import pytest

from elitist_lo_lab.framework import (
    RunRecord,
    StateBudgetExceeded,
    run_one_plus_one,
)
from elitist_lo_lab.heuristics import Memlog, OneEa, Rls, oea_step, rls_step
from elitist_lo_lab.lo_core import (
    EQUAL,
    GREATER,
    INIT_LEVEL,
    LESS,
    BitString,
    CountingOracle,
    random_instance,
)


# -- reference implementations ---------------------------------------------------


class ReferenceOracle(CountingOracle):
    """`CountingOracle` with the three-frame compare: cached fitness lookup,
    decision, then a separate charge."""

    def _fitness(self, word):
        cached_word, f = self._incumbent
        if word != cached_word:
            cached_word, f = self._offspring
            if word != cached_word:
                f = self._bisect(word ^ self._z, 0, self.instance.n)
            self._incumbent = (word, f)
        return f

    def _count(self, x, f):
        best = self.best_fitness_seen
        level = INIT_LEVEL if best is None else best
        counts = self.per_level_counts
        counts[level] = counts.get(level, 0) + 1
        self.query_count += 1
        if best is None or f > best:
            self.best_fitness_seen = f
        if f == self.instance.n:
            self.optimum_found = True
        if self.queries is not None:
            self.queries.append(x)

    def submit(self, x):
        if x.n != self.instance.n:
            raise ValueError(f"point has length {x.n}, instance has n={self.instance.n}")
        f = self._fitness(x.word)
        self._count(x, f)
        return f

    def compare(self, x, y):
        n = self.instance.n
        if x.n != n or y.n != n:
            raise ValueError("dimension mismatch in compare")
        fx = self._fitness(x.word)
        diff = y.word ^ self._z
        prefix = self._prefix
        if diff & prefix[fx]:
            best = self.best_fitness_seen
            if best is None or best < fx:
                self._count(y, self._bisect(diff, 0, fx - 1))
            else:
                self._count(y, fx - 1)
            return LESS
        if fx == n or diff & prefix[fx + 1]:
            fy, outcome = fx, EQUAL
        else:
            fy, outcome = self._bisect(diff, fx + 1, n), GREATER
        self._offspring = (y.word, fy)
        self._count(y, fy)
        return outcome


def reference_run(strategy, inst, seed, budget=None, *, accept_equal=True,
                  observer=None):
    """The runner loop as it was: attribute lookups and a budget-check call
    on every turn."""
    n = inst.n
    rng = random.Random(seed)
    oracle = ReferenceOracle(inst, record_queries=True)
    budget_bits = None
    if hasattr(strategy, "state_budget_bits"):
        budget_bits = strategy.state_budget_bits(n)
    state = strategy.fresh_state(n, rng)

    def finish(budget_exhausted):
        return RunRecord(strategy.name, n, seed, oracle.query_count, oracle.optimum_found,
                         budget_exhausted, sorted(oracle.per_level_counts.items()),
                         queries=oracle.queries), oracle

    def check_state_budget():
        if budget_bits is None:
            return
        packed = strategy.pack_state(state)
        if len(packed) * 8 > budget_bits + 7:
            raise StateBudgetExceeded(strategy.name)

    if budget is not None and budget < 1:
        return finish(True)
    incumbent = BitString.random(n, rng)
    oracle.submit(incumbent)
    if observer is not None:
        observer(("init", incumbent))
    budget_exhausted = False
    while not oracle.optimum_found:
        if budget is not None and oracle.query_count >= budget:
            budget_exhausted = True
            break
        offspring = strategy.step(incumbent, state, rng)
        if not isinstance(offspring, BitString) or offspring.n != n:
            raise ValueError(f"strategy {strategy.name} emitted a wrong-length offspring")
        outcome = oracle.compare(incumbent, offspring)
        strategy.learn(outcome, state)
        accepted = outcome == GREATER or (accept_equal and outcome == EQUAL)
        if observer is not None:
            observer(("step", incumbent, offspring, outcome, accepted))
        if accepted:
            incumbent = offspring
        check_state_budget()
    return finish(budget_exhausted)


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


class ScriptedMasks:
    """Replays flip masks drawn up front from its own seed: empty, single
    bits, sparse and dense words, and the full mask."""

    name = "scripted"

    def __init__(self, n, seed, count):
        rng = random.Random(seed)
        full = (1 << n) - 1
        self._masks = [rng.choice((
            0, full, 1 << rng.randrange(n), rng.getrandbits(n),
            rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n),
        )) for _ in range(count)]
        self._next = 0

    def fresh_state(self, n, rng):
        return None

    def step(self, incumbent, state, rng):
        mask = self._masks[self._next]
        self._next += 1
        return incumbent.flip_mask(mask)

    def learn(self, outcome, state):
        pass


# -- the runner, query for query -------------------------------------------------


SIZES = (1, 2, 3, 63, 64, 65, 256)
SCRIPT_LENGTH = 300


def _strategies(n, seed):
    yield lambda: Rls()
    yield lambda: OneEa()
    yield lambda: Memlog()
    yield lambda: ScriptedMasks(n, seed, SCRIPT_LENGTH)


def _assert_same_run(make_strategy, inst, seed, budget, accept_equal):
    ref_events, new_events, oracles = [], [], []

    def counting_oracle(instance, record_queries):
        oracles.append(CountingOracle(instance, record_queries=record_queries))
        return oracles[-1]

    ref, ref_oracle = reference_run(make_strategy(), inst, seed, budget,
                                    accept_equal=accept_equal, observer=ref_events.append)
    new = run_one_plus_one(make_strategy(), inst, seed, budget, accept_equal=accept_equal,
                           oracle=counting_oracle, observer=new_events.append,
                           record_queries=True)
    assert new.total_queries == ref.total_queries
    assert new.per_level == ref.per_level
    assert new.hit_optimum == ref.hit_optimum
    assert new.budget_exhausted == ref.budget_exhausted
    assert new.queries == ref.queries
    assert new_events == ref_events
    assert oracles[0].best_fitness_seen == ref_oracle.best_fitness_seen
    return new


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("accept_equal", (True, False))
def test_runner_matches_reference_loop(n, accept_equal):
    inst = random_instance(n, random.Random(9000 + n))
    cut = 0
    for index, make_strategy in enumerate(_strategies(n, seed=n)):
        seed = 100 * n + index
        scripted = index == 3
        # the scripted strategy runs out of masks, so its runs are always cut
        budgets = (SCRIPT_LENGTH // 2, SCRIPT_LENGTH) if scripted else (None, 2 * n + 5)
        for budget in budgets + (0, 1):
            rec = _assert_same_run(make_strategy, inst, seed, budget, accept_equal)
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
            _assert_same_run(make_strategy, inst, trial, rng.choice((None, 3, 40)),
                             accept_equal=rng.random() < 0.5)


# -- compare on points never charged ---------------------------------------------


@pytest.mark.parametrize("n", SIZES)
def test_compare_matches_reference_on_uncharged_points(n):
    rng = random.Random(300 + n)
    inst = random_instance(n, rng)
    for _ in range(30):
        new, ref = CountingOracle(inst, record_queries=True), ReferenceOracle(inst, record_queries=True)
        for step in range(6):
            # the first compare runs with best_fitness_seen None; later x are
            # fresh points, old offspring or optima
            x = rng.choice((BitString.random(n, rng), inst.z, BitString(n, inst.z.word ^ 1)))
            y = x.flip(rng.randrange(n)) if rng.random() < 0.5 else BitString.random(n, rng)
            if step == 0:
                assert new.best_fitness_seen is None
            assert new.compare(x, y) == ref.compare(x, y)
            assert new.query_count == ref.query_count
            assert new.best_fitness_seen == ref.best_fitness_seen
            assert new.per_level_counts == ref.per_level_counts
            assert new.optimum_found == ref.optimum_found
            assert new.queries == ref.queries


def test_compare_less_before_any_charge():
    # x = optimum, y one flip below it, nothing charged yet: the LESS branch
    # must bisect f(y) rather than compare against a missing best
    inst = random_instance(6, random.Random(5))
    for i in range(6):
        oracle = CountingOracle(inst)
        y = inst.z.flip(inst.sigma[i])
        assert oracle.compare(inst.z, y) == LESS
        assert oracle.best_fitness_seen == i
        assert oracle.per_level_counts == {INIT_LEVEL: 1}
        assert oracle.query_count == 1 and not oracle.optimum_found


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
