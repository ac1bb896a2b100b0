"""The (mu+lambda) elitist protocol: ranking-only information flow,
truncation selection, and run orchestration.

The runner owns the oracle and performs every comparison itself; a strategy
receives only three-way comparison outcomes (or population ranks), which makes
the elitist information restriction structural rather than conventional.

Runs are single-threaded; concurrent runs need disjoint oracle and state
objects.  (strategy, instance, seed, budget) fully determine a run.
"""
from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence, runtime_checkable

from .lo_core import (
    EQUAL,
    GREATER,
    BitString,
    CountingOracle,
    LoInstance,
    Ordering,
)


class StateBudgetExceeded(RuntimeError):
    """A strategy's serialized state outgrew its declared bit budget."""


@runtime_checkable
class Strategy(Protocol):
    """A (1+1) step rule.

    The runner calls `fresh_state` once per run, then alternates `step`
    (propose an offspring from the incumbent) and `learn` (receive the
    three-way comparison of the offspring against the incumbent).  Strategies
    never see numeric fitness values: the runner keeps the oracle and passes
    on comparison outcomes only.

    Optional extras:
      * state_budget_bits(n): declared bound on the packed state size; when
        not None the runner enforces it after every step.
      * pack_state(state): serialize the state to bytes for enforcement.
    """

    name: str

    def fresh_state(self, n: int, rng: random.Random): ...

    def step(self, incumbent: BitString, state, rng: random.Random) -> BitString: ...

    def learn(self, outcome: Ordering, state) -> None: ...


@runtime_checkable
class PopulationSampler(Protocol):
    """Offspring sampler for the generic (mu+lambda) runner.

    Sees only the current population multiset and its ranks (0 = best, equal
    fitness = equal rank), exactly the information the elitist protocol
    grants.  Called with the partial population during initialization.
    """

    name: str

    def sample(
        self,
        members: Sequence[BitString],
        ranks: Sequence[int],
        rng: random.Random,
        count: int,
    ) -> list[BitString]: ...


@dataclass
class RunRecord:
    """One optimization run, as emitted by the runners."""

    algo: str
    n: int
    seed: int
    total_queries: int
    hit_optimum: bool
    budget_exhausted: bool
    per_level: list[tuple[int, int]]
    # full query log, only populated when the run recorded queries; not part
    # of the serialized record
    queries: list[BitString] | None = field(default=None, repr=False, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "algo": self.algo,
            "n": self.n,
            "seed": self.seed,
            "total_queries": self.total_queries,
            "hit_optimum": self.hit_optimum,
            "budget_exhausted": self.budget_exhausted,
            "per_level": [[k, c] for k, c in self.per_level],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(", ", ": "))

    @classmethod
    def from_json_dict(cls, d: dict) -> "RunRecord":
        return cls(
            algo=d["algo"],
            n=d["n"],
            seed=d["seed"],
            total_queries=d["total_queries"],
            hit_optimum=d["hit_optimum"],
            budget_exhausted=d["budget_exhausted"],
            per_level=[(int(k), int(c)) for k, c in d["per_level"]],
        )

    def per_level_dict(self) -> dict[int, int]:
        return dict(self.per_level)


def _finish_record(algo: str, inst: LoInstance, seed: int,
                   oracle: CountingOracle, budget_exhausted: bool) -> RunRecord:
    return RunRecord(
        algo=algo,
        n=inst.n,
        seed=seed,
        total_queries=oracle.query_count,
        hit_optimum=oracle.optimum_found,
        budget_exhausted=budget_exhausted,
        per_level=sorted(oracle.per_level_counts.items()),
        queries=oracle.queries,
    )


def _check_state_budget(strategy, state, budget_bits: int) -> None:
    packed = strategy.pack_state(state)
    if len(packed) * 8 > budget_bits + 7:
        raise StateBudgetExceeded(
            f"{strategy.name}: packed state is {len(packed) * 8} bits, "
            f"declared budget {budget_bits}"
        )


def run_one_plus_one(
    strategy: Strategy,
    inst: LoInstance,
    seed: int,
    budget: int | None = None,
    *,
    accept_equal: bool = True,
    oracle: Callable[..., CountingOracle] | None = None,
    initial: BitString | None = None,
    observer: Callable | None = None,
    record_queries: bool = False,
) -> RunRecord:
    """Run a (1+1) elitist strategy until the optimum is sampled or the
    budget (charged queries) is exhausted.

    The incumbent is replaced iff compare(offspring, incumbent) is GREATER,
    or EQUAL when accept_equal (the default; the protocol permits either tie
    rule).  The initial point is uniform unless `initial` is given.

    `oracle`, when set, replaces the `CountingOracle` class: it is called as
    oracle(inst, record_queries=...) and must return a CountingOracle.

    `observer`, when set, receives ("init", point) once and then
    ("step", incumbent, offspring, outcome, accepted) per step; used by
    white-box tests.
    """
    n = inst.n
    rng = random.Random(seed)
    oracle = (oracle or CountingOracle)(inst, record_queries=record_queries)
    budget_bits = None
    if hasattr(strategy, "state_budget_bits"):
        budget_bits = strategy.state_budget_bits(n)
    state = strategy.fresh_state(n, rng)

    if budget is not None and budget < 1:
        return _finish_record(strategy.name, inst, seed, oracle, True)

    incumbent = initial if initial is not None else BitString.random(n, rng)
    oracle.submit(incumbent)
    if observer is not None:
        observer(("init", incumbent))

    # bound once: the loop below runs once per query
    step, learn, compare = strategy.step, strategy.learn, oracle.compare
    budget_exhausted = False
    while not oracle.optimum_found:
        if budget is not None and oracle.query_count >= budget:
            budget_exhausted = True
            break
        offspring = step(incumbent, state, rng)
        if not isinstance(offspring, BitString) or offspring.n != n:
            raise ValueError(f"strategy {strategy.name} emitted a wrong-length offspring")
        outcome = compare(incumbent, offspring)
        learn(outcome, state)
        accepted = outcome == GREATER or (accept_equal and outcome == EQUAL)
        if observer is not None:
            observer(("step", incumbent, offspring, outcome, accepted))
        if accepted:
            incumbent = offspring
        if budget_bits is not None:
            _check_state_budget(strategy, state, budget_bits)

    return _finish_record(strategy.name, inst, seed, oracle, budget_exhausted)


def _dense_ranks(fitnesses: Sequence[int]) -> list[int]:
    """Rank 0 = best; equal fitness gets equal rank."""
    order = sorted(set(fitnesses), reverse=True)
    rank_of = {f: r for r, f in enumerate(order)}
    return [rank_of[f] for f in fitnesses]


def run_mu_lambda(
    sampler: PopulationSampler,
    inst: LoInstance,
    mu: int,
    lam: int,
    seed: int,
    budget: int | None = None,
    *,
    discard_newest_on_ties: bool = True,
    observer: Callable | None = None,
    record_queries: bool = False,
) -> RunRecord:
    """The generic (mu+lambda) elitist protocol.

    Initialization samples mu points one at a time, each depending only on
    the partial population and its ranking.  Every round asks the sampler for
    a batch of lam offspring from the current (population, ranks) view, then
    truncation keeps the mu best of mu+lam; among equal-fitness points at the
    cut the newest are discarded first by default (configurable, the protocol
    allows arbitrary tie breaking).
    """
    if mu < 1 or lam < 1:
        raise ValueError("mu and lambda must be >= 1")
    n = inst.n
    rng = random.Random(seed)
    oracle = CountingOracle(inst, record_queries=record_queries)

    # members: [point, fitness, birth_index], oldest first
    members: list[list] = []
    birth = 0
    budget_exhausted = False

    def sample_points(count: int) -> list[BitString]:
        pts = sampler.sample(
            [m[0] for m in members], _dense_ranks([m[1] for m in members]), rng, count
        )
        if len(pts) != count or any(
            not isinstance(p, BitString) or p.n != n for p in pts
        ):
            raise ValueError(f"sampler {sampler.name} emitted a bad offspring batch")
        return pts

    for _ in range(mu):
        if budget is not None and oracle.query_count >= budget:
            budget_exhausted = True
            break
        x = sample_points(1)[0]
        f = oracle.submit(x)
        members.append([x, f, birth])
        birth += 1
        if oracle.optimum_found:
            break

    while not oracle.optimum_found and not budget_exhausted:
        if budget is not None and oracle.query_count >= budget:
            budget_exhausted = True
            break
        batch = sample_points(lam)
        offspring: list[list] = []
        for y in batch:
            if budget is not None and oracle.query_count >= budget:
                budget_exhausted = True
                break
            f = oracle.submit(y)
            offspring.append([y, f, birth])
            birth += 1
            if oracle.optimum_found:
                break
        # truncation selection: keep the mu best of mu+lambda
        pool = members + offspring
        if discard_newest_on_ties:
            pool.sort(key=lambda m: (-m[1], m[2]))
        else:
            pool.sort(key=lambda m: (-m[1], -m[2]))
        members = sorted(pool[:mu], key=lambda m: m[2])
        if observer is not None:
            observer(("round", [m[0] for m in members]))

    return _finish_record(sampler.name, inst, seed, oracle, budget_exhausted)


class UniformSampler:
    """Samples offspring uniformly from {0,1}^n, ignoring the population."""

    def __init__(self, n: int, name: str = "uniform"):
        self.n = n
        self.name = name

    def sample(self, members, ranks, rng, count):
        return [BitString.random(self.n, rng) for _ in range(count)]


class OnePlusOneAdapter:
    """Run a comparison-free (1+1) strategy (RLS, the (1+1) EA) inside the
    generic (mu+lambda) runner.

    With mu = lambda = 1, discard_newest_on_ties=False and the same seed this
    reproduces run_one_plus_one(..., accept_equal=True) query for query.
    Strategies that need comparison feedback (memlog) cannot be adapted: the
    population view only reveals post-selection ranks.
    """

    def __init__(self, strategy: Strategy, n: int):
        self._strategy = strategy
        self._n = n
        self._state = None
        self._bound = False
        self.name = strategy.name

    def sample(self, members, ranks, rng, count):
        if not self._bound:
            self._state = self._strategy.fresh_state(self._n, rng)
            self._bound = True
        out = []
        for _ in range(count):
            if not members:
                out.append(BitString.random(self._n, rng))
            else:
                best = members[ranks.index(min(ranks))]
                out.append(self._strategy.step(best, self._state, rng))
        return out


def make_monotone_transform(n: int, rng: random.Random) -> Callable[[int], int]:
    """A random strictly increasing map on [0..n] (positive random gaps)."""
    values = []
    acc = rng.randrange(-50, 50)
    for _ in range(n + 1):
        acc += rng.randrange(1, 7)
        values.append(acc)
    return lambda v: values[v]


class MonotoneOracle(CountingOracle):
    """The oracle for transform(f): `submit` returns the transformed value.

    `transform` must be strictly increasing, so comparisons and the level
    accounting, which use raw LO values, are those of the oracle for f.
    """

    def __init__(self, instance: LoInstance, transform: Callable[[int], int],
                 record_queries: bool = False):
        super().__init__(instance, record_queries=record_queries)
        self.transform = transform

    def submit(self, x: BitString) -> int:
        return self.transform(super().submit(x))


def verify_ranking_invariance(
    strategy: Strategy | Callable[[], Strategy],
    inst: LoInstance,
    monotone_transform: Callable[[int], int],
    seed: int,
    budget: int = 1_000_000,
) -> bool:
    """Run the strategy on the oracle for f and on the oracle for
    transform(f) with the same seed; True iff the query sequences coincide.

    Any strategy that consults only comparison outcomes passes for every
    strictly increasing transform; one that learns numeric values through
    some other channel can fail (the tests' negative control does).

    Accepts a strategy instance or a zero-argument factory; the factory form
    gives each of the two runs a fresh object, which matters for test
    strategies that hold state outside the runner's state object.
    """
    for v in range(inst.n):
        if not monotone_transform(v) < monotone_transform(v + 1):
            raise ValueError("transform is not strictly increasing on [0..n]")
    if isinstance(strategy, type) or not hasattr(strategy, "step"):
        first, second = strategy(), strategy()
    else:
        first, second = strategy, strategy
    rec_plain = run_one_plus_one(first, inst, seed, budget, record_queries=True)
    rec_mapped = run_one_plus_one(
        second, inst, seed, budget, record_queries=True,
        oracle=functools.partial(MonotoneOracle, transform=monotone_transform),
    )
    return rec_plain.queries == rec_mapped.queries
