"""The fused rls/oea loop against the protocol loop, and the gate between them.

`run_one_plus_one` runs a plain `Rls` or `OneEa` (no observer, oracle, start
point or query log) in a loop over ints that never calls the strategy.  A
trivial subclass keeps the same draws on the protocol loop, which stays the
reference: every record and the run's final rng state must agree.  The gate
tests make the strategies' `step` raise, so a default harness run that
falls back to the protocol loop fails here, and so does an excluded case
that stops calling `step`.
"""
import hashlib
import random
import types

import pytest

from elitist_lo_lab import framework
from elitist_lo_lab.framework import run_one_plus_one
from elitist_lo_lab.harness import (
    ExperimentConfig,
    mix64,
    rep_seed,
    run_experiment,
)
from elitist_lo_lab.heuristics import OneEa, Rls
from elitist_lo_lab.lo_core import BitString, CountingOracle, random_instance

from test_harness_cli import BUDGET_DIGESTS, RUN_DIGESTS, _run_cli


class ProtocolRls(Rls):
    """`Rls` on the protocol loop: a subclass never takes the fused one."""


class ProtocolOneEa(OneEa):
    """`OneEa` on the protocol loop."""


PROTOCOL = {Rls: ProtocolRls, OneEa: ProtocolOneEa}


@pytest.fixture
def run_rngs(monkeypatch):
    """Every rng `run_one_plus_one` creates, in creation order."""
    made = []

    class RecordingRandom(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(framework, "random", types.SimpleNamespace(Random=RecordingRandom))
    return made


def _run_both(cls, inst, seed, budget, accept_equal, run_rngs):
    """The fused and the protocol record of one run, checked equal,
    including the rng state each run leaves."""
    fused = run_one_plus_one(cls(), inst, seed, budget, accept_equal=accept_equal)
    fused_state = run_rngs[-1].getstate()
    proto = run_one_plus_one(PROTOCOL[cls](), inst, seed, budget, accept_equal=accept_equal)
    assert len(run_rngs) == 2
    assert fused.to_json() == proto.to_json()
    assert fused.per_level == proto.per_level
    assert fused.queries is None
    assert fused_state == run_rngs[-1].getstate()
    run_rngs.clear()
    return fused


SIZES = list(range(1, 40)) + [63, 64, 65, 100, 128, 255, 256, 257, 300]


@pytest.mark.parametrize("n", SIZES)
def test_fused_matches_protocol(n, run_rngs):
    budgets = (None, 0, 1, 2, 3 * n, n * n // 3 + 1)
    cut = 0
    for trial in range(4 if n < 64 else 1):
        inst = random_instance(n, random.Random(7000 * n + trial))
        for cls in (Rls, OneEa):
            for accept_equal in (True, False):
                for budget in budgets:
                    seed = random.Random(f"{n}/{trial}/{budget}/{accept_equal}").getrandbits(64)
                    rec = _run_both(cls, inst, seed, budget, accept_equal, run_rngs)
                    if budget == 0:
                        assert rec.per_level == [] and rec.budget_exhausted
                    cut += rec.budget_exhausted and rec.total_queries > 1
    if n >= 8:
        assert cut > 0  # some runs really were cut mid-way


@pytest.mark.parametrize("cls,seed", [(Rls, 101), (OneEa, 202)])
def test_fused_matches_protocol_on_acceptance_runs(cls, seed, run_rngs):
    # the runs of acceptance criteria 1 (rls, seed 101) and 2 (oea, seed 202)
    # at n <= 128, as `run_experiment` derives their instances and seeds
    ns, reps = [32, 64, 128], 200
    stream = run_experiment(ExperimentConfig(cls.name, ns, reps, seed))
    count = 0
    for n in ns:
        for rep in range(reps):
            fused = next(stream)
            fused_state = run_rngs[-1].getstate()
            rs = rep_seed(seed, n, rep)
            inst = random_instance(n, random.Random(mix64(rs ^ 0x1)))
            proto = run_one_plus_one(PROTOCOL[cls](), inst, mix64(rs ^ 0x2))
            proto.seed = rs
            assert fused.to_json() == proto.to_json()
            assert fused.per_level == proto.per_level
            assert fused_state == run_rngs[-1].getstate()
            run_rngs.clear()
            count += 1
    assert next(stream, None) is None
    assert count == 600


# -- the gate ------------------------------------------------------------------------


class StepCalled(RuntimeError):
    pass


@pytest.fixture
def step_raises(monkeypatch):
    def step(self, incumbent, state, rng):
        raise StepCalled(type(self).__name__)

    for cls in (Rls, OneEa):
        monkeypatch.setattr(cls, "step", step)


# `lolab scaling --n 8,16,32,64 --reps 50 --seed 2016` output, captured
# before the fused loop existed
SCALING_DIGESTS = {
    ("rls", "csv"): "60f1ae6d99f794f71d778445a21b115b827cc883d5495811f94b3f8c5e0890a9",
    ("rls", "json"): "3de4e0d9150535f5f3196f262f7b1e720f38468e96663e2ab3b2371e6b01b32b",
    ("oea", "csv"): "5748931c44359ea21c176f8cdefffa852c454fcc6a99f166958588bf4e3f5188",
    ("oea", "json"): "27248049efb6068998eb7d53734ff6ba2ba016cab8e14d3dd7abbb7269e09df7",
}


@pytest.mark.parametrize("algo", ["rls", "oea"])
def test_harness_runs_take_the_fused_loop(algo, step_raises, tmp_path):
    for fmt in ("csv", "json"):
        out = tmp_path / f"run.{fmt}"
        assert _run_cli(["run", "--algo", algo, "--n", "1,2,3,63,64,65,256", "--reps", "3",
                         "--seed", "2016", "--format", fmt, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == RUN_DIGESTS[(algo, fmt)]
        out = tmp_path / f"scaling.{fmt}"
        assert _run_cli(["scaling", "--algo", algo, "--n", "8,16,32,64", "--reps", "50",
                         "--seed", "2016", "--format", fmt, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == SCALING_DIGESTS[(algo, fmt)]
    out = tmp_path / "cut.csv"
    assert _run_cli(["run", "--algo", algo, "--n", "64", "--reps", "3", "--seed", "5",
                     "--budget", "100", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BUDGET_DIGESTS[algo]


@pytest.mark.parametrize("cls", [Rls, OneEa])
@pytest.mark.parametrize("case", ["subclass", "observer", "record_queries", "oracle",
                                  "initial"])
def test_excluded_cases_take_the_protocol_loop(cls, case, step_raises):
    n = 16
    inst = random_instance(n, random.Random(4))
    strategy = cls()
    kwargs = {}
    if case == "subclass":
        strategy = PROTOCOL[cls]()
    elif case == "observer":
        kwargs["observer"] = lambda event: None
    elif case == "record_queries":
        kwargs["record_queries"] = True
    elif case == "oracle":
        kwargs["oracle"] = CountingOracle
    else:
        kwargs["initial"] = BitString(n, inst.z.word ^ 1)
    fused = run_one_plus_one(cls(), inst, seed=8)
    assert fused.total_queries > 1  # the start point is not the optimum
    with pytest.raises(StepCalled):
        run_one_plus_one(strategy, inst, seed=8, **kwargs)
