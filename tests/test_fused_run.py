"""The fused rls/oea and memlog loops against the protocol loop, and the
gate between them.

`run_one_plus_one` runs a plain `Rls`, `OneEa` or `Memlog` (no observer
or oracle) in a loop over ints that never calls the strategy's methods.
A trivial subclass keeps the same draws on the protocol loop, which stays
the reference: every record and the run's final rng state must agree.
Only the protocol loop builds a `CountingOracle`; both it and the fused
loops keep the incumbent's prefix mask as one int and extend it
with `lo_core._climb` as f rises, so every fused run here runs with the
oracle's constructor made to raise, one run per strategy and loop at
n = 4096 must stay under a traced-memory bound, and so must one oracle at
n = 16384.  The fused memlog loop reads a whole halving search off the
bit-reversed leaf codes of two indices into its list of unmarked
positions, and finds the lowest gap in a heap, while the protocol loop's
`Memlog` bisects `p0_mask` with `lowest_set_bits` query by query, so the
memlog checks compare two searches written independently (searches that
end GREATER partway, runs cut after every step of a search, every case at
n <= 3, and n = 4097, where the codes' bit count drops at the first
mark).  The fused bodies run a level at a time, so a few small runs of
each strategy are cut at every budget, and an instance with a repeated
position reaches memlog's invariant check.  The code rule and its upkeep
are also checked against the halving loop they replaced,
`reference_search`, and against their definition, and so are the first
codes a run copies.  memlog's declared state budget holds by
construction, which `pack_state` confirms here for a full state, so the
fused loop checks no budget; a subclass that declares a smaller one
runs the protocol loop, which enforces it.  The fused EA loop ends each
mask on a `_stop_below` threshold rather than `oea_mask`'s last step, so
that table is checked against the step draw by draw near every
threshold.  From a crossover n
on, rls and EA runs skip levels over bulk-drawn words; that engine is
checked against the protocol loop with tiny chunks, its numpy steps
against `math.log` near every step boundary, and its crossover through
harness runs on either side; diff bits below the level, which an rls
stretch sets at will, must not change what it does.  The gate tests make
`step`, `learn` and memlog's `pack_state` and `state_budget_bits` raise,
so a default harness run that falls back to the protocol loop fails here,
and so does an excluded case that stops calling them.
"""
import bisect
import contextlib
import hashlib
import itertools
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import threading
import tracemalloc
import types

import numpy as np
import pytest

from elitist_lo_lab import framework
from elitist_lo_lab.framework import StateBudgetExceeded, run_one_plus_one
from elitist_lo_lab.harness import (
    ExperimentConfig,
    mix64,
    rep_seed,
    run_experiment,
)
from elitist_lo_lab.heuristics import (
    Memlog,
    MemlogState,
    OneEa,
    Rls,
    _log_keep,
    _stop_below,
)
from elitist_lo_lab.lo_core import (
    EQUAL,
    GREATER,
    LESS,
    BitString,
    CountingOracle,
    LoInstance,
    random_instance,
)

from test_harness_cli import BUDGET_DIGESTS, RUN_DIGESTS, _run_cli


class ProtocolRls(Rls):
    """`Rls` on the protocol loop: a subclass never takes the fused one."""


class ProtocolOneEa(OneEa):
    """`OneEa` on the protocol loop."""


class ProtocolMemlog(Memlog):
    """`Memlog` on the protocol loop."""


PROTOCOL = {Rls: ProtocolRls, OneEa: ProtocolOneEa, Memlog: ProtocolMemlog}


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


class OracleBuilt(RuntimeError):
    pass


@contextlib.contextmanager
def _no_oracle():
    """A context in which building a `CountingOracle` raises: a fused run
    keeps its prefix mask itself and must build none."""
    def built(self, instance):
        raise OracleBuilt("a fused run built a CountingOracle")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CountingOracle, "__init__", built)
        yield


def _run_both(cls, inst, seed, budget, run_rngs):
    """The fused and the protocol record of one run, checked equal,
    including the rng state each run leaves; the fused run builds no
    oracle."""
    with _no_oracle():
        fused = run_one_plus_one(cls(), inst, seed, budget)
    fused_state = run_rngs[-1].getstate()
    proto = run_one_plus_one(PROTOCOL[cls](), inst, seed, budget)
    assert len(run_rngs) == 2
    assert fused.to_json() == proto.to_json()
    assert fused.per_level == proto.per_level
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
            for budget in budgets:
                seed = random.Random(f"{n}/{trial}/{budget}/True").getrandbits(64)
                rec = _run_both(cls, inst, seed, budget, run_rngs)
                if budget == 0:
                    assert rec.per_level == [] and rec.budget_exhausted
                cut += rec.budget_exhausted and rec.total_queries > 1
    if n >= 8:
        assert cut > 0  # some runs really were cut mid-way


@pytest.mark.parametrize("n", [1024, 4096])
def test_fused_oea_matches_protocol_at_large_n(n, run_rngs):
    # a whole run at these n takes minutes on the protocol loop, so every
    # run is cut; at 20 000 queries most masks still flip one bit or none
    for trial in range(2):
        inst = random_instance(n, random.Random(7000 * n + trial))
        seed = random.Random(f"oea/{n}/{trial}/True").getrandbits(64)
        rec = _run_both(OneEa, inst, seed, 20_000, run_rngs)
        assert rec.budget_exhausted and rec.total_queries == 20_000


@pytest.mark.parametrize("cls,budget", [
    (Rls, 20_000), (OneEa, 20_000), (Memlog, None),
    (ProtocolRls, 20_000), (ProtocolOneEa, 20_000), (ProtocolMemlog, None),
])
def test_fused_run_memory_is_linear_in_n(cls, budget):
    # a table of the n + 1 prefix masks would take about n^2/8 bytes, 2 MB
    # at n = 4096; a fused run keeps one mask and a few lists of n ints,
    # and the protocol loop's oracle a mask per cached point
    n = 4096
    inst = random_instance(n, random.Random(n))
    tracemalloc.start()
    try:
        rec = run_one_plus_one(cls(), inst, 21, budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.hit_optimum if budget is None else rec.total_queries == budget
    assert peak < 1_500_000


def test_oracle_memory_is_linear_in_n():
    # a table of the n + 1 prefix masks would take about 36 MB at n = 16384
    n = 16384
    inst = random_instance(n, random.Random(n))
    tracemalloc.start()
    try:
        oracle = CountingOracle(inst)
        assert oracle.submit(inst.z) == n
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000


# -- the level-skipping engine -------------------------------------------------------


@pytest.fixture
def skip_everywhere(monkeypatch):
    """Every plain rls and (1+1) EA run skips levels; returns a setter for
    the chunk size."""
    monkeypatch.setitem(framework._SKIP_FROM, Rls, 1)
    monkeypatch.setitem(framework._SKIP_FROM, OneEa, 1)
    return lambda chunk: monkeypatch.setattr(framework, "_CHUNK", chunk)


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("n", SIZES)
def test_skip_levels_matches_protocol(n, chunk, skip_everywhere, run_rngs):
    # chunks of one and seven queries' worth of words, so that many masks
    # straddle chunks; a chunk of one costs about as much as one of 2048,
    # so it skips the longest budget
    skip_everywhere(chunk)
    budgets = [0, 1, 2, 3 * n, 11 * chunk + 4]
    if chunk > 1:
        budgets.append(n * n // 3 + 1)
    inst = random_instance(n, random.Random(8000 * n + chunk))
    cut = 0
    for cls in (Rls, OneEa):
        for budget in budgets:
            seed = random.Random(f"skip/{n}/{chunk}/{budget}/True").getrandbits(64)
            rec = _run_both(cls, inst, seed, budget, run_rngs)
            cut += rec.budget_exhausted and rec.total_queries > 1
    if n >= 8:
        assert cut > 0  # some runs really were cut mid-way


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("rls", [True, False])
def test_skip_levels_reads_no_rank_below_f(rls, chunk, monkeypatch):
    # an rls stretch XORs its rejected flips (ranks below f) into the diff
    # too, which is sound only if no level search or update reads a rank
    # below f: set those bits at random and nothing may change
    monkeypatch.setattr(framework, "_CHUNK", chunk)
    rng = random.Random(f"below/{rls}/{chunk}")
    for n in (2, 3, 5, 9, 17, 64, 257):
        inst = random_instance(n, rng)
        for trial in range(3):
            f = rng.randrange(1, n)
            clean = (1 << inst.sigma[f]) | sum(1 << inst.sigma[r] for r in range(f + 1, n)
                                               if rng.getrandbits(1))
            below = 0
            while not below:
                below = sum(1 << inst.sigma[r] for r in range(f) if rng.getrandbits(1))
            seed = rng.getrandbits(64)
            for stop in (3 * n, 11 * chunk + 4) if n > 64 else (math.inf, 3 * n):
                runs = []
                for d in (clean, clean | below):
                    counts = [0] * (n + 1)
                    run_rng = random.Random(seed)
                    out = framework._skip_levels(rls, inst, run_rng, d, f, counts, stop)
                    runs.append((out, counts, run_rng.getstate()))
                assert runs[0] == runs[1]


STEP_SIZES = list(range(2, 301)) + [1024, 4096]


def _steps(u, n):
    """`oea_mask`'s step for each draw u, capped at n (n for a u of 0.0)."""
    log, floor, log_keep = math.log, math.floor, _log_keep(n)
    return [min(floor(log(x) / log_keep), n) if x else n for x in u]


def test_engine_steps_match_math_log():
    # the 64 doubles on each side of every boundary exp(t * log_keep), where
    # the step moves from t - 1 to t, and the boundary itself
    wrong = []
    for n in STEP_SIZES:
        bounds = np.exp(np.arange(1, n + 1) * _log_keep(n))
        u = (bounds.view(np.int64)[:, None] + np.arange(-64, 65)).view(np.float64).ravel()
        if framework._oea_steps(u, n).tolist() != _steps(u.tolist(), n):
            wrong.append(n)
    assert wrong == []
    rng = random.Random(17)
    draws = {n: [0.0] for n in STEP_SIZES}
    for _ in range(10**5):
        draws[rng.choice(STEP_SIZES)].append(rng.random())
    for n, u in draws.items():
        assert framework._oea_steps(np.array(u), n).tolist() == _steps(u, n)


@pytest.mark.parametrize("cls", [Rls, OneEa])
def test_harness_runs_skip_levels_from_the_crossover(cls, monkeypatch, tmp_path):
    cross = framework._SKIP_FROM[cls]
    argv = ["run", "--algo", cls.name, "--n", f"{cross - 1},{cross}", "--reps", "3",
            "--seed", "5", "--format", "json"]
    real, skipped = framework._skip_levels, []

    def spy(rls, inst, *args):
        skipped.append(inst.n)
        return real(rls, inst, *args)

    monkeypatch.setattr(framework, "_skip_levels", spy)
    assert _run_cli(argv + ["--out", str(tmp_path / "skip.json")]) == 0
    assert skipped == [cross] * 3  # and never below the crossover
    monkeypatch.setitem(framework._SKIP_FROM, cls, cross + 1)
    assert _run_cli(argv + ["--out", str(tmp_path / "loop.json")]) == 0
    assert skipped == [cross] * 3
    assert (tmp_path / "skip.json").read_bytes() == (tmp_path / "loop.json").read_bytes()


# -- the engine's MT19937 handover ----------------------------------------------------


def _random_at(seed, pos):
    """random.Random(seed) with its state index set to pos (0 is a state
    only `setstate` makes: the twist done, no word drawn) and
    `gauss_next` set."""
    rng = random.Random(seed)
    version, key, _ = rng.getstate()
    rng.setstate((version, key[:624] + (pos,), 0.25))
    return rng


@pytest.mark.parametrize("pos", [0, 1, 623, 624])
def test_mt_source_draws_what_random_draws(pos):
    # 1500 draws cross at least one twist from every pos
    for seed in range(3):
        rng = _random_at(seed, pos)
        _, gen, _, _ = framework._mt_source(rng)
        ref = _random_at(seed, pos)
        assert gen.random(1500).tolist() == [ref.random() for _ in range(1500)]
        bg, _, _, _ = framework._mt_source(rng)  # rng has not moved: the same state again
        ref = _random_at(seed, pos)
        assert bg.random_raw(1500).tolist() == [ref.getrandbits(32) for _ in range(1500)]
        assert rng.getstate() == _random_at(seed, pos).getstate()


@pytest.mark.parametrize("k", [0, 1, 623, 624, 625, 1248])
@pytest.mark.parametrize("pos", [0, 1, 623, 624])
def test_mt_source_hands_back_the_state_after_k_words(k, pos):
    for before in (0, 700):  # words drawn before the snapshot
        rng = _random_at(11, pos)
        bg, gen, view, hand_back = framework._mt_source(rng)
        bg.random_raw(before)
        snapshot = view.copy()
        gen.random(1600)  # draws past the mark, which the hand-back undoes
        hand_back(snapshot, k)
        ref = _random_at(11, pos)
        for _ in range(before + k):
            ref.getrandbits(32)
        assert rng.getstate() == ref.getstate()
        assert rng.getstate()[2] == 0.25
        assert rng.random() == ref.random()


def test_mt_source_view_is_the_generator_state():
    def public(bg):
        state = bg.state["state"]
        return state["key"].tolist() + [state["pos"]]

    for seed in (12, 13):
        rng = random.Random(seed)
        bg, gen, view, _ = framework._mt_source(rng)
        assert view.tolist() == public(bg) == list(rng.getstate()[1])
        for draw in (lambda: gen.random(1001), lambda: bg.random_raw(777), lambda: gen.random(1)):
            draw()
            assert view.tolist() == public(bg)


def _skip_job(rls, inst, seed, stop):
    """One `_skip_levels` run from f = 0: its result, counts and final rng state."""
    run_rng = random.Random(seed)
    d = run_rng.getrandbits(inst.n) | 1 << inst.sigma[0]
    counts = [0] * (inst.n + 1)
    out = framework._skip_levels(rls, inst, run_rng, d, 0, counts, stop)
    return out, counts, run_rng.getstate()


def test_skip_levels_in_two_threads_match_sequential_runs(monkeypatch):
    # chunks of 7 queries and a short switch interval, so that the threads
    # take turns inside runs; each thread builds its own generator
    monkeypatch.setattr(framework, "_CHUNK", 7)
    rng = random.Random("threads")
    jobs = [(rls, random_instance(n, rng), rng.getrandbits(64), stop)
            for rls in (True, False) for n in (40, 64, 97) for stop in (math.inf, 3 * n)]
    sequential = [_skip_job(*job) for job in jobs]
    results, sources = {}, {}
    start = threading.Barrier(2)

    def worker(name, order):
        sources[name] = framework._mt_source(random.Random(0))[0]
        start.wait()
        results[name] = {i: _skip_job(*jobs[i]) for i in order}

    order = list(range(len(jobs)))
    threads = [threading.Thread(target=worker, args=("a", order)),
               threading.Thread(target=worker, args=("b", order[::-1]))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert sources["a"] is not sources["b"]
    for name in ("a", "b"):
        assert [results[name][i] for i in order] == sequential


def test_engine_free_runs_never_import_numpy_random(tmp_path):
    # importing the package, memlog runs and rls and EA runs below the
    # crossover never reach the engine, so they leave `numpy.random`
    # unimported (where `import numpy` does not import it already); the
    # first engine run imports it
    code = """if True:
        import sys
        import numpy
        seen = ["numpy.random" in sys.modules]
        from elitist_lo_lab.cli import main
        from elitist_lo_lab.framework import _SKIP_FROM
        from elitist_lo_lab.heuristics import OneEa, Rls
        seen.append("numpy.random" in sys.modules)
        for algo, n in [("memlog", "16"), ("rls", f"8,{_SKIP_FROM[Rls] - 1}"),
                        ("oea", f"8,{_SKIP_FROM[OneEa] - 1}"), ("rls", f"{_SKIP_FROM[Rls]}")]:
            assert main(["run", "--algo", algo, "--n", n, "--reps", "2",
                         "--out", sys.argv[1]]) == 0
            seen.append("numpy.random" in sys.modules)
        print(*seen)
    """
    src = str(pathlib.Path(framework.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "run.csv")],
                          capture_output=True, text=True, env=env, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    before, *seen = proc.stdout.split()
    assert seen == [before] * 4 + ["True"]


# -- the (1+1) EA's stop thresholds ---------------------------------------------------


STOP_SIZES = list(range(2, 301)) + [1024, 4096, 65536]


def test_stop_thresholds_end_the_mask():
    # the fused EA loop ends a mask on a draw u < below[i] at position i
    # without taking oea_mask's step floor(log(u) / log_keep); that step
    # must land at n or beyond for every such u
    log, floor, nextafter = math.log, math.floor, math.nextafter
    late = []
    for n in STOP_SIZES:
        log_keep, below = _log_keep(n), _stop_below(n)
        assert len(below) == n + 1 and below[n] == math.inf
        assert min(below) > 0.24  # so a draw of 0.0, which ends oea_mask, is below too
        for i in range(n):
            u = below[i]
            for _ in range(64):  # the 64 doubles just below the threshold
                u = nextafter(u, 0.0)
                if floor(log(u) / log_keep) < n - i:
                    late.append((n, i, u))
    assert late == []
    rng = random.Random(14)
    checked = 0
    for _ in range(10**5):
        n = rng.choice(STOP_SIZES)
        i, u = rng.randrange(n), rng.random()
        if u < _stop_below(n)[i]:
            checked += 1
            if floor(log(u) / _log_keep(n)) < n - i:
                late.append((n, i, u))
    assert late == []
    assert checked > 30_000


class HalvingSpy(Memlog):
    """Notes after each learn whether a halving phase is open."""

    def __init__(self):
        self.halving = []

    def learn(self, outcome, state):
        super().learn(outcome, state)
        self.halving.append(state.p0_size != 0)


MEMLOG_SIZES = list(range(1, 40)) + [63, 64, 65, 255, 256, 257, 1024, 4096, 4097]


@pytest.mark.parametrize("n", MEMLOG_SIZES)
def test_fused_memlog_matches_protocol(n, run_rngs):
    mid_cuts = 0
    for trial in range(3 if n < 64 else 1):
        inst = random_instance(n, random.Random(9000 * n + trial))
        seed = random.Random(f"memlog/{n}/{trial}/True").getrandbits(64)
        spy = HalvingSpy()
        run_one_plus_one(spy, inst, seed)
        run_rngs.clear()
        # a budget of i + 2 stops the run right after step i (0-based)
        open_at = [i + 2 for i, halving in enumerate(spy.halving) if halving]
        budgets = [None, 0, 1, 2]
        if open_at:
            budgets.append(open_at[len(open_at) // 2])
        for budget in budgets:
            rec = _run_both(Memlog, inst, seed, budget, run_rngs)
            if budget == 0:
                assert rec.per_level == [] and rec.budget_exhausted
        if open_at:
            assert rec.budget_exhausted and rec.total_queries == budgets[-1]
            mid_cuts += 1
    if n >= 8:
        assert mid_cuts > 0  # some runs really were cut inside a halving phase


def test_fused_memlog_matches_protocol_many_small_cases(run_rngs):
    rng = random.Random(81)
    for trial in range(200):
        n = rng.randrange(1, 40)
        inst = random_instance(n, rng)
        budget = rng.choice((None, rng.randrange(1, 8 * n + 4)))
        rng.random()  # unused; keeps this stream's cases unchanged
        _run_both(Memlog, inst, trial, budget, run_rngs)


@pytest.mark.parametrize("cls,seed", [(Rls, 101), (OneEa, 202), (Memlog, 303)])
def test_fused_matches_protocol_on_acceptance_runs(cls, seed, run_rngs):
    # the runs of acceptance criteria 1 (rls, seed 101) and 2 (oea, seed 202)
    # at n <= 128, and all of criterion 3 (memlog, seed 303), as
    # `run_experiment` derives their instances and seeds
    ns, reps = ([64, 256, 1024], 50) if cls is Memlog else ([32, 64, 128], 200)
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
    assert count == len(ns) * reps


# -- the gate ------------------------------------------------------------------------


class StepCalled(RuntimeError):
    pass


@pytest.fixture
def step_raises(monkeypatch):
    """Make every per-query method of the fused strategies raise."""
    def called(self, *args):
        raise StepCalled(type(self).__name__)

    for cls in (Rls, OneEa, Memlog):
        monkeypatch.setattr(cls, "step", called)
        monkeypatch.setattr(cls, "learn", called)
    monkeypatch.setattr(Memlog, "pack_state", called)
    monkeypatch.setattr(Memlog, "state_budget_bits", called)


# `lolab scaling --n 8,16,32,64 --reps 50 --seed 2016` output, captured
# before the fused loop for each algorithm existed
SCALING_DIGESTS = {
    ("rls", "csv"): "60f1ae6d99f794f71d778445a21b115b827cc883d5495811f94b3f8c5e0890a9",
    ("rls", "json"): "3de4e0d9150535f5f3196f262f7b1e720f38468e96663e2ab3b2371e6b01b32b",
    ("oea", "csv"): "5748931c44359ea21c176f8cdefffa852c454fcc6a99f166958588bf4e3f5188",
    ("oea", "json"): "27248049efb6068998eb7d53734ff6ba2ba016cab8e14d3dd7abbb7269e09df7",
    ("memlog", "csv"): "ee0ce3eca1894f865c6c66a82a3270b55b3741faaea5c21d75b8399b81f6c535",
    ("memlog", "json"): "5644f89f18381740da69b16924db998d9969c7c018fc1b6d4e67fe09f848f094",
}


@pytest.mark.parametrize("algo", ["rls", "oea", "memlog"])
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


@pytest.mark.parametrize("cls", [Rls, OneEa, Memlog])
@pytest.mark.parametrize("case", ["subclass", "observer", "oracle"])
def test_excluded_cases_take_the_protocol_loop(cls, case, step_raises):
    n = 16
    inst = random_instance(n, random.Random(4))
    strategy = cls()
    kwargs = {}
    if case == "subclass":
        strategy = PROTOCOL[cls]()
    elif case == "observer":
        kwargs["observer"] = lambda event: None
    else:
        kwargs["oracle"] = CountingOracle
    fused = run_one_plus_one(cls(), inst, seed=8)
    assert fused.total_queries > 1  # the start point is not the optimum
    with pytest.raises(StepCalled):
        run_one_plus_one(strategy, inst, seed=8, **kwargs)


# -- memlog's state budget ---------------------------------------------------------


def test_declared_state_budget_fits_a_full_state():
    # a full B1, the phase flag and a record of (n - 1).bit_length() + 2
    # bits, longer than any a search writes, fit the declared budget
    strategy = Memlog()
    for n in [*range(1, 4097), *(1 << k for k in range(13, 21))]:
        state = MemlogState(n)
        state.b1, state.p0_size = (1 << n) - 1, 2
        state.record = 1 << ((n - 1).bit_length() + 1)
        assert len(strategy.pack_state(state)) <= (strategy.state_budget_bits(n) + 7) // 8, n


def test_strategies_reject_attribute_assignment():
    # so a plain instance, which runs the fused loop, has its class's
    # methods and declared budget
    for strategy in (Rls(), OneEa(), Memlog()):
        with pytest.raises(AttributeError):
            strategy.state_budget_bits = lambda n: 0
        with pytest.raises(AttributeError):
            strategy.step = lambda incumbent, state, rng: incumbent


class TightMemlog(Memlog):
    """`Memlog` with a state budget one byte over B1's whole bytes; it
    notes each packed state's size and whether a halving phase is open."""

    def __init__(self):
        self.packed = []

    def state_budget_bits(self, n):
        return 8 * ((n >> 3) + 1)

    def pack_state(self, state):
        packed = super().pack_state(state)
        self.packed.append((len(packed), state.p0_size != 0))
        return packed


def test_smaller_state_budget_stops_a_search_on_the_protocol_loop():
    # one byte over B1's whole bytes fits a record of 6 - n % 8 bits, so
    # for n % 8 <= 5 the run fails inside the first search longer than
    # that, after a halving query, with pack_state's size in the message
    for n in range(128, 134):
        inst = random_instance(n, random.Random(f"tight/{n}"))
        strategy = TightMemlog()
        bits = strategy.state_budget_bits(n)
        with pytest.raises(StateBudgetExceeded) as exc:
            run_one_plus_one(strategy, inst, n)
        size, halving = strategy.packed[-1]
        assert halving and len(strategy.packed) >= 2
        assert all(8 * s <= bits for s, _ in strategy.packed[:-1])
        assert str(exc.value) == f"memlog: packed state is {8 * size} bits, declared budget {bits}"


# -- memlog a search at a time -------------------------------------------------------


class SearchSpy(Memlog):
    """Notes per query whether a halving phase was open and the outcome."""

    def __init__(self):
        self.steps = []

    def learn(self, outcome, state):
        self.steps.append((state.p0_size != 0, outcome))
        super().learn(outcome, state)


def _searches(inst, seed):
    """The searches of a whole protocol run as (first, length, last
    outcome), with query i numbered i + 2, the budget that stops the run
    right after it."""
    spy = SearchSpy()
    run_one_plus_one(spy, inst, seed)
    starts = [i for i, (halving, _) in enumerate(spy.steps) if not halving]
    ends = starts[1:] + [len(spy.steps)]
    return [(a + 2, b - a, spy.steps[b - 1][1]) for a, b in zip(starts, ends)]


def _memlog_both(inst, seed, budget, run_rngs):
    """One fused and one protocol memlog run, checked to give the same
    record and to leave the same rng state, the fused one without building
    an oracle."""
    outs = []
    for cls in (Memlog, ProtocolMemlog):
        with _no_oracle() if cls is Memlog else contextlib.nullcontext():
            out = run_one_plus_one(cls(), inst, seed, budget).to_json()
        outs.append((out, run_rngs[-1].getstate()))
    assert len(run_rngs) == 2 and outs[0] == outs[1]
    run_rngs.clear()
    return outs[0][0]


@pytest.mark.parametrize("n", [3, 5, 9, 17, 33, 64, 100, 257])
def test_fused_memlog_greater_partway_matches_protocol(n, run_rngs):
    # sigma[f] before the lowest gap in `free`: after a LESS probe the
    # search keeps the half that holds the gap until a first half holds
    # sigma[f] and no gap, and that halving query comes back GREATER; each
    # such search is cut right before, at and after its GREATER query
    partway = 0
    for trial in range(3):
        inst = random_instance(n, random.Random(f"partway/{n}/{trial}"))
        seed = random.Random(f"partway/{n}/{trial}/seed").getrandbits(64)
        searches = _searches(inst, seed)
        run_rngs.clear()
        greater = [first + length - 1 for first, length, last in searches
                   if length > 1 and last == GREATER]
        partway += len(greater)
        _memlog_both(inst, seed, None, run_rngs)
        for query in greater[:4]:
            for budget in (query - 1, query, query + 1):
                _memlog_both(inst, seed, budget, run_rngs)
    assert partway > 0


@pytest.mark.parametrize("n", [7, 16, 31, 64, 100, 257])
def test_fused_memlog_budget_cuts_a_search_after_each_step(n, run_rngs):
    # the longest search of a run, cut after each of its queries, and
    # after the query before its probe
    inst = random_instance(n, random.Random(f"steps/{n}"))
    seed = random.Random(f"steps/{n}/seed").getrandbits(64)
    first, length, _ = max(_searches(inst, seed), key=lambda s: s[1])
    run_rngs.clear()
    assert length >= n.bit_length()
    cut = set()
    for budget in range(first - 1, first + length):
        rec = json.loads(_memlog_both(inst, seed, budget, run_rngs))
        cut.add(rec["total_queries"])
    assert cut == set(range(first - 1, first + length))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fused_memlog_matches_protocol_on_every_tiny_case(n, run_rngs):
    # every target, order and start point and every query budget; at
    # n = 1 the probe always comes back GREATER, and at n = 2 a LESS probe
    # (f = 1) opens P0 = both positions, and the one halving query, on
    # position 0, marks the gap sigma[0] (LESS) or repairs sigma[1] (GREATER);
    # at n = 3 a second halving query can also mark after an EQUAL one
    starts = {}
    for seed in range(64):
        starts.setdefault(random.Random(seed).getrandbits(n), seed)
    assert len(starts) == 1 << n
    outcomes = set()
    for z in range(1 << n):
        for sigma in itertools.permutations(range(n)):
            inst = LoInstance(n, BitString(n, z), sigma)
            for seed in starts.values():
                searches = _searches(inst, seed)
                run_rngs.clear()
                outcomes.update((length, last) for _, length, last in searches)
                for budget in [None, *range(0, 2 + sum(s[1] for s in searches))]:
                    _memlog_both(inst, seed, budget, run_rngs)
    if n == 1:
        assert outcomes == {(1, GREATER)}
    elif n == 2:
        assert outcomes == {(1, GREATER), (2, LESS), (2, GREATER)}
    else:
        assert outcomes == {(1, GREATER), (2, LESS), (2, GREATER),
                            (3, LESS), (3, EQUAL), (3, GREATER)}


@pytest.mark.parametrize("cls,n", [(Rls, 6), (Rls, 17), (OneEa, 6), (OneEa, 17),
                                   (Memlog, 6), (Memlog, 17), (Memlog, 40)])
def test_fused_run_cut_at_every_budget_matches_protocol(cls, n, run_rngs):
    # the fused bodies run a level at a time and settle the budget once per
    # level, so a run is cut after every query: inside a level, on the
    # GREATER query that ends one (rls and the EA still climb), and, for
    # memlog, right after a level's marks, before its GREATER search
    inst = random_instance(n, random.Random(f"every/{n}"))
    seed = random.Random(f"every/{n}/seed").getrandbits(64)
    total = run_one_plus_one(cls(), inst, seed).total_queries
    run_rngs.clear()
    if cls is Memlog:
        searches = _searches(inst, seed)
        run_rngs.clear()
        assert any(last != GREATER for _, _, last in searches)  # some level marks
    levels = set()
    for budget in range(1, total + 2):
        if cls is Memlog:
            rec = json.loads(_memlog_both(inst, seed, budget, run_rngs))
        else:
            rec = json.loads(_run_both(cls, inst, seed, budget, run_rngs).to_json())
        assert rec["total_queries"] == min(budget, total)
        levels.add(rec["per_level"][-1][0])
    assert len(levels) > 2  # the cuts fall in several levels


def test_fused_memlog_checks_its_invariant():
    # no run on a real instance reaches the check, since every mark is of a
    # gap and sigma[f] never is one.  Here sigma repeats position 0 (ranks
    # 0 and 3) and leaves out 1: from f = 2, with positions 0 and 5 wrong,
    # the level marks the gaps 0 and 3, its probe comes back GREATER, and f
    # stops at 3, on the marked position 0, which the level's XORs leave
    # wrong whether or not they skip marked positions
    inst = object.__new__(LoInstance)
    for name, value in (("n", 6), ("z", BitString(6, 0)), ("sigma", (0, 3, 5, 0, 4, 2))):
        object.__setattr__(inst, name, value)
    counts = [0] * 7
    with pytest.raises(RuntimeError, match="memlog invariant violated"):
        framework._memlog_loop(inst, random.Random(0), 0b100001, 2, 0b1001, counts, math.inf)
    assert counts[2] == 8 and counts[3] == 0


# -- a halving search read off its leaf codes ------------------------------------------


def reference_search(L, iy, ig):
    """The halving loop over the L unmarked positions, which the fused
    memlog loop ran query by query before it read each search off the leaf
    codes: iy and ig are the indices of the lowest gap (L for none) and of
    sigma[f].  Returns (queries, True, mid) for a search that ends GREATER
    and (queries, False, lo) for one that marks free[lo]."""
    lo, hi, mid, h = 0, L, L, 1
    while True:
        if iy < mid:  # LESS: keep the first half
            hi = mid
        elif ig < mid:  # GREATER: accept
            break
        else:  # EQUAL: accept, keep the second half
            lo = mid
        if hi - lo == 1:
            break
        h += 1
        mid = (lo + hi + 1) >> 1
    return (h, True, mid) if ig < mid else (h, False, lo)


def _codes(L):
    """sorted(rev_K(t) for t < L), K = (L - 1).bit_length(), as an array."""
    k = (L - 1).bit_length()
    t = np.arange(L)
    rev = np.zeros(L, np.int64)
    for j in range(k):
        rev |= (t >> j & 1) << (k - 1 - j)
    return np.sort(rev)


def code_search(L, iy, ig, codes):
    """The search `reference_search` runs, read off the leaf codes as the
    fused memlog loop reads it; L = 1 leaves no room for a gap beside
    sigma[f]."""
    if iy == L:  # no gap: the probe is GREATER
        return 1, True, L
    k = (L - 1).bit_length()
    cy = int(codes[iy])
    if iy < ig:  # it marks free[iy] at its leaf's depth
        return (k + 1 if cy & 1 or codes[iy + 1] == cy + 1 else k), False, iy
    s = (cy ^ int(codes[ig])).bit_length() - 1  # the leaves part on bit s
    return 1 + k - s, True, bisect.bisect_left(codes, cy >> s << s)


def test_bit_reversals_reverse_k_bits():
    for k in range(13):
        assert framework._bit_reversals(k) == tuple(
            int(f"{t:0{k}b}"[::-1] or "0", 2) for t in range(1 << k))


def test_first_leaf_codes_are_the_sorted_reversals():
    # the cached codes each memlog run starts from
    for L in [*range(1, 300), 1024, 4096, 4097, 5000]:
        assert list(framework._leaf_codes(L)) == _codes(L).tolist(), L


def test_leaf_codes_give_every_small_search():
    # every K up to 7 and each size where K drops; the grid to L = 300
    # makes 9 million calls, about 15 s
    wrong = []
    for L in range(1, 129):
        codes = _codes(L).tolist()
        for iy in range(L + 1):
            for ig in range(L):
                if iy != ig and (code_search(L, iy, ig, codes)
                                 != reference_search(L, iy, ig)):
                    wrong.append((L, iy, ig))
    assert wrong == []


def test_leaf_codes_give_random_searches_to_two_to_the_twenty():
    # 50 sizes, log-uniform up to 2^20, and 2000 index pairs each
    rng = random.Random(29)
    wrong, cases = [], 0
    for _ in range(50):
        e = rng.randrange(1, 21)
        L = rng.randrange(1 << (e - 1), 1 << e) + 1
        codes = _codes(L)
        for _ in range(2000):
            ig = rng.randrange(L)
            iy = rng.choice((L, rng.randrange(L)))
            if iy == ig:
                continue
            cases += 1
            if code_search(L, iy, ig, codes) != reference_search(L, iy, ig):
                wrong.append((L, iy, ig))
    assert wrong == []
    assert cases > 90_000


def test_leaf_code_upkeep_matches_the_definition():
    # the fused loop's upkeep from L = 5000 down: each mark removes
    # rev_K(L - 1), read off the run's first table shifted by the drops of
    # K so far, and at L = 2^(K-1) K drops and the codes are 0..L-1
    L = 5000
    k = (L - 1).bit_length()
    rev, shift, half = framework._bit_reversals(k), 0, (1 << k) >> 1
    codes = sorted(rev[:L])
    wrong = []
    while L > 1:
        L -= 1
        del codes[bisect.bisect_left(codes, rev[L] >> shift)]
        if L == half:
            k, shift, half = k - 1, shift + 1, half >> 1
            codes = list(range(L))
        assert k == (L - 1).bit_length()
        if codes != _codes(L).tolist():
            wrong.append(L)
    assert wrong == []
