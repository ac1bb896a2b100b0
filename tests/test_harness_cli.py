import hashlib
import json
import math
import os
import stat
import subprocess
import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from elitist_lo_lab import cli, harness
from elitist_lo_lab.bounds import PhiSolver, verify_induction_step
from elitist_lo_lab.cli import main as cli_main
from elitist_lo_lab.framework import RunRecord
from elitist_lo_lab.harness import (
    CSV_HEADER,
    ExperimentConfig,
    cmd_game,
    cmd_level_profile,
    cmd_phi,
    cmd_scaling,
    fit_power_law,
    mix64,
    parse_game_spec,
    record_csv_line,
    rep_seed,
    run_experiment,
)
from elitist_lo_lab.heuristics import memlog_query_bound


# -- seed derivation ----------------------------------------------------------------


def test_mix64_is_deterministic_64bit():
    assert mix64(0) == mix64(0)
    assert 0 <= mix64(123456789) < 2**64
    assert mix64(1) != mix64(2)


def test_rep_seeds_distinct_across_axes():
    seeds = {rep_seed(7, n, rep) for n in (8, 16, 32) for rep in range(100)}
    assert len(seeds) == 300


# -- run_experiment -------------------------------------------------------------------


def test_run_stream_deterministic():
    config = ExperimentConfig("rls", [8], reps=5, seed=7)
    first = [r.to_json() for r in run_experiment(config)]
    second = [r.to_json() for r in run_experiment(config)]
    assert first == second


def test_run_stream_order_and_instance_independence():
    config = ExperimentConfig("rls", [4, 8], reps=3, seed=1)
    recs = list(run_experiment(config))
    assert [r.n for r in recs] == [4, 4, 4, 8, 8, 8]
    # distinct per-rep seeds; runs never alias their instance draw
    assert len({r.seed for r in recs}) == 6
    assert all(r.total_queries >= 1 for r in recs)


def test_repetitions_are_order_independent():
    # every repetition is computable in isolation from its derived seed, so a
    # parallel driver could run them in any order and emit in (n, rep) order
    import random as _random

    from elitist_lo_lab.framework import run_one_plus_one
    from elitist_lo_lab.heuristics import make_strategy
    from elitist_lo_lab.lo_core import random_instance

    config = ExperimentConfig("oea", [8, 16], reps=4, seed=23)
    stream = [r.to_json() for r in run_experiment(config)]
    pairs = [(n, rep) for n in (8, 16) for rep in range(4)]
    recomputed = {}
    for n, rep in sorted(pairs, key=lambda t: (t[1] * 7 + t[0]) % 11):
        rs = rep_seed(23, n, rep)
        inst = random_instance(n, _random.Random(mix64(rs ^ 0x1)))
        rec = run_one_plus_one(make_strategy("oea"), inst, seed=mix64(rs ^ 0x2))
        rec.seed = rs
        recomputed[(n, rep)] = rec.to_json()
    assert stream == [recomputed[p] for p in pairs]


def test_memlog_batch_meets_accounting_bound():
    config = ExperimentConfig("memlog", [64], reps=50, seed=3)
    bound = memlog_query_bound(64)
    assert bound == 2 * 64 * (6 + 2)
    for rec in run_experiment(config):
        assert rec.hit_optimum
        assert rec.total_queries <= bound


def test_small_budget_flags_records():
    config = ExperimentConfig("oea", [16], reps=100, seed=5, budget=10)
    flagged = [r.budget_exhausted for r in run_experiment(config)]
    assert any(flagged)
    config2 = ExperimentConfig("oea", [16], reps=100, seed=5, budget=10)
    assert all(r.total_queries <= 10 for r in run_experiment(config2))


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig("rls", [8, 8], reps=3)
    with pytest.raises(ValueError):
        ExperimentConfig("rls", [16, 8], reps=3)
    with pytest.raises(ValueError):
        ExperimentConfig("rls", [8], reps=0)
    with pytest.raises(ValueError):
        ExperimentConfig("spoon", [8], reps=1)


# -- record serialization -------------------------------------------------------------


def reference_csv_line(rec: RunRecord) -> str:
    """The CSV line as `str` calls joined by commas: the layout `record_csv_line`
    must keep byte for byte."""
    per_level = "|".join(f"{k}:{c}" for k, c in rec.per_level)
    return ",".join((
        rec.algo,
        str(rec.n),
        str(rec.seed),
        str(rec.total_queries),
        str(int(rec.hit_optimum)),
        str(int(rec.budget_exhausted)),
        per_level,
    ))


def reference_json_dict(rec: RunRecord) -> dict:
    """The record as the dict whose `json.dumps` `RunRecord.to_json` must
    match byte for byte."""
    return {
        "algo": rec.algo,
        "n": rec.n,
        "seed": rec.seed,
        "total_queries": rec.total_queries,
        "hit_optimum": rec.hit_optimum,
        "budget_exhausted": rec.budget_exhausted,
        "per_level": [[k, c] for k, c in rec.per_level],
    }


def assert_serializes_as_reference(rec: RunRecord) -> None:
    assert rec.to_json() == json.dumps(reference_json_dict(rec), separators=(", ", ": "))
    assert record_csv_line(rec) == reference_csv_line(rec)


@pytest.mark.parametrize("algo", ["rls", "oea", "memlog"])
@pytest.mark.parametrize("budget", [None, 20])
def test_run_records_serialize_as_reference(algo, budget):
    config = ExperimentConfig(algo, [1, 2, 16, 64], reps=5, seed=28, budget=budget)
    records = list(run_experiment(config))
    assert len(records) == 20
    if budget is not None:
        assert any(rec.budget_exhausted for rec in records)
    for rec in records:
        assert_serializes_as_reference(rec)


ALGO_NAMES = st.one_of(
    st.sampled_from(['a"b', "back\\slash", "\\\"", "é", "名前", "emoji \U0001f600", ""]),
    st.text(alphabet=st.sampled_from('ab"\\é名\U0001f600\n\t\x00,|:'), max_size=16),
    st.text(max_size=16),
)
LEVEL_COUNTS = st.tuples(st.integers(-1, 1 << 20), st.integers(0, 1 << 40))


@given(st.builds(
    RunRecord,
    algo=ALGO_NAMES,
    n=st.integers(1, 1 << 20),
    seed=st.integers(0, (1 << 64) - 1),
    total_queries=st.integers(0, 1 << 40),
    hit_optimum=st.booleans(),
    budget_exhausted=st.booleans(),
    per_level=st.one_of(st.lists(LEVEL_COUNTS, max_size=8),
                        st.lists(LEVEL_COUNTS, min_size=200, max_size=600)),
))
def test_drawn_records_serialize_as_reference(rec):
    assert_serializes_as_reference(rec)


# -- scaling -------------------------------------------------------------------------


def test_fit_power_law_recovers_exponent():
    ns = [32, 64, 128, 256]
    means = [3.5 * n**2 for n in ns]
    alpha, coeff, r2 = fit_power_law(ns, means)
    assert alpha == pytest.approx(2.0, abs=1e-9)
    assert coeff == pytest.approx(3.5, rel=1e-9)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_cmd_scaling_quick():
    config = ExperimentConfig("rls", [16, 32, 64], reps=60, seed=11)
    report = cmd_scaling(config)
    assert [row.n for row in report.rows] == [16, 32, 64]
    assert all(row.reps == 60 for row in report.rows)
    assert 1.6 <= report.alpha <= 2.4
    assert report.r_squared > 0.98
    lines = report.csv_lines()
    assert lines[0] == CSV_HEADER
    assert lines[-1].startswith("# fit alpha=")


def test_memlog_scaling_coefficient():
    # quick fit of T against n*log2(n): the coefficient stays in (0, 4]
    import math as _math

    ns = [64, 128, 256]
    means = {}
    for n in ns:
        config = ExperimentConfig("memlog", [n], reps=20, seed=19)
        totals = [rec.total_queries for rec in run_experiment(config)]
        means[n] = sum(totals) / len(totals)
    coeffs = [means[n] / (n * _math.log2(n)) for n in ns]
    assert all(0 < c <= 4 for c in coeffs)


def test_cmd_scaling_validation():
    with pytest.raises(ValueError):
        cmd_scaling(ExperimentConfig("rls", [8, 16], reps=60, seed=1))
    with pytest.raises(ValueError):
        cmd_scaling(ExperimentConfig("rls", [8, 16, 32], reps=10, seed=1))
    # runs cut off by the budget would bias the fit
    with pytest.raises(ValueError):
        cmd_scaling(ExperimentConfig("rls", [8, 16, 32], reps=50, budget=20))
    # and the level profile: at budget 20 some n=16 runs never leave level 0
    with pytest.raises(ValueError):
        cmd_level_profile(ExperimentConfig("rls", [16], reps=100, budget=20))


def test_scaling_means_recomputable_from_run_stream():
    config = ExperimentConfig("rls", [8, 16, 32], reps=50, seed=17)
    report = cmd_scaling(config)
    stream = list(run_experiment(ExperimentConfig("rls", [8, 16, 32],
                                                  reps=50, seed=17)))
    for row in report.rows:
        totals = [r.total_queries for r in stream if r.n == row.n]
        assert row.mean == pytest.approx(sum(totals) / len(totals), rel=1e-12)


# -- level profile ----------------------------------------------------------------------


def test_cmd_level_profile_rows():
    config = ExperimentConfig("rls", [16], reps=100, seed=13)
    rows = cmd_level_profile(config)
    by_level = {r.level: r for r in rows}
    init = by_level[-1]
    assert init.visits == 100
    assert init.mean_queries == 1.0  # exactly one init query per run
    assert all(0 < r.visit_frequency <= 1 for r in rows)
    # levels 0..n-1 only (level n never accrues queries)
    assert max(by_level) <= 15


# -- phi / game / verify drivers -----------------------------------------------------------


def test_cmd_phi_contains_hand_checked_row():
    lines = cmd_phi(2, 2)
    assert lines[0] == CSV_HEADER
    row = next(ln for ln in lines if ln.startswith("1,1,2,"))
    fields = row.split(",")
    assert float(fields[3]) == 1.0   # B
    assert float(fields[4]) == 1.5   # phi_hat


def test_cmd_phi_float_rows():
    # every phi_hat is the correctly rounded exact value
    lines = cmd_phi(8, 4)
    assert lines[:2] == [CSV_HEADER, "k,m,C,B,phi_hat,closed_form,slack"]
    solver = PhiSolver()
    rows: dict[tuple[int, int], list[float]] = {}
    for line in lines[2:]:
        k, m, C, _, phi, cf, slack = line.split(",")
        k, m, C, phi, cf = int(k), int(m), int(C), float(phi), float(cf)
        exact = float(solver.value(k, m, C))
        assert phi == exact, (k, m, C)
        assert float(slack) == phi - cf
        rows.setdefault((k, m), []).append(phi)
    assert len(rows) == 9 * 4
    for (k, m), phis in rows.items():
        assert len(phis) == math.comb(k + m, m)
        assert all(a <= b for a, b in zip(phis, phis[1:])), (k, m)


def test_cmd_phi_shared_cells_print_the_same_line():
    # a cell's line does not depend on the size of the table it is printed in
    small = cmd_phi(6, 4)[2:]
    large = set(cmd_phi(8, 8)[2:])
    assert len(small) == 784
    assert [line for line in small if line not in large] == []


def test_cmd_phi_guard():
    with pytest.raises(ValueError):
        cmd_phi(10, 10)


def test_parse_game_spec_and_value():
    text = "positions=4\nk=1\nset=1\n"
    positions, k, family = parse_game_spec(text)
    assert (positions, k, family) == (4, 1, [(0,)])
    value, states = cmd_game(text)
    assert value == pytest.approx(2.0)  # singleton with m=3
    assert states == 3  # one state per number of positions left, 4 down to 2


def test_parse_game_spec_rejects_garbage():
    with pytest.raises(ValueError):
        parse_game_spec("positions=4\nwhat=1\n")
    with pytest.raises(ValueError):
        parse_game_spec("positions=4\nk=2\n")
    # positions are 1-based and named as the file writes them
    for text, message in (
        ("positions=4\nk=1\nset=5\n", "set= position 5 out of range 1..4"),
        ("positions=4\nk=1\nset=0\n", "set= position 0 out of range 1..4"),
        ("positions=4\nk=2\nset=1 -3\n", "set= position -3 out of range 1..4"),
        ("positions=-2\nk=1\nset=1\n", "positions=-2 must be at least 1"),
        ("positions=0\nk=0\n", "positions=0 must be at least 1"),
        ("positions=4\nk=1\npositions=5\nset=1\n", "game spec repeats positions="),
        ("positions=4\nk=1\nk=2\nset=1\n", "game spec repeats k="),
    ):
        with pytest.raises(ValueError) as exc:
            parse_game_spec(text)
        assert str(exc.value) == message
    assert parse_game_spec("positions=4\nk=1\nset=4\n") == (4, 1, [(3,)])


# -- CLI ------------------------------------------------------------------------------------


def _run_cli(args):
    return cli_main(args)


def test_cli_run_byte_identical(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["run", "--algo", "rls", "--n", "8", "--reps", "3", "--seed", "7"]
    assert _run_cli(argv + ["--out", str(out1)]) == 0
    assert _run_cli(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert text.startswith(CSV_HEADER + "\n")


def test_cli_run_csv_golden(tmp_path):
    # frozen schema and stream: literal bytes captured before the hot-path
    # rewrite; any change to the CSV layout, the seed derivation or the
    # strategy's rng draws must update this golden block
    out = tmp_path / "golden.csv"
    assert _run_cli(["run", "--algo", "rls", "--n", "4", "--reps", "2",
                     "--seed", "99", "--out", str(out)]) == 0
    assert out.read_bytes() == (
        b"# elitist-lo-lab v1\n"
        b"algo,n,seed,total_queries,hit_optimum,budget_exhausted,per_level\n"
        b"rls,4,15868325716806865502,6,1,0,-1:1|0:1|2:4\n"
        b"rls,4,11117851501823197073,3,1,0,-1:1|1:1|2:1\n"
    )


# sha256 of `lolab run` output, captured before the hot-path rewrite; a
# change to any strategy's draw stream, the oracle's counters or the record
# format moves these digests
RUN_DIGESTS = {
    ("rls", "csv"): "b3ac5c5c90009cfdfdcef813a487926cfb44b5b275a8599a114036711ded6802",
    ("rls", "json"): "e8fdfc3670203f60794d07bb1fc7ae1745f636e312ed231a9055a7075459887f",
    ("oea", "csv"): "4a3d08f8c18abd781bedf57da952e88834c5ebe53c532e940388ec78561e5090",
    ("oea", "json"): "dd3d2e8fa0cca2b2ff7f468c2f88b7ede564772410b0af662642b10c60561b2e",
    ("memlog", "csv"): "9b9f559526bec442fa2a693af658e26d6695d8837097228914c99bd11640d252",
    ("memlog", "json"): "990a4f81fa88cac9a7920f8098714f2006b3a81cbb0629b674047e7269e53750",
}
BUDGET_DIGESTS = {
    "rls": "2d9c21688545a59006e1950037dcaf6f3cc61f3ab3990a799316843249184644",
    "oea": "86edd43f6de3484f5f38bb3f09e49621fbf0130952ef510b1f66d1cfc197c475",
    "memlog": "399a837322a73ec70ef21bcde978c5b77ecb1f0fedfb56b2acaf58549d4a5bf1",
}


@pytest.mark.parametrize("algo,fmt", sorted(RUN_DIGESTS))
def test_cli_run_output_digest(tmp_path, algo, fmt):
    out = tmp_path / f"run.{fmt}"
    assert _run_cli(["run", "--algo", algo, "--n", "1,2,3,63,64,65,256", "--reps", "3",
                     "--seed", "2016", "--format", fmt, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == RUN_DIGESTS[(algo, fmt)]


@pytest.mark.parametrize("algo", sorted(BUDGET_DIGESTS))
def test_cli_run_budget_cut_digest(tmp_path, algo):
    out = tmp_path / "cut.csv"
    assert _run_cli(["run", "--algo", algo, "--n", "64", "--reps", "3", "--seed", "5",
                     "--budget", "100", "--out", str(out)]) == 0
    data = out.read_bytes()
    assert data.count(b",100,0,1,") == 3  # every run cut by the budget
    assert hashlib.sha256(data).hexdigest() == BUDGET_DIGESTS[algo]


# sha256 of `lolab phi --out`. (6, 4) was captured before `PhiSolver.value`
# moved from a merge of sorted Fraction prefixes to level counts. (8, 8) was
# re-pinned when `float_row` moved from a float64 slope recursion to the
# level counts, which made every cell the correctly rounded exact value
PHI_DIGESTS = {
    (6, 4): "afb5037512da17e8fd0f289ae6cfde8a8d9b4475d3057763c9b03201717c440a",
    (8, 8): "aee021134896ab4e28838b58630c364e17e1e913b6838a00ae4b7466710e897f",
}


@pytest.mark.parametrize("kmax,mmax", sorted(PHI_DIGESTS))
def test_cli_phi_output_digest(tmp_path, kmax, mmax):
    out = tmp_path / "phi.csv"
    assert _run_cli(["phi", "--kmax", str(kmax), "--mmax", str(mmax), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PHI_DIGESTS[(kmax, mmax)]


# memlog's wide regime, where halving masks span hundreds of positions;
# captured before the halving select moved from a bisection to a sorted
# free-position list.  At budget 848 all three runs stop inside a halving phase.
def test_cli_run_memlog_wide_digest(tmp_path):
    out = tmp_path / "wide.csv"
    assert _run_cli(["run", "--algo", "memlog", "--n", "1024,4096", "--reps", "1",
                     "--seed", "2016", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "23bf102dea3539caccea34469c222dfb347c10bc6a7175e94835491ae0183375")


def test_cli_run_memlog_wide_budget_cut_digest(tmp_path):
    out = tmp_path / "cut.csv"
    assert _run_cli(["run", "--algo", "memlog", "--n", "1024", "--reps", "3", "--seed", "5",
                     "--budget", "848", "--out", str(out)]) == 0
    data = out.read_bytes()
    assert data.count(b",848,0,1,") == 3  # every run cut by the budget
    assert hashlib.sha256(data).hexdigest() == (
        "89de067f5d84c7f867451414ddf05c46318117ce91f545f2fb0d4227bb641f2c")


def test_cli_run_json_records(tmp_path):
    out = tmp_path / "r.jsonl"
    assert _run_cli(["run", "--algo", "rls", "--n", "8", "--reps", "2",
                     "--seed", "3", "--format", "json", "--out", str(out)]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 2
    assert set(records[0]) == {"algo", "n", "seed", "total_queries",
                               "hit_optimum", "budget_exhausted", "per_level"}


def test_cli_usage_errors(tmp_path, capsys):
    assert _run_cli(["run", "--algo", "rls", "--n", "zap", "--reps", "1"]) == 1
    assert _run_cli(["run", "--algo", "rls", "--n", "8", "--reps", "0"]) == 1
    assert _run_cli(["run", "--algo", "rls", "--n", "8", "--reps", "1",
                     "--budget", str(10**10)]) == 1
    assert _run_cli(["phi", "--kmax", "10", "--mmax", "10"]) == 1
    for extra in (["--n", "0"], ["--n", "0,8"], ["--n", "8", "--budget", "-3"],
                  ["--n", "8", "--budget", "0"], ["--n", "8", "--format", "xml"]):
        assert _run_cli(["run", "--algo", "rls", "--reps", "1"] + extra) == 1
    assert _run_cli(["verify", "--max-total", "1"]) == 1
    assert _run_cli(["level-profile", "--algo", "rls", "--n", "16",
                     "--format", "json"]) == 1
    assert _run_cli(["level-profile", "--algo", "rls", "--n", "16", "--reps", "100",
                     "--budget", "20", "--out", str(tmp_path / "lp.csv")]) == 1
    for argv in (["verify", "--eps", "nan"], ["verify", "--eps", "inf"],
                 ["phi", "--kmax", "2", "--mmax", "2", "--eps", "nan"],
                 ["phi", "--kmax", "2", "--mmax", "2", "--eps", "1e308"]):
        assert _run_cli(argv + ["--out", str(tmp_path / "bad.out")]) == 1
        assert _run_cli(argv) == 1
    assert os.listdir(tmp_path) == []
    assert capsys.readouterr().out == ""


def test_cli_verify_p_resolution_cap(tmp_path, monkeypatch, capsys):
    # the sweep itself never runs here, so nothing the size of the grid is allocated
    reached = []

    def sweep(p_resolution, **kwargs):
        reached.append(p_resolution)
        raise ValueError("sweep reached")

    monkeypatch.setattr(cli, "verify_induction_step", sweep)
    out = tmp_path / "verify.json"
    for value in (cli.CLI_P_RESOLUTION_CAP + 1, 10**12):
        assert _run_cli(["verify", "--p-resolution", str(value), "--out", str(out)]) == 1
        assert "usage error: p-resolution exceeds the CLI cap" in capsys.readouterr().err
    assert reached == [] and os.listdir(tmp_path) == []
    assert _run_cli(["verify", "--p-resolution", str(cli.CLI_P_RESOLUTION_CAP)]) == 1
    assert reached == [cli.CLI_P_RESOLUTION_CAP]
    assert "sweep reached" in capsys.readouterr().err


def test_cli_io_error():
    code = _run_cli(["run", "--algo", "rls", "--n", "8", "--reps", "1",
                     "--out", "/nonexistent-dir/x.csv"])
    assert code == 2


def test_cli_failed_run_keeps_previous_output(tmp_path, monkeypatch):
    out = tmp_path / "r.csv"
    out.write_bytes(b"previous contents\n")
    real = harness.run_one_plus_one
    calls = []

    def failing_third_run(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise RuntimeError("injected failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "run_one_plus_one", failing_third_run)
    with pytest.raises(RuntimeError):
        _run_cli(["run", "--algo", "rls", "--n", "8", "--reps", "5",
                  "--out", str(out)])
    assert out.read_bytes() == b"previous contents\n"
    assert os.listdir(tmp_path) == ["r.csv"]


def test_cli_overwrite_keeps_file_mode_and_symlink(tmp_path):
    target = tmp_path / "r.csv"
    target.write_text("previous contents\n")
    target.chmod(0o600)
    link = tmp_path / "latest.csv"
    link.symlink_to(target)
    assert _run_cli(["run", "--algo", "rls", "--n", "8", "--out", str(link)]) == 0
    assert link.is_symlink()
    assert target.read_text().startswith(CSV_HEADER + "\n")
    assert target.stat().st_mode & 0o777 == 0o600


def test_cli_writes_fifo_in_place(tmp_path):
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    code = _run_cli(["run", "--algo", "rls", "--n", "8", "--out", str(fifo)])
    reader.join(timeout=30)
    assert code == 0
    assert received[0].decode().startswith(CSV_HEADER + "\n")
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert os.listdir(tmp_path) == ["out.fifo"]


def test_cli_directory_out_fails_before_any_run(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "run_one_plus_one",
                        lambda *args, **kwargs: calls.append(None))
    assert _run_cli(["run", "--algo", "rls", "--n", "8",
                     "--out", str(tmp_path)]) == 2
    assert calls == []
    assert os.listdir(tmp_path) == []


def test_cli_empty_out_fails_before_any_run_or_sweep(tmp_path, monkeypatch, capsys):
    reached = []
    monkeypatch.setattr(harness, "run_one_plus_one",
                        lambda *args, **kwargs: reached.append("run"))
    monkeypatch.setattr(harness, "cmd_phi", lambda *args: reached.append("phi"))
    monkeypatch.setattr(cli, "verify_induction_step",
                        lambda **kwargs: reached.append("verify"))
    inner = tmp_path / "inner"
    inner.mkdir()
    monkeypatch.chdir(inner)
    run = ["--algo", "rls", "--n", "4", "--reps", "1"]
    for argv in (["run", *run], ["scaling", *run], ["level-profile", *run],
                 ["phi", "--kmax", "2", "--mmax", "2"], ["verify"]):
        assert _run_cli(argv + ["--out", ""]) == 1
        assert "usage error: --out must not be empty" in capsys.readouterr().err
    assert reached == []
    assert os.listdir(tmp_path) == ["inner"] and os.listdir(inner) == []


def test_emit_rejects_empty_path_before_reading_lines(tmp_path, monkeypatch):
    produced = []

    def lines():
        produced.append("line")
        yield "line"

    inner = tmp_path / "inner"
    inner.mkdir()
    monkeypatch.chdir(inner)
    with pytest.raises(ValueError, match="^output path must not be empty$"):
        harness.emit(lines(), "")
    assert produced == []
    assert os.listdir(tmp_path) == ["inner"] and os.listdir(inner) == []


def test_cli_existing_partial_file_is_not_clobbered(tmp_path):
    out = tmp_path / "r.csv"
    out.write_bytes(b"previous contents\n")
    partial = tmp_path / "r.csv.partial"
    partial.write_bytes(b"user data\n")
    assert _run_cli(["run", "--algo", "rls", "--n", "8",
                     "--out", str(out)]) == 2
    assert out.read_bytes() == b"previous contents\n"
    assert partial.read_bytes() == b"user data\n"


def test_cli_game(tmp_path, capsys):
    spec = tmp_path / "game.txt"
    spec.write_text("positions=4\nk=1\nset=1\n")
    assert _run_cli(["game", "--spec", str(spec)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "2.0\n"
    assert captured.err == "game: 3 memo states\n"
    assert _run_cli(["game", "--spec", str(tmp_path / "missing.txt")]) == 2
    capsys.readouterr()
    spec.write_text("positions=4\nk=1\nset=5\n")
    assert _run_cli(["game", "--spec", str(spec)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: set= position 5 out of range 1..4\n"


def test_cli_verify_exit_codes(tmp_path, capsys):
    out = tmp_path / "verify.json"
    assert _run_cli(["verify", "--p-resolution", "256", "--max-total", "60",
                     "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["pass"] is True
    assert report["max_r"] <= 1.0
    assert {"k", "m", "log2_B", "max_r", "argmax_p", "skipped"} <= set(report["cells"][0])
    bad = tmp_path / "bad.json"
    assert _run_cli(["verify", "--eps", "1.0", "--p-resolution", "256",
                     "--max-total", "60", "--out", str(bad)]) == 3
    # a failed verification is a complete report, not a failed write
    assert json.loads(bad.read_text())["pass"] is False


def test_cli_verify_reports_cell_counts_on_stderr(capsys):
    argv = ["verify", "--p-resolution", "64", "--max-total", "10"]
    report = verify_induction_step(p_resolution=64, max_total=10)
    assert _run_cli(argv) == 0
    captured = capsys.readouterr()
    # stdout is the report alone, exactly as before the summary line existed
    assert captured.out == json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
    swept = [c for c in report.cells if not c.skipped]
    worst = max(swept, key=lambda c: c.max_r)
    assert worst.max_r == report.max_r
    assert captured.err == (
        f"verify: {len(swept)} cells swept, {len(report.cells) - len(swept)} skipped; "
        f"worst cell k={worst.k} m={worst.m} log2_B={worst.log2_B!r}: "
        f"max R(p) = {worst.max_r!r} at p = {worst.argmax_p!r}\n"
    )
    # a failed sweep names its worst cell before the failure line
    assert _run_cli(argv + ["--eps", "1.0"]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2 and lines[0].startswith("verify: ")
    assert lines[1].startswith("verification FAILED: max R(p) = ")
    assert lines[1].split(" = ")[1] == lines[0].split(" = ")[1].split(" at p")[0]


def test_cli_entry_point_installed():
    # the child imports the package from where this test did, whether it was
    # installed or found through PYTHONPATH or pytest's own pythonpath setting
    src = os.path.dirname(os.path.dirname(harness.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "elitist_lo_lab.cli",
                           "run", "--algo", "rls", "--n", "4", "--reps", "1",
                           "--seed", "1"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.startswith(CSV_HEADER)


def test_cli_scaling_json(tmp_path):
    out = tmp_path / "scaling.json"
    assert _run_cli(["scaling", "--algo", "rls", "--n", "8,16,32",
                     "--reps", "50", "--seed", "2", "--format", "json",
                     "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert {"algo", "rows", "alpha", "coeff", "r_squared"} == set(report)
    assert len(report["rows"]) == 3


def test_cli_level_profile(tmp_path):
    out = tmp_path / "profile.csv"
    assert _run_cli(["level-profile", "--algo", "rls", "--n", "16",
                     "--reps", "100", "--seed", "4", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "level,visits,visit_frequency,mean_queries"
    first = lines[2].split(",")
    assert first[0] == "-1" and first[1] == "100"
