"""Experiment orchestration: batch runs, per-level statistics, scaling fits,
bound-verification drivers, and file output.

Reproducibility contract: identical configuration gives byte-identical
output.  Per-repetition seeds derive from (master seed, n, repetition index)
through the splitmix64 finisher (see `rep_seed`); the instance and the run
consume two further derived seeds, so a run never aliases its own instance
draw.  Repetitions are executed sequentially in (n, rep) order; the seed
derivation makes them independent, so a parallel driver could compute them
in any order and emit in the same order.
"""
from __future__ import annotations

import contextlib
import math
import os
import random
import shutil
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .bounds import DEFAULT_EPS, LevelGameSolver, PhiSolver, phi_closed_form
from .framework import RunRecord, run_one_plus_one
from .heuristics import STRATEGIES, make_strategy
from .lo_core import random_instance

CSV_HEADER = "# elitist-lo-lab v1"

_MASK64 = (1 << 64) - 1


def mix64(x: int) -> int:
    """splitmix64 finisher; the documented seed mixer."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def rep_seed(master_seed: int, n: int, rep: int) -> int:
    """64-bit per-repetition seed from (master seed, n, repetition index)."""
    acc = mix64(master_seed ^ (n * 0x9E3779B97F4A7C15))
    return mix64(acc ^ (rep * 0xD1B54A32D192ED03))


@dataclass
class ExperimentConfig:
    algo: str
    n_values: list[int]
    reps: int
    seed: int = 0
    budget: int | None = None

    def __post_init__(self):
        if self.algo not in STRATEGIES:
            raise ValueError(f"unknown algorithm {self.algo!r}; known: {sorted(STRATEGIES)}")
        if self.reps < 1:
            raise ValueError("repetitions must be >= 1")
        if not self.n_values:
            raise ValueError("need at least one n value")
        if min(self.n_values) < 1:
            raise ValueError("n values must be >= 1")
        if self.budget is not None and self.budget < 1:
            raise ValueError("budget must be >= 1")
        if any(b >= a for a, b in zip(self.n_values[1:], self.n_values)):
            raise ValueError("n values must be strictly increasing")


def run_experiment(config: ExperimentConfig) -> Iterator[RunRecord]:
    """Execute reps x |n_values| independent runs in deterministic
    (n, repetition) order.  The emitted record's seed field carries the
    per-repetition seed."""
    strategy = make_strategy(config.algo)
    for n in config.n_values:
        for rep in range(config.reps):
            rs = rep_seed(config.seed, n, rep)
            inst = random_instance(n, random.Random(mix64(rs ^ 0x1)))
            rec = run_one_plus_one(strategy, inst, seed=mix64(rs ^ 0x2),
                                   budget=config.budget)
            rec.seed = rs
            yield rec


# -- record serialization ------------------------------------------------------

RUN_CSV_COLUMNS = ("algo", "n", "seed", "total_queries", "hit_optimum",
                   "budget_exhausted", "per_level")


def record_csv_line(rec: RunRecord) -> str:
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


def record_lines(records: Iterable[RunRecord], fmt: str) -> Iterator[str]:
    """Lazily serialize records: the CSV header and one CSV line per record,
    or one JSON object per record ("json")."""
    if fmt == "csv":
        yield CSV_HEADER
        yield ",".join(RUN_CSV_COLUMNS)
        for rec in records:
            yield record_csv_line(rec)
    else:
        for rec in records:
            yield rec.to_json()


# -- scaling fits ---------------------------------------------------------------


def fit_power_law(ns, means) -> tuple[float, float, float]:
    """Least-squares fit of T ~ coeff * n^alpha on (log n, log mean T);
    returns (alpha, coeff, r_squared)."""
    ns = np.asarray(ns, dtype=float)
    means = np.asarray(means, dtype=float)
    if ns.size < 3:
        raise ValueError("scaling fit needs at least 3 points")
    if np.any(ns <= 0) or np.any(means <= 0):
        raise ValueError("scaling fit needs positive sizes and means")
    logn = np.log(ns)
    logt = np.log(means)
    alpha, intercept = np.polyfit(logn, logt, 1)
    pred = alpha * logn + intercept
    ss_res = float(np.sum((logt - pred) ** 2))
    ss_tot = float(np.sum((logt - np.mean(logt)) ** 2))
    r2 = 1.0 - (ss_res / ss_tot if ss_tot > 0 else 0.0)
    return float(alpha), float(math.exp(intercept)), r2


@dataclass
class ScalingRow:
    n: int
    reps: int
    mean: float
    stderr: float
    ci95_halfwidth: float


@dataclass
class ScalingReport:
    algo: str
    rows: list[ScalingRow]
    alpha: float
    coeff: float
    r_squared: float

    def csv_lines(self) -> list[str]:
        lines = [CSV_HEADER, "n,reps,mean_queries,stderr,ci95_halfwidth"]
        for r in self.rows:
            lines.append(f"{r.n},{r.reps},{r.mean!r},{r.stderr!r},{r.ci95_halfwidth!r}")
        lines.append(f"# fit alpha={self.alpha!r} coeff={self.coeff!r} r2={self.r_squared!r}")
        return lines


# fewest repetitions per n a scaling fit accepts
SCALING_MIN_REPS = 50


def cmd_scaling(config: ExperimentConfig) -> ScalingReport:
    """Aggregate run_experiment output and fit the scaling exponent.

    Confidence half-widths use the normal approximation, adequate at the
    contractual reps >= 50.  A run that hits the budget raises ValueError:
    its total is a cut-off, not a runtime, and would bias the fit.
    """
    if len(config.n_values) < 3:
        raise ValueError("scaling needs at least 3 n values")
    if config.reps < SCALING_MIN_REPS:
        raise ValueError(f"scaling needs reps >= {SCALING_MIN_REPS}")
    totals: dict[int, list[int]] = {n: [] for n in config.n_values}
    for rec in run_experiment(config):
        if rec.budget_exhausted:
            raise ValueError(f"a run at n={rec.n} hit the budget {config.budget}; "
                             "scaling fits need runs that reach the optimum")
        totals[rec.n].append(rec.total_queries)
    rows = []
    for n in config.n_values:
        arr = np.asarray(totals[n], dtype=float)
        mean = float(arr.mean())
        stderr = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
        rows.append(ScalingRow(n, arr.size, mean, stderr, 1.96 * stderr))
    alpha, coeff, r2 = fit_power_law([r.n for r in rows], [r.mean for r in rows])
    return ScalingReport(config.algo, rows, alpha, coeff, r2)


# -- per-level profiles ----------------------------------------------------------


@dataclass
class LevelProfileRow:
    level: int
    visits: int
    visit_frequency: float
    mean_queries: float


def cmd_level_profile(config: ExperimentConfig) -> list[LevelProfileRow]:
    """Mean queries charged per visited level plus visit frequencies, for a
    single algorithm at a single n.  Level -1 is the initial-sample
    pseudo-level (visited once per run by construction).  A run that hits
    the budget raises ValueError, as in `cmd_scaling`."""
    if len(config.n_values) != 1:
        raise ValueError("level profile needs exactly one n value")
    if config.reps < 100:
        raise ValueError("level profile needs reps >= 100")
    visits: dict[int, int] = {}
    sums: dict[int, int] = {}
    for rec in run_experiment(config):
        if rec.budget_exhausted:
            raise ValueError(f"a run at n={rec.n} hit the budget {config.budget}; "
                             "level profiles need runs that reach the optimum")
        for level, count in rec.per_level:
            visits[level] = visits.get(level, 0) + 1
            sums[level] = sums.get(level, 0) + count
    rows = []
    for level in sorted(visits):
        v = visits[level]
        rows.append(LevelProfileRow(level, v, v / config.reps, sums[level] / v))
    return rows


def level_profile_csv_lines(rows: list[LevelProfileRow]) -> list[str]:
    lines = [CSV_HEADER, "level,visits,visit_frequency,mean_queries"]
    for r in rows:
        lines.append(f"{r.level},{r.visits},{r.visit_frequency!r},{r.mean_queries!r}")
    return lines


# -- bound-machinery drivers -----------------------------------------------------

PHI_CSV_MAX_TOTAL = 16
PHI_EXACT_MAX_TOTAL = 10


def cmd_phi(kmax: int, mmax: int, eps: float = DEFAULT_EPS) -> list[str]:
    """CSV rows of the cardinality DP over k <= kmax, m in [1, mmax], all C.

    Exact rational arithmetic up to kmax + mmax <= 10; float64 rows beyond
    (comparison slack 1e-9), which keeps full-table enumeration tractable.
    """
    if kmax < 0 or mmax < 1:
        raise ValueError("need kmax >= 0 and mmax >= 1")
    if kmax + mmax > PHI_CSV_MAX_TOTAL:
        raise ValueError(f"kmax+mmax exceeds the table cap {PHI_CSV_MAX_TOTAL}")
    solver = PhiSolver()
    exact = kmax + mmax <= PHI_EXACT_MAX_TOTAL
    lines = [CSV_HEADER, "k,m,C,B,phi_hat,closed_form,slack"]
    for k in range(kmax + 1):
        for m in range(1, mmax + 1):
            total = math.comb(k + m, m)
            row = None if exact else solver.float_row(k, m)
            for C in range(1, total + 1):
                b_val = total / C
                phi = float(solver.value(k, m, C)) if exact else float(row[C])
                cf = phi_closed_form(k, m, b_val, eps)
                lines.append(
                    f"{k},{m},{C},{b_val!r},{phi!r},{cf!r},{phi - cf!r}"
                )
    return lines


def parse_game_spec(text: str) -> tuple[int, int, list[tuple[int, ...]]]:
    """Level-game spec file: `positions=<n'>`, `k=<k>`, then one
    `set=<space-separated 1-based positions>` line per family member."""
    positions = None
    k = None
    family: list[tuple[int, ...]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("positions="):
            positions = int(line.split("=", 1)[1])
        elif line.startswith("k="):
            k = int(line.split("=", 1)[1])
        elif line.startswith("set="):
            body = line.split("=", 1)[1].split()
            family.append(tuple(int(tok) - 1 for tok in body))
        else:
            raise ValueError(f"unrecognized game spec line {line!r}")
    if positions is None or k is None:
        raise ValueError("game spec must define positions= and k=")
    if k == 0:
        family = family or [()]
    if not family:
        raise ValueError("game spec must list at least one set= line")
    return positions, k, family


def cmd_game(spec_text: str) -> tuple[float, int]:
    """The game value of a spec and the number of states the solver memoized."""
    positions, k, family = parse_game_spec(spec_text)
    solver = LevelGameSolver()
    return solver.value(positions, k, family), solver.memo_states


# -- output plumbing -------------------------------------------------------------


def emit(lines: Iterable[str], path: str | None) -> None:
    """Write each line plus a newline to stdout (path None or "-") or to path.

    A regular or absent file is written to `<path>.partial`, then renamed
    over `path` (keeping its mode and any symlink to it), so a failed
    command leaves no half-written file and an earlier one untouched.
    Devices, FIFOs, `/dev/stdout`-style paths and directories are opened in
    place, as a plain `open` would.  The file is opened before `lines` is
    consumed, so a bad path fails before a lazy producer runs.
    """
    if path is None or path == "-":
        sys.stdout.writelines(line + "\n" for line in lines)
        return
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(line + "\n" for line in lines)
        return
    path = os.path.realpath(path)
    tmp = path + ".partial"
    fh = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with fh:
            fh.writelines(line + "\n" for line in lines)
        if os.path.exists(path):
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
