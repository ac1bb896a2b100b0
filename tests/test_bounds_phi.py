import functools
import itertools
import math
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from elitist_lo_lab.bounds import PhiSolver, _level_counts, phi_closed_form


# -- the cardinality DP -----------------------------------------------------------


def test_phi_no_insignificant_bits_is_zero():
    solver = PhiSolver()
    for k in range(0, 6):
        assert solver.value(k, 0, 1) == 0


def test_phi_full_knowledge_is_half_m_plus_one():
    solver = PhiSolver()
    for k in range(0, 5):
        for m in range(1, 6):
            assert solver.value(k, m, 1) == Fraction(m + 1, 2)


def test_phi_hand_evaluated_cell():
    assert PhiSolver().value(1, 1, 2) == Fraction(3, 2)


def test_phi_rejects_out_of_range():
    solver = PhiSolver()
    with pytest.raises(ValueError):
        solver.value(1, 1, 3)
    with pytest.raises(ValueError):
        solver.value(-1, 1, 1)
    with pytest.raises(ValueError):
        solver.value(20, 20, 1)


def test_phi_float_row_keeps_the_table_guard():
    solver = PhiSolver()
    with pytest.raises(ValueError, match="exceeds the table guard"):
        solver.float_row(24, 1)


def test_phi_monotone_in_C_small_cells():
    solver = PhiSolver()
    for k in range(0, 5):
        for m in range(1, 5):
            total = math.comb(k + m, m)
            values = [solver.value(k, m, C) for C in range(1, total + 1)]
            assert all(a <= b for a, b in zip(values, values[1:]))


def test_phi_base_bound():
    # even full knowledge costs (m+1)/2, so every cell is at least that
    solver = PhiSolver()
    for k in range(0, 5):
        for m in range(1, 5):
            total = math.comb(k + m, m)
            for C in range(1, total + 1):
                assert solver.value(k, m, C) >= Fraction(m + 1, 2)


def test_phi_float_rows_match_exact():
    solver = PhiSolver()
    for k in range(0, 5):
        for m in range(0, 5):
            row = solver.float_row(k, m)
            total = math.comb(k + m, m)
            assert len(row) == total + 1
            for C in range(1, total + 1):
                assert row[C] == pytest.approx(float(solver.value(k, m, C)), abs=1e-12)


def test_phi_float_row_monotone_mid_size():
    solver = PhiSolver()
    row = solver.float_row(5, 5)
    diffs = row[2:] - row[1:-1]
    assert diffs.min() >= 0  # rounding is monotone, so a correctly rounded row is too


def test_phi_float_row_is_a_new_array_each_call():
    solver = PhiSolver()
    want = solver.float_row(3, 4).copy()
    solver.float_row(3, 4)[1:] = -1.0  # a caller's write stays in its own row
    np.testing.assert_array_equal(solver.float_row(3, 4), want)


def test_phi_fresh_solver_wrapper():
    assert PhiSolver().value(2, 1, 2) == Fraction(3, 2)


# -- the closed form: mean of the C smallest slopes -----------------------------------


@functools.lru_cache(maxsize=None)
def _min_over_c(k: int, m: int, C: int) -> Fraction:
    """The defining recursion, minimized over every integer split c."""
    if m == 0:
        return Fraction(0)
    a = math.comb(k + m - 1, m - 1)
    b = math.comb(k + m - 1, m)
    best = None
    for c in range(max(0, C - b), min(C, a) + 1):
        val = Fraction(0)
        if c > 0:
            val += Fraction(c, C) * Fraction(m - 1, m) * _min_over_c(k, m - 1, c)
        if C - c > 0:
            val += Fraction(C - c, C) * _min_over_c(k - 1, m, C - c)
        if best is None or val < best:
            best = val
    return 1 + best


@functools.lru_cache(maxsize=None)
def _slopes(k: int, m: int) -> tuple[Fraction, ...]:
    """All of S(k, m), sorted, built without truncation."""
    if m == 0:
        return (Fraction(0),)
    out = [Fraction(m - 1, m) * (1 + s) for s in _slopes(k, m - 1)]
    if k:
        out += [1 + s for s in _slopes(k - 1, m)]
    return tuple(sorted(out))


def _closed_form_row(k: int, m: int) -> list[Fraction]:
    """Phi_hat(k, m, C) for C = 1..|S(k, m)|: 1 + the mean of the C smallest."""
    if m == 0:
        return [Fraction(0)]
    sums = itertools.accumulate(_slopes(k, m))
    return [1 + s / C for C, s in enumerate(sums, start=1)]


def test_phi_value_equals_min_over_c_recursion():
    solver = PhiSolver()
    cells = 0
    for k in range(0, 7):
        for m in range(0, 10 - k):
            for C in range(1, math.comb(k + m, m) + 1):
                assert solver.value(k, m, C) == _min_over_c(k, m, C), (k, m, C)
                cells += 1
    assert cells == 967


def test_phi_split_costs_are_convex():
    # F[c] = (m-1)/m * c * Phi_hat(k, m-1, c) and G[c] = c * Phi_hat(k-1, m, c)
    # with F[0] = G[0] = 0: the premise that turns the min over c into a merge
    solver = PhiSolver()
    for total in range(1, 17):
        for k in range(0, total):
            m = total - k
            parts = [((m - 1) / m, solver.float_row(k, m - 1))]
            if k:
                parts.append((1.0, solver.float_row(k - 1, m)))
            for weight, row in parts:
                cost = weight * np.arange(len(row)) * np.nan_to_num(row)
                second = cost[2:] - 2 * cost[1:-1] + cost[:-2]
                assert (second >= -1e-9 * np.maximum(1.0, cost[2:])).all(), (k, m)


def test_phi_float_rows_match_closed_form():
    solver = PhiSolver()
    for total in range(0, 13):
        for k in range(0, total + 1):
            m = total - k
            row = solver.float_row(k, m)
            assert math.isnan(row[0])
            exact = [float(v) for v in _closed_form_row(k, m)]
            assert len(row) == math.comb(total, m) + 1 == len(exact) + 1
            assert row[1:].tolist() == exact, (k, m)


def test_phi_value_builds_only_the_needed_prefix():
    # |S(12, 12)| = 2,704,156; C = 1 needs one slope per (k, m)
    t0 = time.perf_counter()
    assert PhiSolver().value(12, 12, 1) == Fraction(13, 2)
    assert time.perf_counter() - t0 < 0.5


# -- the level counts: Gaussian binomial coefficients ---------------------------------


def test_level_counts_are_gaussian_binomial_coefficients():
    for total in range(0, PhiSolver.MAX_TOTAL + 1):
        for m in range(0, total + 1):
            g = _level_counts(total - m, m)
            assert len(g) == (total - m) * m + 1
            assert sum(g) == math.comb(total, m), (total - m, m)
            assert g == g[::-1], (total - m, m)  # g(N) = g(km - N)


def test_level_counts_count_the_slopes():
    # g(N) elements of S(k, m) equal (m-1)/2 + N/m
    for total in range(1, 11):
        for m in range(1, total + 1):
            k = total - m
            levels = Counter((s - Fraction(m - 1, 2)) * m for s in _slopes(k, m))
            assert all(level.denominator == 1 for level in levels), (k, m)
            assert [levels[N] for N in range(k * m + 1)] == list(_level_counts(k, m))


def test_phi_full_prefix_is_half_k_plus_m_plus_one():
    solver = PhiSolver()
    for total in range(1, PhiSolver.MAX_TOTAL + 1):
        for m in range(1, total + 1):
            C = math.comb(total, m)
            assert solver.value(total - m, m, C) == Fraction(total + 1, 2), (total - m, m)


def test_phi_value_past_4096_matches_float_row():
    # one seeded row per k+m in 13..24, at its first and last cell and at
    # seeded cells between: every float cell is the correctly rounded value
    solver = PhiSolver()
    rng = random.Random(7)
    rows = [(12, 12, (4097, 10**5))]
    for total in range(13, PhiSolver.MAX_TOTAL + 1):
        m = rng.randint(1, total)
        size = math.comb(total, m)
        rows.append((total - m, m, [rng.randint(1, size) for _ in range(8)]))
    for k, m, cells in rows:
        row = solver.float_row(k, m)
        for C in (1, *cells, len(row) - 1):
            assert row[C] == float(solver.value(k, m, C)), (k, m, C)


def test_phi_float_row_peak_allocation():
    # the row and its array of denominators, 2.7M float64 each, read about
    # 41 MiB at the peak
    solver = PhiSolver()
    tracemalloc.start()
    try:
        solver.float_row(12, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 130 * 2**20


# -- closed form --------------------------------------------------------------------


def test_phi_closed_form_values():
    assert phi_closed_form(3, 2, 1.0, 0.25) == pytest.approx(0.25 * 5)
    assert phi_closed_form(4, 3, 2.0 ** 6, 0.1) == pytest.approx(0.0)
    assert phi_closed_form(7, 1, 2.0, 1 / 8) == pytest.approx(0.5)


def test_phi_closed_form_validation():
    with pytest.raises(ValueError):
        phi_closed_form(1, 0, 1.0, 0.5)
    with pytest.raises(ValueError):
        phi_closed_form(1, 1, 0.5, 0.5)
    for eps in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            phi_closed_form(1, 1, 1.0, eps)
    with pytest.raises(ValueError):
        phi_closed_form(1, 1, 1.0, 1e308)  # finite eps, overflowing value
