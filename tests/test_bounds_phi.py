import functools
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elitist_lo_lab.bounds import (
    InfoState,
    PhiSolver,
    available_information,
    phi_closed_form,
)


# -- available information ------------------------------------------------------


def test_available_information_examples():
    assert available_information(3, 2, 10) == 1
    assert available_information(3, 2, 5) == 2
    for k, m in [(0, 3), (4, 1), (2, 2)]:
        assert available_information(k, m, 1) == math.comb(k + m, m)


def test_available_information_rejects_bad_count():
    with pytest.raises(ValueError):
        available_information(3, 2, 0)
    with pytest.raises(ValueError):
        available_information(3, 2, 11)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_information_composes_with_insignificant_updates(data):
    # after an insignificant-branch filter keeping c of C configurations the
    # new state (k, m-1, c) must carry B_new = B * (m/(k+m)) / (c/C) exactly
    k = data.draw(st.integers(0, 8))
    m = data.draw(st.integers(1, 8))
    total = math.comb(k + m, m)
    C = data.draw(st.integers(1, total))
    a = math.comb(k + m - 1, m - 1)
    lo = max(1, C - math.comb(k + m - 1, m))
    hi = min(C, a)
    if lo > hi:
        return
    c = data.draw(st.integers(lo, hi))
    state = InfoState(k, m, C)
    p = Fraction(c, C)
    assert state.filter_insignificant(c).b == state.b / p * Fraction(m, k + m)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_information_composes_with_significant_updates(data):
    # the significant branch keeping c of C moves to (k-1, m, c) with
    # B_new = B * (k/(k+m)) / (c/C)
    k = data.draw(st.integers(1, 8))
    m = data.draw(st.integers(1, 8))
    total = math.comb(k + m, m)
    C = data.draw(st.integers(1, total))
    lo = max(1, C - math.comb(k + m - 1, m - 1))
    hi = min(C, math.comb(k + m - 1, m))
    if lo > hi:
        return
    c = data.draw(st.integers(lo, hi))
    state = InfoState(k, m, C)
    p = Fraction(c, C)
    assert state.filter_significant(c).b == state.b / p * Fraction(k, k + m)


def test_info_state_validation():
    with pytest.raises(ValueError):
        InfoState(2, 2, 7)
    with pytest.raises(ValueError):
        InfoState(2, 2, 6).filter_insignificant(0)


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
    assert diffs.min() > -1e-9


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
            assert row[1:] == pytest.approx(exact, rel=1e-12, abs=0.0), (k, m)


def test_phi_value_builds_only_the_needed_prefix():
    # |S(12, 12)| = 2,704,156; C = 1 needs one slope per (k, m)
    t0 = time.perf_counter()
    assert PhiSolver().value(12, 12, 1) == Fraction(13, 2)
    assert time.perf_counter() - t0 < 0.5


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
