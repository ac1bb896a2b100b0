import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elitist_lo_lab.bounds import (
    InfoState,
    PhiSolver,
    available_information,
    phi_cardinality_dp,
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
    assert phi_cardinality_dp(1, 1, 2) == Fraction(3, 2)


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
    assert phi_cardinality_dp(2, 1, 2) == Fraction(3, 2)


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
