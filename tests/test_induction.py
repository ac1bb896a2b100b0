import math
import warnings

import numpy as np
import pytest

from elitist_lo_lab import bounds
from elitist_lo_lab.bounds import (
    DEFAULT_EPS,
    induction_r_values,
    phi_closed_form,
    verify_induction_step,
)


def _recursion_rhs(k, m, B, p, eps):
    """The induction hypothesis plugged into the recursion's two branches."""
    S = k + m
    first = 0.0
    if p > 0:
        first = (p * (m - 1) / m * eps * (S - 1)
                 * (1 - math.log2(B / p * m / S) / (2 * (m - 1))))
    second = 0.0
    if p < 1:
        second = ((1 - p) * eps * (S - 1)
                  * (1 - math.log2(B / (1 - p) * k / S) / (2 * m)))
    return first + second


def test_seven_term_sum_matches_recursion_algebra():
    # R(p) is defined so that branch sum = eps*(k+m)*(1 - log2(B)/2m) - R(p)
    rng = np.random.default_rng(12)
    for _ in range(400):
        k = int(rng.integers(1, 80))
        m = int(rng.integers(2, 80))
        log2_B = float(rng.uniform(0.0, 2 * m - 1e-9))
        B = 2.0 ** log2_B
        S = k + m
        p_lo = max(0.0, 1.0 - B * k / S)
        p_hi = min(1.0, B * m / S)
        p = float(rng.uniform(max(p_lo, 1e-9), min(p_hi, 1 - 1e-9)))
        eps = float(rng.uniform(1e-4, 1.0))
        r = float(induction_r_values(k, m, log2_B, np.array([p]), eps)[0])
        lhs = _recursion_rhs(k, m, B, p, eps)
        rhs = phi_closed_form(k, m, B, eps) - r
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_endpoint_conventions():
    # p = 0 kills the five p-branch terms; p = 1 kills the two others
    r = induction_r_values(3, 4, 1.0, np.array([0.0, 1.0]), 0.01)
    eps, k, m, log2_B = 0.01, 3, 4, 1.0
    S = k + m
    expected_p0 = ((1 - 0) * eps * (1 - (log2_B + math.log2(k / S)) / (2 * m))
                   + eps * S * math.log2(k / S) / (2 * m))
    assert r[0] == pytest.approx(expected_p0, rel=1e-12)
    L1 = log2_B + math.log2(m / S)
    M1 = math.log2(m / S)
    expected_p1 = (eps * (S - 1) / m * (1 - L1 / (2 * (m - 1)))
                   + eps * (1 - L1 / (2 * (m - 1)))
                   + eps * S * M1 / (2 * m)
                   + eps * S * M1 / (2 * m * (m - 1))
                   + eps * S * log2_B / (2 * m * (m - 1)))
    assert r[1] == pytest.approx(expected_p1, rel=1e-12)


def test_default_sweep_passes():
    report = verify_induction_step(p_resolution=512)
    assert report.passed
    assert report.max_r <= 1.0
    swept = [c for c in report.cells if not c.skipped]
    assert swept
    # endpoints are always part of the sweep
    for cell in swept[:5]:
        assert cell.p_min <= cell.argmax_p <= cell.p_max


def test_large_eps_fails():
    report = verify_induction_step(p_resolution=512, eps=1.0)
    assert not report.passed
    assert report.max_r > 1.0


def test_nan_cell_fails_the_sweep(monkeypatch):
    real = bounds.induction_r_values

    def nan_inside_k3(k, m, log2_B, p, eps):
        r = real(k, m, log2_B, p, eps)
        if k == 3:
            r[len(r) // 2] = math.nan
        return r

    monkeypatch.setattr(bounds, "induction_r_values", nan_inside_k3)
    report = verify_induction_step(k_grid=(0, 3, 5), m_grid=(4,),
                                   logb_fractions=(0.25,), p_resolution=64)
    assert not report.passed and math.isnan(report.max_r)
    monkeypatch.undo()
    # R overflows to NaN at a finite but huge eps, without a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify_induction_step(k_grid=(0, 3), m_grid=(4,),
                                       logb_fractions=(0.25,), p_resolution=64, eps=1e308)
    assert not report.passed


def test_trivial_cells_are_skipped():
    report = verify_induction_step(
        k_grid=(2,), m_grid=(1, 3), logb_fractions=(0.0, 1.0), p_resolution=16,
    )
    reasons = {(c.k, c.m, c.skipped) for c in report.cells}
    # m=1 cells and the log2B = 2m fraction are trivial
    assert (2, 1, True) in reasons
    assert any(c.m == 3 and c.skipped and c.log2_B >= 6.0 for c in report.cells)
    assert any(c.m == 3 and not c.skipped for c in report.cells)


def test_k_zero_cells_sweep_only_p_equal_one():
    report = verify_induction_step(k_grid=(0,), m_grid=(4,),
                                   logb_fractions=(0.25,), p_resolution=64)
    cell = [c for c in report.cells if not c.skipped][0]
    assert cell.p_min == 1.0 and cell.p_max == 1.0
    assert report.passed


def test_default_eps_is_proof_safe():
    # the induction argument needs 1024 * eps / (e * ln 2) <= 1/2
    assert 1024 * DEFAULT_EPS / (math.e * math.log(2)) <= 0.5


def test_argument_validation():
    for eps in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            verify_induction_step(eps=eps)
    with pytest.raises(ValueError):
        verify_induction_step(p_resolution=1)
    with pytest.raises(ValueError):
        verify_induction_step(max_total=1)  # no cell swept
    with pytest.raises(ValueError):
        induction_r_values(1, 1, 0.5, np.array([0.5]), 0.1)
