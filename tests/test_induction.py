import hashlib
import json
import math
import warnings

import numpy as np
import pytest

from elitist_lo_lab import bounds
from elitist_lo_lab.bounds import (
    DEFAULT_EPS,
    InductionCell,
    induction_r_values,
    phi_closed_form,
    verify_induction_step,
    worst_cell,
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
    # every cell has m >= 2 and log2 B < 2m; only the 20 empty intervals are skipped
    assert all(c.m >= 2 and c.log2_B < 2 * c.m for c in report.cells)
    skipped = [c for c in report.cells if c.skipped]
    assert len(skipped) == 20
    assert all(c.reason == "empty [p_min, p_max] interval" and c.p_min > c.p_max
               for c in skipped)


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
    report = verify_induction_step(p_resolution=64)
    assert not report.passed and math.isnan(report.max_r)
    monkeypatch.undo()
    # R overflows to NaN at a finite but huge eps, without a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify_induction_step(p_resolution=64, eps=1e308)
    assert not report.passed


def test_worst_cell_takes_the_first_nan_else_the_first_maximum():
    def cell(k, max_r):
        return InductionCell(k, 2, 1.0, 0.0, 1.0, max_r, 0.5, skipped=False)

    skipped = InductionCell(0, 2, 1.0, 1.0, 0.0, None, None, True, "empty")
    cells = [skipped, cell(1, 0.5), cell(2, 2.0), cell(3, math.nan), cell(4, math.nan)]
    assert worst_cell(cells) is cells[3]  # a NaN after a larger finite cell
    cells = [skipped, cell(1, 0.5), cell(2, 0.9), cell(3, 0.9), cell(4, 0.1)]
    assert worst_cell(cells) is cells[2]  # the first of two maximal cells


def test_k_zero_cells_sweep_only_p_equal_one():
    report = verify_induction_step(p_resolution=64)
    cells = [c for c in report.cells if c.k == 0]
    assert len(cells) == 99
    assert all(not c.skipped and c.p_min == c.p_max == c.argmax_p == 1.0
               and c.max_r <= 1.0 for c in cells)
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
    with pytest.raises(ValueError, match="ascending"):
        induction_r_values(3, 4, 1.0, np.array([0.5, 0.25]), 0.01)


# sha256 of the sweep's JSON report at p_resolution=2048, taken before the
# sweep sliced p instead of masking it
SWEEP_DIGESTS = {
    DEFAULT_EPS: "715bb88148f1e949ed5472d5cc2310fb78d4b43b2143a3ce58fed73b82fd0593",
    1.0: "e35f69c7bc24c84838083af992d7731410fdfdf823abdf2dd7e512dc43126f61",
}
# the same at p_resolution=4096, the default of `lolab verify` and of
# verify_induction_step, taken before R was computed in place
SWEEP_DIGESTS_4096 = {
    DEFAULT_EPS: "9b387d4a6499b3fc37e59baebb79f2df162da28b029ce8d6ddfd413ac83b6daf",
    1.0: "c4e5064fe51dddf7e3a64e7dcef2e22ae03bc4cbdb50bd6e19af74db4e633df5",
}


def _sweep_digest(eps, p_resolution):
    report = verify_induction_step(eps=eps, p_resolution=p_resolution)
    return hashlib.sha256(json.dumps(report.to_json_dict()).encode()).hexdigest()


@pytest.mark.parametrize("eps", sorted(SWEEP_DIGESTS))
def test_sweep_report_pinned(eps):
    assert _sweep_digest(eps, 2048) == SWEEP_DIGESTS[eps]


@pytest.mark.parametrize("eps", sorted(SWEEP_DIGESTS_4096))
def test_sweep_report_pinned_at_default_resolution(eps):
    assert _sweep_digest(eps, 4096) == SWEEP_DIGESTS_4096[eps]


# sha256 of R.tobytes() on grids whose p repeats 0.0 and 1.0, so the p > 0
# suffix and the p < 1 prefix start and end inside a run of equal points, and
# on k = 0 with every point at 1.0; taken before R was computed in place
_EDGE_GRID = [0.0, 0.0, 0.0, 0.125, 0.5, 0.75, 1.0, 1.0]
R_DIGESTS = [
    ((3, 4, 1.0, _EDGE_GRID, DEFAULT_EPS),
     "1c3c11b6c27051cf119aacfe854c7ee7c94272991d6126c0260ea224d0c918cd"),
    ((3, 4, 1.0, _EDGE_GRID, 1.0),
     "2c43b2be279470e07558601aed23b8e2b188c806ca8b145313cf8fffd7253488"),
    ((0, 4, 2.0, [1.0] * 5, DEFAULT_EPS),
     "6a6500e73b5871331a28ad43604289620d6d09ef69df0be78c14a19a1b7ee576"),
]


@pytest.mark.parametrize("args, digest", R_DIGESTS, ids=["eps-default", "eps-1", "k0"])
def test_r_values_pinned_at_repeated_endpoints(args, digest):
    k, m, log2_B, p, eps = args
    r = induction_r_values(k, m, log2_B, np.array(p), eps)
    assert hashlib.sha256(r.tobytes()).hexdigest() == digest
