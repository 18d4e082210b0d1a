"""Tests for empirical VaR / ES, quantile diagnostics, and error metrics.

The 1..100 integer sample gives exact hand values: the left empirical
0.95-quantile of {1, ..., 100} is the 95th order statistic (95), and the
expected shortfall above it averages {96, ..., 100} -> 98.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeval.risk import (
    default_quantile_grid,
    detrended_qq,
    empirical_es,
    empirical_var,
    loss_samples,
    normalized_l2,
    risk_report,
)
from treeval.valuation import ValueSurface


def test_var_integers_1_to_100():
    losses = np.arange(1, 101, dtype=np.float64)
    assert empirical_var(losses, 0.95) == 95.0


def test_es_integers_1_to_100():
    losses = np.arange(1, 101, dtype=np.float64)
    # mean of {96..100} = 98 exactly
    assert empirical_es(losses, 0.95) == 98.0


def test_var_unsorted_input():
    rng = np.random.default_rng(0)
    losses = np.arange(1, 101, dtype=np.float64)
    rng.shuffle(losses)
    assert empirical_var(losses, 0.95) == 95.0


def test_var_ceil_convention():
    # n=4, alpha=0.5 -> ceil(2) = 2nd order statistic
    assert empirical_var([4.0, 1.0, 3.0, 2.0], 0.5) == 2.0
    # n=4, alpha=0.51 -> ceil(2.04) = 3rd
    assert empirical_var([4.0, 1.0, 3.0, 2.0], 0.51) == 3.0
    # alpha=1 -> maximum
    assert empirical_var([4.0, 1.0, 3.0, 2.0], 1.0) == 4.0


def test_var_single_sample():
    assert empirical_var([7.5], 0.5) == 7.5
    assert empirical_var([7.5], 0.999) == 7.5


def test_var_rejects_bad_inputs():
    with pytest.raises(ValueError):
        empirical_var([], 0.5)
    with pytest.raises(ValueError):
        empirical_var([1.0], 0.0)
    with pytest.raises(ValueError):
        empirical_var([1.0], 1.5)


def test_es_rejects_alpha_one():
    with pytest.raises(ValueError):
        empirical_es([1.0, 2.0], 1.0)
    with pytest.raises(ValueError):
        empirical_es([1.0, 2.0], 0.0)


def test_es_hand_value_small():
    # VaR_0.5 of {1,2,3,4} = 2; excess = {0,0,1,2}; ES = 2 + (3/4)/0.5 = 3.5
    assert empirical_es([1.0, 2.0, 3.0, 4.0], 0.5) == 3.5


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200),
    st.floats(0.01, 0.99),
)
@settings(max_examples=200, deadline=None)
def test_es_dominates_var(losses, alpha):
    assert empirical_es(losses, alpha) >= empirical_var(losses, alpha)


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=100),
    st.floats(0.01, 0.99),
    st.floats(-1e3, 1e3),
)
@settings(max_examples=100, deadline=None)
def test_var_translation_equivariance(losses, alpha, shift):
    base = empirical_var(losses, alpha)
    shifted = empirical_var(np.asarray(losses) + shift, alpha)
    assert shifted == pytest.approx(base + shift, abs=1e-9)


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=100),
    st.floats(0.01, 0.99),
    st.floats(0.01, 100.0),
)
@settings(max_examples=100, deadline=None)
def test_var_positive_homogeneity(losses, alpha, scale):
    base = empirical_var(losses, alpha)
    scaled = empirical_var(np.asarray(losses) * scale, alpha)
    assert scaled == pytest.approx(scale * base, rel=1e-12, abs=1e-9)


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=100),
    st.floats(0.05, 0.45),
    st.floats(0.5, 0.95),
)
@settings(max_examples=100, deadline=None)
def test_var_monotone_in_alpha(losses, lo, hi):
    assert empirical_var(losses, lo) <= empirical_var(losses, hi)


def test_es_var_random_levels_bulk():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(1, 500))
        losses = rng.normal(size=n) * rng.uniform(0.1, 10.0)
        alpha = float(rng.uniform(0.01, 0.99))
        assert empirical_es(losses, alpha) >= empirical_var(losses, alpha)


def test_quantile_grid_shape_and_bands():
    grid = default_quantile_grid()
    assert grid.shape == (315,)
    assert np.all(np.diff(grid) > 0)
    assert 0.0 < grid[0] and grid[-1] < 1.0
    assert grid[0] == 1e-5
    assert grid[-1] == 0.99999
    # band boundaries
    assert 0.0001 in grid and 0.01 in grid and 0.99 in grid and 0.9999 in grid
    # interior percent steps present
    assert 0.5 in grid and 0.95 in grid


def test_detrended_qq_self_is_zero():
    rng = np.random.default_rng(3)
    losses = rng.normal(size=1000)
    levels, tq, det = detrended_qq(losses, losses)
    assert levels.shape == tq.shape == det.shape == (315,)
    assert np.all(det == 0.0)
    assert np.all(np.diff(tq) >= 0.0)


def test_detrended_qq_constant_shift():
    rng = np.random.default_rng(4)
    truth = rng.normal(size=500)
    levels, tq, det = detrended_qq(truth + 0.25, truth, levels=[0.1, 0.5, 0.9])
    assert det == pytest.approx([0.25, 0.25, 0.25], abs=1e-12)
    assert tq[1] == empirical_var(truth, 0.5)


def test_detrended_qq_is_empirical_var_per_level():
    # each level's quantile is the ceil(alpha * n)-th order statistic
    rng = np.random.default_rng(5)
    n = 997
    est, truth = rng.normal(size=n), rng.standard_t(3, size=n)
    levels, tq, det = detrended_qq(est, truth)
    rank = [min(max(math.ceil(a * n), 1), n) - 1 for a in levels]
    want_tq = np.sort(truth)[rank]
    want_eq = np.sort(est)[rank]
    assert np.array_equal(tq, want_tq)
    assert np.array_equal(det, want_eq - want_tq)
    with pytest.raises(ValueError):
        detrended_qq(est, truth, levels=[0.5, 0.0])
    with pytest.raises(ValueError):
        detrended_qq(est, [], levels=[0.5])


def test_normalized_l2_hand_value():
    # RMS of (1,1) differences = 1, reference 2 -> 50%
    est = np.array([3.0, 5.0])
    tru = np.array([2.0, 4.0])
    assert normalized_l2(est, tru, 2.0) == pytest.approx(50.0)
    assert normalized_l2(tru, tru, 2.0) == 0.0


def test_normalized_l2_sign_of_reference():
    est = np.array([1.0])
    tru = np.array([0.0])
    assert normalized_l2(est, tru, -2.0) == pytest.approx(50.0)


def test_normalized_l2_validation():
    with pytest.raises(ValueError):
        normalized_l2(np.zeros(3), np.zeros(4), 1.0)
    with pytest.raises(ValueError):
        normalized_l2(np.zeros(3), np.zeros(3), 0.0)


def test_loss_samples_from_surface():
    values = np.array([[1.0, 0.5, 0.2], [2.0, 1.5, 1.2]])
    surface = ValueSurface(dates=(0, 1, 2), values=values)
    long, short = loss_samples(surface)
    assert long == pytest.approx([0.5, 0.5])
    assert short == pytest.approx([-0.5, -0.5])
    long02, _ = loss_samples(surface, 0, 2)
    assert long02 == pytest.approx([0.8, 0.8])


def test_risk_report_structure_and_lookup():
    rng = np.random.default_rng(9)
    oracle = rng.normal(size=5000)
    est = oracle + rng.normal(size=5000) * 0.01
    rep = risk_report(est, oracle)
    assert len(rep.entries) == 4
    for measure in ("var", "es"):
        for position in ("long", "short"):
            e = rep.lookup(measure, position)
            assert e.measure == measure and e.position == position
    with pytest.raises(KeyError):
        rep.lookup("var", "sideways")
    # short-side oracle VaR is the long sample's left tail flipped
    e = rep.lookup("var", "short")
    assert e.oracle == empirical_var(-oracle, 0.995)
    assert rep.max_abs_rel_error_pct < 5.0


def test_risk_report_perfect_estimator():
    losses = np.arange(1, 101, dtype=np.float64)
    rep = risk_report(losses, losses, var_alpha=0.95, es_alpha=0.95)
    assert rep.max_abs_rel_error_pct == 0.0
    assert rep.lookup("var", "long").estimate == 95.0
    assert rep.lookup("es", "long").estimate == 98.0


def test_risk_estimate_rel_error():
    rep = risk_report(np.array([1.0, 2.0, 110.0]), np.array([1.0, 2.0, 100.0]),
                      var_alpha=0.9, es_alpha=0.9)
    e = rep.lookup("var", "long")
    assert e.estimate == 110.0 and e.oracle == 100.0
    assert e.rel_error_pct == pytest.approx(10.0)


def test_var_es_match_gaussian_theory():
    """Empirical VaR/ES on a large normal sample approach the closed forms."""
    rng = np.random.default_rng(123)
    n = 400_000
    losses = rng.standard_normal(n)
    alpha = 0.99
    from scipy.stats import norm

    var_true = norm.ppf(alpha)
    es_true = norm.pdf(var_true) / (1 - alpha)
    assert empirical_var(losses, alpha) == pytest.approx(var_true, abs=0.03)
    assert empirical_es(losses, alpha) == pytest.approx(es_true, abs=0.05)
