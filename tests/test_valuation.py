"""Closed-form value process of flattened models."""

import csv

import numpy as np
import pytest
from scipy.special import ndtr

from treeval.cart import TreeConfig, fit_tree
from treeval.ensemble import BoostConfig, fit_boost, predict
from treeval.flat import FlatEnsemble, evaluate_flat, flatten_model
from treeval.paths import sample_driver
from treeval.valuation import (ValueSurface, period_prob_matrix, tail_products, value_at,
                               value_surface)


def half_space_model():
    """One cell: 1{x_{1,1} > 0} on a (1, 2) driver, value 1."""
    lo = np.array([[0.0, -np.inf]])
    hi = np.array([[np.inf, np.inf]])
    return FlatEnsemble(lo=lo, hi=hi, values=np.array([1.0]), dims=(1, 2))


def test_half_space_value_process_hand_values():
    fe = half_space_model()
    # V_0 = P(X_1 > 0) = 1/2 exactly
    assert value_at(fe, 0) == 0.5
    # V_1(x_1) = 1{x_1 > 0}
    assert value_at(fe, 1, prefix=np.array([[0.7]])) == 1.0
    assert value_at(fe, 1, prefix=np.array([[-0.7]])) == 0.0
    # V_2 is the model itself
    assert value_at(fe, 2, prefix=np.array([[0.7, 9.9]])) == 1.0


def test_box_cell_tail_probabilities():
    # cell (0,1] x (-1,2]: V_0 = (Phi(1)-Phi(0)) * (Phi(2)-Phi(-1)) * v
    lo = np.array([[0.0, -1.0]])
    hi = np.array([[1.0, 2.0]])
    fe = FlatEnsemble(lo=lo, hi=hi, values=np.array([3.0]), dims=(1, 2))
    p1 = ndtr(1.0) - ndtr(0.0)
    p2 = ndtr(2.0) - ndtr(-1.0)
    assert value_at(fe, 0) == pytest.approx(3.0 * p1 * p2, rel=1e-14)
    # conditioning on a first period inside the slab leaves the tail
    assert value_at(fe, 1, prefix=np.array([[0.5]])) == pytest.approx(3.0 * p2, rel=1e-14)
    assert value_at(fe, 1, prefix=np.array([[1.5]])) == 0.0


def test_period_prob_matrix_and_tails():
    fe = half_space_model()
    probs = period_prob_matrix(fe)
    np.testing.assert_allclose(probs, [[0.5, 1.0]], rtol=0, atol=0)
    tails = tail_products(probs)
    np.testing.assert_allclose(tails, [[0.5, 1.0, 1.0]], rtol=0, atol=0)


def _cells(lo, hi, dims):
    """FlatEnsemble of unit-value cells from per-cell bound rows."""
    lo, hi = np.atleast_2d(lo).astype(np.float64), np.atleast_2d(hi).astype(np.float64)
    return FlatEnsemble(lo=lo, hi=hi, values=np.ones(lo.shape[0]), dims=dims)


def test_period_prob_matrix_normalization_and_half_space():
    # (d, T) = (2, 3): cell 0 is all of R^6, cell 1 cuts x_{1,1} > 0
    inf = np.inf
    full = [-inf] * 6
    fe = _cells([full, [0.0] + full[1:]], [[inf] * 6, [inf] * 6], (2, 3))
    probs = period_prob_matrix(fe)
    np.testing.assert_array_equal(probs, [[1.0, 1.0, 1.0], [0.5, 1.0, 1.0]])


def test_period_prob_matrix_box_value():
    fe = _cells([-1.0, -1.0], [1.0, 1.0], (2, 1))
    edge = ndtr(1.0) - ndtr(-1.0)
    assert period_prob_matrix(fe)[0, 0] == pytest.approx(edge * edge, rel=1e-15)


def test_period_prob_matrix_additivity():
    cut = 0.3
    fe = _cells([[-0.7, -1.2], [-0.7, -1.2], [cut, -1.2]],
                [[1.4, 0.9], [cut, 0.9], [1.4, 0.9]], (2, 1))
    whole, left, right = period_prob_matrix(fe)[:, 0]
    assert abs(whole - (left + right)) < 1e-10


def test_period_prob_matrix_is_the_left_to_right_cdf_product():
    # pins the arithmetic: per period, coordinates multiplied in order
    # from 1.0, each factor max(Phi(hi) - Phi(lo), 0); d = 3 so that
    # another order would round differently
    d, T = 3, 2
    x = sample_driver(600, d, T, seed=58)
    y = np.maximum(1.0 - np.exp(0.2 * x.sum(axis=2)).min(axis=1), 0.0) + x[:, 0, 0]
    fe = flatten_model(fit_boost(x, y, BoostConfig(rounds=20, learning_rate=0.3,
                                                   max_depth=4, nodesize=5)))
    assert np.isneginf(fe.lo).any() and np.isposinf(fe.hi).any()
    ref = np.ones((fe.n_cells, T))
    for s in range(T):
        for j in range(d):
            c = s * d + j
            ref[:, s] *= np.maximum(ndtr(fe.hi[:, c]) - ndtr(fe.lo[:, c]), 0.0)
    assert np.array_equal(ref, period_prob_matrix(fe))


def test_value_at_validation():
    fe = half_space_model()
    with pytest.raises(ValueError):
        value_at(fe, 3)
    with pytest.raises(ValueError):
        value_at(fe, 1)  # missing prefix


def test_value_at_takes_value_surface_date_rule():
    # a float date is not a slice bound and a bool is not date 1
    fe = half_space_model()
    for t in (1.0, True, np.float64(2.0)):
        with pytest.raises(ValueError, match="integers"):
            value_at(fe, t, prefix=np.array([[0.7]]))
    with pytest.raises(ValueError, match="0..2"):
        value_at(fe, -1)
    assert value_at(fe, np.int64(1), prefix=np.array([[0.7]])) == 1.0


@pytest.fixture(scope="module")
def fitted_flat():
    x = sample_driver(400, 2, 2, seed=51)
    y = np.maximum(1.0 - np.exp(0.2 * x[:, :, -1]).min(axis=1), 0.0)
    boost = fit_boost(x, y, BoostConfig(rounds=15, learning_rate=0.3, max_depth=3))
    fe = flatten_model(boost)
    return fe


def test_terminal_date_reduces_to_model_evaluation(fitted_flat):
    fe = fitted_flat
    pts = sample_driver(200, 2, 2, seed=52)
    surf = value_surface(fe, (0, 1, 2), pts)
    np.testing.assert_array_equal(surf.column(2), evaluate_flat(fe, pts))


def test_value_surface_matches_value_at(fitted_flat):
    fe = fitted_flat
    pts = sample_driver(5, 2, 2, seed=53)
    surf = value_surface(fe, (0, 1, 2), pts)
    for i in range(5):
        v1 = value_at(fe, 1, prefix=pts[i, :, :1])
        # batch and single-point paths may differ by summation order only
        assert surf.column(1)[i] == pytest.approx(v1, rel=1e-12, abs=1e-15)
    v0 = value_at(fe, 0)
    np.testing.assert_array_equal(surf.column(0), np.full(5, v0))


def test_value_surface_dates_in_any_order_keep_their_bits(fitted_flat):
    # one pass over dates (2, 0, 1, 2) gives each column the bits of its own surface
    fe = fitted_flat
    pts = sample_driver(300, 2, 2, seed=58)
    surf = value_surface(fe, (2, 0, 1, 2), pts)
    assert surf.dates == (2, 0, 1, 2)
    for col, t in enumerate(surf.dates):
        alone = value_surface(fe, (t,), pts).values[:, 0]
        assert np.array_equal(surf.values[:, col].view(np.int64), alone.view(np.int64)), t


def test_value_at_equals_one_scenario_surface(fitted_flat):
    fe = fitted_flat
    d, T = fe.dims
    paths = sample_driver(3, d, T, seed=60)
    for path in paths:
        for t in range(T + 1):
            got = value_at(fe, t, path[:, :t])
            want = value_surface(fe, (t,), path[None]).values[0, 0]
            assert np.float64(got).view(np.int64) == want.view(np.int64), t


def test_tower_property_of_closed_form(fitted_flat):
    # E[V_1(X_1)] = V_0 under the sampling measure
    fe = fitted_flat
    pts = sample_driver(20_000, 2, 2, seed=54)
    surf = value_surface(fe, (0, 1), pts)
    v1 = surf.column(1)
    se = v1.std(ddof=1) / np.sqrt(v1.size)
    assert abs(v1.mean() - surf.column(0)[0]) < 3 * se


def test_value_surface_linearity(fitted_flat):
    fe = fitted_flat
    scaled = FlatEnsemble(lo=fe.lo, hi=fe.hi,
                          values=2.5 * fe.values, dims=fe.dims)
    pts = sample_driver(50, 2, 2, seed=55)
    a = value_surface(fe, (0, 1, 2), pts)
    b = value_surface(scaled, (0, 1, 2), pts)
    np.testing.assert_allclose(b.values, 2.5 * a.values, rtol=1e-13, atol=1e-15)


def test_value_surface_validation(fitted_flat):
    fe = fitted_flat
    pts = sample_driver(4, 2, 2, seed=56)
    with pytest.raises(ValueError):
        value_surface(fe, (0, 3), pts)
    with pytest.raises(ValueError):
        value_surface(fe, (0,), pts[:, :1, :])
    with pytest.raises(ValueError, match="integers"):  # not truncated to a second date 1
        value_surface(fe, (0, 1, 1.5), pts)
    with pytest.raises(ValueError, match="integers"):  # not run as date 1
        value_surface(fe, (0, True), pts)
    assert value_surface(fe, np.array([0, 2]), pts).dates == (0, 2)


def test_value_surface_csv_round_trip(tmp_path, fitted_flat):
    fe = fitted_flat
    pts = sample_driver(7, 2, 2, seed=57)
    surf = value_surface(fe, (0, 2), pts)
    path = tmp_path / "surface.csv"
    surf.to_csv(path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["scenario_id", "t", "value"]
    assert len(rows) == 1 + 7 * 2
    # repr round-trips doubles exactly
    for row in rows[1:]:
        i, t, val = int(row[0]), int(row[1]), float(row[2])
        assert val == surf.values[i, surf.dates.index(t)]


@pytest.mark.parametrize("shape", [(3, 3), (3, 1), (6,)])
def test_value_surface_needs_one_column_per_date(shape):
    # to_csv would write a wider surface's rows truncated, and a narrower one's short
    with pytest.raises(ValueError, match="one column per date"):
        ValueSurface(dates=(0, 1), values=np.zeros(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("call", ["value_surface", "value_at", "evaluate_flat",
                                  "predict", "fit_tree"])
def test_non_finite_points_are_rejected(call, bad):
    x = sample_driver(60, 2, 2, seed=59)
    y = x[:, 0, :].sum(axis=1)
    boost = fit_boost(x, y, BoostConfig(rounds=3, max_depth=2))
    fe = flatten_model(boost)
    pts = x.copy()
    pts[3, 1, 0] = bad
    calls = {
        "value_surface": lambda: value_surface(fe, (0, 1, 2), pts),
        "value_at": lambda: value_at(fe, 1, prefix=pts[3, :, :1]),
        "evaluate_flat": lambda: evaluate_flat(fe, pts),
        "predict": lambda: predict(boost, pts),
        "fit_tree": lambda: fit_tree(pts, y, TreeConfig()),
    }
    with pytest.raises(ValueError, match="non-finite"):
        calls[call]()
