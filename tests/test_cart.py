"""Single-tree fitting: split selection, growth controls, leaf cells."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeval.cart import (RegressionTree, TreeConfig, best_split, fit_tree,
                          predict_tree)
from treeval.paths import sample_driver


def brute_force_split(features, responses):
    """Exhaustive split search used as an independent oracle.

    Enumerates every (coordinate, midpoint) pair, computes both child
    SSEs with math.fsum, and applies the smallest-(coord, threshold)
    tie-break.  Returns (coord, threshold, score) or None.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(responses, dtype=np.float64)
    n, P = X.shape
    if n < 2 or y.min() == y.max():
        return None
    parent = math.fsum(v * v for v in y) - math.fsum(y) ** 2 / n
    best = None
    for c in range(P):
        xs = np.sort(np.unique(X[:, c]))
        for a, b in zip(xs[:-1], xs[1:]):
            z = 0.5 * (a + b)
            if not (a < z < b):
                continue
            mask = X[:, c] <= z
            yl, yr = y[mask], y[~mask]
            sse_l = math.fsum(v * v for v in yl) - math.fsum(yl) ** 2 / yl.size
            sse_r = math.fsum(v * v for v in yr) - math.fsum(yr) ** 2 / yr.size
            score = sse_l + sse_r
            if best is None or score < best[2]:
                best = (c, z, score)
    if best is None or not best[2] < parent:
        return None
    return best


def test_best_split_hand_case():
    # two clusters of responses: the split must fall between x=1 and x=2
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 0.0, 10.0, 10.0])
    coord, z, score = best_split(X, y)
    assert coord == 0
    assert z == 1.5
    assert score == 0.0


def test_best_split_threshold_is_midpoint():
    X = np.array([[0.0], [2.0]])
    y = np.array([0.0, 1.0])
    coord, z, score = best_split(X, y)
    assert z == 1.0


def test_best_split_constant_response_returns_none():
    X = np.arange(6, dtype=np.float64).reshape(6, 1)
    y = np.full(6, 3.25)
    assert best_split(X, y) is None


def test_best_split_constant_features_returns_none():
    X = np.ones((5, 2))
    y = np.arange(5, dtype=np.float64)
    assert best_split(X, y) is None


def test_best_split_tie_breaks_to_smaller_coordinate():
    # identical informative columns: the split must use column 0
    col = np.array([0.0, 1.0, 2.0, 3.0])
    X = np.column_stack([col, col])
    y = np.array([0.0, 0.0, 5.0, 5.0])
    coord, z, score = best_split(X, y)
    assert coord == 0


def test_best_split_respects_candidates():
    col = np.array([0.0, 1.0, 2.0, 3.0])
    X = np.column_stack([col, col])
    y = np.array([0.0, 0.0, 5.0, 5.0])
    coord, z, score = best_split(X, y, candidates=[1])
    assert coord == 1


def test_best_split_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(2, 25))
        P = int(rng.integers(1, 4))
        X = rng.integers(-4, 5, size=(n, P)).astype(np.float64)
        y = rng.integers(-3, 4, size=n).astype(np.float64)
        ours = best_split(X, y)
        oracle = brute_force_split(X, y)
        if oracle is None:
            assert ours is None
        else:
            assert ours is not None
            assert ours[0] == oracle[0]
            assert ours[1] == oracle[1]
            assert ours[2] == oracle[2]


def test_fit_tree_interpolates_distinct_points():
    # nodesize=2 on distinct inputs grows to pure leaves: exact recall
    x = sample_driver(64, 2, 2, seed=1)
    y = np.arange(64, dtype=np.float64)
    tree = fit_tree(x, y, TreeConfig(nodesize=2))
    np.testing.assert_array_equal(predict_tree(tree, x), y)


def test_fit_tree_constant_response_is_single_leaf():
    x = sample_driver(16, 1, 1, seed=2)
    y = np.full(16, 7.0)
    tree = fit_tree(x, y, TreeConfig())
    assert tree.n_leaves == 1
    assert tree.n_nodes == 1
    np.testing.assert_array_equal(predict_tree(tree, x), y)


def test_fit_tree_max_depth_zero_is_mean_stump():
    x = sample_driver(32, 1, 2, seed=3)
    y = x.data[:, 0, 0] ** 2
    tree = fit_tree(x, y, TreeConfig(max_depth=0))
    assert tree.n_leaves == 1
    assert predict_tree(tree, x.data[:1])[0] == pytest.approx(y.mean(), rel=1e-15)


def test_fit_tree_max_depth_bounds_leaf_count():
    x = sample_driver(256, 2, 2, seed=4)
    y = np.sin(x.flat() @ np.arange(1.0, 5.0))
    tree = fit_tree(x, y, TreeConfig(max_depth=3))
    assert tree.n_leaves <= 8


def test_nodesize_blocks_small_cells():
    x = sample_driver(40, 1, 1, seed=7)
    y = np.sign(x.data[:, 0, 0])
    tree = fit_tree(x, y, TreeConfig(nodesize=10))
    _, _, _, counts = tree.leaf_cells()
    # a split node must hold >= nodesize points, so any leaf created by
    # splitting sits under a parent with >= 10 points
    assert counts.sum() == 40
    internal = tree.feature >= 0
    assert (tree.count[internal] >= 10).all()


def test_config_validation():
    with pytest.raises(ValueError):
        TreeConfig(nodesize=1)
    with pytest.raises(ValueError):
        TreeConfig(max_depth=-1)
    with pytest.raises(ValueError):
        TreeConfig(features=0)
    with pytest.raises(ValueError):
        TreeConfig(features=True)


def test_fit_tree_deterministic_per_seed():
    x = sample_driver(128, 3, 2, seed=8)
    y = np.cos(x.flat().sum(axis=1))
    a = fit_tree(x, y, TreeConfig(features=2, seed=5))
    b = fit_tree(x, y, TreeConfig(features=2, seed=5))
    np.testing.assert_array_equal(a.feature, b.feature)
    np.testing.assert_array_equal(a.threshold, b.threshold)
    c = fit_tree(x, y, TreeConfig(features=2, seed=6))
    same = (a.feature.shape == c.feature.shape and (a.feature == c.feature).all()
            and np.array_equal(a.threshold, c.threshold, equal_nan=True))
    assert not same


def test_leaf_cells_partition_space():
    x = sample_driver(100, 2, 2, seed=9)
    y = x.flat() @ np.array([1.0, -2.0, 0.5, 3.0])
    tree = fit_tree(x, y, TreeConfig(nodesize=5))
    lows, highs, values, counts = tree.leaf_cells()
    pts = sample_driver(500, 2, 2, seed=10).flat()
    inside = (pts[:, None, :] > lows[None]) & (pts[:, None, :] <= highs[None])
    member = inside.all(axis=2)
    # exactly one leaf contains each point, and its value is the prediction
    assert (member.sum(axis=1) == 1).all()
    cell_idx = member.argmax(axis=1)
    np.testing.assert_array_equal(values[cell_idx], predict_tree(tree, pts))
    assert counts.sum() == 100


def test_predict_tree_input_shapes_agree():
    x = sample_driver(64, 2, 3, seed=11)
    y = x.flat()[:, 0] * x.flat()[:, 4]
    tree = fit_tree(x, y, TreeConfig(nodesize=8))
    batch = sample_driver(10, 2, 3, seed=12)
    via_sample = predict_tree(tree, batch)
    via_array = predict_tree(tree, batch.data)
    via_flat = predict_tree(tree, batch.flat())
    np.testing.assert_array_equal(via_sample, via_array)
    np.testing.assert_array_equal(via_sample, via_flat)
    single = predict_tree(tree, batch.data[0])
    assert isinstance(single, float)
    assert single == via_sample[0]


@given(st.integers(2, 40), st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_split_never_degrades_sse(n, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 2))
    y = rng.standard_normal(n)
    hit = best_split(X, y)
    if hit is None:
        return
    coord, z, score = hit
    parent = float(np.sum((y - y.mean()) ** 2))
    assert score < parent + 1e-9
    mask = X[:, coord] <= z
    assert 0 < mask.sum() < n


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_tree_prediction_is_leaf_mean(seed):
    rng = np.random.default_rng(seed)
    n = 50
    x = rng.standard_normal((n, 1, 2))
    y = rng.standard_normal(n)
    tree = fit_tree(x, y, TreeConfig(nodesize=10))
    lows, highs, values, counts = tree.leaf_cells()
    flat = x.transpose(0, 2, 1).reshape(n, 2)
    inside = (flat[:, None, :] > lows[None]) & (flat[:, None, :] <= highs[None])
    member = inside.all(axis=2)
    for i in range(lows.shape[0]):
        rows = member[:, i]
        assert rows.sum() == counts[i]
        if rows.any():
            assert values[i] == pytest.approx(y[rows].mean(), rel=1e-12, abs=1e-12)
