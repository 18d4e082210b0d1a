"""Single-tree fitting: split selection, growth controls, leaf cells."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox, SeedSequence

from treeval import cart, ensemble
from treeval.cart import (RegressionTree, TreeConfig, _grow_tree, best_split,
                          fit_tree, predict_tree)
from treeval.ensemble import BoostConfig, ForestConfig, fit_boost, fit_forest
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


# --- node-for-node reference: depth-first growth, one node at a time ------

def _reference_scan(xs, y):
    """Best midpoint split of one column: argsort, prefix sums, first minimum."""
    order = np.argsort(xs, kind="stable")
    xo, yo = xs[order], y[order]
    cy, cy2 = np.cumsum(yo), np.cumsum(yo * yo)
    idx = np.flatnonzero(xo[:-1] != xo[1:])
    z = 0.5 * (xo[idx] + xo[idx + 1])
    ok = (xo[idx] < z) & (z < xo[idx + 1])
    idx, z = idx[ok], z[ok]
    if idx.size == 0:
        return None
    nl = idx + 1.0
    nr = y.size - nl
    sl, sl2 = cy[idx], cy2[idx]
    sr, sr2 = cy[-1] - sl, cy2[-1] - sl2
    score = (sl2 - sl * sl / nl) + (sr2 - sr * sr / nr)
    m = int(np.argmin(score))
    return float(score[m]), float(z[m])


def _reference_split(X, y):
    if y.size < 2 or y.min() == y.max():
        return None
    sy, sy2 = float(np.sum(y)), float(np.sum(y * y))
    parent = sy2 - sy * sy / y.size
    best = None
    for c in range(X.shape[1]):
        hit = _reference_scan(X[:, c], y)
        if hit is not None and (best is None or hit[0] < best[2]):
            best = (c, hit[1], hit[0])
    return best if best is not None and best[2] < parent else None


def reference_grow(X, y, cfg):
    """Depth-first growth, left child first, with children allocated in pairs.

    This is how trees were grown before level-wise growth, kept to check
    node for node that the level-wise grower builds the same trees.  It
    draws no candidate columns, so it covers features >= P only.
    """
    assert cfg.features == "all" or cfg.features >= X.shape[1]
    nodes = [[-1, np.nan, -1, -1, float(np.mean(y)) if y.size else 0.0, y.size]]
    stack = [(0, np.arange(y.size), 0)]
    while stack:
        node, rows, depth = stack.pop()
        if rows.size < cfg.nodesize or (cfg.max_depth is not None and depth >= cfg.max_depth):
            continue
        hit = _reference_split(X[rows], y[rows])
        if hit is None:
            continue
        coord, z, _ = hit
        go = X[rows, coord] <= z
        li = len(nodes)
        for part in (rows[go], rows[~go]):
            nodes.append([-1, np.nan, -1, -1, float(np.mean(y[part])), part.size])
        nodes[node][:4] = [coord, z, li, li + 1]
        stack.append((li + 1, rows[~go], depth + 1))
        stack.append((li, rows[go], depth + 1))
    f, t, le, ri, v, c = zip(*nodes)
    return RegressionTree(feature=np.array(f, dtype=np.int32), threshold=np.array(t),
                          left=np.array(le, dtype=np.int32), right=np.array(ri, dtype=np.int32),
                          value=np.array(v), count=np.array(c, dtype=np.int64), dims=(X.shape[1], 1))


def assert_same_tree(a, b):
    np.testing.assert_array_equal(a.feature, b.feature)
    assert np.array_equal(a.threshold, b.threshold, equal_nan=True)
    np.testing.assert_array_equal(a.left, b.left)
    np.testing.assert_array_equal(a.right, b.right)
    np.testing.assert_array_equal(a.value, b.value)
    np.testing.assert_array_equal(a.count, b.count)
    for name in ("feature", "threshold", "left", "right", "value", "count"):
        assert getattr(a, name).dtype == getattr(b, name).dtype, name


def _depth(tree):
    depth = np.zeros(tree.n_nodes, dtype=int)
    for i in range(tree.n_nodes):
        if tree.feature[i] >= 0:
            depth[tree.left[i]] = depth[tree.right[i]] = depth[i] + 1
    return depth


def _unbalanced(rng):
    # left of x0 = 0: one wide, nearly flat region that noise splits cut
    # off in small pieces; right of it a sawtooth that splits evenly
    X = rng.uniform(-1, 1, size=(1200, 2))
    y = np.where(X[:, 0] < 0, 1e-3 * rng.standard_normal(1200),
                 100.0 + 50.0 * np.sign(np.sin(40.0 * X[:, 1])) + rng.standard_normal(1200))
    return X, y, TreeConfig(nodesize=2, max_depth=6)


def _chain(rng):
    # responses that double along x: each split peels off the largest point
    x = rng.permutation(40).astype(np.float64)
    return x[:, None], 2.0 ** x, TreeConfig()


def _ties(rng):
    X = rng.integers(0, 4, size=(300, 3)).astype(np.float64)
    return X, X[:, 0] * X[:, 1] + rng.integers(0, 3, 300), TreeConfig(nodesize=3)


def _adjacent_floats(rng):
    # 1, 1+ulp and 1+2ulp: their midpoints round onto an endpoint, so no
    # split may fall between them; the second column is all negative
    near = np.nextafter(np.nextafter(1.0, 2.0), 2.0)
    X = np.column_stack([rng.choice([1.0, np.nextafter(1.0, 2.0), near, 2.0], size=120),
                         -rng.integers(1, 4, size=120).astype(np.float64)])
    y = 10.0 * (X[:, 0] >= near) + 3.0 * (X[:, 1] < -1.5) + rng.standard_normal(120)
    return X, y, TreeConfig(nodesize=2)


def _flat_branch(rng):
    # everything left of x0 = 0 has the same response: a constant node mid-tree
    X = rng.standard_normal((200, 2))
    return X, np.where(X[:, 0] <= 0, 0.25, rng.standard_normal(200)), TreeConfig(nodesize=4)


def _depth_cap(rng, depth):
    X = rng.standard_normal((150, 3))
    return X, np.sin(3.0 * X[:, 0]) + X[:, 2], TreeConfig(nodesize=2, max_depth=depth)


def _nodesize(rng, n, nodesize):
    X = rng.standard_normal((n, 2))
    return X, rng.standard_normal(n), TreeConfig(nodesize=nodesize)


CASES = {
    "unbalanced_level": _unbalanced,
    "p1_chain": _chain,
    "integer_ties": _ties,
    "adjacent_floats": _adjacent_floats,
    "constant_node": _flat_branch,
    "max_depth_0": lambda rng: _depth_cap(rng, 0),
    "max_depth_1": lambda rng: _depth_cap(rng, 1),
    "max_depth_3": lambda rng: _depth_cap(rng, 3),
    "nodesize_equals_n": lambda rng: _nodesize(rng, 20, 20),
    "nodesize_above_n": lambda rng: _nodesize(rng, 20, 21),
    "nodesize_even_halves": lambda rng: _nodesize(rng, 64, 32),
    "one_row": lambda rng: _nodesize(rng, 1, 2),
}


@pytest.mark.parametrize("block", [None, 16])
@pytest.mark.parametrize("case", sorted(CASES))
def test_level_wise_growth_matches_depth_first_reference(case, block, monkeypatch):
    # block 16 forces one node per padded block and one column per pass
    if block is not None:
        monkeypatch.setattr(cart, "_BLOCK", block)
    X, y, cfg = CASES[case](np.random.default_rng(31))
    tree = _grow_tree(X, y, cfg, (X.shape[1], 1))
    assert_same_tree(tree, reference_grow(X, y, cfg))
    depth = _depth(tree)
    if case == "p1_chain":
        assert depth.max() > 20
    if case == "unbalanced_level":
        # some depth holds one big node beside many small ones
        big = [(c.max(), np.median(c), c.size) for c in
               (tree.count[depth == d] for d in range(depth.max() + 1))]
        assert any(top >= 10 * mid and k >= 20 for top, mid, k in big)
    if case == "constant_node":
        leaf = tree.feature < 0
        assert ((tree.value == 0.25) & leaf & (tree.count >= cfg.nodesize)).any()


def test_ensemble_trees_match_depth_first_reference(monkeypatch):
    """Boost residual rounds and bootstrap forest trees, grown inside the fits."""
    grown = []

    def checked(X, y, cfg, dims, rng=None):
        tree = _grow_tree(X, y, cfg, dims, rng)
        assert_same_tree(tree, reference_grow(X, y, cfg))
        grown.append(X.shape[0] - np.unique(X, axis=0).shape[0])  # duplicated rows
        return tree

    monkeypatch.setattr(ensemble, "_grow_tree", checked)
    x = sample_driver(300, 2, 2, seed=41)
    y = np.maximum(1.0 - x.flat().min(axis=1), 0.0)
    fit_boost(x, y, BoostConfig(rounds=5, nodesize=8, max_depth=8, seed=2))
    assert len(grown) == 5
    fit_forest(x, y, ForestConfig(n_trees=3, nodesize=5, seed=3))
    assert len(grown) == 8 and min(grown[5:]) > 0


def test_candidate_draws_follow_level_order():
    """With features < P, each node that may split draws its columns, left to right per depth."""
    x = sample_driver(400, 3, 2, seed=43)
    y = np.cos(x.flat() @ np.arange(1.0, 7.0))
    cfg = TreeConfig(nodesize=6, max_depth=7, features=2, seed=9)
    tree = fit_tree(x, y, cfg)
    depth = _depth(tree)
    rng = Generator(Philox(SeedSequence(cfg.seed)))
    drawn = 0
    for i in np.lexsort((np.arange(tree.n_nodes), depth)):  # level order
        if tree.count[i] >= cfg.nodesize and depth[i] < cfg.max_depth:
            cols = rng.choice(6, size=2, replace=False)
            drawn += 1
            if tree.feature[i] >= 0:
                assert tree.feature[i] in cols
    assert drawn > 20 and (tree.feature >= 0).sum() > 10
