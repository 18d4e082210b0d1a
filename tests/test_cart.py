"""Single-tree fitting: split selection, growth controls, leaf cells."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox, SeedSequence

from treeval import cart, ensemble
from treeval.cart import (RegressionTree, TreeConfig, _as_points, _grow_trees, _time_major,
                          best_split, fit_tree)
from treeval.ensemble import BoostConfig, ForestConfig, fit, fit_boost, fit_forest, predict
from treeval.flat import evaluate_flat, flatten_model
from treeval.paths import sample_driver
from treeval.valuation import value_at, value_surface


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


def _bad_split_input(case):
    X = np.column_stack([np.arange(6.0), np.arange(6.0)[::-1]])
    y = np.array([0.0, 0.0, 1.0, 4.0, 4.0, 5.0])
    if case == "nan_response":
        y[3] = np.nan
    elif case == "nan_response_one_row":
        X, y = X[:1], np.array([np.nan])
    elif case == "nan_feature":
        X[2, 0] = np.nan
    elif case == "inf_feature":
        X[4, 1] = np.inf
    candidates = {"candidate_minus_one": [-1], "candidate_P": [2]}.get(case)
    return X, y, candidates


@pytest.mark.parametrize("case, match", [
    ("nan_response", "non-finite"),
    ("nan_response_one_row", "non-finite"),  # checked before the one-row early return
    ("nan_feature", "non-finite"),
    ("inf_feature", "non-finite"),
    ("candidate_minus_one", "candidates"),  # would split on column P - 1
    ("candidate_P", "candidates"),  # would raise IndexError
])
def test_best_split_rejects_bad_input(case, match):
    X, y, candidates = _bad_split_input(case)
    with pytest.raises(ValueError, match=match):
        best_split(X, y, candidates)


def test_fit_tree_interpolates_distinct_points():
    # nodesize=2 on distinct inputs grows to pure leaves: exact recall
    x = sample_driver(64, 2, 2, seed=1)
    y = np.arange(64, dtype=np.float64)
    tree = fit_tree(x, y, TreeConfig(nodesize=2))
    np.testing.assert_array_equal(predict(tree, x), y)


def test_fit_tree_constant_response_is_single_leaf():
    x = sample_driver(16, 1, 1, seed=2)
    y = np.full(16, 7.0)
    tree = fit_tree(x, y, TreeConfig())
    assert tree.n_leaves == 1
    assert tree.n_nodes == 1
    np.testing.assert_array_equal(predict(tree, x), y)


def test_fit_tree_max_depth_zero_is_mean_stump():
    x = sample_driver(32, 1, 2, seed=3)
    y = x[:, 0, 0] ** 2
    tree = fit_tree(x, y, TreeConfig(max_depth=0))
    assert tree.n_leaves == 1
    assert predict(tree, x[:1])[0] == pytest.approx(y.mean(), rel=1e-15)


def test_fit_tree_max_depth_bounds_leaf_count():
    x = sample_driver(256, 2, 2, seed=4)
    y = np.sin(_time_major(x) @ np.arange(1.0, 5.0))
    tree = fit_tree(x, y, TreeConfig(max_depth=3))
    assert tree.n_leaves <= 8


def test_nodesize_blocks_small_cells():
    x = sample_driver(40, 1, 1, seed=7)
    y = np.sign(x[:, 0, 0])
    tree = fit_tree(x, y, TreeConfig(nodesize=10))
    _, _, _, counts = cart._leaf_cells((tree,))
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
    y = np.cos(_time_major(x).sum(axis=1))
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
    y = _time_major(x) @ np.array([1.0, -2.0, 0.5, 3.0])
    tree = fit_tree(x, y, TreeConfig(nodesize=5))
    lows, highs, values, counts = cart._leaf_cells((tree,))
    batch = sample_driver(500, 2, 2, seed=10)
    pts = _time_major(batch)
    inside = (pts[:, None, :] > lows[None]) & (pts[:, None, :] <= highs[None])
    member = inside.all(axis=2)
    # exactly one leaf contains each point, and its value is the prediction
    assert (member.sum(axis=1) == 1).all()
    cell_idx = member.argmax(axis=1)
    np.testing.assert_array_equal(values[cell_idx], predict(tree, batch))
    assert counts.sum() == 100


@pytest.fixture(scope="module")
def layout_models():
    # y = x[:, 1, 0] + 2 x[:, 0, 1]: numpy's asset-major flat row puts these
    # coordinates in other columns than the time-major rows the trees split
    x = sample_driver(200, 2, 3, seed=11)
    y = x[:, 1, 0] + 2.0 * x[:, 0, 1]
    boost = fit_boost(x, y, BoostConfig(rounds=5, max_depth=3))
    return {"x": x, "y": y, "tree": fit_tree(x, y, TreeConfig(nodesize=8)),
            "forest": fit_forest(x, y, ForestConfig(n_trees=3, nodesize=8, seed=1)),
            "boost": boost, "flat": flatten_model(boost)}


_FLAT_OR_SINGLE = {
    "asset_major_rows": lambda x: x[:4].reshape(4, -1),
    "time_major_rows": lambda x: _time_major(x[:4]),
    "flat_point": lambda x: x[0].ravel(),
    "one_point": lambda x: x[0],
}

_POINT_READERS = {
    "predict_tree": lambda m, bad: predict(m["tree"], bad),
    "predict_forest": lambda m, bad: predict(m["forest"], bad),
    "predict_boost": lambda m, bad: predict(m["boost"], bad),
    "evaluate_flat": lambda m, bad: evaluate_flat(m["flat"], bad),
    "value_surface": lambda m, bad: value_surface(m["flat"], (0, 1, 3), bad),
    "fit_sample": lambda m, bad: fit(TreeConfig(), bad, m["y"]),
    "fit_valid": lambda m, bad: fit(BoostConfig(rounds=2, patience=1), m["x"], m["y"],
                                    (bad, m["y"][:4])),
}


@pytest.mark.parametrize("layout", _FLAT_OR_SINGLE)
@pytest.mark.parametrize("reader", _POINT_READERS)
def test_points_enter_only_as_a_batch(layout_models, reader, layout):
    # a flat row cannot say whether it is time- or asset-major, and numpy's
    # reshape is asset-major, so every reader refuses it rather than guess
    bad = _FLAT_OR_SINGLE[layout](layout_models["x"])
    with pytest.raises(ValueError, match=r"\(k, d, T\)"):
        _POINT_READERS[reader](layout_models, bad)


@pytest.mark.parametrize("flatten", [lambda p: p.T.ravel(), np.ravel],
                         ids=["time_major", "asset_major"])
def test_value_at_takes_its_prefix_as_one_point_only(layout_models, flatten):
    fe, prefix = layout_models["flat"], layout_models["x"][0, :, :2]
    want = value_surface(fe, (2,), layout_models["x"][:1]).values[0, 0]
    assert value_at(fe, 2, prefix) == want
    with pytest.raises(ValueError, match=r"\(k, d, T\)"):
        value_at(fe, 2, flatten(prefix))


def test_as_points_returns_contiguous_time_major_rows():
    z = sample_driver(50, 1, 5, seed=3)
    # the Bermudan fits slice one date of the state paths, a strided view
    view = z[:, :, 2, None]
    assert not view.flags.c_contiguous
    X = _as_points(view, (1, 1))
    assert X.flags.c_contiguous and np.array_equal(X[:, 0], z[:, 0, 2])
    x = sample_driver(7, 2, 3, seed=4)
    X = _as_points(x, (2, 3))
    assert X.flags.c_contiguous and np.array_equal(X, x.transpose(0, 2, 1).reshape(7, 6))
    bad = x.copy()
    bad[3, 1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        _as_points(bad, (2, 3))


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
    lows, highs, values, counts = cart._leaf_cells((tree,))
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
    tree = fit_tree(X[:, :, None], y, cfg)
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

    def checked(Xs, ys, cfg, dims, rngs, *grow):
        trees = _grow_trees(Xs, ys, cfg, dims, rngs, *grow)
        for X, y, tree in zip(Xs, ys, trees):
            assert_same_tree(tree, reference_grow(X, y, cfg))
            grown.append(X.shape[0] - np.unique(X, axis=0).shape[0])  # duplicated rows
        return trees

    # boosting and the forest call the batched grower from the ensemble module
    monkeypatch.setattr(cart, "_grow_trees", checked)
    monkeypatch.setattr(ensemble, "_grow_trees", checked)
    x = sample_driver(300, 2, 2, seed=41)
    y = np.maximum(1.0 - _time_major(x).min(axis=1), 0.0)
    fit_boost(x, y, BoostConfig(rounds=5, nodesize=8, max_depth=8, seed=2))
    assert len(grown) == 5
    fit_forest(x, y, ForestConfig(n_trees=3, nodesize=5, seed=3))
    assert len(grown) == 8 and min(grown[5:]) > 0


def _ulp_step(rng):
    # distinct values, but the response steps between 1 and 1+ulp, where no
    # midpoint lies strictly between: the best cut over all positions is there
    x = np.concatenate([rng.uniform(0.0, 0.9, 30), [1.0, np.nextafter(1.0, 2.0)],
                        rng.uniform(1.1, 2.0, 30)])
    return x[:, None], np.where(x > 1.0, 10.0, 0.0) + 0.01 * x, TreeConfig(max_depth=1)


@pytest.mark.parametrize("case", ["integer_ties", "adjacent_floats", "ulp_step"])
def test_tied_or_unsplittable_best_cut_is_rescanned_masked(case, monkeypatch):
    """The first minimum over all cuts can sit between tied values or on a
    midpoint that rounds onto an endpoint; those (node, column) pairs are
    scanned again with such cuts masked, and the tree is unchanged."""
    rescans = []

    def counted(XT, R, cols, score):
        rescans.append(cols.size)
        return masked_min(XT, R, cols, score)

    masked_min = cart._masked_min
    monkeypatch.setattr(cart, "_masked_min", counted)
    X, y, cfg = {**CASES, "ulp_step": _ulp_step}[case](np.random.default_rng(31))
    tree = fit_tree(X[:, :, None], y, cfg)
    assert sum(rescans) > 0
    if case == "ulp_step":
        assert np.unique(X).size == X.size
        assert tree.threshold[0] not in (1.0, np.nextafter(1.0, 2.0))
    assert_same_tree(tree, reference_grow(X, y, cfg))


def _boost_data():
    # every other row repeats an earlier one with another response
    x = sample_driver(240, 2, 2, seed=44)
    x = np.concatenate([x, x[::2]])
    y = np.maximum(1.0 - _time_major(x).min(axis=1), 0.0)
    return x, y + 0.1 * np.random.default_rng(8).standard_normal(y.size)


def test_boost_rounds_take_their_fitted_values_from_growth(monkeypatch):
    rounds = []

    def checked(Xs, ys, cfg, dims, rngs, presorted, fitted):
        trees = _grow_trees(Xs, ys, cfg, dims, rngs, presorted, fitted)
        assert np.array_equal(fitted, cart._predict_trees(trees, Xs[0])[0])
        rounds.append(np.unique(fitted).size)
        return trees

    monkeypatch.setattr(ensemble, "_grow_trees", checked)
    x, y = _boost_data()
    fit_boost(x, y, BoostConfig(rounds=6, nodesize=4, max_depth=6, seed=5))
    assert len(rounds) == 6 and min(rounds) > 10


def test_boost_rounds_share_one_presort_and_leave_it_unchanged(monkeypatch):
    shared = []

    def recorded(Xs, ys, cfg, dims, rngs, presorted, fitted):
        shared.append(presorted)
        return _grow_trees(Xs, ys, cfg, dims, rngs, presorted, fitted)

    monkeypatch.setattr(ensemble, "_grow_trees", recorded)
    x, y = _boost_data()
    fit_boost(x, y, BoostConfig(rounds=4, nodesize=4, max_depth=6, seed=5))
    assert len(shared) == 4 and all(p is shared[0] for p in shared)
    XT, order = cart._presort([_time_major(x)])
    assert np.array_equal(shared[0][0], XT) and np.array_equal(shared[0][1], order)


def test_candidate_draws_follow_level_order():
    """With features < P, each node that may split draws its columns, left to right per depth."""
    x = sample_driver(400, 3, 2, seed=43)
    y = np.cos(_time_major(x) @ np.arange(1.0, 7.0))
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


# --- forests: trees grown together equal trees grown one at a time -------

def _forest_one_by_one(x, y, cfg):
    """The forest as a loop of one-tree ``_grow_trees`` calls, one stream (seed, m) per tree."""
    X, dims = cart._training_points(x)
    tree_cfg = TreeConfig(nodesize=cfg.nodesize, max_depth=cfg.max_depth, features=cfg.features)
    trees = []
    for s in SeedSequence(cfg.seed).spawn(cfg.n_trees):
        rng = Generator(Philox(s))
        rows = ensemble._resample_rows(rng, X.shape[0], cfg)
        trees.append(_grow_trees([X[rows]], [y[rows]], tree_cfg, dims, [rng])[0])
    return trees


FOREST_CASES = {
    "bootstrap": ForestConfig(n_trees=6, nodesize=4, seed=3),
    "subsample_with": ForestConfig(n_trees=5, nodesize=3, sampling="subsample_with",
                                   n_resample=150, seed=4),
    "subsample_without": ForestConfig(n_trees=5, nodesize=3, sampling="subsample_without",
                                      n_resample=200, seed=5),
    "features_below_P": ForestConfig(n_trees=7, nodesize=2, features=2, seed=6),
    "max_depth": ForestConfig(n_trees=4, nodesize=2, max_depth=3, features=3, seed=7),
    "root_only": ForestConfig(n_trees=3, nodesize=400, seed=8),
}


def _forest_data():
    x = sample_driver(350, 3, 2, seed=45)
    noise = 0.1 * np.random.default_rng(46).standard_normal(350)
    y = np.sin(_time_major(x) @ np.arange(1.0, 7.0)) + noise
    return x, y


@pytest.mark.parametrize("case", sorted(FOREST_CASES))
def test_forest_trees_equal_single_tree_growth(case):
    x, y = _forest_data()
    cfg = FOREST_CASES[case]
    ff = fit_forest(x, y, cfg)
    want = _forest_one_by_one(x, y, cfg)
    assert len(ff.trees) == len(want)
    for got, ref in zip(ff.trees, want):
        assert_same_tree(got, ref)
    depths = [_depth(t).max() for t in ff.trees]
    if case == "root_only":
        assert max(depths) == 0
    else:
        assert min(depths) >= 3 and len({t.n_nodes for t in ff.trees}) > 1


@pytest.mark.parametrize("case", ["bootstrap", "features_below_P"])
def test_forest_batches_change_no_tree(case, monkeypatch):
    x, y = _forest_data()
    cfg = FOREST_CASES[case]
    whole = fit_forest(x, y, cfg)
    per_tree = (2 * 6 + 1) * (cfg.resample_size(350) + 1)
    assert cart._batch_size(350, 6) >= cfg.n_trees  # one batch by default
    batches = []
    grow = ensemble._grow_trees
    monkeypatch.setattr(ensemble, "_grow_trees",
                        lambda Xs, *a: batches.append(len(Xs)) or grow(Xs, *a))
    monkeypatch.setattr(cart, "_GROW_BUDGET", 2 * per_tree + 1)
    split = fit_forest(x, y, cfg)
    assert batches == [2] * (cfg.n_trees // 2) + [1] * (cfg.n_trees % 2)
    for a, b in zip(whole.trees, split.trees):
        assert_same_tree(a, b)


def test_forest_growth_memory_stays_near_one_tree():
    """Batches hold the stacked presort arrays to a budget, not to the tree count."""
    rng = np.random.default_rng(47)
    x = rng.standard_normal((4000, 6, 4))  # P = 24
    y = np.sin(x[:, :, 0].sum(axis=1)) + 0.1 * rng.standard_normal(4000)
    cfg = ForestConfig(n_trees=50, nodesize=5, max_depth=3, seed=9)
    X, dims = cart._training_points(x)
    tree_cfg = TreeConfig(nodesize=cfg.nodesize, max_depth=cfg.max_depth)
    rng0 = Generator(Philox(SeedSequence(cfg.seed).spawn(1)[0]))
    rows = ensemble._resample_rows(rng0, 4000, cfg)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _grow_trees([X[rows]], [y[rows]], tree_cfg, dims, [rng0])
        one = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fit_forest(x, y, cfg)
        forest = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    print(f"growth peaks: one tree {one} B, forest of 50 {forest} B")
    assert forest <= 2 * one, (forest, one)


@pytest.mark.parametrize("seed", range(4))
def test_distinct_matches_np_unique(seed):
    # cart._distinct stands in for a plain np.unique, which imports numpy.ma
    rng = np.random.default_rng(seed)
    for n in (0, 1, 2, 7, 50):
        a = rng.integers(-3, 4, size=(n, 2)).astype(np.float64)
        a[rng.random(a.shape) < 0.2] = np.nan
        a[rng.random(a.shape) < 0.1] = np.inf
        want = np.unique(a)
        got = cart._distinct(a)
        assert got.dtype == want.dtype and np.array_equal(got, want, equal_nan=True), a
        ints = rng.integers(0, 5, size=n)
        assert np.array_equal(cart._distinct(ints), np.unique(ints))


# --- forest-wide walks: routing, leaf cells and numbering over many trees --

def reference_route(tree, X):
    """One (tree, row) pair at a time, following the split rule down to a leaf."""
    out = np.empty(X.shape[0])
    for r, x in enumerate(X):
        i = 0
        while tree.feature[i] >= 0:
            i = tree.left[i] if x[tree.feature[i]] <= tree.threshold[i] else tree.right[i]
        out[r] = tree.value[i]
    return out


def reference_leaf_cells(tree):
    """The per-node forward pass that built one tree's leaf cells before the depth walk."""
    d, T = tree.dims
    n = tree.n_nodes
    lows = np.empty((n, d * T))
    highs = np.empty((n, d * T))
    lows[0] = -np.inf
    highs[0] = np.inf
    # children are created after parents, so a forward pass suffices
    for i in range(n):
        f = tree.feature[i]
        if f == -1:
            continue
        le, ri = tree.left[i], tree.right[i]
        lows[le] = lows[i]
        highs[le] = highs[i]
        lows[ri] = lows[i]
        highs[ri] = highs[i]
        highs[le, f] = tree.threshold[i]
        lows[ri, f] = tree.threshold[i]
    mask = tree.feature == -1
    return lows[mask], highs[mask], tree.value[mask], tree.count[mask]


def _walk_trees():
    """Trees on one dims and of unequal depths, root-only trees among them."""
    x = sample_driver(300, 2, 2, seed=48)
    y = np.sin(_time_major(x) @ np.array([2.0, -1.0, 0.5, 1.5]))
    root = fit_tree(x, y, TreeConfig(max_depth=0))
    forest = fit_forest(x, y, ForestConfig(n_trees=3, nodesize=4, features=2, seed=1))
    trees = [fit_tree(x, y, TreeConfig(nodesize=2)), root,
             fit_tree(x, y, TreeConfig(max_depth=2)), *forest.trees, root]
    assert len({_depth(t).max() for t in trees}) >= 4 and root.n_nodes == 1
    return trees


@pytest.mark.parametrize("k", [0, 1, 2, 300])
def test_predict_trees_matches_per_pair_walk(k):
    trees = _walk_trees()
    X = _time_major(sample_driver(300, 2, 2, seed=49))[:k].copy()
    # some coordinates sit exactly on a split threshold, which routes left
    split = trees[0].feature >= 0
    on = np.random.default_rng(50).integers(0, split.sum(), size=k // 3)
    X[np.arange(on.size), trees[0].feature[split][on]] = trees[0].threshold[split][on]
    got = cart._predict_trees(trees, X)
    assert got.shape == (len(trees), k) and got.dtype == np.float64
    for tree, row in zip(trees, got):
        assert np.array_equal(row, reference_route(tree, X))
        assert np.array_equal(cart._predict_trees([tree], X)[0], row)


def test_leaf_cells_of_many_trees_match_per_node_pass():
    trees = _walk_trees()
    want = [reference_leaf_cells(t) for t in trees]
    got = cart._leaf_cells(trees)
    for g, parts in zip(got, zip(*want)):
        ref = np.concatenate(parts)
        assert g.dtype == ref.dtype and np.array_equal(g, ref)
    for tree, ref in zip(trees, want):
        for g, r in zip(cart._leaf_cells((tree,)), ref):
            assert g.dtype == r.dtype and np.array_equal(g, r)


def test_growth_batch_with_root_only_trees_numbers_each_tree_alone():
    # constant responses keep trees 0 and 2 at their roots while 1 and 3 grow deep
    rng = np.random.default_rng(52)
    X = rng.standard_normal((240, 2))
    y = np.sin(4.0 * X[:, 0]) + X[:, 1] + 0.1 * rng.standard_normal(240)
    Xs = [X[:50], X, X[50:90], X[::2]]
    ys = [np.full(50, 0.5), y, np.full(40, -1.0), y[::2]]
    cfg = TreeConfig(nodesize=2)
    trees = _grow_trees(Xs, ys, cfg, (2, 1), [None] * 4)
    for Xm, ym, tree in zip(Xs, ys, trees):
        assert_same_tree(tree, reference_grow(Xm, ym, cfg))
    assert trees[0].n_nodes == trees[2].n_nodes == 1
    assert min(_depth(trees[1]).max(), _depth(trees[3]).max()) >= 8


def test_routing_memory_stays_near_four_buffers_per_pair():
    """50 trees x 20,000 points route through a few pair-sized buffers, not
    through new arrays each pass (about 52 MB traced before the depth walk)."""
    rng = np.random.default_rng(53)
    x = rng.standard_normal((2000, 2, 1))
    y = np.sin(3.0 * x[:, 0, 0]) + x[:, 1, 0] + 0.1 * rng.standard_normal(2000)
    forest = fit_forest(x, y, ForestConfig(n_trees=50, nodesize=5, seed=1))
    X = rng.standard_normal((20000, 2))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = cart._predict_trees(forest.trees, X)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    print(f"routing peak {peak} B for {out.size} pairs")
    # state, index, point value and comparison: 25 B a pair, 25 MB here
    assert peak < 40e6, peak
