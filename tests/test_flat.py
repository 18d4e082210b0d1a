"""Flattening fitted models into weighted-indicator form."""

import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from treeval import cart, flat
from treeval.cart import TreeConfig, _time_major, fit_tree
from treeval.ensemble import (BoostConfig, FittedForest, ForestConfig, fit_boost,
                              fit_forest)
from treeval.flat import (FlatEnsemble, evaluate_flat, flatten_model, load_flat,
                          membership_sums, read_flat_text, save_flat, write_flat_text)
from treeval.ensemble import predict
from treeval.paths import sample_driver


@pytest.fixture(scope="module")
def fitted():
    x = sample_driver(150, 2, 2, seed=31)
    y = np.cos(_time_major(x) @ np.array([0.8, -0.4, 1.1, 0.3]))
    tree = fit_tree(x, y, TreeConfig(nodesize=6))
    forest = fit_forest(x, y, ForestConfig(n_trees=5, nodesize=8, features=2, seed=2))
    boost = fit_boost(x, y, BoostConfig(rounds=12, learning_rate=0.4, max_depth=3))
    return x, y, tree, forest, boost


def test_flatten_matches_prediction_everywhere(fitted):
    x, y, tree, forest, boost = fitted
    pts = sample_driver(2000, 2, 2, seed=32)
    for model in (tree, forest, boost):
        fe = flatten_model(model)
        direct = predict(model, pts)
        flat = evaluate_flat(fe, pts)
        np.testing.assert_allclose(flat, direct, rtol=1e-12, atol=1e-12)


def test_flatten_tree_cells_partition(fitted):
    x, y, tree, _, _ = fitted
    fe = flatten_model(tree)
    pts = sample_driver(400, 2, 2, seed=33)
    lo, hi = fe.lo, fe.hi
    flat_pts = _time_major(pts)
    inside = (flat_pts[:, None, :] > lo[None]) & (flat_pts[:, None, :] <= hi[None])
    member = inside.all(axis=2)
    assert (member.sum(axis=1) == 1).all()


def test_flatten_forest_weights_are_scaled(fitted):
    x, y, _, forest, _ = fitted
    fe = flatten_model(forest)
    assert fe.n_cells == forest.n_cells
    # membership of any point sums the per-tree leaf values / M
    total = sum(t.n_leaves for t in forest.trees)
    assert fe.n_cells == total


def test_flatten_boost_structure(fitted):
    x, y, _, _, boost = fitted
    fe = flatten_model(boost)
    assert fe.n_cells == boost.n_cells == 1 + sum(t.n_leaves for t in boost.trees)
    # first cell is the full-space base cell
    assert np.isneginf(fe.lo[0]).all()
    assert np.isposinf(fe.hi[0]).all()
    assert fe.values[0] == boost.base_value


def test_flatten_zero_round_boost():
    x = sample_driver(16, 1, 1, seed=34)
    y = np.full(16, 1.5)
    boost = fit_boost(x, y, BoostConfig(rounds=4))
    fe = flatten_model(boost)
    assert fe.n_cells == 1
    np.testing.assert_array_equal(evaluate_flat(fe, x), y)


def test_flatten_model_rejects_unknown():
    with pytest.raises(TypeError):
        flatten_model("not a model")


def test_flatten_model_rejects_lookalikes_of_a_fitted_model(fitted):
    # objects with a forest's or a boost's attributes are no fitted model
    _, _, _, forest, boost = fitted
    forest_like = SimpleNamespace(trees=forest.trees, dims=forest.dims)
    boost_like = SimpleNamespace(**{k: getattr(boost, k) for k in
                                    ("base_value", "trees", "gammas", "dims")})
    for model in (forest_like, boost_like):
        with pytest.raises(TypeError, match="SimpleNamespace"):
            flatten_model(model)


def _bits(a) -> bytes:
    return np.asarray(a, dtype=np.float64).tobytes()


def test_a_tree_predicts_and_flattens_as_a_forest_of_one(fitted):
    _, _, tree, _, _ = fitted
    one = FittedForest(trees=(tree,), dims=tree.dims, config=ForestConfig(n_trees=1))
    pts = sample_driver(300, 2, 2, seed=33)
    assert _bits(predict(tree, pts)) == _bits(predict(one, pts))
    single = predict(tree, pts[:1])
    assert single.shape == (1,) and _bits(single) == _bits(predict(one, pts[:1]))
    got, want = flatten_model(tree), flatten_model(one)
    assert got.dims == want.dims == tree.dims
    for name in ("lo", "hi", "values"):
        assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name
    assert _bits(got.values) == _bits(cart._leaf_cells((tree,))[2])


def _one_stop(ptf, lo, hi, weights, n_coords):
    """membership_sums at one stop: the weighted sum over the first n_coords columns."""
    return membership_sums(ptf, lo, hi, weights[None], [n_coords])[:, 0]


def test_weighted_membership_chunking_invariance(fitted, monkeypatch):
    x, y, _, forest, _ = fitted
    fe = flatten_model(forest)
    lo, hi = fe.lo, fe.hi
    pts = _time_major(sample_driver(57, 2, 2, seed=35))
    base = _one_stop(pts, lo, hi, fe.values, lo.shape[1])
    for pc, cc in ((3, 2), (8, 1000), (1000, 5)):
        monkeypatch.setattr(flat, "_POINT_CHUNK", pc)
        monkeypatch.setattr(flat, "_CELL_CHUNK", cc)
        alt = _one_stop(pts, lo, hi, fe.values, lo.shape[1])
        np.testing.assert_allclose(alt, base, rtol=0, atol=1e-12)


def test_weighted_membership_prefix_columns(fitted):
    # restricting to the first t*d columns tests prefix membership only
    x, y, tree, _, _ = fitted
    fe = flatten_model(tree)
    lo, hi = fe.lo, fe.hi
    pts = _time_major(sample_driver(40, 2, 2, seed=36))
    full = _one_stop(pts, lo, hi, fe.values, 4)
    head = _one_stop(pts, lo, hi, fe.values, 2)
    # prefix membership counts more cells, so the weighted sums differ
    assert not np.allclose(full, head)
    ones = _one_stop(pts, lo, hi, np.ones(fe.n_cells), 0)
    np.testing.assert_array_equal(ones, np.full(40, fe.n_cells))


def reference_membership(ptf, lo, hi, weights, n_coords,
                         point_chunk=1024, cell_chunk=8192):
    """Dense kernel: every point compared with every cell bound.

    This is how membership sums were computed before the bitmap kernel,
    kept to check that ``weighted_membership`` returns the same bits.
    """
    k = ptf.shape[0]
    n = weights.size
    out = np.zeros(k)
    for a in range(0, k, point_chunk):
        b = min(a + point_chunk, k)
        xs = ptf[a:b]
        acc = np.zeros(b - a)
        for ca in range(0, n, cell_chunk):
            cb = min(ca + cell_chunk, n)
            inside = np.ones((b - a, cb - ca), dtype=bool)
            for c in range(n_coords):
                col = xs[:, c, None]
                inside &= col > lo[None, ca:cb, c]
                inside &= col <= hi[None, ca:cb, c]
                if not inside.any():
                    break
            acc += inside @ weights[ca:cb]
        out[a:b] = acc
    return out


def _grid_cells(rng, n, P):
    """Cells whose bounds come from a few shared values, zeros of either sign."""
    grid = np.array([-np.inf, -1.0, -0.5, 0.0, 0.25, 1.0, np.inf])
    i = rng.integers(0, grid.size - 1, size=(n, P))
    j = i + 1 + (rng.integers(0, grid.size, size=(n, P)) % (grid.size - 1 - i))
    lo, hi = grid[i], grid[j]
    lo[(lo == 0.0) & (rng.random((n, P)) < 0.5)] = -0.0
    hi[(hi == 0.0) & (rng.random((n, P)) < 0.5)] = -0.0
    return lo, hi


def _edge_points(rng, k, lo, hi):
    """Points on cell bounds, one ulp either side of them, and on -0.0 / +0.0."""
    b = np.unique(np.concatenate([lo.ravel(), hi.ravel()]))
    b = b[np.isfinite(b)]
    coords = np.concatenate([b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf),
                             [-0.0, 0.0], rng.standard_normal(8)])
    return rng.choice(coords, size=(k, lo.shape[1]))


def _assert_same_bits(ptf, lo, hi, w, n_coords, **chunks):
    # point_chunk / cell_chunk set the kernel's block sizes and the reference's alike
    with pytest.MonkeyPatch.context() as mp:
        for name, size in chunks.items():
            mp.setattr(flat, f"_{name.upper()}", size)
        got = _one_stop(ptf, lo, hi, w, n_coords)
    want = reference_membership(ptf, lo, hi, w, n_coords, **chunks)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_bitmap_membership_matches_dense_reference_on_edges():
    rng = np.random.default_rng(40)
    P = 4
    lo, hi = _grid_cells(rng, 300, P)
    assert (lo < hi).all()
    assert np.signbit(lo[lo == 0.0]).any() and not np.signbit(lo[lo == 0.0]).all()
    assert np.isneginf(lo).any() and np.isposinf(hi).any()
    # weights over 16 decades: any change in summation order shows in the bits
    w = rng.standard_normal(300) * 10.0 ** rng.uniform(-8, 8, 300)
    ptf = _edge_points(rng, 1000 + 37, lo, hi)
    on_bound = (ptf[:, None, :] == lo[None]) | (ptf[:, None, :] == hi[None])
    assert on_bound.any(axis=(1, 2)).mean() > 0.5
    for n_coords in (0, 2, P):
        _assert_same_bits(ptf, lo, hi, w, n_coords)
        # more cells than one cell chunk, k not a multiple of the point chunk
        _assert_same_bits(ptf, lo, hi, w, n_coords, point_chunk=64, cell_chunk=100)
        _assert_same_bits(ptf, lo, hi, w, n_coords, point_chunk=1000, cell_chunk=63)
        # points coded three point chunks at a time, in six such spans
        _assert_same_bits(ptf, lo, hi, w, n_coords, point_chunk=64, cell_chunk=200)
        _assert_same_bits(ptf[:1], lo, hi, w, n_coords)
        _assert_same_bits(ptf[:1], lo, hi, w, n_coords, point_chunk=1, cell_chunk=7)


def test_bitmap_membership_single_column_edges():
    # one cell (lo, hi] per pair of distinct grid values: each point's cell
    # count is checked against hand-counted half-open intervals
    grid = np.array([-np.inf, -1.0, 0.0, 2.0, np.inf])
    pairs = [(a, b) for a in range(grid.size) for b in range(a + 1, grid.size)]
    lo = grid[[a for a, _ in pairs]][:, None]
    hi = grid[[b for _, b in pairs]][:, None]
    hi[hi == 0.0] = -0.0
    x = np.array([-1.0, np.nextafter(-1.0, 0.0), -0.0, 0.0, np.nextafter(0.0, 1.0),
                  np.nextafter(2.0, 0.0), 2.0, np.nextafter(2.0, 3.0)])[:, None]
    got = _one_stop(x, lo, hi, np.ones(len(pairs)), 1)
    want = ((x > lo.T) & (x <= hi.T)).sum(axis=1).astype(float)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(got, [4, 6, 6, 6, 6, 6, 6, 4])
    _assert_same_bits(x, lo, hi, np.linspace(-1.0, 3.0, len(pairs)), 1)


def test_bitmap_membership_matches_dense_reference_on_fits(fitted):
    x, y, _, forest, boost = fitted
    rng = np.random.default_rng(41)
    for model in (forest, boost):
        fe = flatten_model(model)
        lo, hi, w = fe.lo, fe.hi, fe.values
        assert fe.n_cells > 64
        pts = np.concatenate([_time_major(sample_driver(500, 2, 2, seed=42)),
                              _time_major(x),
                              _edge_points(rng, 300, lo, hi)])
        for n_coords in (0, 2, 4):
            _assert_same_bits(pts, lo, hi, w, n_coords)
            _assert_same_bits(pts, lo, hi, w, n_coords, point_chunk=100,
                              cell_chunk=fe.n_cells // 3)
            _assert_same_bits(pts[:1], lo, hi, w, n_coords)


def test_multi_stop_sums_equal_one_call_per_stop():
    # one pass over the columns gives each stop the bits of its own call,
    # repeated stops and stop 0 included, at any block sizes
    rng = np.random.default_rng(44)
    P = 6
    lo, hi = _grid_cells(rng, 300, P)
    ptf = _edge_points(rng, 700 + 5, lo, hi)
    stops = [0, 2, 2, 3, 6]
    w = rng.standard_normal((len(stops), 300)) * 10.0 ** rng.uniform(-8, 8, (len(stops), 300))
    for chunks in ({}, {"point_chunk": 64, "cell_chunk": 100},
                   {"point_chunk": 8, "cell_chunk": 63}):
        with pytest.MonkeyPatch.context() as mp:
            for name, size in chunks.items():
                mp.setattr(flat, f"_{name.upper()}", size)
            for pts in (ptf, ptf[:1]):
                got = membership_sums(pts, lo, hi, w, stops)
                assert got.shape == (pts.shape[0], len(stops))
                for j, s in enumerate(stops):
                    alone = _one_stop(pts, lo, hi, w[j], s)
                    want = reference_membership(pts, lo, hi, w[j], s, **chunks)
                    assert np.array_equal(got[:, j].view(np.int64), alone.view(np.int64))
                    assert np.array_equal(got[:, j].view(np.int64), want.view(np.int64))


def test_membership_sums_rejects_bad_stops():
    rng = np.random.default_rng(45)
    lo, hi = _grid_cells(rng, 20, 4)
    ptf = rng.standard_normal((5, 4))
    w = np.ones((2, 20))
    for stops in ([3, 2], [-1, 2], [2, 5]):
        with pytest.raises(ValueError, match="nondecreasing"):
            membership_sums(ptf, lo, hi, w, stops)
    with pytest.raises(ValueError, match="nondecreasing"):  # points carry only 2 columns
        membership_sums(ptf[:, :2], lo, hi, w, [1, 3])
    with pytest.raises(ValueError, match="shape"):
        membership_sums(ptf, lo, hi, w, [4])
    assert membership_sums(ptf, lo, hi, np.ones((0, 20)), []).shape == (5, 0)


def test_flat_ensemble_validation():
    with pytest.raises(ValueError):
        FlatEnsemble(lo=np.zeros((2, 1)), hi=np.ones((3, 1)),
                     values=np.ones(2), dims=(1, 1))
    with pytest.raises(ValueError):
        FlatEnsemble(lo=np.ones((1, 1)), hi=np.zeros((1, 1)),
                     values=np.ones(1), dims=(1, 1))
    with pytest.raises(ValueError):
        FlatEnsemble(lo=np.zeros((1, 1)), hi=np.ones((1, 1)),
                     values=np.array([np.nan]), dims=(1, 1))


def test_npz_round_trip(tmp_path, fitted):
    x, y, _, forest, _ = fitted
    fe = flatten_model(forest)
    path = tmp_path / "model.npz"
    save_flat(fe, path)
    back = load_flat(path)
    np.testing.assert_array_equal(back.lo, fe.lo)
    np.testing.assert_array_equal(back.hi, fe.hi)
    np.testing.assert_array_equal(back.values, fe.values)
    assert back.dims == fe.dims


def test_text_round_trip(tmp_path, fitted):
    x, y, _, _, boost = fitted
    fe = flatten_model(boost)
    path = tmp_path / "model.txt"
    write_flat_text(fe, path)
    back = read_flat_text(path)
    np.testing.assert_array_equal(back.lo, fe.lo)
    np.testing.assert_array_equal(back.hi, fe.hi)
    np.testing.assert_array_equal(back.values, fe.values)
    assert back.dims == fe.dims


def test_text_format_is_line_oriented(tmp_path, fitted):
    x, y, tree, _, _ = fitted
    fe = flatten_model(tree)
    path = tmp_path / "model.txt"
    write_flat_text(fe, path)
    lines = path.read_text().splitlines()
    assert lines[0].split()[0] == "treeval-flat"
    d, T, n = (int(v) for v in lines[1].split())
    assert (d, T) == fe.dims
    assert n == fe.n_cells
    assert len(lines) == 2 + n


def test_text_reader_rejects_corrupt_files(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not-a-header 9\n1 1 1\n0.0 -inf inf\n")
    with pytest.raises(ValueError):
        read_flat_text(path)
    path.write_text("treeval-flat 1\n1 1 2\n0.0 -inf inf\n")
    with pytest.raises(ValueError):
        read_flat_text(path)


def test_text_bytes_follow_leaf_cells(tmp_path):
    x = sample_driver(200, 3, 2, seed=39)
    y = np.cos(_time_major(x) @ np.linspace(1.0, -0.5, 6))
    boost = fit_boost(x, y, BoostConfig(rounds=6, learning_rate=0.3, max_depth=3, seed=5))
    cells = [(boost.base_value, np.full(6, -np.inf), np.full(6, np.inf))]
    for tree, gamma in zip(boost.trees, boost.gammas):
        lo, hi, val, _ = cart._leaf_cells((tree,))
        cells.extend(zip(val * (-boost.config.learning_rate * gamma), lo, hi))
    lines = ["treeval-flat 1", f"3 2 {len(cells)}"]
    for v, lo, hi in cells:
        bounds = [repr(float(b)) for pair in zip(lo, hi) for b in pair]
        lines.append(" ".join([repr(float(v))] + bounds))
    path = tmp_path / "boost.txt"
    write_flat_text(flatten_model(boost), path)
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_flatten_walks_all_trees_of_a_model_at_once(fitted, monkeypatch):
    _, _, tree, forest, boost = fitted
    walks = []
    leaf_cells = flat._leaf_cells
    monkeypatch.setattr(flat, "_leaf_cells", lambda trees: walks.append(len(trees))
                        or leaf_cells(trees))
    m = len(forest.trees)
    parts = [cart._leaf_cells((t,)) for t in forest.trees]
    fe = flatten_model(forest)
    assert np.array_equal(fe.lo, np.concatenate([p[0] for p in parts]))
    assert np.array_equal(fe.hi, np.concatenate([p[1] for p in parts]))
    assert np.array_equal(fe.values, np.concatenate([p[2] for p in parts]) / m)
    fe = flatten_model(boost)
    vals = [np.array([boost.base_value])]
    for t, gamma in zip(boost.trees, boost.gammas):
        vals.append(cart._leaf_cells((t,))[2] * (-boost.config.learning_rate * gamma))
    assert np.array_equal(fe.values, np.concatenate(vals))
    flatten_model(tree)
    assert walks == [m, len(boost.trees), 1]


def test_boost_without_rounds_flattens_to_its_base_cell(fitted):
    _, _, _, _, boost = fitted
    empty = replace(boost, trees=(), gammas=())
    fe = flatten_model(empty)
    assert fe.n_cells == 1 and fe.values[0] == boost.base_value
    assert (fe.lo == -np.inf).all() and (fe.hi == np.inf).all()


def _per_cell_text(fe: FlatEnsemble) -> bytes:
    # reference: the per-cell, per-float loop that write_flat_text replaced
    d, T = fe.dims
    lines = ["treeval-flat 1", f"{d} {T} {fe.n_cells}"]
    for i in range(fe.n_cells):
        parts = [repr(float(fe.values[i]))]
        for c in range(d * T):
            parts.append(repr(float(fe.lo[i, c])))
            parts.append(repr(float(fe.hi[i, c])))
        lines.append(" ".join(parts))
    return ("\n".join(lines) + "\n").encode()


def test_text_bytes_match_the_per_cell_loop_on_edge_bounds(tmp_path):
    # distinct by comparison, sorted; zeros get a random sign below, so a
    # bound pair may read (-0.0, x), (0.0, x) or (x, -0.0) with -0.0 != 0.0 in text
    pool = np.array([-np.inf, -1e308, -0.1 - 0.2, -5e-324, 0.0, 5e-324, 2.225073858507201e-308,
                     1e-05, 0.30000000000000004, 1.0000000000000002, 123456789.12345679,
                     np.inf])
    rng = np.random.default_rng(11)
    n, d, T = 300, 2, 3
    ends = np.sort(np.stack([rng.choice(pool.size, size=2, replace=False)
                             for _ in range(n * d * T)]), axis=1)
    lo, hi = (pool[ends[:, j]].reshape(n, d * T) for j in (0, 1))
    lo[(lo == 0.0) & (rng.random(lo.shape) < 0.5)] = -0.0
    hi[(hi == 0.0) & (rng.random(hi.shape) < 0.5)] = -0.0
    values = rng.choice(np.array([-0.0, 0.0, 5e-324, -1.2345678901234567e-7, 1e300]), size=n)
    values[:5] = rng.normal(size=5)
    fe = FlatEnsemble(lo=lo, hi=hi, values=values, dims=(d, T))
    path = tmp_path / "edges.txt"
    write_flat_text(fe, path)
    text = path.read_bytes()
    assert text == _per_cell_text(fe)
    for word in (b" -0.0 ", b" 0.0 ", b" 5e-324 ", b" -5e-324 ", b" -inf ", b" inf"):
        assert word in text, word
    back = read_flat_text(path)
    for got, want in ((back.lo, lo), (back.hi, hi), (back.values, values)):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_and_chunk_changes_no_bit(monkeypatch):
    # each column's rows are ANDed into the membership a few points at a time
    rng = np.random.default_rng(44)
    lo, hi = _grid_cells(rng, 300, 3)
    ptf = _edge_points(rng, 200, lo, hi)
    w = rng.standard_normal((3, 300))
    want = membership_sums(ptf, lo, hi, w, [1, 2, 3])
    for chunk in (1, 7, 64):
        monkeypatch.setattr(flat, "_AND_CHUNK", chunk)
        assert np.array_equal(membership_sums(ptf, lo, hi, w, [1, 2, 3]), want)


def test_column_and_gathers_a_bounded_block():
    # 8,192 points x two chunks of 8,192 cells whose bounds take 4,096 values:
    # an 8 MB packed membership per chunk, 4 MB of bit rows for the column
    # and 9 MB of unpacked blocks with their float copies.  Gathering the rows
    # of 1,024 points at a time adds 1 MB, where all at once added 8 MB while
    # a view of the last chunk's membership held its 8 MB too
    rng = np.random.default_rng(45)
    grid = np.sort(rng.standard_normal(4096))
    i = rng.integers(0, grid.size - 1, size=(16384, 1))
    ptf = rng.standard_normal((8192, 1))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        membership_sums(ptf, grid[i], grid[i + 1], np.ones((1, 16384)), [1])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    print(f"membership peak {peak} B")
    assert peak < 25e6, peak


def test_membership_working_set_stays_small():
    # the float64 copy numpy makes of each boolean block sets the kernel's
    # peak: 2 MB for 128 x 2000 cells, against 16 MB for 1024-row blocks
    rng = np.random.default_rng(43)
    lo, hi = _grid_cells(rng, 2000, 4)
    w = rng.standard_normal(2000)
    ptf = rng.standard_normal((4096, 4))
    # one stop, then three stops in one pass: the packed membership carries over
    for weights, stops in ((w[None], [4]), (rng.standard_normal((3, 2000)), [1, 2, 4])):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            membership_sums(ptf, lo, hi, weights, stops)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        print(f"membership peak {peak} B at stops {stops}")
        assert peak < 4e6, peak
