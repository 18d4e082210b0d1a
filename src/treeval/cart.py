"""Regression trees on driver paths with hyperrectangular leaf cells.

A tree is grown greedily: each split minimizes the summed squared error
of the two children over all coordinates ``(j, s)`` (asset j, period s)
and midpoint thresholds of consecutive distinct observed values.  Leaves
carry the mean response of their training points, so the fitted function
is piecewise constant on a partition of R^{d x T} into half-open
hyperrectangles ``prod (a_{j,s}, b_{j,s}]``.

Growth is level-wise.  Each column of a tree's points is argsorted once,
and every node keeps its rows as a stable subsequence of those orders.
All nodes of one depth are scored in one pass over blocks of columns, and
the split nodes' rows are regrouped into their children without sorting
again.  The finished nodes are numbered as depth-first, left-first growth
would allocate them, so the trees match that order node for node.

The split search scores every cut of a column from the response prefix
sums alone and takes the first minimum; only then does it read the two
values at that cut.  If their midpoint lies strictly between them, the
cut is also the first minimum over the admissible cuts, since masking
the others (ties, midpoints that round onto an endpoint) only raises
scores to +inf.  Otherwise that column of that node is scanned again
with the inadmissible cuts masked.  Either way the split is the one an
exhaustive masked scan finds, bit for bit.

A forest's trees grow together: their rows are laid end to end, each
tree's columns are sorted on their own, and every depth scores the nodes
of all trees in one pass, so the numpy call overhead of a depth is paid
once for all the trees.  Each tree comes out as it would if grown alone.

Every other walk over tree structure also goes one depth at a time,
never node by node, and across all trees of a model.  Growth keeps one
record per depth for the whole batch, and the depth-first numbering runs
its recurrences once per depth for all the trees.  ``_leaf_cells`` lays
the trees' node arrays end to end and passes cell bounds from each
depth's split nodes to their children.  ``_predict_trees`` steps every
(tree, point) pair down one depth per pass until all of them sit at
leaves, each leaf routing to itself.  A lone tree is walked as a forest
of one; a boost routes its rounds one ``_predict_trees`` call a round,
in ``ensemble.predict`` and in ``fit_boost``'s validation scoring.

Every point and every cell bound is stored time-major: a path with d
assets over T periods is a row of P = d*T columns, and column
``c = s*d + j`` holds asset j of period s+1.  The first ``t*d`` columns
therefore describe the first t periods, which is what conditional
valuation slices on.  Points enter every public function as a (k, d, T)
batch, and ``_as_points`` is the one place that turns a batch into these
rows; everything past it works on (k, P).  It refuses flat rows and lone
points: numpy flattens a batch asset-major, so a flat row's coordinate
order cannot be told from its shape.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .paths import stream_rng

_LEAF = -1


@dataclass(frozen=True)
class TreeConfig:
    """Growth controls for a single regression tree.

    nodesize
        Minimum number of training points a cell must contain to be
        eligible for splitting (so every leaf from a split holds >= 1
        point and split cells hold >= nodesize).
    max_depth
        Optional depth cap; the root has depth 0, and a cell at the cap
        is not split.
    features
        Number of coordinates drawn uniformly without replacement as
        split candidates at each cell, or "all".  Below P, every cell
        that passes the nodesize and depth checks draws once, in level
        order: depth by depth, left to right within a depth.
    seed
        Seeds the candidate-coordinate draws.
    """

    nodesize: int = 2
    max_depth: Optional[int] = None
    features: int | str = "all"
    seed: int = 0

    def __post_init__(self):
        if self.nodesize < 2:
            raise ValueError("nodesize must be >= 2")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        # an exact type check: bool is an int subclass, and features=True is a mistake
        if self.features != "all" and (type(self.features) is not int or self.features < 1):
            raise ValueError('features must be "all" or a positive int')
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class RegressionTree:
    """Fitted tree in flat array form.

    ``feature[i] == -1`` marks node i as a leaf with prediction
    ``value[i]``; otherwise the node routes x to ``left[i]`` when
    ``x[feature[i]] <= threshold[i]`` and to ``right[i]`` otherwise.
    ``count[i]`` is the number of training points that reached node i.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    count: np.ndarray
    dims: tuple  # (d, T)

    @property
    def n_leaves(self) -> int:
        return int((self.feature == _LEAF).sum())

    @property
    def n_nodes(self) -> int:
        return self.feature.size


def _time_major(a: np.ndarray) -> np.ndarray:
    """(k, d, T) grid -> (k, T*d) rows; column s*d + j is a[:, j, s]."""
    k, d, T = a.shape
    return a.transpose(0, 2, 1).reshape(k, T * d)


def _as_points(x, dims) -> np.ndarray:
    """A (k, d, T) batch of points as time-major rows (k, P), P = d*T, C-contiguous.

    Every public entry point reads points here.  dims is (d, T).  Raises
    ValueError naming (k, d, T) for any other rank or shape, a single
    (d, T) point and flat rows included, and for a non-finite coordinate.
    """
    d, T = dims
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[1:] != (d, T):
        raise ValueError(f"points must be a (k, d, T) batch with (d, T) = ({d}, {T}), "
                         f"got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("points contain non-finite coordinates")
    # the Bermudan states come in as strided views; the walks index X flat
    return np.ascontiguousarray(_time_major(x))


def _distinct(a) -> np.ndarray:
    """The sorted distinct values of a, NaNs as one, as ``np.unique(a)`` gives them.

    A plain ``np.unique`` reads ``np.ma.is_masked``, which imports
    ``numpy.ma`` into the process on its first call.
    """
    s = np.sort(a, axis=None)
    keep = np.ones(s.size, dtype=bool)
    # a NaN after a NaN is dropped: sorted NaNs come last, and only NaN != itself
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    keep[1:] &= s[:-1] == s[:-1]
    return s[keep]


def _training_points(sample) -> tuple:
    """(X, dims) of a training sample, an (n, d, T) array."""
    dims = np.shape(sample)[1:]
    if len(dims) != 2:
        raise ValueError(f"sample must be a (k, d, T) batch, got shape {np.shape(sample)}")
    return _as_points(sample, dims), dims


# Scoring and regrouping work on blocks of at most this many array elements,
# which bounds the temporaries of a depth's pass whatever the node sizes.
# Nodes scored in one block are padded to the largest; a block's padding
# stays within an eighth of it.
_BLOCK = 32768

# Trees grown together keep their presort arrays (see ``_presort``) within
# this many elements; a tree that alone exceeds it grows on its own.
_GROW_BUDGET = 1 << 18


def _presort(Xs) -> tuple:
    """Column-major copy of the row sets Xs, each column sorted per set.

    Xs is a sequence of (n_m, P) row arrays laid end to end in one row
    space of n = sum n_m rows.  Returns (XT, order): XT is (P, n+1) and
    order is (P+1, n+1).  Within the positions of each set, order[c]
    lists its rows by their value in column c (a stable sort of that set
    alone) and order[P] lists them in ascending order.  Column n is a
    sentinel row: XT[:, n] = +inf and order[:, n] = n.  It pads node
    blocks: it sorts last, its response is taken as zero and no midpoint
    next to it is admissible.
    """
    P = Xs[0].shape[1]
    n = sum(X.shape[0] for X in Xs)
    XT = np.empty((P, n + 1))
    XT[:, n] = np.inf
    order = np.empty((P + 1, n + 1), dtype=np.intp)
    a = 0
    for X in Xs:
        b = a + X.shape[0]
        XT[:, a:b] = X.T
        np.add(np.argsort(XT[:, a:b], axis=1, kind="stable"), a, out=order[:P, a:b])
        a = b
    order[P, :n] = np.arange(n)
    order[:, n] = n
    return XT, order


def _node_groups(size: np.ndarray, nodes: np.ndarray, P: int):
    """The nodes, smallest first, in groups that share one padded block."""
    nodes = nodes[np.argsort(size[nodes], kind="stable")]
    fill = size[nodes]
    i = 0
    while i < nodes.size:
        s = fill[i:]
        padded = np.arange(1, s.size + 1) * s
        ok = (padded <= _BLOCK) & ((padded - np.cumsum(s)) * P <= _BLOCK // 8)
        j = i + (s.size if ok.all() else max(1, int(np.argmin(ok))))
        yield nodes[i:j]
        i = j


def _masked_min(XT, R, cols, score) -> tuple:
    """First admissible minimum of each row of score: (score, midpoint) per row.

    Row i of R (m, K) holds one node's rows by value in column cols[i],
    padded with the sentinel, and row i of score (m, K - 1) the scores of
    the cuts between consecutive positions.  A cut is admissible when its
    midpoint lies strictly between the two values; the others score +inf
    here.
    """
    x = XT[cols[:, None], R]
    lo, hi = x[:, :-1], x[:, 1:]
    z = lo + hi
    z *= 0.5
    # a midpoint that rounds onto an endpoint would leave a child empty
    ok = lo < z
    ok &= z < hi
    score[~ok] = np.inf
    j = np.argmin(score, axis=1)
    i = np.arange(j.size)
    return score[i, j], z[i, j]


def _split_nodes(XT, y, order, size, sy, cands) -> tuple:
    """Best split of each node of one depth, from presorted columns.

    Node i holds positions ``a:a + size[i]`` of every row of order (see
    ``_presort``): its rows by value in each column, and in ascending order
    in the last row.  ``order[:, -1]`` is the sentinel, and y carries its
    zero response last.  sy[i] is the sum of node i's responses in
    ascending row order, and cands (nodes, P) marks the columns node i may
    split on.  Each node's children's SSE is scored at every midpoint of
    consecutive distinct values, from prefix sums that start at zero.
    Returns (coord, threshold) per node; coord is -1 where the node has
    no candidate, its responses are constant or no split strictly
    improves on the parent SSE.  Ties go to the smallest (coord, threshold).

    Scoring reads only the responses.  Every cut between two of a node's
    rows is scored, the first minimum j of each (node, column) is taken,
    and only then are the values at j and j + 1 read.  When their
    midpoint lies strictly between them, j is also the first minimum over
    the admissible cuts: those keep their scores and the others only
    rise to +inf, so no cut before j can tie or beat it.  Otherwise
    (tied values, or a midpoint that rounds onto an endpoint) that
    (node, column) is scanned again with the inadmissible cuts masked
    (``_masked_min``).  The splits are those of a fully masked scan.
    """
    P, stride = XT.shape
    start = np.cumsum(size) - size
    ys = y[order[P, :int(size.sum())]]
    yy = ys * ys
    todo = np.flatnonzero(cands.any(axis=1))
    sy2 = np.zeros(size.size)
    sy2[todo] = [np.add.reduce(yy[a:a + k])
                 for a, k in zip(start[todo].tolist(), size[todo].tolist())]
    parent = sy2 - sy * sy / size
    live = np.zeros(size.size, dtype=bool)
    live[todo] = (np.minimum.reduceat(ys, start) != np.maximum.reduceat(ys, start))[todo]
    best = np.full((size.size, P), np.inf)
    cut = np.full((size.size, P), np.nan)
    for nodes in _node_groups(size, np.flatnonzero(live), P):
        k = size[nodes][:, None]
        at = np.arange(k[-1, 0])
        pos = np.where(at < k, start[nodes][:, None] + at, order.shape[1] - 1)
        nl = at[1:] * 1.0  # left child sizes 1 .. largest - 1
        nr = np.maximum(k - nl, 1.0)  # no division by zero past a node's last row
        pad = nl >= k  # no cut after a node's last row
        step = max(1, _BLOCK // pos.size)
        for c0 in range(0, P, step):
            cols = np.arange(c0, min(c0 + step, P))
            R = np.take(order[cols[0]:cols[-1] + 1], pos, axis=1)
            yo = np.take(y, R)
            cy = np.cumsum(yo, axis=2)
            yo *= yo
            cy2 = np.cumsum(yo, axis=2)
            sl, sl2 = cy[..., :-1], cy2[..., :-1]
            # score = (sl2 - sl*sl/nl) + (sr2 - sr*sr/nr), in place
            sr = cy[..., -1:] - sl
            sr *= sr
            sr /= nr
            np.subtract(cy2[..., -1:] - sl2, sr, out=sr)
            score = sl * sl
            score /= nl
            np.subtract(sl2, score, out=score)
            score += sr
            np.copyto(score, np.inf, where=pad)
            # first minimum = smallest threshold; score and R are contiguous
            j = np.argmin(score, axis=2)
            flat = np.arange(j.size).reshape(j.shape)
            s = np.take(score, j + score.shape[2] * flat)
            rj = j + R.shape[2] * flat
            off = (stride * cols)[:, None]
            lo = np.take(XT, np.take(R, rj) + off)
            hi = np.take(XT, np.take(R, rj + 1) + off)
            z = lo + hi
            z *= 0.5
            bad = ~((lo < z) & (z < hi))
            if bad.any():
                c, i = np.nonzero(bad)
                s[c, i], z[c, i] = _masked_min(XT, R[c, i], cols[c], score[c, i])
            best[nodes[:, None], cols] = s.T
            cut[nodes[:, None], cols] = z.T
    best[~cands] = np.inf
    col = np.argmin(best, axis=1)  # first minimum = smallest coordinate
    i = np.arange(size.size)
    split = live & (best[i, col] < parent)
    return np.where(split, col, -1), np.where(split, cut[i, col], np.nan)


def _candidates(rngs, tree: np.ndarray, P: int, features, can: np.ndarray) -> np.ndarray:
    """The (nodes, P) mask of split columns: none where can is False.

    When features < P, each node that can split draws its own columns
    from its tree's rng, rngs[tree[i]], in node order.
    """
    if features == "all" or features >= P:
        return np.repeat(can[:, None], P, axis=1)
    mask = np.zeros((can.size, P), dtype=bool)
    for i in np.flatnonzero(can):
        mask[i, rngs[tree[i]].choice(P, size=features, replace=False)] = True
    return mask


def _allocation_order(levels: list, n_trees: int, dims) -> list:
    """Number level-wise nodes as depth-first, left-first growth allocates them.

    levels[d] holds (feature, threshold, value, count, tree) of the nodes
    at depth d of every tree of a batch, in tree order: one root per tree
    at depth 0, then the children of the split nodes of depth d-1, in
    pairs.  Within a tree, the i-th split node in preorder gets children
    2i+1 and 2i+2.  The pairs of a depth line up with the split nodes of
    the depth above whatever their tree, so each recurrence below takes
    one step per depth for all trees.  Returns the n_trees trees.
    """
    split = [lv[0] != _LEAF for lv in levels]
    inner = [None] * len(levels)  # split nodes in each node's subtree
    below = np.zeros(0, dtype=np.intp)
    for d in range(len(levels) - 1, -1, -1):
        s = split[d].astype(np.intp)
        s[split[d]] += below[0::2] + below[1::2]
        inner[d] = below = s
    pre = np.zeros(n_trees, dtype=np.intp)  # split nodes before each node in its tree's preorder
    ids = [np.zeros(n_trees, dtype=np.intp)]
    for d in range(len(levels) - 1):
        r = pre[split[d]]
        pre = np.repeat(r + 1, 2)
        pre[1::2] += inner[d + 1][0::2]
        ids.append((2 * r[:, None] + np.array([1, 2])).ravel())
    f, t, v, c, tree = (np.concatenate(a) for a in zip(*levels))
    ids = np.concatenate(ids)
    size = np.bincount(tree, minlength=n_trees)
    at = (np.cumsum(size) - size)[tree] + ids  # each node's place in the batch's arrays
    feature = np.empty(ids.size, dtype=np.int32)
    threshold = np.empty(ids.size)
    value = np.empty(ids.size)
    count = np.empty(ids.size, dtype=np.int64)
    left = np.full(ids.size, -1, dtype=np.int32)
    right = np.full(ids.size, -1, dtype=np.int32)
    feature[at], threshold[at], value[at], count[at] = f, t, v, c
    # below the roots, the nodes in level order are the split nodes' children in pairs
    left[at[f != _LEAF]] = ids[n_trees::2]
    right[at[f != _LEAF]] = ids[n_trees + 1::2]
    ends = np.cumsum(size)[:-1]
    parts = (np.split(a, ends) for a in (feature, threshold, left, right, value, count))
    return [RegressionTree(*arrays, dims=dims) for arrays in zip(*parts)]


def _check_responses(y, n: int) -> np.ndarray:
    """y as a float vector of n finite responses, else ValueError."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (n,):
        raise ValueError("responses must be a vector with one entry per path")
    if not np.isfinite(y).all():
        raise ValueError("responses contain non-finite entries")
    return y


def _batch_size(n: int, P: int) -> int:
    """How many trees on n rows of P columns grow together within _GROW_BUDGET."""
    return max(1, _GROW_BUDGET // ((2 * P + 1) * (n + 1)))


def _grow_trees(Xs, ys, cfg: TreeConfig, dims: tuple, rngs,
                presorted: Optional[tuple] = None, fitted: Optional[np.ndarray] = None) -> list:
    """Grow one tree per (X, y, rng), all together one depth at a time.

    Xs holds time-major row arrays (n_m, P) and ys their responses.  The
    trees' rows are laid end to end in one row space and each column is
    argsorted per tree, so the roots are the first depth's nodes;
    presorted, when given, is ``_presort(Xs)`` made once for many calls,
    which growth only reads.  fitted, when given, receives each row's
    leaf value, which is the tree's prediction at that row.  Every
    node keeps its rows as a stable subsequence of its tree's column
    orders and of the ascending order, so all nodes of a depth, of every
    tree, are scored together by ``_split_nodes`` and their children are
    regrouped without sorting again.  Nodes stay in tree order within a
    depth, and a node draws its candidate columns from its own tree's
    rng, so each tree is the tree it would be if grown alone.  At the end
    each tree's nodes are numbered in the order depth-first, left-first
    growth allocates them.
    """
    y = np.concatenate([_check_responses(r, X.shape[0]) for X, r in zip(Xs, ys)]
                       + [np.zeros(1)])  # the sentinel's response last
    P = Xs[0].shape[1]
    XT, order = _presort(Xs) if presorted is None else presorted
    n = XT.shape[1] - 1
    size = np.array([X.shape[0] for X in Xs])
    tree = np.arange(len(Xs))  # the tree of each node of the depth
    levels = []  # one (feature, threshold, value, count, tree) record per depth
    for depth in itertools.count():
        rows = order[P, :int(size.sum())]
        start = np.cumsum(size) - size
        ys = y[rows]
        sums = np.array([np.add.reduce(ys[a:a + k])
                         for a, k in zip(start.tolist(), size.tolist())])
        feature = np.full(size.size, _LEAF)
        threshold = np.full(size.size, np.nan)
        value = sums / np.maximum(size, 1)
        if fitted is not None:
            # a row's node at the last depth that holds it is its leaf
            fitted[rows] = np.repeat(value, size)
        levels.append((feature, threshold, value, size, tree))  # split nodes filled in below
        can = (size >= cfg.nodesize) & (cfg.max_depth is None or depth < cfg.max_depth)
        if not can.any():
            break
        coord, z = _split_nodes(XT, y, order, size, sums,
                                _candidates(rngs, tree, P, cfg.features, can))
        split = coord >= 0
        if not split.any():
            break
        feature[split] = coord[split]
        threshold[split] = z[split]

        # children in pairs, each keeping its parent's order in every row of order
        seg = np.repeat(np.arange(size.size), size)
        go_left = XT[coord[seg], rows] <= z[seg]
        side = np.full(n + 1, 2, dtype=np.int8)  # 0 left, 1 right, 2 no split
        side[rows] = np.where(split[seg], ~go_left, 2)
        n_left = np.add.reduceat(go_left, start, dtype=np.intp)[split]
        kids = np.column_stack([n_left, size[split] - n_left]).ravel()
        width = int(kids.sum())
        kid_side = np.repeat(np.arange(kids.size) % 2, kids)
        to_left, to_right = np.flatnonzero(kid_side == 0), np.flatnonzero(kid_side == 1)
        grouped = np.empty((P + 1, width + 1), dtype=np.intp)
        step = max(1, _BLOCK // rows.size)
        for c0 in range(0, P + 1, step):
            A = order[c0:c0 + step, :rows.size]
            s = np.take(side, A)
            grouped[c0:c0 + step, to_left] = A[s == 0].reshape(A.shape[0], -1)
            grouped[c0:c0 + step, to_right] = A[s == 1].reshape(A.shape[0], -1)
        grouped[:, width] = n
        order, size, tree = grouped, kids, np.repeat(tree[split], 2)
    return _allocation_order(levels, len(Xs), dims)


def fit_tree(sample, responses, cfg: TreeConfig = TreeConfig()) -> RegressionTree:
    """Grow a regression tree on driver paths against responses.

    sample is an (n, d, T) array; responses must be finite with one
    entry per path.  The candidate draws come from
    ``stream_rng(cfg.seed)``.
    """
    X, dims = _training_points(sample)
    return _grow_trees([X], [responses], cfg, dims, [stream_rng(cfg.seed)])[0]


def _nodes_end_to_end(trees) -> tuple:
    """The trees' node arrays laid end to end: (root, leaf, column, threshold, child).

    root[m] is tree m's root.  Node i sends x to child[i, 1] when
    ``x[column[i]] <= threshold[i]`` and to child[i, 0] otherwise.  A
    leaf has column 0, threshold +inf and itself as both children, so a
    point that reached it stays there.
    """
    n = np.array([t.n_nodes for t in trees])
    root = np.cumsum(n) - n
    column = np.concatenate([t.feature for t in trees]).astype(np.intp)
    leaf = column == _LEAF
    column[leaf] = 0
    threshold = np.concatenate([t.threshold for t in trees])
    threshold[leaf] = np.inf
    child = np.concatenate([np.column_stack([t.right, t.left]) + r for t, r in zip(trees, root)])
    child[leaf] = np.flatnonzero(leaf)[:, None]
    return root, leaf, column, threshold, child


def _leaf_cells(trees) -> tuple:
    """The leaf cells of trees of one dims, end to end; each tree's cells partition R^{d x T}.

    Bounds pass from the split nodes of a depth to their children, one
    depth of every tree a step, and each leaf lands in its tree's block
    in node order.  Returns (lower, upper, value, count): time-major
    bounds of shape (leaves, d*T) and one value and count per leaf.
    """
    root, leaf, column, threshold, child = _nodes_end_to_end(trees)
    P = trees[0].dims[0] * trees[0].dims[1]
    row = np.cumsum(leaf) - 1  # each leaf's row of the output
    lows, highs = np.empty((row[-1] + 1, P)), np.empty((row[-1] + 1, P))
    node = root
    lo, hi = np.full((node.size, P), -np.inf), np.full((node.size, P), np.inf)
    while node.size:
        done = leaf[node]
        lows[row[node[done]]], highs[row[node[done]]] = lo[done], hi[done]
        s = node[~done]
        # children in (right, left) pairs, each with its parent's bounds
        lo, hi = np.repeat(lo[~done], 2, axis=0), np.repeat(hi[~done], 2, axis=0)
        i = 2 * np.arange(s.size)
        lo[i, column[s]] = threshold[s]
        hi[i + 1, column[s]] = threshold[s]
        node = child[s].ravel()
    value = np.concatenate([t.value for t in trees])[leaf]
    count = np.concatenate([t.count for t in trees])[leaf]
    return lows, highs, value, count


def _predict_trees(trees, X: np.ndarray) -> np.ndarray:
    """Route time-major rows X (k, P) through every tree; (len(trees), k) leaf values.

    The trees' nodes are laid end to end (``_nodes_end_to_end``) and all
    (tree, row) pairs step down together, one depth a pass, until every
    pair sits at a leaf.  A pair at a leaf routes to itself, so no pass
    sets apart the pairs still moving.  A pair's state is twice its
    node, and the state plus its comparison indexes the child.  Each pass
    writes into the same few buffers: ``np.take`` copies through a
    temporary when ``out`` is given in its default mode, and every index
    here is in range, so "clip" changes none.
    """
    k, P = X.shape
    root, leaf, column, threshold, child = _nodes_end_to_end(trees)
    column, threshold, to = np.repeat(column, 2), np.repeat(threshold, 2), 2 * child.ravel()
    state = np.repeat(2 * root, k).reshape(len(trees), k)
    at = np.arange(k) * P  # each row's first element in X
    idx = np.empty(state.shape, dtype=np.intp)
    x = np.empty(state.shape)
    z = idx.view(np.float64)  # idx's memory holds the thresholds once x is read
    go_left = np.empty(state.shape, dtype=bool)
    front = root[~leaf[root]]  # the split nodes of the pass's depth
    while front.size:
        np.add(np.take(column, state, out=idx, mode="clip"), at, out=idx)
        np.take(X, idx, out=x, mode="clip")
        np.less_equal(x, np.take(threshold, state, out=z, mode="clip"), out=go_left)
        np.take(to, np.add(state, go_left, out=idx), out=state, mode="clip")
        front = child[front].ravel()
        front = front[~leaf[front]]
    value = np.repeat(np.concatenate([t.value for t in trees]), 2)
    return np.take(value, state, out=x, mode="clip")

