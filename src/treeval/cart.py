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

Every point and every cell bound is stored time-major: a path with d
assets over T periods is a row of P = d*T columns, and column
``c = s*d + j`` holds asset j of period s+1.  The first ``t*d`` columns
therefore describe the first t periods, which is what conditional
valuation slices on.  ``_as_points`` is the one place where the other
accepted layouts (a DriverSample, (k, d, T) batches, a single (d, T)
point) are turned into these rows; everything past it works on (k, P).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .paths import DriverSample

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
    def n_cells(self) -> int:
        return self.n_leaves

    @property
    def n_nodes(self) -> int:
        return self.feature.size

    def leaf_cells(self):
        """Leaf partition as flat bound arrays.

        Returns (lower, upper, value, count) where the bound arrays have
        shape (n_leaves, d*T) in time-major column order.  The cells
        partition R^{d x T}.
        """
        d, T = self.dims
        P = d * T
        n = self.n_nodes
        lows = np.empty((n, P))
        highs = np.empty((n, P))
        lows[0] = -np.inf
        highs[0] = np.inf
        # children are created after parents, so a forward pass suffices
        for i in range(n):
            f = self.feature[i]
            if f == _LEAF:
                continue
            le, ri = self.left[i], self.right[i]
            lows[le] = lows[i]
            highs[le] = highs[i]
            lows[ri] = lows[i]
            highs[ri] = highs[i]
            highs[le, f] = self.threshold[i]
            lows[ri, f] = self.threshold[i]
        mask = self.feature == _LEAF
        return lows[mask], highs[mask], self.value[mask], self.count[mask]


def _time_major(a: np.ndarray) -> np.ndarray:
    """(k, d, T) grid -> (k, T*d) rows; column s*d + j is a[:, j, s]."""
    k, d, T = a.shape
    return a.transpose(0, 2, 1).reshape(k, T * d)


def _as_points(x, dims) -> tuple:
    """Coerce points to time-major rows; every public entry point reads points here.

    Accepts a DriverSample, a batch (k, d, T), a single point (d, T),
    flat rows (k, P) or a single flat point (P,), with P = d*T and
    dims = (d, T).  A 2-D input whose shape equals dims is one (d, T)
    point; any other 2-D input is flat rows.  Returns (X, single): X
    has shape (k, P) and single says the input was one point.  Raises
    ValueError when the layout does not match dims or a coordinate is
    not finite.
    """
    d, T = dims
    if isinstance(x, DriverSample):
        x = x.data
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1 or x.shape == (d, T)
    if x.ndim == 2 and single:
        x = x[None]
    if x.ndim == 3:
        if x.shape[1:] != (d, T):
            raise ValueError(f"points of shape {x.shape} do not match dims ({d}, {T})")
        X = _time_major(x)
    elif x.ndim in (1, 2):
        X = x.reshape(-1, x.shape[-1])
    else:
        raise ValueError(f"cannot interpret a point array of shape {x.shape}")
    if X.shape[1] != d * T:
        raise ValueError(f"points have {X.shape[1]} coordinates, expected d*T = {d * T}")
    if not np.isfinite(X).all():
        raise ValueError("points contain non-finite coordinates")
    return np.ascontiguousarray(X), single


def _training_points(sample) -> tuple:
    """(X, dims) of a training sample: a DriverSample or an (n, d, T) array."""
    dims = sample.data.shape[1:] if isinstance(sample, DriverSample) else np.shape(sample)[1:]
    if len(dims) != 2:
        raise ValueError("sample must be a DriverSample or an (n, d, T) array")
    return _as_points(sample, dims)[0], dims


# Scoring and regrouping work on blocks of at most this many array elements,
# which bounds the temporaries of a depth's pass whatever the node sizes.
# Nodes scored in one block are padded to the largest; a block's padding
# stays within an eighth of it.
_BLOCK = 32768


def _presort(X: np.ndarray) -> tuple:
    """Column-major copy of rows X (n, P) and each column's stable sort order.

    Returns (XT, order): XT is (P, n+1) and order is (P+1, n+1); order[c]
    lists the rows by their value in column c and order[P] lists them in
    ascending order.  Column n is a sentinel row: XT[:, n] = +inf and
    order[:, n] = n.  It pads node blocks: it sorts last, its response is
    taken as zero and no midpoint next to it is admissible.
    """
    n, P = X.shape
    XT = np.empty((P, n + 1))
    XT[:, :n] = X.T
    XT[:, n] = np.inf
    order = np.empty((P + 1, n + 1), dtype=np.intp)
    order[:P, :n] = np.argsort(XT[:, :n], axis=1, kind="stable")
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


def _split_nodes(XT, y, order, size, sy, cands) -> tuple:
    """Best split of each node of one depth, from presorted columns.

    Node i holds positions ``a:a + size[i]`` of every row of order (see
    ``_presort``): its rows by value in each column, and in ascending order
    in the last row.  ``order[:, -1]`` is the sentinel, and y carries its
    zero response last.  sy[i] is the sum of node i's responses in
    ascending row order, and cands (nodes, P) marks the columns node i may
    split on.  Each node's children's SSE is scored at every midpoint of
    consecutive distinct values, from prefix sums that start at zero.
    Returns (coord, threshold, score) per node; coord is -1 where the node
    has no candidate, its responses are constant or no split strictly
    improves on the parent SSE.  Ties go to the smallest (coord, threshold).
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
        nr = np.maximum(k - nl, 1.0)  # padding positions are never admissible
        step = max(1, _BLOCK // pos.size)
        for c0 in range(0, P, step):
            cols = np.arange(c0, min(c0 + step, P))
            R = np.take(order[cols[0]:cols[-1] + 1], pos, axis=1)
            xo = np.take(XT, R + (stride * cols)[:, None, None])
            yo = np.take(y, R)
            cy = np.cumsum(yo, axis=2)
            yo *= yo
            cy2 = np.cumsum(yo, axis=2)
            lo, hi = xo[..., :-1], xo[..., 1:]
            z = lo + hi
            z *= 0.5
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
            # a midpoint that rounds onto an endpoint would leave a child empty
            ok = lo < z
            ok &= z < hi
            score[~ok] = np.inf
            # first minimum = smallest threshold; score and z are contiguous
            j = np.argmin(score, axis=2)
            j += score.shape[2] * np.arange(j.size).reshape(j.shape)
            best[nodes[:, None], cols] = np.take(score, j).T
            cut[nodes[:, None], cols] = np.take(z, j).T
    best[~cands] = np.inf
    col = np.argmin(best, axis=1)  # first minimum = smallest coordinate
    i = np.arange(size.size)
    score = best[i, col]
    split = live & (score < parent)
    return np.where(split, col, -1), np.where(split, cut[i, col], np.nan), score


def best_split(features: np.ndarray, responses: np.ndarray,
               candidates: Optional[Sequence[int]] = None):
    """Greedy split of a cell's points over candidate flat coordinates.

    features is (k, P) in time-major layout; candidates holds flat
    column indices (default: all).  Returns ``(coord, threshold, score)``
    for the split minimizing child SSE, or None when the responses are
    constant or no split strictly improves on the parent SSE.  Ties are
    broken toward the smallest (coord, threshold).  This is the one-node
    case of the kernel that tree growth runs on each depth.
    """
    features = np.asarray(features, dtype=np.float64)
    y = np.asarray(responses, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] != y.size:
        raise ValueError("features must be (k, P) aligned with responses")
    if y.size < 2:
        return None
    cands = np.zeros((1, features.shape[1]), dtype=bool)
    cands[0, slice(None) if candidates is None else np.asarray(candidates, dtype=np.intp)] = True
    XT, order = _presort(features)
    coord, z, score = _split_nodes(XT, np.append(y, 0.0), order, np.array([y.size]),
                                   np.add.reduce(y), cands)
    if coord[0] < 0:
        return None
    return int(coord[0]), float(z[0]), float(score[0])


def _candidates(rng: Generator, P: int, features, can: np.ndarray) -> np.ndarray:
    """The (nodes, P) mask of split columns: none where can is False.

    When features < P, each node that can split draws its own columns
    from rng, in node order.
    """
    if features == "all" or features >= P:
        return np.repeat(can[:, None], P, axis=1)
    mask = np.zeros((can.size, P), dtype=bool)
    for i in np.flatnonzero(can):
        mask[i, rng.choice(P, size=features, replace=False)] = True
    return mask


def _allocation_order(levels: list, dims) -> RegressionTree:
    """Number level-wise nodes as depth-first, left-first growth allocates them.

    levels[d] holds (feature, threshold, value, count) of the nodes at
    depth d: the children of the split nodes of depth d-1, in pairs.  The
    i-th split node in preorder gets children 2i+1 and 2i+2.
    """
    split = [lv[0] != _LEAF for lv in levels]
    inner = [None] * len(levels)  # split nodes in each node's subtree
    below = np.zeros(0, dtype=np.intp)
    for d in range(len(levels) - 1, -1, -1):
        s = split[d].astype(np.intp)
        s[split[d]] += below[0::2] + below[1::2]
        inner[d] = below = s
    pre = np.zeros(1, dtype=np.intp)  # split nodes before each node in preorder
    ids = [np.zeros(1, dtype=np.intp)]
    for d in range(len(levels) - 1):
        r = pre[split[d]]
        pre = np.repeat(r + 1, 2)
        pre[1::2] += inner[d + 1][0::2]
        ids.append((2 * r[:, None] + np.array([1, 2])).ravel())
    n = sum(i.size for i in ids)
    feature = np.empty(n, dtype=np.int32)
    threshold = np.empty(n)
    value = np.empty(n)
    count = np.empty(n, dtype=np.int64)
    left = np.full(n, -1, dtype=np.int32)
    right = np.full(n, -1, dtype=np.int32)
    for d, (f, t, v, c) in enumerate(levels):
        at = ids[d]
        feature[at], threshold[at], value[at], count[at] = f, t, v, c
        if d + 1 < len(levels):
            left[at[split[d]]] = ids[d + 1][0::2]
            right[at[split[d]]] = ids[d + 1][1::2]
    return RegressionTree(feature=feature, threshold=threshold, left=left, right=right,
                          value=value, count=count, dims=dims)


def _grow_tree(X: np.ndarray, responses, cfg: TreeConfig, dims: tuple,
               rng: Optional[Generator] = None) -> RegressionTree:
    """Grow a tree one depth at a time on time-major rows X (k, P).

    Each column of X is argsorted once.  Every node keeps its rows as a
    stable subsequence of each column's order and of the ascending order,
    so all nodes of a depth are scored together by ``_split_nodes`` and
    their children are regrouped without sorting again.  At the end the
    nodes are numbered in the order depth-first, left-first growth
    allocates them.  The ensembles call this directly.
    """
    y = np.asarray(responses, dtype=np.float64)
    if y.shape != (X.shape[0],):
        raise ValueError("responses must be a vector with one entry per path")
    if not np.isfinite(y).all():
        raise ValueError("responses contain non-finite entries")
    if rng is None:
        rng = Generator(Philox(SeedSequence(cfg.seed)))
    n, P = X.shape
    XT, order = _presort(X)
    y = np.append(y, 0.0)  # the sentinel's response
    size = np.array([n])
    levels = []
    for depth in itertools.count():
        rows = order[P, :int(size.sum())]
        start = np.cumsum(size) - size
        ys = y[rows]
        sums = np.array([np.add.reduce(ys[a:a + k])
                         for a, k in zip(start.tolist(), size.tolist())])
        feature = np.full(size.size, _LEAF)
        threshold = np.full(size.size, np.nan)
        levels.append((feature, threshold, sums / np.maximum(size, 1), size))
        can = (size >= cfg.nodesize) & (cfg.max_depth is None or depth < cfg.max_depth)
        if not can.any():
            break
        coord, z, _ = _split_nodes(XT, y, order, size, sums,
                                   _candidates(rng, P, cfg.features, can))
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
        order, size = grouped, kids
    return _allocation_order(levels, dims)


def fit_tree(sample, responses, cfg: TreeConfig = TreeConfig(),
             rng: Optional[Generator] = None) -> RegressionTree:
    """Grow a regression tree on driver paths against responses.

    sample may be a DriverSample or an (n, d, T) array; responses must
    be finite with one entry per path.
    """
    X, dims = _training_points(sample)
    return _grow_tree(X, responses, cfg, dims, rng)


def _predict_points(tree: RegressionTree, X: np.ndarray) -> np.ndarray:
    """Route time-major rows X (k, P) to their leaves; one value per row."""
    node = np.zeros(X.shape[0], dtype=np.int32)
    active = tree.feature[node] != _LEAF
    while active.any():
        rows = np.flatnonzero(active)
        cur = node[rows]
        f = tree.feature[cur]
        go_left = X[rows, f] <= tree.threshold[cur]
        node[rows] = np.where(go_left, tree.left[cur], tree.right[cur])
        active[rows] = tree.feature[node[rows]] != _LEAF
    return tree.value[node]


def predict_tree(tree: RegressionTree, x) -> np.ndarray | float:
    """Evaluate the fitted function at x, in any layout _as_points reads.

    A single point returns a float; other inputs return one value per
    row.
    """
    X, single = _as_points(x, tree.dims)
    out = _predict_points(tree, X)
    return float(out[0]) if single else out
