"""Regression trees on driver paths with hyperrectangular leaf cells.

A tree is grown greedily: each split minimizes the summed squared error
of the two children over all coordinates ``(j, s)`` (asset j, period s)
and midpoint thresholds of consecutive distinct observed values.  Leaves
carry the mean response of their training points, so the fitted function
is piecewise constant on a partition of R^{d x T} into half-open
hyperrectangles ``prod (a_{j,s}, b_{j,s}]``.

Every point and every cell bound is stored time-major: a path with d
assets over T periods is a row of P = d*T columns, and column
``c = s*d + j`` holds asset j of period s+1.  The first ``t*d`` columns
therefore describe the first t periods, which is what conditional
valuation slices on.  ``_as_points`` is the one place where the other
accepted layouts (a DriverSample, (k, d, T) batches, a single (d, T)
point) are turned into these rows; everything past it works on (k, P).
"""

from __future__ import annotations

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
        Optional depth cap; growth is depth-first.
    features
        Number of coordinates drawn uniformly without replacement as
        split candidates at each cell, or "all".
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


def _scan_column(xs: np.ndarray, y: np.ndarray):
    """Best midpoint split of one coordinate.

    Returns (score, threshold) minimizing the summed squared error of
    the two children, or None when no valid threshold exists.  Ties go
    to the smallest threshold.
    """
    order = np.argsort(xs, kind="stable")
    xo = xs[order]
    yo = y[order]
    cy = np.cumsum(yo)
    cy2 = np.cumsum(yo * yo)
    k = y.size
    idx = np.flatnonzero(xo[:-1] != xo[1:])
    if idx.size == 0:
        return None
    z = 0.5 * (xo[idx] + xo[idx + 1])
    # midpoints that round onto an endpoint would produce an empty child
    ok = (xo[idx] < z) & (z < xo[idx + 1])
    idx, z = idx[ok], z[ok]
    if idx.size == 0:
        return None
    nl = idx + 1.0
    nr = k - nl
    sl, sl2 = cy[idx], cy2[idx]
    sr, sr2 = cy[-1] - sl, cy2[-1] - sl2
    score = (sl2 - sl * sl / nl) + (sr2 - sr * sr / nr)
    m = int(np.argmin(score))  # first minimum = smallest threshold
    return float(score[m]), float(z[m])


def best_split(features: np.ndarray, responses: np.ndarray,
               candidates: Optional[Sequence[int]] = None):
    """Greedy split of a cell's points over candidate flat coordinates.

    features is (k, P) in time-major layout; candidates holds flat
    column indices (default: all).  Returns ``(coord, threshold, score)``
    for the split minimizing child SSE, or None when the responses are
    constant or no split strictly improves on the parent SSE.  Ties are
    broken toward the smallest (coord, threshold).
    """
    features = np.asarray(features, dtype=np.float64)
    y = np.asarray(responses, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] != y.size:
        raise ValueError("features must be (k, P) aligned with responses")
    if y.size < 2 or y.min() == y.max():
        return None
    cols = np.arange(features.shape[1]) if candidates is None else np.sort(np.asarray(candidates))
    sy = float(np.sum(y))
    sy2 = float(np.sum(y * y))
    parent = sy2 - sy * sy / y.size
    best = None
    for c in cols:
        hit = _scan_column(features[:, c], y)
        if hit is None:
            continue
        score, z = hit
        if best is None or score < best[2]:
            best = (int(c), z, score)
    if best is None or not best[2] < parent:
        return None
    return best


class _NodeBuffer:
    """Append-only node storage during growth."""

    def __init__(self):
        self.feature = []
        self.threshold = []
        self.left = []
        self.right = []
        self.value = []
        self.count = []

    def add_leaf(self, value: float, count: int) -> int:
        i = len(self.feature)
        self.feature.append(_LEAF)
        self.threshold.append(np.nan)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(value)
        self.count.append(count)
        return i

    def make_split(self, node: int, coord: int, z: float, left: int, right: int):
        self.feature[node] = coord
        self.threshold[node] = z
        self.left[node] = left
        self.right[node] = right

    def freeze(self, dims) -> RegressionTree:
        return RegressionTree(
            feature=np.asarray(self.feature, dtype=np.int32),
            threshold=np.asarray(self.threshold, dtype=np.float64),
            left=np.asarray(self.left, dtype=np.int32),
            right=np.asarray(self.right, dtype=np.int32),
            value=np.asarray(self.value, dtype=np.float64),
            count=np.asarray(self.count, dtype=np.int64),
            dims=dims,
        )


def _leaf_value(y: np.ndarray) -> float:
    return float(np.mean(y)) if y.size else 0.0


def _candidate_cols(rng: Generator, P: int, features) -> Optional[np.ndarray]:
    if features == "all" or features >= P:
        return None
    return np.sort(rng.choice(P, size=features, replace=False))


def _grow_tree(X: np.ndarray, responses, cfg: TreeConfig, dims: tuple,
               rng: Optional[Generator] = None) -> RegressionTree:
    """Grow a tree depth-first (left child first) on time-major rows X (k, P).

    The ensembles call this directly.
    """
    y = np.asarray(responses, dtype=np.float64)
    if y.shape != (X.shape[0],):
        raise ValueError("responses must be a vector with one entry per path")
    if not np.isfinite(y).all():
        raise ValueError("responses contain non-finite entries")
    if rng is None:
        rng = Generator(Philox(SeedSequence(cfg.seed)))
    P = X.shape[1]
    buf = _NodeBuffer()
    root = buf.add_leaf(_leaf_value(y), y.size)
    stack = [(root, np.arange(y.size), 0)]
    while stack:
        node, rows, depth = stack.pop()
        if rows.size < cfg.nodesize:
            continue
        if cfg.max_depth is not None and depth >= cfg.max_depth:
            continue
        cols = _candidate_cols(rng, P, cfg.features)
        hit = best_split(X[rows], y[rows], cols)
        if hit is None:
            continue
        coord, z, _ = hit
        go_left = X[rows, coord] <= z
        lrows, rrows = rows[go_left], rows[~go_left]
        li = buf.add_leaf(_leaf_value(y[lrows]), lrows.size)
        ri = buf.add_leaf(_leaf_value(y[rrows]), rrows.size)
        buf.make_split(node, coord, z, li, ri)
        stack.append((ri, rrows, depth + 1))
        stack.append((li, lrows, depth + 1))
    return buf.freeze(dims)


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
