"""Flat (cells, values) form of tree models and its (de)serialization.

Any single tree, forest, or boosted model is an affine combination of
tree predictors, so it can be rewritten as

    f(x) = sum_i  values[i] * 1{x in cells[i]},

where the cells are half-open hyperrectangles.  This form is what makes
conditional expectations computable in closed form: each cell factorizes
across periods, so its conditional probability is a product of
per-period rectangle probabilities.

Cells are stored as time-major bound arrays ``lo`` / ``hi`` of shape
(N, P) with P = d*T, the layout ``RegressionTree.leaf_cells`` returns
and ``weighted_membership`` reads (column s*d + j bounds asset j of
period s+1); -inf / +inf mark unbounded sides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cart import RegressionTree, _as_points, _time_major

_TEXT_HEADER = "treeval-flat 1"


@dataclass(frozen=True)
class FlatEnsemble:
    """Weighted-indicator form of a tree model.

    Attributes
    ----------
    lo, hi : ndarray, shape (N, d*T)
        Time-major cell bounds; membership is ``lo < x <= hi``
        componentwise on a time-major point row x.
    values : ndarray, shape (N,)
        Cell weights.  Cells from one source tree partition the space,
        and cells of different trees may overlap.
    dims : (d, T)
    """

    lo: np.ndarray
    hi: np.ndarray
    values: np.ndarray
    dims: tuple

    def __post_init__(self):
        d, T = self.dims
        shape = (self.values.size, d * T)
        if self.lo.shape != shape or self.hi.shape != shape:
            raise ValueError("cell bounds must have shape (N, d*T)")
        if not (self.lo < self.hi).all():
            raise ValueError("cells require lower < upper componentwise")
        if not np.isfinite(self.values).all():
            raise ValueError("cell values must be finite")

    @property
    def n_cells(self) -> int:
        return self.values.size


def flatten_tree(tree: RegressionTree) -> FlatEnsemble:
    """Leaf partition of a single tree as a FlatEnsemble."""
    lo, hi, val, _ = tree.leaf_cells()
    return FlatEnsemble(lo=lo, hi=hi, values=val.copy(), dims=tree.dims)


def flatten_forest(forest) -> FlatEnsemble:
    """Concatenated leaf partitions of all trees, each weighted by 1/M."""
    trees = forest.trees
    m = len(trees)
    parts = [t.leaf_cells() for t in trees]
    lo = np.concatenate([p[0] for p in parts])
    hi = np.concatenate([p[1] for p in parts])
    val = np.concatenate([p[2] for p in parts]) / m
    return FlatEnsemble(lo=lo, hi=hi, values=val, dims=trees[0].dims)


def flatten_boost(boost) -> FlatEnsemble:
    """Boosted model as base-value cell plus scaled residual-tree cells.

    The base value occupies the full space; each round contributes its
    leaf cells scaled by -learning_rate * gamma_t (the model subtracts
    fitted residuals).
    """
    d, T = boost.dims
    los = [np.full((1, d * T), -np.inf)]
    his = [np.full((1, d * T), np.inf)]
    vals = [np.array([boost.base_value])]
    for tree, gamma in zip(boost.trees, boost.gammas):
        lo, hi, val, _ = tree.leaf_cells()
        los.append(lo)
        his.append(hi)
        vals.append(val * (-boost.learning_rate * gamma))
    return FlatEnsemble(lo=np.concatenate(los), hi=np.concatenate(his),
                        values=np.concatenate(vals), dims=boost.dims)


def flatten_model(model) -> FlatEnsemble:
    """Dispatch on the fitted model type."""
    if isinstance(model, RegressionTree):
        return flatten_tree(model)
    if hasattr(model, "trees") and hasattr(model, "gammas"):
        return flatten_boost(model)
    if hasattr(model, "trees"):
        return flatten_forest(model)
    raise TypeError(f"cannot flatten object of type {type(model).__name__}")


def weighted_membership(ptf: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                        weights: np.ndarray, n_coords: int,
                        point_chunk: int = 1024, cell_chunk: int = 8192) -> np.ndarray:
    """sum_i weights[i] 1{lo_i < x <= hi_i on the first n_coords columns}.

    ptf is (k, P) flat points, lo / hi are (N, P) flat bounds.  Chunked
    over both points and cells so the boolean membership block stays a
    few megabytes regardless of problem size.
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


def evaluate_flat(fe: FlatEnsemble, x) -> np.ndarray | float:
    """Evaluate sum_i values[i] 1{x in cell_i} at points x.

    x may be in any layout ``cart._as_points`` reads; a single point
    returns a float.
    """
    X, single = _as_points(x, fe.dims)
    out = weighted_membership(X, fe.lo, fe.hi, fe.values, X.shape[1])
    return float(out[0]) if single else out


def save_flat(fe: FlatEnsemble, path) -> None:
    """Binary round-trip via compressed npz."""
    np.savez_compressed(path, lo=fe.lo, hi=fe.hi, values=fe.values,
                        dims=np.asarray(fe.dims, dtype=np.int64))


def load_flat(path) -> FlatEnsemble:
    """Read save_flat output, including files that store (N, d, T) lows / highs."""
    with np.load(path) as z:
        dims = tuple(int(v) for v in z["dims"])
        if "lows" in z:
            lo, hi = _time_major(z["lows"]), _time_major(z["highs"])
        else:
            lo, hi = z["lo"], z["hi"]
        return FlatEnsemble(lo=lo, hi=hi, values=z["values"], dims=dims)


def write_flat_text(fe: FlatEnsemble, path) -> None:
    """Plain-text form: header line, dims line, then one cell per line.

    Each cell line is ``value a_1 b_1 a_2 b_2 ...`` over flat coordinates
    in time-major order, with unbounded sides written as -inf / inf.
    Floats are written with repr precision so the round trip is exact.
    """
    lo, hi = fe.lo, fe.hi
    d, T = fe.dims
    with open(path, "w") as fh:
        fh.write(_TEXT_HEADER + "\n")
        fh.write(f"{d} {T} {fe.n_cells}\n")
        for i in range(fe.n_cells):
            parts = [repr(float(fe.values[i]))]
            for c in range(d * T):
                parts.append(repr(float(lo[i, c])))
                parts.append(repr(float(hi[i, c])))
            fh.write(" ".join(parts) + "\n")


def read_flat_text(path) -> FlatEnsemble:
    with open(path) as fh:
        header = fh.readline().strip()
        if header != _TEXT_HEADER:
            raise ValueError(f"unrecognized flat-ensemble header: {header!r}")
        d, T, n = (int(v) for v in fh.readline().split())
        vals = np.empty(n)
        lo = np.empty((n, d * T))
        hi = np.empty((n, d * T))
        for i in range(n):
            row = fh.readline().split()
            if len(row) != 1 + 2 * d * T:
                raise ValueError(f"cell line {i} has {len(row)} fields, expected {1 + 2 * d * T}")
            vals[i] = float(row[0])
            rest = np.asarray(row[1:], dtype=np.float64)
            lo[i] = rest[0::2]
            hi[i] = rest[1::2]
    return FlatEnsemble(lo=lo, hi=hi, values=vals, dims=(d, T))
