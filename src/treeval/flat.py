"""Flat (cells, values) form of tree models and its (de)serialization.

Any single tree, forest, or boosted model is an affine combination of
tree predictors, so it can be rewritten as

    f(x) = sum_i  values[i] * 1{x in cells[i]},

where the cells are half-open hyperrectangles.  This form is what makes
conditional expectations computable in closed form: each cell factorizes
across periods, so its conditional probability is a product of
per-period rectangle probabilities.

Cells are stored as time-major bound arrays ``lo`` / ``hi`` of shape
(N, P) with P = d*T, the layout ``cart._leaf_cells`` returns
and ``membership_sums`` reads (column s*d + j bounds asset j of
period s+1); -inf / +inf mark unbounded sides.

``membership_sums`` is the one cell-evaluation kernel: plain
evaluation and every conditional value, all dates in one pass, are
weighted membership sums.  It is a range-encoded bitmap index over the
cells rather than a comparison of every point with every bound.  Per
column, the distinct finite bounds b of a chunk of cells are ranked
once; a cell becomes the code interval [l, h] with
l = searchsorted(b, lo) + 1 (0 for -inf) and
h = searchsorted(b, hi) (len(b) for +inf), and a point the code
j = searchsorted(b, x), the count of bounds below x.  As lo = b[l-1],
x > lo exactly when at least l bounds lie below x; as hi = b[h],
x <= hi exactly when at most h do; for finite x the infinite sides
hold for every j.  So lo < x <= hi exactly when l <= j <= h, one
packed bit row per code answers the column test for every cell, and a
point's membership is the AND of its rows over the observed columns.
Only comparisons decide the codes, so -0.0 and +0.0 share a code.  The
bits are unpacked into the same boolean blocks a dense comparison
builds and summed in the same order, so values keep every bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cart import RegressionTree, _as_points, _distinct, _leaf_cells
from .ensemble import FittedBoost, FittedForest

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


def flatten_model(model) -> FlatEnsemble:
    """The cells of a fitted tree, forest or boost, with their weights.

    A forest's leaf cells are weighted by 1/M, and a tree takes the same
    rule as a forest of one (``val / 1`` is exact).  A boost is a
    base-value cell over the full space plus each round's leaf cells
    scaled by -learning_rate * gamma_t (the model subtracts fitted
    residuals).  Raises TypeError for any other object.
    """
    if isinstance(model, FittedBoost):
        d, T = model.dims
        lo, hi = np.full((1, d * T), -np.inf), np.full((1, d * T), np.inf)
        val = np.array([model.base_value])
        if model.trees:
            tlo, thi, tval, _ = _leaf_cells(model.trees)
            scale = np.repeat([-model.config.learning_rate * gamma for gamma in model.gammas],
                              [t.n_leaves for t in model.trees])
            lo, hi = np.concatenate([lo, tlo]), np.concatenate([hi, thi])
            val = np.concatenate([val, tval * scale])
        return FlatEnsemble(lo=lo, hi=hi, values=val, dims=model.dims)
    if isinstance(model, (FittedForest, RegressionTree)):
        trees = model.trees if isinstance(model, FittedForest) else (model,)
        lo, hi, val, _ = _leaf_cells(trees)
        return FlatEnsemble(lo=lo, hi=hi, values=val / len(trees), dims=model.dims)
    raise TypeError(f"cannot flatten object of type {type(model).__name__}")


def _interval_rows(l: np.ndarray, h: np.ndarray, n_codes: int) -> np.ndarray:
    """Bit rows of the code intervals: row r has bit i set iff l[i] <= r <= h[i].

    Returns (n_codes, ceil(N/64)) uint64 words whose bytes, read in
    memory order, are ``np.packbits`` rows (cell i is bit 7 - i % 8 of
    byte i // 8).  Each cell toggles its bit at rows l and h + 1 of a
    delta table; a cumulative XOR down the rows then sets it exactly on
    l..h, so only the packed table is ever allocated.
    """
    n = l.size
    delta = np.zeros((n_codes + 1, 8 * ((n + 63) // 64)), dtype=np.uint8)
    cells = np.arange(n)
    bits = (0x80 >> (cells & 7)).astype(np.uint8)
    np.bitwise_xor.at(delta, (l, cells >> 3), bits)
    np.bitwise_xor.at(delta, (h + 1, cells >> 3), bits)
    words = delta.view(np.uint64)
    np.bitwise_xor.accumulate(words, axis=0, out=words)
    return words[:-1]


# points and cells per block of membership_sums, and points per gather of
# a column's bit rows into the membership
_POINT_CHUNK = 128
_CELL_CHUNK = 8192
_AND_CHUNK = 1024


def membership_sums(ptf: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                    weights: np.ndarray, stops) -> np.ndarray:
    """out[:, j] = sum_i weights[j, i] 1{lo_i < x <= hi_i on the first stops[j] columns}.

    ptf is (k, P) finite flat points, as ``cart._as_points`` returns
    them; lo / hi are (N, P') flat bounds with lo < hi; weights is
    (m, N), one row per stop, and stops are m nondecreasing column
    counts in 0..min(P, P').  Cells are taken _CELL_CHUNK at a time and
    points a whole number of _POINT_CHUNK blocks, about _CELL_CHUNK of
    them, at a time, so memory stays bounded for any k, and at most one
    column's interval table is held.  Per point span and cell chunk the
    packed membership starts at all ones and ANDs each column's rows
    (the codes of the module docstring) once, in ascending order,
    gathering the rows of _AND_CHUNK points at a time.  At
    each stop, each (point block x cell block) of bits is unpacked into
    the boolean block that comparing every bound gives, and its product
    with the stop's weights is added to the points' sums cell block
    after cell block: each sum keeps the operands and the order of that
    dense kernel, and so its bits, whatever the other stops are.

    numpy casts each boolean block to a float64 copy before the product,
    so the point block sets the kernel's working set: a 1 MB boolean
    block and its 8 MB copy at 128 x 8192 cells.  With one BLAS thread
    the point block size, a multiple of four, does not change the bits
    of a point in a block of two or more rows: OpenBLAS ``dgemv`` sums a
    block's rows four at a time and its last len % 4 rows by a kernel
    that len % 4 alone selects.  A block of one row is a dot product,
    summed in another order, so when k = 1 (mod _POINT_CHUNK) the last
    point may differ in its last bits from a run with another size.
    """
    stops = list(stops)
    k, n = ptf.shape[0], lo.shape[0]
    if weights.shape != (len(stops), n):
        raise ValueError(f"weights must have shape ({len(stops)}, {n}), got {weights.shape}")
    limit = min(ptf.shape[1], lo.shape[1])
    if any(b < a for a, b in zip([0] + stops, stops + [limit])):
        raise ValueError(f"stops must be nondecreasing in 0..{limit}, got {stops}")
    out = np.zeros((k, len(stops)))
    span = _POINT_CHUNK * max(1, _CELL_CHUNK // _POINT_CHUNK)
    for pa in range(0, k, span):
        pb = min(pa + span, k)
        for ca in range(0, n, _CELL_CHUNK):
            cb = min(ca + _CELL_CHUNK, n)
            member = np.full((pb - pa, (cb - ca + 63) // 64), ~np.uint64(0))
            for j, (start, stop) in enumerate(zip([0] + stops, stops)):
                for c in range(start, stop):  # b: the column's distinct finite bounds
                    lo_c, hi_c = lo[ca:cb, c], hi[ca:cb, c]
                    bounds = np.concatenate([lo_c, hi_c])
                    b = _distinct(bounds[np.isfinite(bounds)])
                    l = np.where(lo_c == -np.inf, 0, np.searchsorted(b, lo_c) + 1)
                    rows = _interval_rows(l, np.searchsorted(b, hi_c), b.size + 1)
                    codes = np.searchsorted(b, ptf[pa:pb, c])
                    for qa in range(0, pb - pa, _AND_CHUNK):
                        member[qa:qa + _AND_CHUNK] &= rows[codes[qa:qa + _AND_CHUNK]]
                for qa in range(pa, pb, _POINT_CHUNK):
                    qb = min(qa + _POINT_CHUNK, pb)
                    # no view of member outlives its cell chunk
                    inside = np.unpackbits(member[qa - pa:qb - pa].view(np.uint8), axis=1,
                                           count=cb - ca)
                    out[qa:qb, j] += inside.view(bool) @ weights[j, ca:cb]
    return out


def evaluate_flat(fe: FlatEnsemble, x) -> np.ndarray:
    """sum_i values[i] 1{x in cell_i} at each point of a (k, d, T) batch x; shape (k,)."""
    X = _as_points(x, fe.dims)
    return membership_sums(X, fe.lo, fe.hi, fe.values[None], [X.shape[1]])[:, 0]


def save_flat(fe: FlatEnsemble, path) -> None:
    """Binary round-trip via compressed npz."""
    np.savez_compressed(path, lo=fe.lo, hi=fe.hi, values=fe.values,
                        dims=np.asarray(fe.dims, dtype=np.int64))


def load_flat(path) -> FlatEnsemble:
    """Read save_flat output."""
    with np.load(path) as z:
        return FlatEnsemble(lo=z["lo"], hi=z["hi"], values=z["values"],
                            dims=tuple(int(v) for v in z["dims"]))


def _reprs(a: np.ndarray) -> np.ndarray:
    """``repr`` of every float of a, as an object array of a's shape.

    Each distinct bit pattern is formatted once, so -0.0 stays apart from 0.0.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    bits, inverse = np.unique(a.view(np.int64), return_inverse=True)
    words = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
    return words[inverse].reshape(a.shape)


def write_flat_text(fe: FlatEnsemble, path) -> None:
    """Plain-text form: header line, dims line, then one cell per line.

    Each cell line is ``value a_1 b_1 a_2 b_2 ...`` over flat coordinates
    in time-major order, with unbounded sides written as -inf / inf.
    Floats are written with repr precision, so each word parses back to
    its float bit for bit.
    """
    d, T = fe.dims
    rows = np.empty((fe.n_cells, 1 + 2 * d * T))
    rows[:, 0] = fe.values
    rows[:, 1::2] = fe.lo
    rows[:, 2::2] = fe.hi
    lines = _reprs(rows).tolist()
    with open(path, "w") as fh:
        fh.write(_TEXT_HEADER + "\n")
        fh.write(f"{d} {T} {fe.n_cells}\n")
        fh.writelines(" ".join(row) + "\n" for row in lines)
