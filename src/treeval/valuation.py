"""Closed-form dynamic valuation of flattened tree models.

For a model f(x) = sum_i v_i 1{x in A_i} with product cells
A_i = prod_s A_{i,s}, the conditional expectation given the first t
periods is available in closed form:

    V_t(x_1..x_t) = sum_i v_i * 1{x_s in A_{i,s}, s <= t}
                           * prod_{s > t} Q_s[A_{i,s}].

Q_s is the law of the period-s driver, the independent N(0, 1)
coordinates that ``paths.sample_driver`` draws, so Q_s[A_{i,s}] is a
product of normal cdf differences.  Cash flows are sampled from that
law, and the closed form is their conditional expectation only under
it; no other law can be chosen.

Evaluating V_t therefore costs one membership test on the observed
prefix plus precomputed per-period cell probabilities; no nested
simulation is involved.  One ``flat.membership_sums`` call values all
dates of a call, coding each prefix column once.  t = 0 uses the empty
prefix (membership 1) and t = T has an empty probability tail
(product 1), which reduces to plain model evaluation on the full path.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cart import _as_points
from .flat import FlatEnsemble, _reprs, membership_sums
from .paths import ndtr

# scenarios formatted per write in ValueSurface.to_csv; bounds the row strings held at once
_CSV_BLOCK = 512


def period_prob_matrix(fe: FlatEnsemble) -> np.ndarray:
    """Per-cell per-period slice probabilities under N(0, 1) drivers, shape (N, T).

    Column s is the product over coordinates j, left to right, of
    Phi(hi) - Phi(lo) for the cell's period-s bounds.
    """
    d, T = fe.dims
    edges = np.maximum(ndtr(fe.hi) - ndtr(fe.lo), 0.0).reshape(-1, T, d)
    probs = np.ones((fe.n_cells, T))
    for j in range(d):
        probs *= edges[:, :, j]
    return probs


def tail_products(probs: np.ndarray) -> np.ndarray:
    """tails[:, t] = prod over columns t.. of probs; tails[:, T] = 1."""
    n, T = probs.shape
    tails = np.ones((n, T + 1))
    for t in range(T - 1, -1, -1):
        tails[:, t] = tails[:, t + 1] * probs[:, t]
    return tails


def _checked_dates(dates, T: int, what: str = "dates") -> tuple:
    """dates as ints; ValueError naming what unless each is an integer, not a bool, in 0..T."""
    if not all(isinstance(t, numbers.Integral) and not isinstance(t, bool) for t in dates):
        raise ValueError(f"{what} must be integers, got {list(dates)}")
    if any(not 0 <= t <= T for t in dates):
        raise ValueError(f"{what} must lie in 0..{T}, got {list(dates)}")
    return tuple(int(t) for t in dates)


def _values(fe: FlatEnsemble, dates: tuple, X: np.ndarray) -> np.ndarray:
    """(k, len(dates)) values at checked dates of the k points X, in one kernel call."""
    tails = tail_products(period_prob_matrix(fe))
    later = sorted({t for t in dates if t > 0})
    stops = [t * fe.dims[0] for t in later]
    sums = membership_sums(X, fe.lo, fe.hi, fe.values * tails.T[later], stops)
    out = np.empty((X.shape[0], len(dates)))
    for col, t in enumerate(dates):
        out[:, col] = (fe.values * tails[:, 0]).sum() if t == 0 else sums[:, later.index(t)]
    return out


def value_at(fe: FlatEnsemble, t: int, prefix=None) -> float:
    """Conditional value at date t given the observed driver prefix.

    prefix is the first t periods of one path, a (d, t) array, valued
    as a batch of one (ignored for t = 0).  Dates follow value_surface's
    rule.
    """
    d, T = fe.dims
    (t,) = _checked_dates((t,), T)
    if t > 0 and prefix is None:
        raise ValueError("dates t >= 1 require the observed prefix")
    X = _as_points([prefix], (d, t)) if t else np.empty((1, 0))
    return float(_values(fe, (t,), X)[0, 0])


@dataclass(frozen=True)
class ValueSurface:
    """Conditional values of a model along scenarios at selected dates."""

    dates: tuple
    values: np.ndarray  # (n_scenarios, len(dates))

    def __post_init__(self):
        if np.ndim(self.values) != 2 or np.shape(self.values)[1] != len(self.dates):
            raise ValueError(f"values must have shape (n, {len(self.dates)}), one column per date")

    def column(self, t: int) -> np.ndarray:
        return self.values[:, self.dates.index(t)]

    def to_csv(self, path) -> None:
        """Long-format rows ``scenario_id,t,value``, scenario-major, CRLF-terminated.

        Values are written as ``repr`` of the float, which reads back exactly.
        """
        heads = [f",{t}," for t in self.dates]
        with open(path, "w", newline="") as fh:
            fh.write("scenario_id,t,value")
            for start in range(0, len(self.values), _CSV_BLOCK):
                rows = _reprs(self.values[start:start + _CSV_BLOCK]).tolist()
                fh.write("".join(f"\r\n{i}{head}{word}" for i, row in enumerate(rows, start)
                                 for head, word in zip(heads, row)))
            fh.write("\r\n")


def value_surface(fe: FlatEnsemble, dates: Sequence[int], scenarios) -> ValueSurface:
    """Conditional values at each date along each scenario path.

    scenarios is a (k, d, T) batch of full driver paths; date t uses
    only the first t periods of each path.  Dates must be integers in
    0..T, in any order and repeated or not.  Cell probabilities are
    computed once, and one kernel pass values every date, coding each
    column once.
    """
    dates = _checked_dates(dates, fe.dims[1])
    X = _as_points(scenarios, fe.dims)
    return ValueSurface(dates=dates, values=_values(fe, dates, X))
