"""Rectangle probabilities of the driver law and of normal intervals.

Conditional valuation needs, for every period s and cell slice
``(a_s, b_s]`` in R^d, the probability ``Q_s[(a_s, b_s]]``.  Two
families are supported:

* ProductMeasure: independent coordinates, probability is the product
  of marginal cdf differences.
* CopulaMeasure: joint cdf C(F_1(x_1), ..., F_d(x_d)); the rectangle
  probability is the 2^d signed corner sum (inclusion-exclusion).

``normal_interval_prob`` gives the one-dimensional normal interval
probability that the Bermudan cell sum multiplies across independent
coordinates.  Bounds use -inf / +inf for unbounded sides throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

# Corner sums cost 2^d cdf passes per cell and period; 16 keeps one
# period_probs call over a few thousand cells within minutes.
_MAX_CORNER_DIM = 16


# ---------------------------------------------------------------- marginals

@dataclass(frozen=True)
class NormalMarginal:
    """N(mu, sigma^2) marginal."""

    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    def cdf(self, x):
        return ndtr((np.asarray(x, dtype=np.float64) - self.mu) / self.sigma)


@dataclass(frozen=True)
class UniformMarginal:
    """Uniform(a, b) marginal."""

    a: float = 0.0
    b: float = 1.0

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError("uniform marginal requires a < b")

    def cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.clip((x - self.a) / (self.b - self.a), 0.0, 1.0)


def _marginal_grid(marginals, d: int, T: int):
    """Normalize marginal input to a [j][s] nested tuple."""
    if hasattr(marginals, "cdf"):
        return tuple(tuple(marginals for _ in range(T)) for _ in range(d))
    grid = tuple(tuple(row) for row in marginals)
    if len(grid) != d or any(len(row) != T for row in grid):
        raise ValueError("marginal grid must have shape [d][T]")
    return grid


# ----------------------------------------------------------------- copulas

@dataclass(frozen=True)
class IndependenceCopula:
    """C(u) = prod_j u_j."""

    def cdf(self, u: np.ndarray) -> np.ndarray:
        return np.prod(u, axis=-1)


@dataclass(frozen=True)
class ClaytonCopula:
    """Clayton copula C(u) = (sum_j u_j^-theta - d + 1)^(-1/theta), theta > 0."""

    theta: float

    def __post_init__(self):
        if self.theta <= 0:
            raise ValueError("theta must be positive")

    def cdf(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=np.float64)
        d = u.shape[-1]
        with np.errstate(divide="ignore"):
            s = np.power(u, -self.theta).sum(axis=-1) - d + 1.0
        # any u_j = 0 sends the sum to +inf and the copula to 0
        return np.power(s, -1.0 / self.theta)


def _corner_sum(copula, u_lo: np.ndarray, u_hi: np.ndarray) -> np.ndarray:
    """Inclusion-exclusion box probability from corner cdf values.

    u_lo / u_hi are (N, d) arrays of marginal cdf values at the cell
    bounds.  Cost is 2^d cdf calls; d > _MAX_CORNER_DIM is rejected.
    """
    n, d = u_lo.shape
    if d > _MAX_CORNER_DIM:
        raise ValueError(f"corner sum over 2^{d} corners rejected (d > {_MAX_CORNER_DIM}); "
                         f"the limit keeps the corner sum to at most 2^{_MAX_CORNER_DIM} "
                         "terms per cell and period")
    total = np.zeros(n)
    for mask in range(1 << d):
        pick_lo = np.array([(mask >> j) & 1 for j in range(d)], dtype=bool)
        corner = np.where(pick_lo[None, :], u_lo, u_hi)
        sign = -1.0 if int(pick_lo.sum()) % 2 else 1.0
        total += sign * copula.cdf(corner)
    # roundoff can leave tiny negatives on thin cells
    bad = total < -1e-12
    if bad.any():
        raise ValueError("corner sum produced a materially negative probability")
    return np.clip(total, 0.0, 1.0)


# ------------------------------------------------------- product / copula Q

@dataclass(frozen=True)
class ProductMeasure:
    """Law of the driver with independent coordinates per period.

    ``grid[j][s]`` is the marginal of coordinate j in period s+1.
    """

    grid: tuple
    dims: tuple

    @classmethod
    def standard_normal(cls, d: int, T: int) -> "ProductMeasure":
        return cls(grid=_marginal_grid(NormalMarginal(), d, T), dims=(d, T))

    def period_probs(self, s: int, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Q_s[(a, b]] for N cells; lows / highs have shape (N, d)."""
        d, T = self.dims
        if not 0 <= s < T:
            raise ValueError(f"period index {s} outside 0..{T - 1}")
        out = np.ones(lows.shape[0])
        for j in range(d):
            f = self.grid[j][s]
            out *= np.maximum(f.cdf(highs[:, j]) - f.cdf(lows[:, j]), 0.0)
        return out


@dataclass(frozen=True)
class CopulaMeasure:
    """Driver law with dependent coordinates through a per-period copula."""

    grid: tuple
    copulas: tuple
    dims: tuple

    def __post_init__(self):
        d, T = self.dims
        if d > _MAX_CORNER_DIM:
            raise ValueError(f"copula measures support at most d = {_MAX_CORNER_DIM}, "
                             f"which keeps the corner sum to at most 2^{_MAX_CORNER_DIM} "
                             "terms per cell and period")
        if len(self.copulas) != T:
            raise ValueError("one copula per period required")

    @classmethod
    def clayton(cls, theta: float, d: int, T: int, marginals=None) -> "CopulaMeasure":
        marginals = NormalMarginal() if marginals is None else marginals
        return cls(grid=_marginal_grid(marginals, d, T),
                   copulas=tuple(ClaytonCopula(theta) for _ in range(T)), dims=(d, T))

    def period_probs(self, s: int, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        d, T = self.dims
        if not 0 <= s < T:
            raise ValueError(f"period index {s} outside 0..{T - 1}")
        u_lo = np.empty_like(lows)
        u_hi = np.empty_like(highs)
        for j in range(d):
            f = self.grid[j][s]
            u_lo[:, j] = f.cdf(lows[:, j])
            u_hi[:, j] = f.cdf(highs[:, j])
        return _corner_sum(self.copulas[s], u_lo, u_hi)


def rect_prob(measure, s: int, low, high) -> float:
    """Probability of one rectangle (low, high] in R^d under Q_s of any measure."""
    low = np.asarray(low, dtype=np.float64)[None, :]
    high = np.asarray(high, dtype=np.float64)[None, :]
    return float(measure.period_probs(s, low, high)[0])


# ------------------------------------------------------ Gaussian intervals

def normal_interval_prob(mu, sd, low, high) -> np.ndarray:
    """P(low < Z <= high) for Z ~ N(mu, sd^2), broadcasting all inputs.

    Degenerate sd = 0 falls back to the point-mass indicator
    1{low < mu <= high}.
    """
    mu, sd, low, high = np.broadcast_arrays(
        np.asarray(mu, dtype=np.float64), np.asarray(sd, dtype=np.float64),
        np.asarray(low, dtype=np.float64), np.asarray(high, dtype=np.float64))
    out = np.empty(mu.shape)
    pos = sd > 0
    if pos.any():
        with np.errstate(invalid="ignore"):
            hi = np.where(np.isposinf(high), 1.0, ndtr((high - mu) / np.where(pos, sd, 1.0)))
            lo = np.where(np.isneginf(low), 0.0, ndtr((low - mu) / np.where(pos, sd, 1.0)))
        out = np.where(pos, np.maximum(hi - lo, 0.0), out)
    if (~pos).any():
        out = np.where(pos, out, ((low < mu) & (mu <= high)).astype(np.float64))
    return out
