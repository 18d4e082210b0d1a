"""Rectangle probabilities of the driver law and of Gaussian kernels.

Conditional valuation needs, for every period s and cell slice
``(a_s, b_s]`` in R^d, the probability ``Q_s[(a_s, b_s]]``.  Three
families are supported:

* ProductMeasure: independent coordinates, probability is the product
  of marginal cdf differences.
* CopulaMeasure: joint cdf C(F_1(x_1), ..., F_d(x_d)); the rectangle
  probability is the 2^d signed corner sum (inclusion-exclusion).
* GaussianKernel: a general N(mean, cov) law with exact one-dimensional
  and diagonal cases and a randomized-lattice quasi Monte Carlo
  evaluator for correlated dimensions.

Bounds use -inf / +inf for unbounded sides throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.random import Generator, Philox, SeedSequence
from scipy.special import ndtr, ndtri

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


def rect_prob_product(measure: ProductMeasure, s: int, low, high) -> float:
    """Probability of one rectangle (low, high] in R^d under Q_s."""
    low = np.asarray(low, dtype=np.float64)[None, :]
    high = np.asarray(high, dtype=np.float64)[None, :]
    return float(measure.period_probs(s, low, high)[0])


def rect_prob_copula(measure: CopulaMeasure, s: int, low, high) -> float:
    low = np.asarray(low, dtype=np.float64)[None, :]
    high = np.asarray(high, dtype=np.float64)[None, :]
    return float(measure.period_probs(s, low, high)[0])


# --------------------------------------------------------- Gaussian kernel

@dataclass(frozen=True)
class GaussRectResult:
    estimate: float
    error: float
    converged: bool


@dataclass(frozen=True)
class GaussianKernel:
    """N(mean, cov) law on R^m; cov must be symmetric PSD (within 1e-10)."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "cov", np.asarray(self.cov, dtype=np.float64))
        m = self.mean.size
        if self.mean.ndim != 1 or self.cov.shape != (m, m):
            raise ValueError("mean must be (m,) and cov (m, m)")
        if not np.allclose(self.cov, self.cov.T, atol=1e-10):
            raise ValueError("cov must be symmetric")
        scale = max(1.0, float(np.abs(np.diag(self.cov)).max()))
        if np.linalg.eigvalsh(self.cov).min() < -1e-10 * scale:
            raise ValueError("cov must be positive semidefinite")

    @property
    def dim(self) -> int:
        return self.mean.size


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


def _first_primes(k: int) -> np.ndarray:
    primes = []
    cand = 2
    while len(primes) < k:
        if all(cand % p for p in primes if p * p <= cand):
            primes.append(cand)
        cand += 1
    return np.asarray(primes, dtype=np.float64)


def _phi_clip(u: np.ndarray) -> np.ndarray:
    # keep ndtri arguments strictly inside (0, 1)
    tiny = 1e-15
    return ndtri(np.clip(u, tiny, 1.0 - tiny))


def _genz_estimate(mean, chol, low, high, n_points: int, shifts: np.ndarray) -> np.ndarray:
    """Lattice-rule estimates of the rectangle probability, one per shift.

    Sequential conditioning after the Cholesky substitution x = L y: the
    first coordinate integrates exactly, the rest map lattice uniforms
    through the conditional normal cdfs (baker's transform applied for
    smoothness).
    """
    m = mean.size
    a = low - mean
    b = high - mean
    d1 = ndtr(a[0] / chol[0, 0]) if np.isfinite(a[0]) else 0.0
    e1 = ndtr(b[0] / chol[0, 0]) if np.isfinite(b[0]) else 1.0
    if m == 1:
        return np.full(shifts.shape[0], e1 - d1)
    gens = np.sqrt(_first_primes(m - 1))
    k = np.arange(1, n_points + 1)[:, None]
    base = k * gens[None, :]
    out = np.empty(shifts.shape[0])
    for si in range(shifts.shape[0]):
        w = np.abs(2.0 * np.modf(base + shifts[si][None, :])[0] - 1.0)
        f = np.full(n_points, e1 - d1)
        di = np.full(n_points, d1)
        ei = np.full(n_points, e1)
        y = np.empty((n_points, m - 1))
        for i in range(1, m):
            y[:, i - 1] = _phi_clip(di + w[:, i - 1] * (ei - di))
            t = y[:, :i] @ chol[i, :i]
            sd = chol[i, i]
            di = ndtr((a[i] - t) / sd) if np.isfinite(a[i]) else np.zeros(n_points)
            ei = ndtr((b[i] - t) / sd) if np.isfinite(b[i]) else np.ones(n_points)
            f *= np.maximum(ei - di, 0.0)
        out[si] = float(np.mean(f))
    return out


def rect_prob_gaussian(kernel: GaussianKernel, low, high, abs_tol: float = 1e-6,
                       max_points: int = 1 << 17, n_shifts: int = 12,
                       rng: Optional[Generator] = None) -> GaussRectResult:
    """P(low < Z <= high] for Z ~ kernel, with an error bound.

    Exact for m = 1 and for diagonal covariances.  Otherwise a
    randomized lattice rule refines until three standard errors across
    shifts fall below abs_tol or the point budget is exhausted; the
    result then reports converged = False with the achieved bound.
    """
    low = np.asarray(low, dtype=np.float64)
    high = np.asarray(high, dtype=np.float64)
    m = kernel.dim
    if low.shape != (m,) or high.shape != (m,):
        raise ValueError("bounds must have shape (m,)")
    if not (low < high).all():
        raise ValueError("rectangle requires low < high componentwise")
    var = np.diag(kernel.cov)
    # zero-variance coordinates carry point mass at the mean
    fixed = var == 0.0
    if fixed.any():
        inside = (low[fixed] < kernel.mean[fixed]) & (kernel.mean[fixed] <= high[fixed])
        if not inside.all():
            return GaussRectResult(0.0, 0.0, True)
        if fixed.all():
            return GaussRectResult(1.0, 0.0, True)
        keep = ~fixed
        sub = GaussianKernel(kernel.mean[keep], kernel.cov[np.ix_(keep, keep)])
        return rect_prob_gaussian(sub, low[keep], high[keep], abs_tol, max_points, n_shifts, rng)
    off = kernel.cov - np.diag(var)
    if not off.any():
        p = normal_interval_prob(kernel.mean, np.sqrt(var), low, high)
        return GaussRectResult(float(np.prod(p)), 0.0, True)
    if n_shifts < 8:
        raise ValueError("n_shifts must be >= 8 for a usable error bound")
    try:
        chol = np.linalg.cholesky(kernel.cov)
    except np.linalg.LinAlgError:
        jitter = 1e-12 * max(1.0, float(var.max()))
        chol = np.linalg.cholesky(kernel.cov + jitter * np.eye(m))
    if rng is None:
        rng = Generator(Philox(SeedSequence(20120521)))
    shifts = rng.random((n_shifts, m - 1))
    n_points = 1 << 10
    while True:
        ests = _genz_estimate(kernel.mean, chol, low, high, n_points, shifts)
        est = float(np.mean(ests))
        err = 3.0 * float(np.std(ests, ddof=1)) / np.sqrt(n_shifts)
        if err <= abs_tol:
            return GaussRectResult(min(max(est, 0.0), 1.0), err, True)
        if n_points >= max_points:
            return GaussRectResult(min(max(est, 0.0), 1.0), err, False)
        n_points *= 2
