"""Empirical risk measures and quantile diagnostics on loss samples.

The one-period loss of a long position is L = V_0 - V_1 (short flips
the sign).  Value-at-risk is the left empirical quantile without
interpolation; expected shortfall averages the exceedances above it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The levels of every risk table: VaR at 99.5% and ES at 99%.
VAR_ALPHA = 0.995
ES_ALPHA = 0.99


def _left_quantiles(losses, levels) -> np.ndarray:
    """``empirical_var`` at every level, from one sort of the sample."""
    losses = np.asarray(losses, dtype=np.float64)
    levels = np.asarray(levels, dtype=np.float64)
    n = losses.size
    if n == 0:
        raise ValueError("empty loss sample")
    if not ((0 < levels) & (levels <= 1)).all():
        raise ValueError("alpha must lie in (0, 1]")
    k = np.clip(np.ceil(levels * n), 1, n).astype(np.intp)
    return np.sort(losses)[k - 1]


def empirical_var(losses, alpha: float) -> float:
    """Left empirical alpha-quantile: the ceil(alpha*n)-th order statistic."""
    return float(_left_quantiles(losses, [alpha])[0])


def empirical_es(losses, alpha: float) -> float:
    """Expected shortfall: VaR plus the scaled mean exceedance.

    ES = VaR + mean((L - VaR)^+) / (1 - alpha); alpha = 1 is rejected.
    """
    losses = np.asarray(losses, dtype=np.float64)
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    var = empirical_var(losses, alpha)
    excess = np.maximum(losses - var, 0.0)
    return float(var + excess.mean() / (1.0 - alpha))


def loss_samples(surface, t0: int = 0, t1: int = 1):
    """Long and short loss samples V_{t0} - V_{t1} from a value surface."""
    long = surface.column(t0) - surface.column(t1)
    return long, -long


def default_quantile_grid() -> np.ndarray:
    """Five-band level grid, dense in both tails (315 levels, in (0, 1)).

    Bands in percent: {0.001..0.009 step 0.001}, {0.01..0.99 step 0.01},
    {1..99 step 1}, {99.01..99.99 step 0.01}, {99.991..99.999 step 0.001}.
    """
    return np.concatenate([
        np.arange(1, 10) / 1e5,
        np.arange(1, 100) / 1e4,
        np.arange(1, 100) / 1e2,
        (9900 + np.arange(1, 100)) / 1e4,
        (99990 + np.arange(1, 10)) / 1e5,
    ])


def detrended_qq(est_losses, true_losses, levels=None):
    """Detrended quantile-quantile curve of estimate against truth.

    Returns (levels, true_quantiles, detrended) where detrended is the
    estimated quantile minus the true quantile at each level.  A perfect
    estimator sits on the zero line.
    """
    levels = default_quantile_grid() if levels is None else np.asarray(levels, dtype=np.float64)
    tq = _left_quantiles(true_losses, levels)
    eq = _left_quantiles(est_losses, levels)
    return levels, tq, eq - tq


def normalized_l2(estimates, truth, reference: float) -> float:
    """100 * RMS(estimates - truth) / |reference| (percent of reference)."""
    estimates = np.asarray(estimates, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if estimates.shape != truth.shape:
        raise ValueError("estimates and truth must share a shape")
    if reference == 0:
        raise ValueError("reference value must be nonzero")
    return float(100.0 * np.sqrt(np.mean((estimates - truth) ** 2)) / abs(reference))


@dataclass(frozen=True)
class RiskEstimate:
    measure: str  # "var" or "es"
    alpha: float
    position: str  # "long" or "short"
    estimate: float
    oracle: float

    @property
    def rel_error_pct(self) -> float:
        if self.oracle == 0:
            return math.inf if self.estimate != 0 else 0.0
        return 100.0 * (self.estimate - self.oracle) / abs(self.oracle)


@dataclass(frozen=True)
class RiskReport:
    """VaR / ES estimates for both positions against oracle losses."""

    entries: tuple

    def lookup(self, measure: str, position: str) -> RiskEstimate:
        for e in self.entries:
            if e.measure == measure and e.position == position:
                return e
        raise KeyError(f"no entry for ({measure}, {position})")

    @property
    def max_abs_rel_error_pct(self) -> float:
        return max(abs(e.rel_error_pct) for e in self.entries)


def risk_report(est_long, oracle_long, var_alpha: float = VAR_ALPHA,
                es_alpha: float = ES_ALPHA) -> RiskReport:
    """Compare estimated and oracle losses through VaR and ES, both sides."""
    est_long = np.asarray(est_long, dtype=np.float64)
    oracle_long = np.asarray(oracle_long, dtype=np.float64)
    var_alpha, es_alpha = float(var_alpha), float(es_alpha)  # a table writes alpha as a float
    entries = []
    for position, est, orc in (("long", est_long, oracle_long),
                               ("short", -est_long, -oracle_long)):
        entries.append(RiskEstimate("var", var_alpha, position,
                                    empirical_var(est, var_alpha),
                                    empirical_var(orc, var_alpha)))
        entries.append(RiskEstimate("es", es_alpha, position,
                                    empirical_es(est, es_alpha),
                                    empirical_es(orc, es_alpha)))
    return RiskReport(entries=tuple(entries))
