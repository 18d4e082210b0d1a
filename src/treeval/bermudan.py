"""Early-exercise pricing by backward induction on tree ensembles.

The state is the log price Z_t of one Black-Scholes asset (paths.LogBSModel),
so conditionally on Z_t = z the next state is N(z + drift_t, sd_t^2),
with one sd per date.  Fitting an ensemble to the date t+1 value
cross-section and flattening it into interval cells makes the
continuation value a finite sum of Gaussian interval probabilities:

    C_t(z) = sum_i v_i * P[ z + drift_t + sd_t X  in  (a_i, b_i] ].

Two estimators are provided: "regress-later" (fit on Z_{t+1}, integrate
in closed form) and the classical "regress-now" (fit the conditional
expectation on Z_t directly).  On test paths, BermudanValue.on_paths
gives the value process and the stopping dates from one comparison of
exercise and continuation values.

Since every state of a date shares its kernel sd, C_t is a smooth
function of the mean alone: a large batch is valued at Chebyshev points
and interpolated at every mean (barycentric Lagrange interpolation,
Berrut & Trefethen 2004; see gaussian_cell_sum).
"""

from __future__ import annotations

from dataclasses import dataclass, is_dataclass, replace

import numpy as np
from numpy.random import SeedSequence

from .ensemble import fit, predict
from .flat import FlatEnsemble, flatten_model
from .paths import LogBSModel, ndtr


@dataclass(frozen=True)
class ExerciseSpec:
    """Bermudan product: a state model plus one payoff per exercise date.

    payoffs[t] maps (k, 1) states to (k,) immediate exercise values,
    already expressed in discounted terms, for t = 0..T.
    """

    model: LogBSModel
    payoffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "payoffs", tuple(self.payoffs))
        if len(self.payoffs) != self.model.n_periods + 1:
            raise ValueError("need one payoff per date 0..T")

    @property
    def n_dates(self) -> int:
        return len(self.payoffs)


def _step_seed(base_seed: int, t: int) -> int:
    # stable per-date sub-seed derived from the config seed
    return int(SeedSequence((base_seed, t)).generate_state(1, np.uint64)[0])


def _phi_form(fe: FlatEnsemble):
    """Collapse one-dimensional cells into a weighted sum of normal cdfs.

    For intervals the cell sum telescopes: each finite bound q carries a
    signed weight (+v for an upper bound, -v for a lower bound) and the
    cells with upper bound +inf contribute a constant, so

        sum_i v_i [Phi((b_i-u)/s) - Phi((a_i-u)/s)]
            = const + sum_j w_j Phi((q_j-u)/s)

    with one cdf call per distinct bound instead of two per cell.
    Returns (bounds, weights, const).
    """
    lo = fe.lo[:, 0]
    hi = fe.hi[:, 0]
    v = fe.values
    const = float(v[np.isposinf(hi)].sum())
    fin_hi = np.isfinite(hi)
    fin_lo = np.isfinite(lo)
    qs = np.concatenate([hi[fin_hi], lo[fin_lo]])
    ws = np.concatenate([v[fin_hi], -v[fin_lo]])
    if qs.size == 0:
        return qs, ws, const
    q_u, inv = np.unique(qs, return_inverse=True)
    w_u = np.bincount(inv, weights=ws, minlength=q_u.size)
    keep = w_u != 0.0
    return q_u[keep], w_u[keep], const


# Interpolant degree for a batch of means: N = ceil(8 h / s) + 16 for means
# spanning [c - h, c + h].  For a 2e-15 max error over 4,001 means, one cdf
# term of unit weight needed N = 14, 26, 48, 82 and 158 at h/s = 0.5, 2, 5,
# 10 and 20
_NODES_PER_SD = 8
_MIN_NODES = 16
# points per block of the cdf sum; one (chunk x bounds) buffer is reused:
# 0.4 MB at 64 rows and 800 bounds, at most 32 MB
_POINT_CHUNK = 64


def _cdf_sum(q, w, const, mu, s, chunk):
    """const + sum_j w_j Phi((q_j - mu_k) / s) at every point, s > 0.

    Blocks of chunk points reuse one (chunk x bounds) buffer.  A block of
    one row is a dot product, not gemv, and sums in another order: with
    one BLAS thread, another chunk changes at most the last bits of the
    last point, when mu.size = 1 (mod chunk).
    """
    out = np.empty(mu.size)
    buf = np.empty((min(chunk, mu.size), q.size))
    for a in range(0, mu.size, chunk):
        b = min(a + chunk, mu.size)
        u = buf[:b - a]
        np.subtract(q[None, :], mu[a:b, None], out=u)
        u /= s
        out[a:b] = ndtr(u, out=u) @ w + const
    return out


def _chebyshev_degree(mu, s) -> int:
    """Interpolant degree N for k >= 1 means at sd s > 0, or 0 for the direct sum.

    N = ceil(8 h / s) + 16 when N + 1 < k / 2, with h the half-range of
    the k means.
    """
    k = mu.size
    ratio = _NODES_PER_SD * 0.5 * (mu.max() - mu.min()) / s
    if not ratio < 0.5 * k:  # also an overflowed range or a tiny sd
        return 0
    n = int(np.ceil(ratio)) + _MIN_NODES
    return n if n + 1 < 0.5 * k else 0


def _chebyshev_cell_sum(q, w, const, mu, s, n, chunk):
    """The cdf sum at every mean from its values at n + 1 nodes.

    C is valued directly at the Chebyshev points of the second kind on
    [min mu, max mu] and interpolated by the barycentric formula (second
    form, Berrut & Trefethen 2004), block by block in one reused buffer.
    A mean on a node takes the node's value.  The range must not be zero.
    """
    a, b = mu.min(), mu.max()
    j = np.arange(n + 1)
    nodes = a + 0.5 * (b - a) * (1.0 + np.sin(np.pi * (n - 2 * j) / (2 * n)))
    nodes[0], nodes[-1] = b, a
    f = _cdf_sum(q, w, const, nodes, s, chunk)
    bw = np.where(j % 2 == 0, 1.0, -1.0)
    bw[[0, -1]] *= 0.5
    out = np.empty(mu.size)
    buf = np.empty((min(chunk, mu.size), n + 1))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(0, mu.size, chunk):
            x = mu[i:i + chunk]
            d = buf[:x.size]
            np.subtract(x[:, None], nodes[None, :], out=d)
            np.divide(bw, d, out=d)
            den = d.sum(axis=1)
            d *= f
            got = d.sum(axis=1) / den
            # 1/(x - x_j) is infinite on a node: take the nearest node's value
            bad = np.flatnonzero(~np.isfinite(got))
            if bad.size:
                got[bad] = f[np.abs(x[bad, None] - nodes[None, :]).argmin(axis=1)]
            out[i:i + x.size] = got
    return out


def gaussian_cell_sum(fe: FlatEnsemble, mean: np.ndarray, sd: float) -> np.ndarray:
    """sum_i v_i P[N(mean_k, sd^2) in cell_i] at each of k means, for one shared sd.

    mean is (k,), sd one finite number > 0, and fe a one-period fit on
    the one state coordinate (dims (1, 1)); anything else, and a
    non-finite mean, raises ValueError.  The sum is the exact telescoped
    cdf form (one cdf call per distinct cell bound).

    When N = ceil(8 h / sd) + 16 satisfies N + 1 < k / 2, with h the
    half-range of the means, the cdf sum is valued at N + 1 Chebyshev
    points spanning the means and the barycentric formula serves every
    mean.  The node rule keeps the error within 1e-14 (|const| +
    sum_j |w_j|) of the direct sum, where const and w_j are the
    telescoped form's constant and bound weights.  Smaller batches use
    the direct sum.  Equal means are valued once, as one mean alone.
    """
    mean = np.asarray(mean, dtype=np.float64)
    if mean.ndim != 1 or fe.dims != (1, 1):
        raise ValueError(f"the cell sum integrates one state coordinate: mean (k,) and a "
                         f"fit of dims (1, 1); got mean {mean.shape} and dims {fe.dims}")
    if not np.isfinite(mean).all():
        raise ValueError("mean must be finite")
    if np.ndim(sd) != 0 or not (np.isfinite(sd) and sd > 0):
        raise ValueError(f"sd must be one finite number > 0; got {sd!r}")
    q, w, const = _phi_form(fe)
    if q.size == 0 or mean.size == 0:
        return np.full(mean.size, const)
    chunk = max(1, min(_POINT_CHUNK, int(4e6 // q.size)))
    if mean.min() == mean.max():
        return np.full(mean.size, _cdf_sum(q, w, const, mean[:1], sd, chunk)[0])
    n = _chebyshev_degree(mean, sd)
    if n:
        return _chebyshev_cell_sum(q, w, const, mean, sd, n, chunk)
    return _cdf_sum(q, w, const, mean, sd, chunk)


def _continuation(model: LogBSModel, mode: str, fitted, t: int,
                  z: np.ndarray) -> np.ndarray:
    """C_t at states z of shape (k, 1) from the date-t model of either mode.

    Regress-later integrates its flat fit against the date-t kernel;
    regress-now predicts with its fit.
    """
    if mode == "later":
        return gaussian_cell_sum(fitted, z[:, 0] + model.drift[t], model.sd[t])
    return predict(fitted, z[:, :, None])


def _state_paths(z_paths, T: int) -> np.ndarray:
    """z_paths as float64; ValueError unless its shape is (k, 1, T+1)."""
    z_paths = np.asarray(z_paths, dtype=np.float64)
    if z_paths.ndim != 3 or z_paths.shape[1:] != (1, T + 1):
        raise ValueError(f"state paths must have shape (k, 1, {T + 1}); got {z_paths.shape}")
    return z_paths


@dataclass(frozen=True)
class BermudanValue:
    """Fitted Bermudan value functions over dates 0..T.

    models[t] gives the continuation C_t.  In mode "later" it is the
    flattened fit of the date-(t+1) value on Z_{t+1}, integrated in
    closed form; in mode "now" it is the fit of that value on Z_t,
    evaluated by prediction.  value0 is the date-0 price
    max(g_0(z0), continuation0).
    """

    spec: ExerciseSpec
    mode: str
    value0: float
    continuation0: float
    models: tuple

    def continuation(self, t: int, z: np.ndarray) -> np.ndarray:
        """C_t at states z of shape (k, 1), for t = 0..T-1.

        Equal states get the bits of one state alone, so at t = 0, where
        every path is at z0, C_0 along paths is continuation0 bit for bit.
        """
        T = self.spec.model.n_periods
        if not 0 <= t < T:
            raise ValueError(f"continuation defined for t in 0..{T - 1}")
        z = np.atleast_2d(np.asarray(z, dtype=np.float64))
        if z.ndim != 2 or z.shape[1] != 1:
            raise ValueError(f"states must have shape (k, 1); got {z.shape}")
        return _continuation(self.spec.model, self.mode, self.models[t], t, z)

    def continuation_matrix(self, z_paths: np.ndarray) -> np.ndarray:
        """C_t(Z_t) along state paths (k, 1, T+1) for t = 0..T-1, shape (k, T).

        Paths with another number of dates, or not of that layout, raise
        ValueError.
        """
        T = self.spec.model.n_periods
        z_paths = _state_paths(z_paths, T)
        out = np.empty((z_paths.shape[0], T))
        for t in range(T):
            out[:, t] = self.continuation(t, z_paths[:, :, t])
        return out

    def on_paths(self, z_paths: np.ndarray) -> tuple:
        """Value process and stopping dates along state paths (k, 1, T+1).

        Returns (values, tau) from one continuation matrix.  values is
        (k, T+1) with V_t = max(g_t, C_t) for t < T and V_T = g_T.  tau
        is (k,), the first t < T with C_t <= g_t + 1e-12 (1 + |g_t|), so
        that exact ties (common for piecewise-constant continuation
        estimates) stop the path; paths that never trigger stop at T.
        """
        cont = self.continuation_matrix(z_paths)
        z_paths = np.asarray(z_paths, dtype=np.float64)
        k, T = cont.shape
        values = np.empty((k, T + 1))
        for t in range(T + 1):
            values[:, t] = self.spec.payoffs[t](z_paths[:, :, t])
        g = values[:, :-1]
        stop = cont <= g + 1e-12 * (1.0 + np.abs(g))
        np.maximum(g, cont, out=g)
        tau = np.where(stop.any(axis=1), stop.argmax(axis=1), T).astype(np.int64)
        return values, tau


def _backward_induction(spec: ExerciseSpec, z_paths: np.ndarray, config,
                        mode: str) -> BermudanValue:
    """Fit C_T-1 .. C_0 backward along training state paths (n, 1, T+1).

    Labels start as g_T(Z_T).  At date t they are fitted on Z_{t+1}
    (mode "later", the fit then flattened) or on Z_t (mode "now"), each
    date's fit seeded from the config seed and t; the fit gives C_t and
    the labels roll back as max(g_t, C_t).
    """
    T = spec.model.n_periods
    z_paths = _state_paths(z_paths, T)
    # the per-date seed needs a config dataclass; fit() then checks its kind
    if not is_dataclass(config):
        raise TypeError("config must be a TreeConfig, ForestConfig, or BoostConfig")
    later = mode == "later"
    z0 = np.full((1, 1), spec.model.z0)
    labels = np.asarray(spec.payoffs[T](z_paths[:, :, T]), dtype=np.float64)
    models = [None] * T
    for t in range(T - 1, -1, -1):
        step = replace(config, seed=_step_seed(config.seed, t))
        fitted = fit(step, z_paths[:, :, t + 1 if later else t, None], labels)
        models[t] = flatten_model(fitted) if later else fitted
        # every path starts at z0, so C_0 is valued there alone
        zt = z0 if t == 0 else z_paths[:, :, t]
        cont = _continuation(spec.model, mode, models[t], t, zt)
        if t > 0:
            labels = np.maximum(np.asarray(spec.payoffs[t](zt), dtype=np.float64), cont)
    cont0 = float(cont[0])
    g0 = float(np.asarray(spec.payoffs[0](z0), dtype=np.float64)[0])
    return BermudanValue(spec=spec, mode=mode, value0=max(g0, cont0),
                         continuation0=cont0, models=tuple(models))


def price_regress_later(spec: ExerciseSpec, z_paths: np.ndarray, config) -> BermudanValue:
    """Regress-later: fit each date-(t+1) value on Z_{t+1}, integrate it in closed form.

    z_paths holds training state paths of shape (n, 1, T+1).  Each
    flattened fit is integrated against the date's Gaussian transition
    kernel to give C_t.
    """
    return _backward_induction(spec, z_paths, config, "later")


def price_regress_now(spec: ExerciseSpec, z_paths: np.ndarray, config) -> BermudanValue:
    """Regress-now: fit each date-(t+1) value on Z_t and use the fit as C_t.

    z_paths holds training state paths of shape (n, 1, T+1).  At t = 0
    the features are constant, so the model degenerates to the plain
    average, which is the correct date-0 continuation.
    """
    return _backward_induction(spec, z_paths, config, "now")


def black_put_price(z, strike: float, rate: float, sigma: float, tau: float):
    """Undiscounted European put benchmark on S = e^z with horizon tau.

    V = -e^z Phi(-d1) + K Phi(-d2),
    d1 = (ln(e^z / K) + (rate + sigma^2/2) tau) / (sigma sqrt(tau)),
    d2 = d1 - sigma sqrt(tau).

    With rate = 0 this is the exact value process of the put on a
    driftless lognormal asset (where early exercise is never optimal).
    """
    if not np.isfinite([rate, sigma, tau]).all():
        raise ValueError("rate, sigma and tau must be finite")
    if not tau > 0:
        raise ValueError("tau must be positive")
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    if not strike > 0:
        raise ValueError("strike must be positive")
    z = np.asarray(z, dtype=np.float64)
    sq = sigma * np.sqrt(tau)
    d1 = (z - np.log(strike) + (rate + 0.5 * sigma * sigma) * tau) / sq
    d2 = d1 - sq
    out = -np.exp(z) * ndtr(-d1) + strike * ndtr(-d2)
    return float(out) if out.ndim == 0 else out
