"""Early-exercise pricing by backward induction on tree ensembles.

The state follows a Markovian recursion Z_t = a_t(Z_t-1) + b_t(Z_t-1) X_t
with standard normal innovations, so conditionally on Z_t = z the next
state is N(a_t(z), b_t(z) b_t(z)^T).  Fitting an ensemble to the date
t+1 value cross-section and flattening it into interval cells makes the
continuation value a finite sum of Gaussian rectangle probabilities:

    C_t(z) = sum_i v_i * P[ a_t(z) + b_t(z) X  in  A_i ].

Two estimators are provided: "regress-later" (fit on Z_{t+1}, integrate
in closed form) and the classical "regress-now" (fit the conditional
expectation on Z_t directly).
"""

from __future__ import annotations

from dataclasses import dataclass, is_dataclass, replace
from typing import Optional

import numpy as np
from numpy.random import SeedSequence
from scipy.special import ndtr

from .ensemble import fit, predict
from .flat import FlatEnsemble, flatten_model
from .measure import normal_interval_prob
from .paths import LocalVolModel


@dataclass(frozen=True)
class ExerciseSpec:
    """Bermudan product: a state model plus one payoff per exercise date.

    payoffs[t] maps (k, m) states to (k,) immediate exercise values,
    already expressed in discounted terms, for t = 0..T.
    """

    model: LocalVolModel
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


def _fit_step(features: np.ndarray, labels: np.ndarray, config, t: int):
    # the per-date seed needs a config dataclass; fit() then checks its kind
    if not is_dataclass(config):
        raise TypeError("config must be a TreeConfig, ForestConfig, or BoostConfig")
    return fit(replace(config, seed=_step_seed(config.seed, t)), features, labels)


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


def gaussian_cell_sum(fe: FlatEnsemble, mean: np.ndarray, cov_factor: np.ndarray,
                      point_chunk: int = 512) -> np.ndarray:
    """sum_i v_i P[N(mean_k, B_k B_k^T) in cell_i] for a batch of kernels.

    mean is (k, m), cov_factor is (k, m, d) and fe is a one-period fit
    on the m state coordinates (dims (m, 1)).  Two exact closed forms:
    one-dimensional kernels use the telescoped cdf form (one cdf call
    per distinct cell bound), and kernels whose B_k B_k^T has every
    off-diagonal entry exactly 0 multiply per-coordinate normal interval
    probabilities.  Any other kernel raises ValueError.
    """
    if cov_factor.ndim != 3 or mean.shape != cov_factor.shape[:2]:
        raise ValueError(f"mean must be (k, m) and cov_factor (k, m, d); got "
                         f"{mean.shape} and {cov_factor.shape}")
    k, m = mean.shape
    if fe.dims != (m, 1):
        raise ValueError(f"the cell sum needs a one-period fit on the {m} state "
                         f"coordinates, dims ({m}, 1); got {fe.dims}")
    lo, hi = fe.lo, fe.hi  # one period: column j bounds state coordinate j
    values = fe.values
    cov = np.einsum("kmd,knd->kmn", cov_factor, cov_factor)
    out = np.empty(k)
    if m == 1:
        sd = np.sqrt(cov[:, 0, 0])
        q, w, const = _phi_form(fe)
        if q.size == 0:
            out[:] = const
            return out
        mu = mean[:, 0]
        pos = sd > 0.0
        if not pos.all():
            # a point mass at mu lands in the half-open cell (a, b] when
            # mu <= b and mu > a, so the step weight at bound q is 1{mu <= q}
            mu0 = mu[~pos]
            out[~pos] = (q[None, :] >= mu0[:, None]).astype(np.float64) @ w + const
        idx = np.flatnonzero(pos)
        # keep the (chunk x bounds) workspace near 32 MB
        chunk = max(1, min(point_chunk, int(4e6 // max(q.size, 1)) or 1))
        for a in range(0, idx.size, chunk):
            sel = idx[a:a + chunk]
            u = (q[None, :] - mu[sel, None]) / sd[sel, None]
            out[sel] = ndtr(u) @ w + const
        return out
    if cov[:, ~np.eye(m, dtype=bool)].any():
        raise ValueError("the cell sum is exact only for m = 1 or diagonal B B^T; "
                         "this kernel has correlated coordinates")
    diag = np.sqrt(np.einsum("kmm->km", cov))
    for a in range(0, k, point_chunk):
        b = min(a + point_chunk, k)
        probs = np.ones((b - a, values.size))
        for j in range(m):
            probs *= normal_interval_prob(mean[a:b, j, None], diag[a:b, j, None],
                                          lo[None, :, j], hi[None, :, j])
        out[a:b] = probs @ values
    return out


@dataclass(frozen=True)
class BermudanValue:
    """Fitted Bermudan value functions over dates 0..T.

    mode "later" stores flattened date-(t+1) value models whose
    continuation is integrated in closed form; mode "now" stores direct
    conditional-expectation models evaluated at Z_t.  value0 is the
    date-0 price max(g_0(z0), continuation0).
    """

    spec: ExerciseSpec
    mode: str
    value0: float
    continuation0: float
    flats: tuple = ()        # mode "later": flats[t] integrates to C_t
    now_models: tuple = ()   # mode "now": now_models[t] predicts C_t(Z_t)

    @property
    def n_dates(self) -> int:
        return self.spec.n_dates

    def exercise(self, t: int, z: np.ndarray) -> np.ndarray:
        return np.asarray(self.spec.payoffs[t](np.asarray(z, dtype=np.float64)),
                          dtype=np.float64)

    def continuation(self, t: int, z: np.ndarray) -> np.ndarray:
        """C_t at states z of shape (k, m), for t = 0..T-1."""
        T = self.spec.model.n_periods
        if not 0 <= t < T:
            raise ValueError(f"continuation defined for t in 0..{T - 1}")
        z = np.atleast_2d(np.asarray(z, dtype=np.float64))
        if self.mode == "later":
            mean = np.asarray(self.spec.model.drift_fn(t, z), dtype=np.float64)
            load = np.asarray(self.spec.model.diffusion_fn(t, z), dtype=np.float64)
            return gaussian_cell_sum(self.flats[t], mean, load)
        return np.asarray(predict(self.now_models[t], z[:, :, None]), dtype=np.float64)

    def continuation_matrix(self, z_paths: np.ndarray) -> np.ndarray:
        """C_t(Z_t) along state paths for t = 0..T-1, shape (k, T).

        Computing the matrix once and passing it to values_on and
        stopping_rule avoids integrating the same kernels twice.
        """
        z_paths = np.asarray(z_paths, dtype=np.float64)
        k, m, Tp1 = z_paths.shape
        out = np.empty((k, Tp1 - 1))
        for t in range(Tp1 - 1):
            out[:, t] = self.continuation(t, z_paths[:, :, t])
        return out

    def values_on(self, z_paths: np.ndarray,
                  cont: Optional[np.ndarray] = None) -> np.ndarray:
        """Value estimates V_t(Z_t) along state paths, shape (k, T+1)."""
        z_paths = np.asarray(z_paths, dtype=np.float64)
        k, m, Tp1 = z_paths.shape
        T = Tp1 - 1
        if cont is None:
            cont = self.continuation_matrix(z_paths)
        out = np.empty((k, Tp1))
        for t in range(T):
            out[:, t] = np.maximum(self.exercise(t, z_paths[:, :, t]), cont[:, t])
        out[:, T] = self.exercise(T, z_paths[:, :, T])
        return out


def _backward_labels(spec: ExerciseSpec, z_paths: np.ndarray):
    g_T = spec.payoffs[-1](z_paths[:, :, -1])
    return np.asarray(g_T, dtype=np.float64)


def price_regress_later(spec: ExerciseSpec, z_paths: np.ndarray, config) -> BermudanValue:
    """Backward induction with closed-form continuation values.

    z_paths holds training state paths of shape (n, m, T+1).  At each
    date the date-(t+1) value cross-section is fitted as a function of
    Z_{t+1}, flattened, and integrated against the Gaussian transition
    kernel to give C_t; labels then roll back as max(g_t, C_t).
    """
    z_paths = np.asarray(z_paths, dtype=np.float64)
    n, m, Tp1 = z_paths.shape
    T = Tp1 - 1
    if m != spec.model.n_state or T != spec.model.n_periods:
        raise ValueError("state paths do not match the model dims")
    labels = _backward_labels(spec, z_paths)
    flats = [None] * T
    cont0 = 0.0
    for t in range(T - 1, -1, -1):
        fitted = _fit_step(z_paths[:, :, t + 1][:, :, None], labels, config, t)
        fe = flatten_model(fitted)
        flats[t] = fe
        zt = z_paths[:, :, t]
        if t == 0:
            z0 = spec.model.z0[None, :]
            mean = np.asarray(spec.model.drift_fn(0, z0), dtype=np.float64)
            load = np.asarray(spec.model.diffusion_fn(0, z0), dtype=np.float64)
            cont0 = float(gaussian_cell_sum(fe, mean, load)[0])
            break
        mean = np.asarray(spec.model.drift_fn(t, zt), dtype=np.float64)
        load = np.asarray(spec.model.diffusion_fn(t, zt), dtype=np.float64)
        cont = gaussian_cell_sum(fe, mean, load)
        labels = np.maximum(np.asarray(spec.payoffs[t](zt), dtype=np.float64), cont)
    g0 = float(np.asarray(spec.payoffs[0](spec.model.z0[None, :]), dtype=np.float64)[0])
    return BermudanValue(spec=spec, mode="later", value0=max(g0, cont0),
                         continuation0=cont0, flats=tuple(flats))


def price_regress_now(spec: ExerciseSpec, z_paths: np.ndarray, config) -> BermudanValue:
    """Backward induction with direct conditional-expectation regression.

    At each date the next-date value cross-section is regressed on the
    current state Z_t; the fitted model itself is used as C_t.  At t = 0
    the features are constant, so the model degenerates to the plain
    average, which is the correct date-0 continuation.
    """
    z_paths = np.asarray(z_paths, dtype=np.float64)
    n, m, Tp1 = z_paths.shape
    T = Tp1 - 1
    if m != spec.model.n_state or T != spec.model.n_periods:
        raise ValueError("state paths do not match the model dims")
    labels = _backward_labels(spec, z_paths)
    models = [None] * T
    for t in range(T - 1, -1, -1):
        fitted = _fit_step(z_paths[:, :, t][:, :, None], labels, config, t)
        models[t] = fitted
        zt = z_paths[:, :, t]
        cont = np.asarray(predict(fitted, zt[:, :, None]), dtype=np.float64)
        if t == 0:
            cont0 = float(cont[0])
            break
        labels = np.maximum(np.asarray(spec.payoffs[t](zt), dtype=np.float64), cont)
    g0 = float(np.asarray(spec.payoffs[0](spec.model.z0[None, :]), dtype=np.float64)[0])
    return BermudanValue(spec=spec, mode="now", value0=max(g0, cont0),
                         continuation0=cont0, now_models=tuple(models))


def stopping_rule(bv: BermudanValue, z_paths: np.ndarray,
                  cont: Optional[np.ndarray] = None) -> np.ndarray:
    """First date where exercising is at least as good as continuing.

    Comparisons use a relative tolerance so that exact ties (common for
    piecewise-constant continuation estimates) stop the path.  Paths
    that never trigger stop at T.  A precomputed continuation matrix
    from continuation_matrix may be passed to avoid recomputation.
    """
    z_paths = np.asarray(z_paths, dtype=np.float64)
    k, m, Tp1 = z_paths.shape
    T = Tp1 - 1
    tau = np.full(k, T, dtype=np.int64)
    open_mask = np.ones(k, dtype=bool)
    for t in range(T):
        if not open_mask.any():
            break
        zt = z_paths[open_mask, :, t]
        g = bv.exercise(t, zt)
        c = cont[open_mask, t] if cont is not None else bv.continuation(t, zt)
        stop = c <= g + 1e-12 * (1.0 + np.abs(g))
        idx = np.flatnonzero(open_mask)[stop]
        tau[idx] = t
        open_mask[idx] = False
    return tau


def stopping_distribution(bv: BermudanValue, z_paths: np.ndarray,
                          cont: Optional[np.ndarray] = None) -> np.ndarray:
    """Empirical distribution of the stopping date, shape (T+1,)."""
    tau = stopping_rule(bv, z_paths, cont)
    T = z_paths.shape[2] - 1
    return np.bincount(tau, minlength=T + 1) / tau.size


def black_put_price(z, strike: float, rate: float, sigma: float, tau: float):
    """Undiscounted European put benchmark on S = e^z with horizon tau.

    V = -e^z Phi(-d1) + K Phi(-d2),
    d1 = (ln(e^z / K) + (rate + sigma^2/2) tau) / (sigma sqrt(tau)),
    d2 = d1 - sigma sqrt(tau).

    With rate = 0 this is the exact value process of the put on a
    driftless lognormal asset (where early exercise is never optimal).
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    z = np.asarray(z, dtype=np.float64)
    sq = sigma * np.sqrt(tau)
    d1 = (z - np.log(strike) + (rate + 0.5 * sigma * sigma) * tau) / sq
    d2 = d1 - sq
    out = -np.exp(z) * ndtr(-d1) + strike * ndtr(-d2)
    return float(out) if out.ndim == 0 else out
