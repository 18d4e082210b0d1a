"""Tests for early-exercise pricing: Gaussian cell sums, backward
induction, stopping rules, and the lognormal put benchmark."""

import math

import numpy as np
import pytest
from scipy.special import ndtr

import treeval as tv
from treeval.bermudan import (
    ExerciseSpec,
    black_put_price,
    gaussian_cell_sum,
    price_regress_later,
    price_regress_now,
    stopping_distribution,
    stopping_rule,
)
from treeval.cart import TreeConfig, fit_tree
from treeval.ensemble import BoostConfig, fit_boost
from treeval.flat import evaluate_flat, flatten_model
from treeval.paths import log_bs_localvol, sample_driver, simulate_localvol


def _phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


# --------------------------------------------------------- put benchmark


def test_black_put_atm_hand_value():
    # z=0, K=1, r=0, sigma=0.2, tau=1: d1 = 0.1, d2 = -0.1, so
    # V = -Phi(-0.1) + Phi(0.1) = 2 Phi(0.1) - 1
    want = 2.0 * _phi(0.1) - 1.0
    assert black_put_price(0.0, 1.0, 0.0, 0.2, 1.0) == pytest.approx(want, abs=1e-14)


def test_black_put_matches_mc():
    rng = np.random.default_rng(5)
    z0, strike, sigma, tau = 0.05, 1.1, 0.3, 0.75
    n = 1_000_000
    z = z0 - 0.5 * sigma * sigma * tau + sigma * math.sqrt(tau) * rng.standard_normal(n)
    y = np.maximum(strike - np.exp(z), 0.0)
    se = y.std(ddof=1) / math.sqrt(n)
    assert black_put_price(z0, strike, 0.0, sigma, tau) == pytest.approx(y.mean(), abs=4 * se)


def test_black_put_vectorized_and_monotone():
    z = np.linspace(-0.5, 0.5, 11)
    v = black_put_price(z, 1.0, 0.0, 0.2, 1.0)
    assert isinstance(v, np.ndarray) and v.shape == (11,)
    assert np.all(np.diff(v) < 0)  # put value falls as the log price rises
    assert np.all(v > 0)
    assert isinstance(black_put_price(0.0, 1.0, 0.0, 0.2, 1.0), float)


def test_black_put_limits():
    # deep in the money: intrinsic value; far out: worthless
    assert black_put_price(-10.0, 1.0, 0.0, 0.2, 1.0) == \
        pytest.approx(1.0 - math.exp(-10.0), abs=1e-12)
    assert black_put_price(10.0, 1.0, 0.0, 0.2, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_black_put_validation():
    with pytest.raises(ValueError):
        black_put_price(0.0, 1.0, 0.0, 0.2, 0.0)
    with pytest.raises(ValueError):
        black_put_price(0.0, 1.0, 0.0, -0.2, 1.0)


# ------------------------------------------------------ Gaussian cell sums


def _flat_1d(kind: str = "tree", n: int = 400, seed: int = 0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 1, 1))
    y = np.sin(3.0 * x[:, 0, 0]) + 0.1 * rng.normal(size=n)
    if kind == "boost":
        fitted = fit_boost(x, y, BoostConfig(rounds=10, max_depth=3, nodesize=10, seed=1))
    else:
        fitted = fit_tree(x, y, TreeConfig(nodesize=10))
    return flatten_model(fitted)


def _per_cell_cdf_sum(fe, mu: float, sd: float) -> float:
    lo, hi = fe.lo[:, 0], fe.hi[:, 0]
    return float(np.sum(fe.values * (ndtr((hi - mu) / sd) - ndtr((lo - mu) / sd))))


@pytest.mark.parametrize("kind", ["tree", "boost"])
def test_cell_sum_1d_matches_per_cell_cdf(kind):
    fe = _flat_1d(kind)
    rng = np.random.default_rng(1)
    mu = rng.normal(size=(20, 1))
    sd = rng.uniform(0.2, 2.0, size=20)
    got = gaussian_cell_sum(fe, mu, sd[:, None, None])
    want = np.array([_per_cell_cdf_sum(fe, m, s) for m, s in zip(mu[:, 0], sd)])
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_cell_sum_point_mass_equals_indicator():
    fe = _flat_1d()
    pts = np.linspace(-2.5, 2.5, 41)[:, None]
    got = gaussian_cell_sum(fe, pts, np.zeros((41, 1, 1)))
    want = evaluate_flat(fe, pts[:, :, None])
    assert got == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_cell_sum_mixed_zero_and_positive_sd():
    fe = _flat_1d()
    mu = np.array([[0.0], [0.5], [-0.3]])
    cf = np.array([[[0.0]], [[1.0]], [[0.0]]])
    got = gaussian_cell_sum(fe, mu, cf)
    point = evaluate_flat(fe, mu[:, :, None])
    assert got[0] == pytest.approx(point[0], rel=1e-12)
    assert got[2] == pytest.approx(point[2], rel=1e-12)
    assert got[1] == pytest.approx(_per_cell_cdf_sum(fe, 0.5, 1.0), rel=1e-12)


def test_cell_sum_chunk_invariance():
    fe = _flat_1d()
    mu = np.linspace(-1.0, 1.0, 7)[:, None]
    cf = np.full((7, 1, 1), 0.7)
    a = gaussian_cell_sum(fe, mu, cf, point_chunk=2)
    b = gaussian_cell_sum(fe, mu, cf, point_chunk=512)
    assert a == pytest.approx(b, rel=1e-12, abs=1e-15)


def test_cell_sum_diagonal_matches_mc():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(500, 2, 1))
    y = x[:, 0, 0] * np.sin(x[:, 1, 0]) + 0.05 * rng.normal(size=500)
    fe = flatten_model(fit_tree(x, y, TreeConfig(nodesize=25)))
    mean = np.array([[0.3, -0.2], [0.0, 0.0], [1.0, 0.5]])
    sds = np.array([[0.8, 1.3], [1.0, 1.0], [0.5, 0.9]])
    cov_factor = np.stack([np.diag(s) for s in sds])
    got = gaussian_cell_sum(fe, mean, cov_factor)
    n = 400_000
    for i in range(3):
        draws = mean[i] + rng.normal(size=(n, 2)) * sds[i]
        vals = evaluate_flat(fe, draws[:, :, None])
        se = vals.std(ddof=1) / math.sqrt(n)
        assert got[i] == pytest.approx(vals.mean(), abs=4 * se)


def test_cell_sum_diagonal_zero_sd_is_indicator_times_cdf():
    # one coordinate without variance: its point mass puts each cell's
    # probability at 1{lo < mu <= hi} times the other coordinate's cdf difference
    rng = np.random.default_rng(4)
    x = rng.normal(size=(300, 2, 1))
    y = x[:, 0, 0] + np.cos(x[:, 1, 0]) + 0.05 * rng.normal(size=300)
    fe = flatten_model(fit_tree(x, y, TreeConfig(nodesize=20)))
    mean = np.array([[0.3, -0.4], [-1.1, 0.2], [0.0, 1.5]])
    sd = np.array([0.0, 0.8])
    got = gaussian_cell_sum(fe, mean, np.broadcast_to(np.diag(sd), (3, 2, 2)))
    lo, hi = fe.lo, fe.hi
    for i in range(3):
        inside = ((lo[:, 0] < mean[i, 0]) & (mean[i, 0] <= hi[:, 0])).astype(np.float64)
        cdf = ndtr((hi[:, 1] - mean[i, 1]) / sd[1]) - ndtr((lo[:, 1] - mean[i, 1]) / sd[1])
        assert got[i] == pytest.approx(np.sum(fe.values * inside * cdf), rel=1e-12, abs=1e-14)


def test_cell_sum_rejects_correlated_kernel():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(200, 2, 1))
    y = np.where(x[:, 0, 0] + 0.5 * x[:, 1, 0] > 0, 1.0, -1.0)
    fe = flatten_model(fit_tree(x, y, TreeConfig(nodesize=60)))
    load = np.array([[0.9, 0.3], [0.1, 1.1]])
    with pytest.raises(ValueError, match="exact only for m = 1 or diagonal B B\\^T"):
        gaussian_cell_sum(fe, np.array([[0.2, -0.1]]), load[None])


def _flat_dims(d: int, T: int):
    rng = np.random.default_rng(6)
    x = rng.normal(size=(100, d, T))
    return flatten_model(fit_tree(x, x.sum(axis=(1, 2)), TreeConfig(nodesize=20)))


@pytest.mark.parametrize("fe_dims, mean_shape, load_shape", [
    ((2, 1), (4, 1), (4, 1, 1)),   # two-coordinate fit, one-state kernel
    ((1, 2), (4, 1), (4, 1, 1)),   # two-period fit integrated as one step
    ((1, 1), (2, 1), (3, 1, 1)),   # two means next to three loads
])
def test_cell_sum_rejects_mismatched_shapes(fe_dims, mean_shape, load_shape):
    fe = _flat_dims(*fe_dims)
    with pytest.raises(ValueError):
        gaussian_cell_sum(fe, np.zeros(mean_shape), np.full(load_shape, 0.5))


# -------------------------------------------------------- backward induction


def _const_payoffs(n_dates: int, c: float):
    def g(z, _c=c):
        return np.full(z.shape[0], _c)

    return tuple(g for _ in range(n_dates))


def _put_payoffs(n_dates: int, strike: float = 1.0):
    def g(z):
        return np.maximum(strike - np.exp(z[:, 0]), 0.0)

    return tuple(g for _ in range(n_dates))


def test_exercise_spec_validation():
    model = log_bs_localvol(0.0, 0.0, 0.2, np.full(3, 1.0 / 3.0))
    with pytest.raises(ValueError):
        ExerciseSpec(model=model, payoffs=_const_payoffs(2, 1.0))
    spec = ExerciseSpec(model=model, payoffs=_const_payoffs(4, 1.0))
    assert spec.n_dates == 4


def test_constant_payoff_prices_exactly():
    T = 3
    model = log_bs_localvol(0.0, 0.0, 0.2, np.full(T, 1.0 / T))
    spec = ExerciseSpec(model=model, payoffs=_const_payoffs(T + 1, 2.5))
    x = sample_driver(200, 1, T, 0, (tv.STREAM_TRAIN,))
    z = simulate_localvol(model, x)
    for price in (price_regress_later, price_regress_now):
        bv = price(spec, z, TreeConfig(nodesize=2))
        assert bv.value0 == 2.5
        assert bv.continuation0 == 2.5
        # exercising is exactly as good as continuing, so every path stops now
        dist = stopping_distribution(bv, z[:50])
        assert dist[0] == 1.0


def test_price_validates_path_dims():
    T = 2
    model = log_bs_localvol(0.0, 0.0, 0.2, np.full(T, 0.5))
    spec = ExerciseSpec(model=model, payoffs=_put_payoffs(T + 1))
    bad = np.zeros((50, 2, T + 1))  # two state dims, model has one
    with pytest.raises(ValueError):
        price_regress_later(spec, bad, TreeConfig())
    with pytest.raises(ValueError):
        price_regress_now(spec, bad, TreeConfig())
    with pytest.raises(TypeError):
        price_regress_later(spec, np.zeros((50, 1, T + 1)), config="boost")


def _small_put_fixture():
    T = 4
    model = log_bs_localvol(0.0, 0.0, 0.2, np.full(T, 0.25))
    spec = ExerciseSpec(model=model, payoffs=_put_payoffs(T + 1))
    x_train = sample_driver(800, 1, T, 3, (tv.STREAM_TRAIN,))
    x_test = sample_driver(600, 1, T, 3, (tv.STREAM_TEST,))
    z_train = simulate_localvol(model, x_train)
    z_test = simulate_localvol(model, x_test)
    cfg = BoostConfig(rounds=40, learning_rate=0.3, nodesize=10, max_depth=4, seed=1)
    bv = price_regress_later(spec, z_train, cfg)
    return spec, bv, z_test


def test_continuation_matrix_consistency():
    spec, bv, z_test = _small_put_fixture()
    T = spec.model.n_periods
    cont = bv.continuation_matrix(z_test)
    assert cont.shape == (z_test.shape[0], T)
    for t in (0, 2, T - 1):
        assert np.array_equal(cont[:, t], bv.continuation(t, z_test[:, :, t]))
    assert np.array_equal(stopping_rule(bv, z_test),
                          stopping_rule(bv, z_test, cont))
    assert np.array_equal(bv.values_on(z_test),
                          bv.values_on(z_test, cont=cont))


def test_values_on_shape_and_dominance():
    spec, bv, z_test = _small_put_fixture()
    T = spec.model.n_periods
    vals = bv.values_on(z_test)
    assert vals.shape == (z_test.shape[0], T + 1)
    # terminal column is the exact payoff; earlier columns dominate exercise
    assert np.array_equal(vals[:, T], spec.payoffs[T](z_test[:, :, T]))
    for t in range(T):
        assert np.all(vals[:, t] >= spec.payoffs[t](z_test[:, :, t]))


def test_stopping_distribution_properties():
    spec, bv, z_test = _small_put_fixture()
    T = spec.model.n_periods
    tau = stopping_rule(bv, z_test)
    assert tau.shape == (z_test.shape[0],)
    assert tau.min() >= 0 and tau.max() <= T
    dist = stopping_distribution(bv, z_test)
    assert dist.shape == (T + 1,)
    assert np.all(dist >= 0.0)
    assert dist.sum() == pytest.approx(1.0, abs=1e-12)


def test_continuation_rejects_out_of_range_date():
    spec, bv, z_test = _small_put_fixture()
    T = spec.model.n_periods
    with pytest.raises(ValueError):
        bv.continuation(T, z_test[:, :, 0])
    with pytest.raises(ValueError):
        bv.continuation(-1, z_test[:, :, 0])


def test_single_period_put_recovers_black_value():
    """With one exercise date the price is the European put value."""
    T = 1
    model = log_bs_localvol(0.0, 0.0, 0.2, np.array([1.0]))
    spec = ExerciseSpec(model=model, payoffs=_put_payoffs(T + 1))
    x = sample_driver(3000, 1, T, 7, (tv.STREAM_TRAIN,))
    z = simulate_localvol(model, x)
    cfg = BoostConfig(rounds=80, learning_rate=0.3, nodesize=10, max_depth=4, seed=2)
    bv = price_regress_later(spec, z, cfg)
    want = black_put_price(0.0, 1.0, 0.0, 0.2, 1.0)
    # at the money the immediate payoff is zero, so value0 = continuation0
    assert bv.value0 == bv.continuation0
    assert bv.value0 == pytest.approx(want, rel=0.05)


def test_regress_now_continuation_is_model_prediction():
    T = 3
    model = log_bs_localvol(0.0, 0.0, 0.2, np.full(T, 1.0 / T))
    spec = ExerciseSpec(model=model, payoffs=_put_payoffs(T + 1))
    x = sample_driver(500, 1, T, 9, (tv.STREAM_TRAIN,))
    z = simulate_localvol(model, x)
    bv = price_regress_now(spec, z, TreeConfig(nodesize=30))
    assert bv.mode == "now"
    assert len(bv.now_models) == T and bv.flats == ()
    z1 = z[:40, :, 1]
    from treeval.ensemble import predict

    want = predict(bv.now_models[1], z1[:, :, None])
    assert np.array_equal(bv.continuation(1, z1), want)
