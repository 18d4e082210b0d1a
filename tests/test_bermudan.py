"""Tests for early-exercise pricing: Gaussian cell sums, backward
induction, stopping rules, and the lognormal put benchmark."""

import math
import tracemalloc

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
from treeval.ensemble import BoostConfig, ForestConfig, fit_boost
from treeval import bermudan
from treeval.bermudan import _chebyshev_degree, _phi_form
from treeval.flat import FlatEnsemble, evaluate_flat, flatten_model
from treeval.parallel import get_threads, set_threads
from treeval.paths import LocalVolModel, log_bs_localvol, sample_driver, simulate_localvol


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


@pytest.mark.parametrize("strike", [0.0, -1.0, math.nan])
def test_black_put_rejects_a_strike_that_is_not_positive(strike):
    with pytest.raises(ValueError, match="strike"):
        black_put_price(0.0, strike, 0.0, 0.2, 1.0)


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


def _serial_cell_sum(fe, mu, sd, chunk):
    """The 1-d cell sum block by block on one thread, point masses left out."""
    q, w, const = _phi_form(fe)
    out = np.full(mu.size, np.nan)
    idx = np.flatnonzero(sd > 0.0)
    for a in range(0, idx.size, chunk):
        sel = idx[a:a + chunk]
        out[sel] = ndtr((q[None, :] - mu[sel, None]) / sd[sel, None]) @ w + const
    return out


def test_cell_sum_same_bits_at_one_and_two_threads():
    """The thread cap does not change the blocks of points, nor so the bits."""
    fe = _flat_1d(n=3000, seed=3)
    rng = np.random.default_rng(2)
    k = 1301  # not a multiple of either chunk
    mu = rng.normal(size=(k, 1))
    cf = rng.uniform(0.05, 1.5, size=(k, 1, 1))
    cf[::9] = 0.0
    sd = cf[:, 0, 0]
    # one sd for every point but the point masses: the interpolated path
    shared = np.where(cf > 0.0, 0.6, 0.0)
    pos = sd > 0.0
    assert _chebyshev_degree(mu[pos, 0], shared[pos, 0, 0]) > 0
    before = get_threads()
    try:
        got, got_shared = {}, {}
        for threads in (1, 2):
            set_threads(threads)
            got[threads] = [gaussian_cell_sum(fe, mu, cf, point_chunk=c) for c in (100, 512)]
            got_shared[threads] = [gaussian_cell_sum(fe, mu, shared, point_chunk=c)
                                   for c in (100, 512)]
    finally:
        set_threads(before)
    for chunk, a, b in zip((100, 512), got[1], got[2]):
        assert np.array_equal(a, b), chunk
        want = _serial_cell_sum(fe, mu[:, 0], sd, chunk)
        assert np.array_equal(b[pos], want[pos]), chunk
        assert b[~pos] == pytest.approx(evaluate_flat(fe, mu[~pos, :, None]), rel=1e-12)
    for chunk, a, b in zip((100, 512), got_shared[1], got_shared[2]):
        assert np.array_equal(a, b), chunk
        assert np.array_equal(b[~pos], got[2][0][~pos]), chunk
    assert np.allclose(got_shared[2][0], got_shared[2][1], rtol=0.0, atol=1e-13)


def _random_phi_fit(rng, n_bounds):
    """n_bounds + 1 adjacent cells with random values, bounds drawn N(0, 1)."""
    b = np.sort(rng.normal(size=n_bounds))
    lo = np.concatenate([[-np.inf], b])[:, None]
    hi = np.concatenate([b, [np.inf]])[:, None]
    return FlatEnsemble(lo=lo, hi=hi, values=rng.normal(size=n_bounds + 1), dims=(1, 1))


def _cell_sum_peak(sd_scale, shared=False):
    """Traced peak bytes of a cell sum: 4,000 points, 800 bounds."""
    rng = np.random.default_rng(5)
    fe = _random_phi_fit(rng, 800)
    mu = rng.normal(size=(4000, 1))
    cf = sd_scale * rng.uniform(0.05, 1.5, size=(4000, 1, 1))
    if shared:
        cf[:] = sd_scale * 0.7
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        gaussian_cell_sum(fe, mu, cf)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    print(f"cell sum peak {peak} B")
    return peak


def test_cell_sum_working_set_stays_small():
    # one (chunk x bounds) block is reused: 0.4 MB at 64 x 800 bounds,
    # against 3.3 MB for 512-row blocks
    peak = _cell_sum_peak(1.0)
    assert peak < 2e6, peak


def test_cell_sum_point_masses_run_in_blocks():
    # every sd is 0: the indicator rows go in the same 64-row blocks, not
    # one (4000 x 800) product of 28.9 MB
    peak = _cell_sum_peak(0.0)
    assert peak < 2e6, peak


def test_cell_sum_shared_sd_interpolation_stays_small():
    # the nodes go through the same 64-row blocks and the barycentric
    # formula reuses one (64 x nodes) buffer
    peak = _cell_sum_peak(1.0, shared=True)
    assert peak < 2e6, peak


@pytest.mark.parametrize("ratio", [0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0])
def test_cell_sum_interpolation_matches_direct_sum(ratio):
    """Shared-sd batches with half-range h = ratio * sd stay within 1e-14 per unit weight."""
    rng = np.random.default_rng(int(ratio * 10))
    for _ in range(3):
        fe = _random_phi_fit(rng, int(rng.integers(50, 900)))
        q, w, const = _phi_form(fe)
        s = rng.uniform(0.05, 2.0)
        c = rng.normal()
        mu = c + rng.uniform(-ratio * s, ratio * s, size=4000)
        mu[:2] = c - ratio * s, c + ratio * s  # the ends of the range are nodes
        assert _chebyshev_degree(mu, np.full(mu.size, s)) > 0
        got = gaussian_cell_sum(fe, mu[:, None], np.full((mu.size, 1, 1), s))
        want = ndtr((q[None, :] - mu[:, None]) / s) @ w + const
        err = np.max(np.abs(got - want))
        assert err <= 1e-14 * (abs(const) + np.abs(w).sum()), (ratio, err)


def _count_ndtr(monkeypatch):
    seen = []

    def counted(u, *args, **kwargs):
        seen.append(np.size(u))
        return ndtr(u, *args, **kwargs)

    monkeypatch.setattr(bermudan, "ndtr", counted)
    return seen


@pytest.mark.parametrize("case", ["shared", "varying", "small", "one_mean"])
def test_cell_sum_ndtr_count_follows_the_selection_rule(monkeypatch, case):
    rng = np.random.default_rng(8)
    fe = _random_phi_fit(rng, 600)
    Q = _phi_form(fe)[0].size
    k = 10 if case == "small" else 4000
    mu = np.zeros(k) if case == "one_mean" else rng.normal(size=k)
    s = 0.4
    sd = rng.uniform(0.3, 0.5, size=k) if case == "varying" else np.full(k, s)
    seen = _count_ndtr(monkeypatch)
    gaussian_cell_sum(fe, mu[:, None], sd[:, None, None])
    if case == "shared":
        n = math.ceil(8 * 0.5 * (mu.max() - mu.min()) / s) + 16
        assert sum(seen) == (n + 1) * Q
    elif case == "one_mean":
        assert sum(seen) == Q
    else:
        assert sum(seen) == k * Q


@pytest.mark.parametrize("arg", ["mean", "cov_factor"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cell_sum_rejects_non_finite_inputs(arg, bad):
    # cells (-inf, 0] -> 1 and (0, inf) -> 2: a NaN loading once passed as a
    # point mass at 0.5 and gave 2.0
    fe = FlatEnsemble(lo=np.array([[-np.inf], [0.0]]), hi=np.array([[0.0], [np.inf]]),
                      values=np.array([1.0, 2.0]), dims=(1, 1))
    args = {"mean": np.array([[0.5], [0.1]]), "cov_factor": np.full((2, 1, 1), 0.3)}
    args[arg][0] = bad
    with pytest.raises(ValueError, match="finite"):
        gaussian_cell_sum(fe, args["mean"], args["cov_factor"])


def _two_state_cell_sum(load):
    rng = np.random.default_rng(3)
    x = rng.normal(size=(200, 2, 1))
    y = np.where(x[:, 0, 0] + 0.5 * x[:, 1, 0] > 0, 1.0, -1.0)
    fe = flatten_model(fit_tree(x, y, TreeConfig(nodesize=60)))
    return gaussian_cell_sum(fe, np.array([[0.2, -0.1]]), np.asarray(load)[None])


def test_cell_sum_rejects_correlated_kernel():
    with pytest.raises(ValueError, match="one state coordinate"):
        _two_state_cell_sum([[0.9, 0.3], [0.1, 1.1]])


def test_cell_sum_rejects_a_diagonal_two_state_kernel():
    # independent coordinates were once multiplied out; m = 1 is all a plan draws
    with pytest.raises(ValueError, match="one state coordinate"):
        _two_state_cell_sum(np.diag([0.8, 1.3]))


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


def _small_put_fixture(price=price_regress_later):
    T = 4
    model = log_bs_localvol(0.0, 0.0, 0.2, np.full(T, 0.25))
    spec = ExerciseSpec(model=model, payoffs=_put_payoffs(T + 1))
    x_train = sample_driver(800, 1, T, 3, (tv.STREAM_TRAIN,))
    x_test = sample_driver(600, 1, T, 3, (tv.STREAM_TEST,))
    z_train = simulate_localvol(model, x_train)
    z_test = simulate_localvol(model, x_test)
    cfg = BoostConfig(rounds=40, learning_rate=0.3, nodesize=10, max_depth=4, seed=1)
    bv = price(spec, z_train, cfg)
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


def test_paths_value_date_zero_as_the_fit_does():
    """Every path starts at z0, valued alone on paths as in the fit."""
    T = 3
    model = log_bs_localvol(0.0, 0.0, 0.2, np.full(T, 1.0 / T))
    spec = ExerciseSpec(model=model, payoffs=_put_payoffs(T + 1))
    z_train = simulate_localvol(model, sample_driver(1000, 1, T, 5, (tv.STREAM_TRAIN,)))
    z_test = simulate_localvol(model, sample_driver(400, 1, T, 5, (tv.STREAM_TEST,)))
    cfg = ForestConfig(n_trees=8, nodesize=5, features=1, seed=2)
    for price in (price_regress_later, price_regress_now):
        bv = price(spec, z_train, cfg)
        cont = bv.continuation_matrix(z_test)
        assert (cont[:, 0] == bv.continuation0).all()
        assert (bv.values_on(z_test, cont=cont)[:, 0] == bv.value0).all()


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


def _open_path_stopping(bv, z_paths):
    """The per-date rule that values C_t only on the paths still open at t."""
    k, _, Tp1 = z_paths.shape
    tau = np.full(k, Tp1 - 1)
    still_open = np.ones(k, dtype=bool)
    for t in range(Tp1 - 1):
        idx = np.flatnonzero(still_open)
        zt = z_paths[idx, :, t]
        g = bv.exercise(t, zt)
        stop = idx[bv.continuation(t, zt) <= g + 1e-12 * (1.0 + np.abs(g))]
        tau[stop] = t
        still_open[stop] = False
    return tau


@pytest.mark.parametrize("price", [price_regress_later, price_regress_now],
                         ids=["later", "now"])
def test_stopping_rule_matches_the_open_path_rule(price):
    spec, bv, z_test = _small_put_fixture(price)
    tau = stopping_rule(bv, z_test)
    assert tau.dtype == np.int64
    assert 0 < np.count_nonzero(tau < spec.model.n_periods) < tau.size
    assert np.array_equal(tau, _open_path_stopping(bv, z_test))
    assert np.array_equal(tau, stopping_rule(bv, z_test, bv.continuation_matrix(z_test)))


def test_stopping_rule_rejects_a_continuation_matrix_of_another_shape():
    spec, bv, z_test = _small_put_fixture()  # 600 paths, T = 4
    for shape in [(600, 5), (600, 3), (599, 4), (600,)]:
        with pytest.raises(ValueError, match="continuation matrix"):
            stopping_rule(bv, z_test, np.zeros(shape))
        with pytest.raises(ValueError, match="continuation matrix"):
            bv.values_on(z_test, cont=np.zeros(shape))


def _two_state_spec(T: int = 3):
    """Two independent log prices and a put on their mean."""
    steps = np.full(T, 1.0 / T)

    def drift(t, z):
        return z - 0.5 * np.array([0.04, 0.09]) * steps[t]

    def diffusion(t, z):
        return np.broadcast_to(np.diag([0.2, 0.3]) * np.sqrt(steps[t]), z.shape + (2,))

    def g(z):
        return np.maximum(1.0 - np.exp(z.mean(axis=1)), 0.0)

    model = LocalVolModel(z0=np.zeros(2), drift_fn=drift, diffusion_fn=diffusion,
                          n_driver=2, n_periods=T)
    return ExerciseSpec(model=model, payoffs=(g,) * (T + 1))


def test_regress_later_rejects_a_two_state_model():
    spec = _two_state_spec()
    z = simulate_localvol(spec.model, sample_driver(100, 2, 3, 4, (tv.STREAM_TRAIN,)))
    with pytest.raises(ValueError, match="one-state"):
        price_regress_later(spec, z, TreeConfig(nodesize=10))


def test_regress_now_runs_on_a_two_state_model():
    spec = _two_state_spec()
    T = spec.model.n_periods
    z = simulate_localvol(spec.model, sample_driver(600, 2, T, 4, (tv.STREAM_TRAIN,)))
    z_test = simulate_localvol(spec.model, sample_driver(300, 2, T, 4, (tv.STREAM_TEST,)))
    bv = price_regress_now(spec, z, TreeConfig(nodesize=30))
    assert bv.value0 == max(0.0, bv.continuation0) and 0.0 < bv.value0 < 1.0
    vals = bv.values_on(z_test)
    assert vals.shape == (300, T + 1) and (vals[:, 0] == bv.value0).all()
    assert np.array_equal(stopping_rule(bv, z_test), _open_path_stopping(bv, z_test))


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
    assert len(bv.models) == T
    z1 = z[:40, :, 1]
    from treeval.ensemble import predict

    want = predict(bv.models[1], z1[:, :, None])
    assert np.array_equal(bv.continuation(1, z1), want)
