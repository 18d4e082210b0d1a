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
)
from treeval.cart import TreeConfig, fit_tree
from treeval.ensemble import BoostConfig, ForestConfig, fit_boost
from treeval import bermudan
from treeval.bermudan import _chebyshev_degree, _phi_form
from treeval.flat import FlatEnsemble, flatten_model
from treeval.paths import LogBSModel, sample_driver


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
    # (rate, sigma, tau): NaN once passed the sign checks and came out as a NaN price
    for rate, sigma, tau, match in [(0.0, 0.2, 0.0, "tau"), (0.0, 0.2, -1.0, "tau"),
                                    (0.0, -0.2, 1.0, "sigma"), (0.0, 0.0, 1.0, "sigma"),
                                    (0.0, 0.2, math.nan, "finite"),
                                    (math.nan, 0.2, 1.0, "finite"),
                                    (0.0, math.nan, 1.0, "finite"),
                                    (0.0, math.inf, 1.0, "finite"),
                                    (-math.inf, 0.2, 1.0, "finite"),
                                    (0.0, 0.2, math.inf, "finite")]:
        with pytest.raises(ValueError, match=match):
            black_put_price(0.0, 1.0, rate, sigma, tau)


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
    mu = rng.normal(size=20)
    for s in (0.2, 0.7, 2.0):
        got = gaussian_cell_sum(fe, mu, s)
        want = np.array([_per_cell_cdf_sum(fe, m, s) for m in mu])
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12), s


def _serial_cell_sum(fe, mu, s, chunk):
    """The 1-d cell sum block by block, as the direct path runs it."""
    q, w, const = _phi_form(fe)
    out = np.empty(mu.size)
    for a in range(0, mu.size, chunk):
        out[a:a + chunk] = ndtr((q[None, :] - mu[a:a + chunk, None]) / s) @ w + const
    return out


def test_cell_sum_chunk_invariance(monkeypatch):
    """The block height leaves the direct sum's bits as the reference's."""
    fe = _flat_1d(n=3000, seed=3)
    rng = np.random.default_rng(2)
    k = 1301  # not a multiple of either chunk
    mu = rng.normal(size=k)
    direct, shared = 0.03, 0.6  # the sd of the direct and of the interpolated path
    assert _chebyshev_degree(mu, direct) == 0 and _chebyshev_degree(mu, shared) > 0
    interpolated = []
    for chunk in (100, 512):
        monkeypatch.setattr(bermudan, "_POINT_CHUNK", chunk)
        got = gaussian_cell_sum(fe, mu, direct)
        assert np.array_equal(got, _serial_cell_sum(fe, mu, direct, chunk)), chunk
        interpolated.append(gaussian_cell_sum(fe, mu, shared))
    assert np.allclose(interpolated[0], interpolated[1], rtol=0.0, atol=1e-13)


def test_cell_sum_values_equal_means_as_one():
    """k equal means take the bits of one mean at every k, across the
    direct path (small k) and the interpolated one (large k)."""
    fe = _flat_1d(n=3000, seed=3)
    for m in (-0.3, 0.0, 0.41):
        one = gaussian_cell_sum(fe, np.array([m]), 0.2)
        for k in range(1, 121):
            got = gaussian_cell_sum(fe, np.full(k, m), 0.2)
            assert np.array_equal(got.view(np.int64), np.repeat(one, k).view(np.int64)), (m, k)


def test_cell_sum_same_bits_at_one_and_two_threads():
    """The thread cap moves no bit of either path of the cell sum."""
    fe = _flat_1d(n=3000, seed=3)
    mu = np.random.default_rng(2).normal(size=1301)
    direct, shared = 0.03, 0.6
    assert _chebyshev_degree(mu, direct) == 0 and _chebyshev_degree(mu, shared) > 0
    before = tv.get_threads()
    got = {}
    try:
        for threads in (1, 2):
            tv.set_threads(threads)
            got[threads] = [gaussian_cell_sum(fe, mu, s) for s in (direct, shared)]
    finally:
        tv.set_threads(before)
    for a, b in zip(got[1], got[2]):
        assert np.array_equal(a, b)
    assert np.array_equal(got[1][0], _serial_cell_sum(fe, mu, direct, bermudan._POINT_CHUNK))


def _random_phi_fit(rng, n_bounds):
    """n_bounds + 1 adjacent cells with random values, bounds drawn N(0, 1)."""
    b = np.sort(rng.normal(size=n_bounds))
    lo = np.concatenate([[-np.inf], b])[:, None]
    hi = np.concatenate([b, [np.inf]])[:, None]
    return FlatEnsemble(lo=lo, hi=hi, values=rng.normal(size=n_bounds + 1), dims=(1, 1))


def _cell_sum_peak(s):
    """Traced peak bytes of a cell sum at sd s (4,000 means, 800 bounds), and its degree."""
    rng = np.random.default_rng(5)
    fe = _random_phi_fit(rng, 800)
    mu = rng.normal(size=4000)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        gaussian_cell_sum(fe, mu, s)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    print(f"cell sum peak {peak} B")
    return peak, _chebyshev_degree(mu, s)


def test_cell_sum_working_set_stays_small():
    # the direct sum: one (chunk x bounds) block is reused, 0.4 MB at
    # 64 x 800 bounds, against 3.3 MB for 512-row blocks
    peak, n = _cell_sum_peak(0.01)
    assert n == 0
    assert peak < 2e6, peak


def test_cell_sum_shared_sd_interpolation_stays_small():
    # the nodes go through the same 64-row blocks and the barycentric
    # formula reuses one (64 x nodes) buffer
    peak, n = _cell_sum_peak(0.7)
    assert n > 0
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
        assert _chebyshev_degree(mu, s) > 0
        got = gaussian_cell_sum(fe, mu, s)
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


@pytest.mark.parametrize("case", ["shared", "small", "one_mean"])
def test_cell_sum_ndtr_count_follows_the_selection_rule(monkeypatch, case):
    rng = np.random.default_rng(8)
    fe = _random_phi_fit(rng, 600)
    Q = _phi_form(fe)[0].size
    k = 10 if case == "small" else 4000
    mu = np.zeros(k) if case == "one_mean" else rng.normal(size=k)
    s = 0.4
    seen = _count_ndtr(monkeypatch)
    gaussian_cell_sum(fe, mu, s)
    if case == "shared":
        n = math.ceil(8 * 0.5 * (mu.max() - mu.min()) / s) + 16
        assert sum(seen) == (n + 1) * Q
    elif case == "one_mean":
        assert sum(seen) == Q
    else:
        assert sum(seen) == k * Q


@pytest.mark.parametrize("bad, arg", [(b, "mean") for b in (np.nan, np.inf, -np.inf)] +
                         [(b, "sd") for b in (np.nan, np.inf, -np.inf, 0.0, -0.3)])
def test_cell_sum_rejects_non_finite_inputs(arg, bad):
    # cells (-inf, 0] -> 1 and (0, inf) -> 2: a NaN or zero sd must not
    # pass as a point mass at the mean
    fe = FlatEnsemble(lo=np.array([[-np.inf], [0.0]]), hi=np.array([[0.0], [np.inf]]),
                      values=np.array([1.0, 2.0]), dims=(1, 1))
    args = {"mean": np.array([0.5, 0.1]), "sd": 0.3}
    if arg == "mean":
        args["mean"][0] = bad
    else:
        args["sd"] = bad
    with pytest.raises(ValueError, match="finite"):
        gaussian_cell_sum(fe, args["mean"], args["sd"])


def _two_state_cell_sum(sd):
    rng = np.random.default_rng(3)
    x = rng.normal(size=(200, 2, 1))
    y = np.where(x[:, 0, 0] + 0.5 * x[:, 1, 0] > 0, 1.0, -1.0)
    fe = flatten_model(fit_tree(x, y, TreeConfig(nodesize=60)))
    return gaussian_cell_sum(fe, np.array([[0.2, -0.1]]), np.asarray(sd))


def test_cell_sum_rejects_correlated_kernel():
    with pytest.raises(ValueError, match="one state coordinate"):
        _two_state_cell_sum([[0.9, 0.3], [0.1, 1.1]])


def test_cell_sum_rejects_a_diagonal_two_state_kernel():
    # independent coordinates were once multiplied out; m = 1 is all a plan draws
    with pytest.raises(ValueError, match="one state coordinate"):
        _two_state_cell_sum(np.diag([0.8, 1.3]))


def test_cell_sum_rejects_a_column_mean():
    # the mean is (k,), not a (k, 1) column of states
    with pytest.raises(ValueError, match="one state coordinate"):
        gaussian_cell_sum(_flat_dims(1, 1), np.zeros((4, 1)), 0.5)


def _flat_dims(d: int, T: int):
    rng = np.random.default_rng(6)
    x = rng.normal(size=(100, d, T))
    return flatten_model(fit_tree(x, x.sum(axis=(1, 2)), TreeConfig(nodesize=20)))


@pytest.mark.parametrize("fe_dims", [
    (2, 1),   # two-coordinate fit, one-state kernel
    (1, 2),   # two-period fit integrated as one step
])
def test_cell_sum_rejects_mismatched_shapes(fe_dims):
    fe = _flat_dims(*fe_dims)
    with pytest.raises(ValueError, match="one state coordinate"):
        gaussian_cell_sum(fe, np.zeros(4), 0.5)


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
    model = LogBSModel(0.0, 0.0, 0.2, np.full(3, 1.0 / 3.0))
    with pytest.raises(ValueError):
        ExerciseSpec(model=model, payoffs=_const_payoffs(2, 1.0))
    spec = ExerciseSpec(model=model, payoffs=_const_payoffs(4, 1.0))
    assert spec.n_dates == 4


def test_constant_payoff_prices_exactly():
    T = 3
    model = LogBSModel(0.0, 0.0, 0.2, np.full(T, 1.0 / T))
    spec = ExerciseSpec(model=model, payoffs=_const_payoffs(T + 1, 2.5))
    x = sample_driver(200, 1, T, 0, (tv.STREAM_TRAIN,))
    z = model.simulate(x)
    for price in (price_regress_later, price_regress_now):
        bv = price(spec, z, TreeConfig(nodesize=2))
        assert bv.value0 == 2.5
        assert bv.continuation0 == 2.5
        # exercising is exactly as good as continuing, so every path stops now
        values, tau = bv.on_paths(z[:50])
        assert (tau == 0).all()
        assert (values == 2.5).all()


def test_price_validates_path_dims():
    T = 2
    model = LogBSModel(0.0, 0.0, 0.2, np.full(T, 0.5))
    spec = ExerciseSpec(model=model, payoffs=_put_payoffs(T + 1))
    for bad in (np.zeros((50, 2, T + 1)),   # two state dims, model has one
                np.zeros((50, 1, T)),       # one date short
                np.zeros((50, T + 1))):     # no state axis
        for price in (price_regress_later, price_regress_now):
            with pytest.raises(ValueError, match="state paths"):
                price(spec, bad, TreeConfig())
    with pytest.raises(TypeError):
        price_regress_later(spec, np.zeros((50, 1, T + 1)), config="boost")


def _small_put_fixture(price=price_regress_later):
    T = 4
    model = LogBSModel(0.0, 0.0, 0.2, np.full(T, 0.25))
    spec = ExerciseSpec(model=model, payoffs=_put_payoffs(T + 1))
    x_train = sample_driver(800, 1, T, 3, (tv.STREAM_TRAIN,))
    x_test = sample_driver(600, 1, T, 3, (tv.STREAM_TEST,))
    z_train = model.simulate(x_train)
    z_test = model.simulate(x_test)
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
    # on_paths compares exercise with this same matrix
    values, _ = bv.on_paths(z_test)
    g = np.stack([spec.payoffs[t](z_test[:, :, t]) for t in range(T + 1)], axis=1)
    assert np.array_equal(values[:, :T], np.maximum(g[:, :T], cont))
    assert np.array_equal(values[:, T], g[:, T])


def test_paths_value_date_zero_as_the_fit_does():
    """Every path starts at z0, valued alone on paths as in the fit."""
    T = 3
    model = LogBSModel(0.0, 0.0, 0.2, np.full(T, 1.0 / T))
    spec = ExerciseSpec(model=model, payoffs=_put_payoffs(T + 1))
    z_train = model.simulate(sample_driver(1000, 1, T, 5, (tv.STREAM_TRAIN,)))
    z_test = model.simulate(sample_driver(400, 1, T, 5, (tv.STREAM_TEST,)))
    cfg = ForestConfig(n_trees=8, nodesize=5, features=1, seed=2)
    for price in (price_regress_later, price_regress_now):
        bv = price(spec, z_train, cfg)
        cont = bv.continuation_matrix(z_test)
        assert (cont[:, 0] == bv.continuation0).all()
        assert (bv.on_paths(z_test)[0][:, 0] == bv.value0).all()


def test_values_on_shape_and_dominance():
    spec, bv, z_test = _small_put_fixture()
    T = spec.model.n_periods
    vals, _ = bv.on_paths(z_test)
    assert vals.shape == (z_test.shape[0], T + 1)
    # terminal column is the exact payoff; earlier columns dominate exercise
    assert np.array_equal(vals[:, T], spec.payoffs[T](z_test[:, :, T]))
    for t in range(T):
        assert np.all(vals[:, t] >= spec.payoffs[t](z_test[:, :, t]))


def test_stopping_distribution_properties():
    spec, bv, z_test = _small_put_fixture()
    T = spec.model.n_periods
    _, tau = bv.on_paths(z_test)
    assert tau.shape == (z_test.shape[0],)
    assert tau.min() >= 0 and tau.max() <= T
    dist = np.bincount(tau, minlength=T + 1) / tau.size
    assert dist.shape == (T + 1,)
    assert np.all(dist >= 0.0)
    assert dist.sum() == pytest.approx(1.0, abs=1e-12)
    # a path stops at the first date whose continuation is at most its exercise value
    cont = bv.continuation_matrix(z_test)
    g = np.stack([spec.payoffs[t](z_test[:, :, t]) for t in range(T)], axis=1)
    stop = cont <= g + 1e-12 * (1.0 + np.abs(g))
    rows = np.flatnonzero(tau < T)
    assert rows.size > 0 and stop[rows, tau[rows]].all()
    assert not (stop & (np.arange(T) < tau[:, None])).any()


def _open_path_stopping(bv, z_paths):
    """The per-date rule that values C_t only on the paths still open at t."""
    k, _, Tp1 = z_paths.shape
    tau = np.full(k, Tp1 - 1)
    still_open = np.ones(k, dtype=bool)
    for t in range(Tp1 - 1):
        idx = np.flatnonzero(still_open)
        zt = z_paths[idx, :, t]
        g = bv.spec.payoffs[t](zt)
        stop = idx[bv.continuation(t, zt) <= g + 1e-12 * (1.0 + np.abs(g))]
        tau[stop] = t
        still_open[stop] = False
    return tau


@pytest.mark.parametrize("price", [price_regress_later, price_regress_now],
                         ids=["later", "now"])
def test_stopping_rule_matches_the_open_path_rule(price):
    spec, bv, z_test = _small_put_fixture(price)
    _, tau = bv.on_paths(z_test)
    assert tau.dtype == np.int64
    assert 0 < np.count_nonzero(tau < spec.model.n_periods) < tau.size
    assert np.array_equal(tau, _open_path_stopping(bv, z_test))


def test_paths_with_another_number_of_dates_are_rejected():
    spec, bv, z_test = _small_put_fixture()  # 600 paths, T = 4: five dates
    longer = np.concatenate([z_test, z_test[:, :, -1:]], axis=2)
    for bad in (z_test[:, :, :4], longer, z_test[:, 0, :]):
        with pytest.raises(ValueError, match=r"state paths must have shape \(k, 1, 5\)"):
            bv.on_paths(bad)
        with pytest.raises(ValueError, match="state paths"):
            bv.continuation_matrix(bad)


def test_continuation_rejects_out_of_range_date():
    spec, bv, z_test = _small_put_fixture()
    T = spec.model.n_periods
    with pytest.raises(ValueError):
        bv.continuation(T, z_test[:, :, 0])
    with pytest.raises(ValueError):
        bv.continuation(-1, z_test[:, :, 0])


@pytest.mark.parametrize("price", [price_regress_later, price_regress_now],
                         ids=["later", "now"])
def test_continuation_rejects_states_of_another_shape(price):
    # the kernel reads column 0 alone: a second column must fail, not be dropped
    spec, bv, z_test = _small_put_fixture(price)
    two = np.concatenate([z_test, z_test], axis=1)
    with pytest.raises(ValueError, match=r"\(k, 1\)"):
        bv.continuation(1, two[:, :, 1])
    with pytest.raises(ValueError, match="state paths"):
        bv.on_paths(two)


def test_single_period_put_recovers_black_value():
    """With one exercise date the price is the European put value."""
    T = 1
    model = LogBSModel(0.0, 0.0, 0.2, np.array([1.0]))
    spec = ExerciseSpec(model=model, payoffs=_put_payoffs(T + 1))
    x = sample_driver(3000, 1, T, 7, (tv.STREAM_TRAIN,))
    z = model.simulate(x)
    cfg = BoostConfig(rounds=80, learning_rate=0.3, nodesize=10, max_depth=4, seed=2)
    bv = price_regress_later(spec, z, cfg)
    want = black_put_price(0.0, 1.0, 0.0, 0.2, 1.0)
    # at the money the immediate payoff is zero, so value0 = continuation0
    assert bv.value0 == bv.continuation0
    assert bv.value0 == pytest.approx(want, rel=0.05)


def test_regress_now_continuation_is_model_prediction():
    T = 3
    model = LogBSModel(0.0, 0.0, 0.2, np.full(T, 1.0 / T))
    spec = ExerciseSpec(model=model, payoffs=_put_payoffs(T + 1))
    x = sample_driver(500, 1, T, 9, (tv.STREAM_TRAIN,))
    z = model.simulate(x)
    bv = price_regress_now(spec, z, TreeConfig(nodesize=30))
    assert bv.mode == "now"
    assert len(bv.models) == T
    z1 = z[:40, :, 1]
    from treeval.ensemble import predict

    want = predict(bv.models[1], z1[:, :, None])
    assert np.array_equal(bv.continuation(1, z1), want)
