"""Tests for the oracle estimators, experiment plans, and report bundles."""

import ast
import itertools
import math
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy.special import ndtr, ndtri

import treeval as tv
from treeval import bench, paths
from treeval.bench import (
    BermudanPlan,
    ExperimentPlan,
    _bermudan_truth,
    black_put_price,
    bundle_hash,
    desk_plan,
    exact_v1,
    oracle_v0,
    oracle_v1,
    paper_plan,
    regress_now_date1,
    run_bermudan,
    run_experiment,
    sample_streams,
    standard_model,
    write_snapshot,
)
from treeval.cart import TreeConfig
from treeval.ensemble import BoostConfig, ForestConfig, fit, predict
from treeval.parallel import get_threads, set_threads
from treeval.paths import (
    STREAM_INNER,
    STREAM_TEST,
    BlackScholesModel,
    Payoff,
    payoff_value,
    sample_driver,
    simulate_bs,
    stream_rng,
)

# ----------------------------------------------------------------- oracles


def test_oracle_v0_hand_case():
    v, se = oracle_v0([1.0, 2.0, 3.0, 4.0])
    assert v == 2.5
    assert se == pytest.approx(math.sqrt(5.0 / 3.0) / 2.0, rel=1e-14)


def test_oracle_v0_degenerate():
    v, se = oracle_v0([7.0])
    assert v == 7.0 and se == 0.0
    with pytest.raises(ValueError):
        oracle_v0([])


def test_oracle_v1_single_period_is_exact():
    # with T = 1 the date-1 value is the realized payoff: zero inner noise
    model = BlackScholesModel(initial_prices=np.ones(2), vols=0.2 * np.eye(2),
                              rate=0.0, steps=np.array([1.0]))
    payoff = Payoff("min_put", strike=1.0)
    x1 = np.random.default_rng(0).normal(size=(40, 2))
    vals, ses = oracle_v1(payoff, model, x1, n_inner=50, seed=0)
    want = payoff_value(payoff, model, simulate_bs(model, x1[:, :, None]))
    assert np.array_equal(vals, want)
    assert np.array_equal(ses, np.zeros(40))


def test_oracle_v1_reproducible_and_chunk_invariant(monkeypatch):
    # each block places its own bit generator, so an off-by-one in its
    # counter would show at block and chunk edges
    model = standard_model("min_put", d=2)
    payoff = Payoff("min_put", strike=1.0)
    x1 = sample_driver(30, 2, 2, 0, (STREAM_TEST,))[:, :, 0]
    want_vals, want_ses = oracle_v1(payoff, model, x1, n_inner=40, seed=5)
    # 40 inner paths a scenario: blocks of 1, 3, 7 and 25 scenarios, and
    # thread_map items of at most 7 or 256 scenarios
    for block_paths, chunk in itertools.product([1, 120, 280, 1024], [7, 256]):
        monkeypatch.setattr(bench, "_BLOCK_PATHS", block_paths)
        monkeypatch.setattr(bench, "_CHUNK", chunk)
        vals, ses = oracle_v1(payoff, model, x1, n_inner=40, seed=5)
        assert np.array_equal(vals, want_vals), (block_paths, chunk)
        assert np.array_equal(ses, want_ses), (block_paths, chunk)
    c_vals, _ = oracle_v1(payoff, model, x1, n_inner=40, seed=6)
    assert not np.array_equal(want_vals, c_vals)
    with pytest.raises(ValueError):
        oracle_v1(payoff, model, x1, n_inner=0, seed=5)
    with pytest.raises(ValueError):
        oracle_v1(payoff, model, x1, n_inner=40, seed=-1)
    for bad in (x1[:, 0], x1[:, :1]):
        with pytest.raises(ValueError, match=r"x1 must have shape \(k, 2\)"):
            oracle_v1(payoff, model, bad, n_inner=40, seed=5)


def _tail_words(n_inner, d, T):
    # (n, m): the tail draws of one scenario and the Philox counter steps of
    # its window, four 64-bit words a step
    n = n_inner * d * (T - 1)
    return n, -(-n // 4)


def _oracle_v1_per_scenario(payoff, model, x1, n_inner, seed):
    # reference: one generator placed at each scenario's window of the
    # (seed, inner) stream, one simulation and one payoff call per scenario
    k, d = x1.shape
    T = model.n_periods
    n, m = _tail_words(n_inner, d, T)
    key = stream_rng(seed, STREAM_INNER).bit_generator.state["state"]["key"]
    vals, ses = np.empty(k), np.empty(k)
    full = np.empty((n_inner, d, T))
    for i in range(k):
        rng = Generator(Philox(counter=i * m, key=key))
        full[:, :, 0] = x1[i]
        raw = rng.integers(0, 1 << 53, size=(n_inner, d, T - 1), dtype=np.uint64)
        full[:, :, 1:] = ndtri((raw.astype(np.float64) + 0.5) * (0.5**53))
        y = payoff_value(payoff, model, simulate_bs(model, full))
        vals[i] = y.mean()
        ses[i] = y.std(ddof=1) / np.sqrt(n_inner) if n_inner > 1 else 0.0
    return vals, ses


@pytest.mark.parametrize("block_paths", [1024, 21])
@pytest.mark.parametrize("n_inner", [1, 7])
def test_oracle_v1_reads_windows_of_the_inner_stream(n_inner, block_paths, monkeypatch):
    # scenario i's tail is row i of the (seed, inner) stream cut into rows
    # of 4 m words, of which the first n are used; n is not a multiple of 4.
    # 21 paths a block puts block edges inside the 40 scenarios
    monkeypatch.setattr(bench, "_BLOCK_PATHS", block_paths)
    d, T, k, seed = 3, 3, 40, 9
    model = BlackScholesModel(initial_prices=np.ones(d), vols=0.2 * np.eye(d),
                              rate=0.01, steps=np.full(T, 1 / 12))
    payoff = Payoff("brc", strike=1.0, barrier=0.8, coupon=0.05)
    x1 = sample_driver(k, d, T, 3, (STREAM_TEST,))[:, :, 0]
    n, m = _tail_words(n_inner, d, T)
    assert n % 4
    bits = paths._draw_bits(stream_rng(seed, STREAM_INNER), (k, 4 * m))[:, :n]
    tails = paths._normal_from_bits(bits).reshape(k, n_inner, d, T - 1)
    full = np.empty((k, n_inner, d, T))
    full[..., 0] = x1[:, None, :]
    full[..., 1:] = tails
    y = payoff_value(payoff, model, simulate_bs(model, full.reshape(-1, d, T))).reshape(k, -1)
    vals, ses = oracle_v1(payoff, model, x1, n_inner=n_inner, seed=seed)
    assert np.array_equal(vals, y.mean(axis=1))
    want_ses = y.std(axis=1, ddof=1) / np.sqrt(n_inner) if n_inner > 1 else np.zeros(k)
    assert np.array_equal(ses, want_ses)


@pytest.mark.parametrize("n_inner", [1, 7, 40])
@pytest.mark.parametrize("kind, d", [("min_put", 2), ("brc", 3)])
def test_oracle_v1_matches_per_scenario_reference(kind, d, n_inner):
    model = standard_model(kind, d=d)
    payoff = desk_plan(kind).payoff
    x1 = sample_driver(300, d, model.n_periods, 3, (STREAM_TEST,))[:, :, 0]
    want_vals, want_ses = _oracle_v1_per_scenario(payoff, model, x1, n_inner, seed=9)
    before = get_threads()
    try:
        for threads in (1, 2):
            set_threads(threads)
            vals, ses = oracle_v1(payoff, model, x1, n_inner=n_inner, seed=9)
            assert np.array_equal(vals, want_vals), threads
            assert np.array_equal(ses, want_ses), threads
    finally:
        set_threads(before)


def test_oracle_v1_builds_no_generator_per_scenario(monkeypatch):
    model = standard_model("min_put", d=2)
    payoff = desk_plan("min_put").payoff
    x1 = sample_driver(50, 2, model.n_periods, 3, (STREAM_TEST,))[:, :, 0]
    want_vals, want_ses = _oracle_v1_per_scenario(payoff, model, x1, 7, seed=9)

    def no_generator(*args, **kwargs):
        raise AssertionError("oracle_v1 built a generator per scenario")

    monkeypatch.setattr(bench, "stream_rng", no_generator, raising=False)
    monkeypatch.setattr(paths, "stream_rng", no_generator)
    monkeypatch.setattr(paths, "Generator", no_generator)
    vals, ses = oracle_v1(payoff, model, x1, n_inner=7, seed=9)
    assert np.array_equal(vals, want_vals)
    assert np.array_equal(ses, want_ses)


def test_oracle_v1_matches_black_put_truth():
    """With d = 1 and rate 0 the min-put is a put, so V_1 is Black's price."""
    model = standard_model("min_put", d=1)
    payoff = Payoff("min_put", strike=1.0)
    k = 2000
    x1 = sample_driver(k, 1, model.n_periods, 0, (STREAM_TEST,))[:, :, 0]
    v1, se = oracle_v1(payoff, model, x1, n_inner=200, seed=0)
    sigma, (dt1, tau) = model.vols[0, 0], model.steps
    log_s1 = sigma * math.sqrt(dt1) * x1[:, 0] - 0.5 * sigma**2 * dt1
    truth = black_put_price(log_s1, 1.0, 0.0, sigma, tau)
    z = (v1 - truth) / se
    assert abs(z.mean()) < 5.0 / math.sqrt(k)
    assert 0.8 <= np.mean(z**2) <= 1.2


def test_oracle_v1_tower_matches_v0():
    """Averaging the date-1 oracle over scenarios recovers the date-0 value."""
    model = standard_model("min_put", d=2)
    payoff = Payoff("min_put", strike=1.0)
    test = sample_driver(3000, 2, 2, 0, (STREAM_TEST,))
    y = payoff_value(payoff, model, simulate_bs(model, test))
    v0, v0_se = oracle_v0(y)
    v1, _ = oracle_v1(payoff, model, test[:, :, 0], n_inner=100, seed=0)
    tol = 4.0 * math.sqrt(v0_se**2 + v1.var(ddof=1) / v1.size)
    assert abs(v1.mean() - v0) <= tol


# (vol, steps) of the models exact_v1 is checked on: the standard two
# periods, a volatile asset, and a short tail tau = 0.01 after a first
# period of a month and of half a year, where the cdfs are steps 0.02 wide
_EXACT_MODELS = [(0.2, None), (1.0, None), (0.2, [1 / 12, 0.01]), (0.2, [0.5, 0.01])]


def _exact_model(d, vol, steps, rate=0.0):
    """The standard min_put model with vol (one, or one per asset) and steps."""
    model = replace(standard_model("min_put", d=d, rate=rate),
                    vols=np.diag(np.broadcast_to(np.asarray(vol, dtype=float), (d,))))
    return model if steps is None else replace(model, steps=np.array(steps))


@pytest.mark.parametrize("vol, steps", _EXACT_MODELS)
def test_exact_v1_single_asset_is_black_put(vol, steps):
    model = _exact_model(1, vol, steps)
    x1 = sample_driver(2000, 1, model.n_periods, 0, (STREAM_TEST,))[:, :, 0]
    v1 = exact_v1(Payoff("min_put", strike=1.0), model, x1)
    dt1, tau = model.steps
    log_s1 = vol * math.sqrt(dt1) * x1[:, 0] - 0.5 * vol**2 * dt1
    truth = black_put_price(log_s1, 1.0, 0.0, vol, tau)
    # Black's formula is a difference of two terms of order K = 1, so it
    # holds a value to a few 1e-16 absolute: at tau = 0.01 a put worth
    # 1e-3 differs from it by 1.3e-16, and mpmath sides with exact_v1
    np.testing.assert_allclose(v1, truth, rtol=1e-14, atol=5e-16)


# first-period drivers of one scenario per row, every asset alike but the
# mixed row: the first row is deep in the money for the put and deep out
# of it for the call, the second the other way round
_EXACT_SCENARIOS = np.array([[-8.0] * 6, [8.0] * 6, [-3.0] * 6, [0.0] * 6, [3.0] * 6,
                             [1.0, -1.0, 0.5, 2.0, -2.0, 0.0]])


def _adaptive_v1(kind, model, x, strike):
    """V_1 of one scenario by adaptive quadrature over u = log x.

    Over 12 standard deviations past every asset, in pieces split at
    each m_i and m_i + s_i^2; a warning of quad fails the test.
    """
    from scipy.integrate import quad
    from scipy.special import log_ndtr
    var = (model.vols**2).sum(axis=1)
    dt1, tau = model.steps[0], model.steps[1:].sum()
    mean = (np.log(model.initial_prices) + (model.rate - 0.5 * var) * (dt1 + tau)
            + math.sqrt(dt1) * (model.vols * x).sum(axis=1))
    sd = np.sqrt(var * tau)
    sign = -1.0 if kind == "min_put" else 1.0  # P(S_i > x) or P(S_i < x) = Phi(sign z)
    def f(u):
        return -math.expm1(log_ndtr(sign * (u - mean) / sd).sum()) * math.exp(u)
    if kind == "min_put":
        lo, hi = (mean - 12 * sd).min(), math.log(strike)
    else:
        lo, hi = math.log(strike), (mean + sd * (sd + 12)).max()
    edges = [lo] + sorted(e for e in np.r_[mean, mean + sd**2] if lo < e < hi) + [hi]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        total = sum(quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                    for a, b in zip(edges, edges[1:]) if b > a)
    return math.exp(-model.rate * model.steps.sum()) * total


@pytest.mark.parametrize("vol, steps, rate, strike", [
    *[(vol, steps, 0.0, 1.0) for vol, steps in _EXACT_MODELS],
    (0.2, None, 0.05, 1.0),
    (0.5, [1.0, 9.0], 0.05, 1.2),
    ([0.1, 0.15, 0.2, 0.25, 0.3, 0.4], None, 0.05, 0.9),
])
@pytest.mark.parametrize("kind", ["min_put", "max_call"])
def test_exact_v1_matches_adaptive_quadrature(kind, vol, steps, rate, strike):
    model = _exact_model(6, vol, steps, rate)
    got = exact_v1(Payoff(kind, strike=strike), model, _EXACT_SCENARIOS)
    want = [_adaptive_v1(kind, model, x, strike) for x in _EXACT_SCENARIOS]
    # values below 1e-16 (deep out of the money) need only be as small
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-16)


@pytest.mark.parametrize("kind", ["min_put", "max_call"])
def test_oracle_v1_matches_exact_v1(kind):
    """The nested-MC z-scores against the exact V_1 at d = 6, as against Black's put."""
    model = standard_model("min_put", d=6)
    payoff = Payoff(kind, strike=1.0)
    k = 2000
    x1 = sample_driver(k, 6, model.n_periods, 0, (STREAM_TEST,))[:, :, 0]
    v1, se = oracle_v1(payoff, model, x1, n_inner=200, seed=0)
    z = (v1 - exact_v1(payoff, model, x1)) / se
    assert abs(z.mean()) < 5.0 / math.sqrt(k)
    assert 0.8 <= np.mean(z**2) <= 1.2


@pytest.mark.parametrize("kind", ["min_put", "max_call", "brc"])
def test_exact_v1_same_bits_in_any_block(kind, monkeypatch):
    if kind == "brc":
        # the third asset has a grid of its own, so a block of one scenario
        # interpolates one point there: numpy's matmul would take gemv for it
        model = replace(standard_model("brc", d=3, rate=0.03), vols=np.diag([0.2, 0.2, 0.25]))
        payoff = Payoff("brc", strike=1.0, barrier=0.8, coupon=0.05)
    else:
        model = standard_model("min_put", d=6, rate=0.03)
        payoff = Payoff(kind, strike=1.0)
    d = model.n_assets
    x1 = sample_driver(50, d, model.n_periods, 4, (STREAM_TEST,))[:, :, 0]
    want = exact_v1(payoff, model, x1)
    for chunk in (1, 7):
        monkeypatch.setattr(bench, "_EXACT_CHUNK", chunk)
        monkeypatch.setattr(bench, "_BRC_CHUNK", chunk)
        assert np.array_equal(exact_v1(payoff, model, x1), want), chunk


def _brc_model(d=3, vols=0.2, rate=0.0, steps=None):
    """The standard brc model with vols (one, or one per asset), rate and steps."""
    model = replace(standard_model("brc", d=d, rate=rate),
                    vols=np.diag(np.broadcast_to(np.asarray(vols, dtype=float), (d,))))
    return model if steps is None else replace(model, steps=np.array(steps))


@pytest.mark.parametrize("rate", [0.0, 0.04])
def test_exact_brc_at_two_dates_is_a_black_form(rate):
    """At T = 2 and d = 1 only date 2 is left to monitor, so V_1 is a closed form.

    With w_2 ~ N(m, s^2) given w_1, the note loses f (1 - e^{w_2} / K) when
    w_2 < log K and it has breached: always if w_1 <= b, else when w_2 <= b.
    E[1{w_2 <= c} (1 - e^{w_2} / K)] = Phi((c - m) / s) - e^{m + s^2/2} Phi((c - m - s^2) / s) / K.
    """
    sigma, steps, K, barrier, c, f = 0.3, [0.25, 0.5], 1.1, 0.75, 0.05, 2.0
    model = _brc_model(1, sigma, rate, steps)
    payoff = Payoff("brc", strike=K, barrier=barrier, coupon=c, face=f)
    x1 = np.linspace(-8.0, 5.0, 301)[:, None]  # x1 below -1.9 breaches at date 1
    w1 = sigma * math.sqrt(steps[0]) * x1[:, 0] + (rate - 0.5 * sigma**2) * steps[0]
    m, s = w1 + (rate - 0.5 * sigma**2) * steps[1], sigma * math.sqrt(steps[1])

    def lost(cut):
        return ndtr((cut - m) / s) - np.exp(m + 0.5 * s * s) * ndtr((cut - m - s * s) / s) / K

    breached = w1 <= math.log(barrier)
    assert 0 < breached.sum() < breached.size
    want = math.exp(-rate * sum(steps)) * (
        c + f - f * np.where(breached, lost(math.log(K)), lost(math.log(barrier))))
    np.testing.assert_allclose(exact_v1(payoff, model, x1), want, rtol=0, atol=1e-14)


def test_exact_brc_asset_far_above_the_strike_drops_out():
    # an asset whose date-1 price lies far above every barrier grid (past
    # top, where the Nyström pass reads H from its value at top) can neither
    # breach nor set the loss, so the note is worth the note on the others
    x = np.linspace(-5.0, 5.0, 41)
    payoff = Payoff("brc", strike=1.0, barrier=0.7, coupon=0.05)
    pair = exact_v1(payoff, _brc_model(2, vols=[0.2, 0.3], rate=0.02, steps=[0.1, 0.2, 0.3]),
                    np.column_stack([x, np.full(x.size, 60.0)]))
    one = exact_v1(payoff, _brc_model(1, vols=0.2, rate=0.02, steps=[0.1, 0.2, 0.3]), x[:, None])
    np.testing.assert_allclose(pair, one, rtol=0, atol=1e-14)


_BRC_CASES = [(_brc_model(), Payoff("brc", barrier=0.6)),
              (_brc_model(vols=[0.2, 0.3, 0.2], rate=0.03),
               Payoff("brc", strike=1.1, barrier=0.8, coupon=0.05))]


@pytest.mark.parametrize("name, finer", [("_NYS_NODES", 16), ("_NYS_PANEL_SDS", 0.5),
                                         ("_NYS_TAIL_SDS", 12.0), ("_GL_NODES", 128),
                                         ("_CHEB_PER_SD", 16.0)])
@pytest.mark.parametrize("case", range(len(_BRC_CASES)))
def test_exact_brc_converges(case, name, finer, monkeypatch):
    # panel width, tail width, y nodes (with the min_put leg's nodes) and
    # Chebyshev degree, each refined alone
    model, payoff = _BRC_CASES[case]
    x1 = sample_driver(1000, 3, model.n_periods, 5, (STREAM_TEST,))[:, :, 0]
    want = exact_v1(payoff, model, x1)
    monkeypatch.setattr(bench, name, finer)
    np.testing.assert_allclose(exact_v1(payoff, model, x1), want, rtol=0, atol=1e-14)


def test_oracle_v1_matches_exact_brc():
    """The nested-MC z-scores against the exact brc V_1 at d = 3, as against Black's put.

    Two grids (unequal vols) and a rate > 0.  A scenario none of whose inner
    paths breach has a standard error of 0 and is left out; at barrier 0.8
    and 200 inner paths there are none, which the count checks.
    """
    model = _brc_model(vols=[0.2, 0.2, 0.3], rate=0.02)
    payoff = Payoff("brc", strike=1.0, barrier=0.8, coupon=0.05)
    k = 2000
    x1 = sample_driver(k, 3, model.n_periods, 0, (STREAM_TEST,))[:, :, 0]
    v1, se = oracle_v1(payoff, model, x1, n_inner=200, seed=0)
    kept = se > 0
    assert kept.sum() >= 0.99 * k
    z = (v1 - exact_v1(payoff, model, x1))[kept] / se[kept]
    assert abs(z.mean()) < 5.0 / math.sqrt(kept.sum())
    assert 0.8 <= np.mean(z**2) <= 1.2


def test_exact_v1_rejects_what_it_cannot_value():
    x1 = np.zeros((3, 2))
    brc = Payoff("brc", barrier=0.6)
    for model, needle in ((_brc_model(2, steps=[1.0]), "T >= 2"),
                          (_brc_model(2, vols=[0.2, 0.0]), "positive"),
                          (replace(_brc_model(2), vols=np.array([[0.3, 0.0], [0.1, 0.2]])),
                           "independent"),
                          (_brc_model(2, vols=0.01), "barrier grid panels")):
        with pytest.raises(ValueError, match=needle):
            exact_v1(brc, model, x1)
    one_period = BlackScholesModel(initial_prices=np.ones(2), vols=0.2 * np.eye(2),
                                   rate=0.0, steps=np.array([1.0]))
    with pytest.raises(ValueError, match="T >= 2"):
        exact_v1(Payoff("min_put"), one_period, x1)
    dependent = replace(standard_model("min_put", d=2), vols=np.array([[0.3, 0.0],
                                                                       [0.1, 0.2]]))
    with pytest.raises(ValueError, match="independent"):
        exact_v1(Payoff("max_call"), dependent, x1)
    riskless = replace(standard_model("min_put", d=2), vols=np.diag([0.2, 0.0]))
    with pytest.raises(ValueError, match="positive"):
        exact_v1(Payoff("min_put"), riskless, x1)
    far_apart = replace(standard_model("min_put", d=2), vols=np.diag([0.2, 0.01]))
    with pytest.raises(ValueError, match="panels"):
        exact_v1(Payoff("min_put"), far_apart, x1)
    for bad in (x1[:, 0], x1[:, :1]):
        with pytest.raises(ValueError, match=r"x1 must have shape \(k, 2\)"):
            exact_v1(Payoff("min_put"), standard_model("min_put", d=2), bad)


@pytest.mark.parametrize("kind, vols, exact", [
    ("min_put", None, True),
    ("max_call", None, True),
    ("brc", None, True),
    ("min_put", [[0.3, 0.0], [0.1, 0.2]], False),
    ("brc", [[0.3, 0.0], [0.1, 0.2]], False),
])
def test_run_experiment_date1_truth(kind, vols, exact):
    """Exact V_1 with zero standard errors where exact_v1 applies, nested MC elsewhere."""
    model = standard_model(kind, d=2)
    if vols is not None:
        model = replace(model, vols=np.array(vols))
    plan = _micro_plan(payoff=desk_plan(kind).payoff, model=model, n_test=200)
    rep = run_experiment(plan)
    x1 = sample_streams(plan, ("test",))["test"].driver[:, :, 0]
    if exact:
        want, want_se = exact_v1(plan.payoff, model, x1), np.zeros(200)
    else:
        want, want_se = oracle_v1(plan.payoff, model, x1, plan.n_inner, plan.seed)
    assert np.array_equal(rep.v1, want) and np.array_equal(rep.v1_se, want_se)


# ---------------------------------------------------------------- planning


def test_standard_model_shapes():
    m = standard_model("min_put")
    assert m.n_assets == 6 and m.n_periods == 2
    assert m.steps == pytest.approx([1.0 / 12.0, 11.0 / 12.0])
    assert np.array_equal(m.vols, 0.2 * np.eye(6))
    b = standard_model("brc")
    assert b.n_assets == 3 and b.n_periods == 12
    assert b.steps == pytest.approx(np.full(12, 1.0 / 12.0))
    assert standard_model("max_call", d=4).n_assets == 4


def test_standard_model_rejects_infinite_vol_without_a_warning():
    # vol * eye(d) would warn at inf * 0 before the model's own check could raise
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for vol in (np.inf, -np.inf):
            with pytest.raises(ValueError, match="vols must be finite"):
                standard_model("min_put", d=2, vol=vol)
        vols = standard_model("min_put", d=3, vol=-0.2).vols
    assert np.array_equal(vols, -0.2 * np.eye(3))
    assert np.array_equal(np.signbit(vols), np.signbit(-0.2 * np.eye(3)))


def test_desk_plan_rejects_an_unknown_payoff_kind():
    for preset in (desk_plan, paper_plan):
        with pytest.raises(ValueError, match="unknown payoff kind: 'nope'"):
            preset("nope")


def test_desk_and_paper_plan_sizes():
    plan = desk_plan("min_put")
    assert plan.n_train == 5000 and plan.valid_size == 2000
    assert plan.n_test == 20000 and plan.n_inner == 200
    assert plan.eval_dates == (0, 1, 2)
    assert plan.name == "min_put_desk"
    big = paper_plan("max_call")
    assert big.n_train == 20000 and big.valid_size == 8000
    assert big.n_test == 100000 and big.n_inner == 1000
    assert big.name == "max_call_paper"


def test_plan_validation():
    model = standard_model("min_put", d=2)
    payoff = Payoff("min_put", strike=1.0)
    with pytest.raises(ValueError):
        ExperimentPlan(name="x", payoff=payoff, model=model,
                       estimator=(("t", TreeConfig()),))
    with pytest.raises(ValueError):
        ExperimentPlan(name="x", payoff=payoff, model=model,
                       estimator=TreeConfig(), n_train=0)
    with pytest.raises(ValueError):
        ExperimentPlan(name="x", payoff=payoff, model=model,
                       estimator=TreeConfig(), n_valid=0)
    with pytest.raises(ValueError, match="seed"):
        ExperimentPlan(name="x", payoff=payoff, model=model, estimator=TreeConfig(), seed=-1)
    # numpy indexes with int64: a larger size could never be allocated
    for size in ("n_train", "n_valid", "n_test", "n_inner"):
        with pytest.raises(ValueError, match=size):
            ExperimentPlan(name="x", payoff=payoff, model=model, estimator=TreeConfig(),
                           **{size: 2**63})
    ExperimentPlan(name="x", payoff=payoff, model=model, estimator=TreeConfig(),
                   n_test=2**63 - 1)
    # dates the run cannot serve fail here, not after sampling, the oracles and the fit
    for dates, needle in (((0, 2), "must include 0 and 1"), ((0, 1, 7), "must lie in 0..2"),
                          ((1, 1, 0), "must be distinct"),
                          # a truncated 1.5 would value date 1 twice
                          ((0, 1, 1.5), "must be integers"), ((0, 1, 2.0), "must be integers")):
        with pytest.raises(ValueError, match=needle):
            ExperimentPlan(name="x", payoff=payoff, model=model,
                           estimator=TreeConfig(), dates=dates)


def test_desk_plan_rejects_boolean_dates():
    # a bool is an int to Python, and True would run as date 1
    with pytest.raises(ValueError, match="must be integers"):
        desk_plan("min_put", dates=(0, True, 2))


def test_list_dates_hash_as_the_tuple(tmp_path):
    as_list = desk_plan("min_put", dates=[0, 1, 2])
    as_tuple = desk_plan("min_put", dates=(0, 1, 2))
    assert as_list.dates == (0, 1, 2) and type(as_list.dates) is tuple
    assert write_snapshot(tmp_path / "list.snapshot", as_list) == \
        write_snapshot(tmp_path / "tuple.snapshot", as_tuple)


# ------------------------------------------------------------ report bundles


def test_write_snapshot_deterministic(tmp_path):
    plan = desk_plan("min_put")
    h1 = write_snapshot(tmp_path / "a.snapshot", plan)
    h2 = write_snapshot(tmp_path / "b.snapshot", plan)
    assert h1 == h2
    text = (tmp_path / "a.snapshot").read_text()
    assert f"config_hash: {h1}" in text
    assert "n_train: 5000" in text
    h3 = write_snapshot(tmp_path / "c.snapshot", plan, extras={"k": 1})
    assert h3 != h1


@pytest.mark.parametrize("plan", [
    *(desk_plan(kind, estimator=est) for kind in ("min_put", "max_call", "brc")
      for est in (None, ForestConfig(), TreeConfig())),
    BermudanPlan(), BermudanPlan(estimator=BoostConfig(rounds=5), mode="both")],
    ids=[f"{kind}-{est}" for kind in ("min_put", "max_call", "brc")
         for est in ("boost", "forest", "tree")] + ["bermudan-forest", "bermudan-boost"])
def test_snapshot_holds_no_object_address(tmp_path, plan):
    # a field written by its default repr (a function, say) would carry a
    # process address, and the config hash would change from run to run
    write_snapshot(tmp_path / "plan.snapshot", plan)
    text = (tmp_path / "plan.snapshot").read_text()
    assert " at 0x" not in text and "custom_fn" not in text, text


def _with_model(plan, **changes):
    return replace(plan, model=replace(plan.model, **changes))


def _nine_asset_plan(vol_44):
    vols = 0.2 * np.eye(9)
    vols[4, 4] = vol_44
    return _with_model(desk_plan("min_put"), initial_prices=np.ones(9), vols=vols)


def _steps_plan(steps):
    return _with_model(desk_plan("min_put"), steps=np.asarray(steps, dtype=np.float64))


_GRID_100 = np.full(100, 0.01)


@pytest.mark.parametrize("plan_a, plan_b, field", [
    # one entry of an array above 64 elements
    (_nine_asset_plan(0.2), _nine_asset_plan(0.3), "vols"),
    (_steps_plan(_GRID_100), _steps_plan(np.where(np.arange(100) == 50, 0.02, 0.01)),
     "steps"),
    # a difference below the eighth digit
    (_steps_plan([1 / 12, 11 / 12]), _steps_plan([1 / 12 + 1e-10, 11 / 12]), "steps"),
])
def test_snapshot_writes_arrays_exactly(tmp_path, plan_a, plan_b, field):
    hashes = []
    for tag, plan in (("a", plan_a), ("b", plan_b)):
        hashes.append(write_snapshot(tmp_path / f"{tag}.snapshot", plan))
        lines = (tmp_path / f"{tag}.snapshot").read_text().splitlines()
        # every line carries its key, so an array never continues on a keyless line
        assert all(re.match(r"^ *\w+:( |$)", line) for line in lines), lines
        text, = [line.split(": ", 1)[1] for line in lines
                 if line.strip().startswith(f"{field}:")]
        assert ast.literal_eval(text) == getattr(plan.model, field).tolist()
    assert hashes[0] != hashes[1]


def test_bundle_hash_ignores_timings(tmp_path):
    (tmp_path / "a.csv").write_text("x,y\n1,2\n")
    (tmp_path / "timings.csv").write_text("stage,seconds\nfit,1.0\n")
    h1 = bundle_hash(tmp_path)
    (tmp_path / "timings.csv").write_text("stage,seconds\nfit,9.9\n")
    (tmp_path / "bundle.hash").write_text("deadbeef\n")
    assert bundle_hash(tmp_path) == h1
    (tmp_path / "a.csv").write_text("x,y\n1,3\n")
    assert bundle_hash(tmp_path) != h1


def _micro_plan(**overrides):
    base = dict(name="micro", payoff=Payoff("min_put", strike=1.0),
                model=standard_model("min_put", d=2),
                estimator=TreeConfig(nodesize=30),
                n_train=400, n_valid=150, n_test=500, n_inner=20, seed=0)
    base.update(overrides)
    return ExperimentPlan(**base)


def test_run_experiment_micro(tmp_path):
    out = tmp_path / "run"
    rep = run_experiment(_micro_plan(), out_dir=out)
    assert rep.v0 > 0 and rep.v0_se > 0
    assert rep.v1.shape == (500,) and rep.v1_se.shape == (500,)
    assert rep.y_test.shape == (500,)
    assert rep.plan.estimator_kind == "tree"
    assert rep.surface.values.shape == (500, 3)
    assert dict(rep.l2_rows).keys() == {0, 1, 2}
    assert all(np.isfinite(e) for _, e in rep.l2_rows)
    assert isinstance(rep.underfit, bool)
    assert len(rep.risk.entries) == 4
    for name in ("config.snapshot", "l2_errors.csv", "qq_t1.csv", "qq_tT.csv",
                 "risk.csv", "value_surface_tree.csv", "timings.csv"):
        assert (out / name).exists(), name
    assert rep.config_hash


def test_run_experiment_bundle_deterministic(tmp_path):
    h = []
    for sub in ("x", "y"):
        run_experiment(_micro_plan(), out_dir=tmp_path / sub)
        h.append(bundle_hash(tmp_path / sub))
    assert h[0] == h[1]


def test_run_experiment_seed_changes_bundle(tmp_path):
    run_experiment(_micro_plan(), out_dir=tmp_path / "a")
    run_experiment(_micro_plan(seed=1), out_dir=tmp_path / "b")
    assert bundle_hash(tmp_path / "a") != bundle_hash(tmp_path / "b")


def test_regress_now_date1_micro():
    plan = _micro_plan()
    est = regress_now_date1(plan)
    assert est.shape == (500,)
    assert np.array_equal(est, regress_now_date1(plan))


def test_regress_now_date1_stops_a_boost_on_the_valid_stream():
    plan = _micro_plan(estimator=BoostConfig(rounds=60, learning_rate=0.5, nodesize=5,
                                             patience=2))
    train, valid, test = sample_streams(plan).values()
    model = fit(plan.estimator, train.driver[:, :, :1], train.payoffs,
                (valid.driver[:, :, :1], valid.payoffs))
    assert model.n_rounds < 60
    assert np.array_equal(regress_now_date1(plan), predict(model, test.driver[:, :, :1]))


# ---------------------------------------------------------- Bermudan harness


def test_bermudan_plan_payoffs_are_the_undiscounted_put():
    plan = BermudanPlan(strike=1.1, n_dates=4, horizon=1.0)
    spec = plan.exercise_spec()
    assert spec.n_dates == 5
    z = np.array([[-0.5], [0.0], [0.2]])
    want = np.maximum(1.1 - np.exp(z[:, 0]), 0.0)
    for t in range(5):
        assert np.array_equal(spec.payoffs[t](z), want)


def test_bermudan_plan_validation():
    with pytest.raises(ValueError):
        BermudanPlan(n_dates=0)
    with pytest.raises(ValueError):
        BermudanPlan(n_train=0)
    with pytest.raises(ValueError):
        BermudanPlan(mode="sideways")
    with pytest.raises(ValueError, match="seed"):
        BermudanPlan(seed=-1)
    for size in ("n_train", "n_test", "n_dates"):
        with pytest.raises(ValueError, match=size):
            BermudanPlan(**{size: 2**63})
    for bad in ({"sigma": 0.0}, {"strike": -1.0}, {"z0": float("nan")},
                {"horizon": float("inf")}):
        with pytest.raises(ValueError):
            BermudanPlan(**bad)


@pytest.mark.parametrize("estimator, needle", [
    ("forest", "estimator must be a TreeConfig, ForestConfig or BoostConfig"),
    (BoostConfig, "estimator must be a TreeConfig, ForestConfig or BoostConfig"),
    ((("t", TreeConfig()),), "estimator must be a TreeConfig, ForestConfig or BoostConfig"),
    (ForestConfig(sampling="subsample_without", n_resample=1000), "n_resample")],
    ids=["string", "class", "pairs", "forest-misfit"])
def test_both_plans_check_the_estimator_before_any_sample(estimator, needle):
    with pytest.raises(ValueError, match=needle):
        BermudanPlan(n_train=120, estimator=estimator)
    with pytest.raises(ValueError, match=needle):
        desk_plan("min_put", estimator=estimator, n_train=120)


def test_bermudan_plan_rejects_a_boost_with_patience():
    # the Bermudan fits draw no validation sample, so patience could not act
    with pytest.raises(ValueError, match="set patience: null"):
        BermudanPlan(estimator=BoostConfig(rounds=5, patience=3))
    assert BermudanPlan(estimator=BoostConfig(rounds=5)).estimator.patience is None


def test_bermudan_truth_columns():
    plan = BermudanPlan(n_dates=4)
    z = np.zeros((3, 1, 5))
    z[:, 0, :] = np.linspace(-0.2, 0.2, 15).reshape(3, 5)
    truth = _bermudan_truth(plan, z)
    assert truth.shape == (3, 5)
    assert truth[:, 4] == pytest.approx(np.maximum(1.0 - np.exp(z[:, 0, 4]), 0.0))
    want = black_put_price(z[:, 0, 1], 1.0, 0.0, 0.2, 0.75)
    assert truth[:, 1] == pytest.approx(want)


def test_run_bermudan_micro(tmp_path):
    plan = BermudanPlan(n_train=300, n_test=400, n_dates=3, seed=1,
                        estimator=TreeConfig(nodesize=40), mode="both")
    out = tmp_path / "b"
    rep = run_bermudan(plan, out_dir=out)
    assert rep.stopping.shape == (4,)
    assert rep.stopping.sum() == pytest.approx(1.0, abs=1e-12)
    assert rep.stopping_now is not None and rep.value0_now is not None
    assert rep.stopping_now.sum() == pytest.approx(1.0, abs=1e-12)
    assert len(rep.l2_rows) == 3
    assert rep.true_value0 == pytest.approx(
        black_put_price(0.0, 1.0, 0.0, 0.2, 1.0), rel=1e-14)
    for name in ("config.snapshot", "stopping.csv", "stopping_now.csv",
                 "bermudan_l2.csv", "bermudan_risk.csv", "timings.csv"):
        assert (out / name).exists(), name


def test_run_bermudan_bundle_deterministic(tmp_path):
    plan = BermudanPlan(n_train=200, n_test=300, n_dates=3, seed=2,
                        estimator=TreeConfig(nodesize=40))
    h = []
    for sub in ("x", "y"):
        run_bermudan(plan, out_dir=tmp_path / sub)
        h.append(bundle_hash(tmp_path / sub))
    assert h[0] == h[1]


def test_run_bermudan_forest_bundle_same_at_one_and_two_threads(tmp_path):
    """A forest in both modes, on enough test paths for the interpolated
    cell sum: no byte moves with the thread cap."""
    plan = BermudanPlan(n_train=600, n_test=1300, n_dates=3, seed=3, mode="both",
                        estimator=ForestConfig(n_trees=6, nodesize=20, features=1, seed=11))
    before = get_threads()
    h = []
    try:
        for threads in (1, 2):
            set_threads(threads)
            run_bermudan(plan, out_dir=tmp_path / str(threads))
            h.append(bundle_hash(tmp_path / str(threads)))
    finally:
        set_threads(before)
    assert h[0] == h[1]


@pytest.mark.parametrize("estimator", [
    ForestConfig(n_trees=6, nodesize=20, features=1, seed=11),
    BoostConfig(rounds=20, learning_rate=0.3, nodesize=20, max_depth=3, seed=5),
], ids=["forest", "boost"])
def test_run_bermudan_both_is_later_plus_now(tmp_path, estimator):
    """One backward loop serves both modes; a "both" run leaks nothing between them."""
    plan = BermudanPlan(n_train=400, n_test=700, n_dates=3, seed=4, estimator=estimator)
    rep = {mode: run_bermudan(replace(plan, mode=mode), out_dir=tmp_path / mode)
           for mode in ("both", "later", "now")}
    assert np.array_equal(rep["both"].stopping, rep["later"].stopping)
    assert rep["both"].value0 == rep["later"].value0
    assert (tmp_path / "both" / "bermudan_l2.csv").read_bytes() == \
        (tmp_path / "later" / "bermudan_l2.csv").read_bytes()
    assert np.array_equal(rep["both"].stopping_now, rep["now"].stopping)
    assert rep["both"].value0_now == rep["now"].value0
    assert rep["later"].stopping_now is None and rep["now"].value0_now is None
