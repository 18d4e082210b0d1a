"""Driver sampling, model simulation, and payoff evaluation."""

import numpy as np
import pytest
from numpy.random import Philox, SeedSequence
from scipy.special import ndtr

from treeval.paths import (BlackScholesModel, DriverSample, LocalVolModel,
                           Payoff, STREAM_INNER, STREAM_TEST, STREAM_TRAIN,
                           STREAM_VALID, _draw_bits, _keyed_bits, _stream_keys,
                           log_bs_localvol, payoff_value, sample_driver,
                           simulate_bs, simulate_localvol, stream_rng)


def test_stream_rng_is_deterministic_per_tag():
    a = stream_rng(7, STREAM_TRAIN).standard_normal(5)
    b = stream_rng(7, STREAM_TRAIN).standard_normal(5)
    np.testing.assert_array_equal(a, b)


def test_stream_rng_tags_give_distinct_streams():
    draws = {
        tag: stream_rng(7, tag).standard_normal(8)
        for tag in (STREAM_TRAIN, STREAM_VALID, STREAM_TEST, STREAM_INNER)
    }
    tags = list(draws)
    for i in range(len(tags)):
        for j in range(i + 1, len(tags)):
            assert not np.allclose(draws[tags[i]], draws[tags[j]])


def test_stream_rng_seed_changes_draws():
    a = stream_rng(1, STREAM_TRAIN).standard_normal(8)
    b = stream_rng(2, STREAM_TRAIN).standard_normal(8)
    assert not np.allclose(a, b)


@pytest.mark.parametrize("tags", [(STREAM_INNER,), (STREAM_TEST, 5)])
@pytest.mark.parametrize("seed", [0, 1, 7, 2**32 - 1, 2**32, 2**64 + 3])
def test_stream_keys_match_seed_sequence(seed, tags):
    # RuntimeWarnings are errors under pytest, so the hash also shows it
    # raises no numpy scalar-overflow warning
    ids = np.array([0, 1, 2**31, 2**32 - 1])
    want = np.array([SeedSequence(seed, spawn_key=(*tags, int(i))).generate_state(2, np.uint64)
                     for i in ids])
    got = _stream_keys(seed, tags, ids)
    assert got.dtype == np.uint64
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("shape", [(1,), (3,), (8,), (7, 1, 3), (40, 2, 5)])
def test_keyed_bits_replay_stream_draws(shape):
    # one bit generator, rekeyed per stream, gives each stream's own draws
    bitgen = Philox(0)
    keys = _stream_keys(9, (STREAM_INNER,), np.arange(3))
    for i, key in enumerate(keys):
        np.testing.assert_array_equal(_keyed_bits(bitgen, key, shape),
                                      _draw_bits(stream_rng(9, STREAM_INNER, i), shape))


def test_stream_keys_reject_bad_input():
    with pytest.raises(ValueError):
        _stream_keys(0, (STREAM_INNER,), np.array([2**32]))  # two SeedSequence words
    with pytest.raises(ValueError):
        _stream_keys(0, (STREAM_INNER,), np.array([-1]))
    with pytest.raises(ValueError):
        _stream_keys(-1, (STREAM_INNER,), np.arange(3))
    with pytest.raises(ValueError):
        _stream_keys(0, (-2,), np.arange(3))


def test_sample_driver_shape_and_determinism():
    s = sample_driver(50, 3, 4, seed=11)
    assert s.data.shape == (50, 3, 4)
    assert s.dims == (50, 3, 4)
    t = sample_driver(50, 3, 4, seed=11)
    np.testing.assert_array_equal(s.data, t.data)


def test_sample_driver_moments():
    s = sample_driver(200_000, 2, 1, seed=3)
    x = s.data.ravel()
    n = x.size
    assert abs(x.mean()) < 3.0 / np.sqrt(n)
    assert abs(x.var() - 1.0) < 3.0 * np.sqrt(2.0 / n)


def test_flat_layout_is_time_major():
    data = np.arange(2 * 3 * 4, dtype=np.float64).reshape(2, 3, 4)
    s = DriverSample(data=data, seed=0, stream=(0,))
    flat = s.flat()
    assert flat.shape == (2, 12)
    d = 3
    for period in range(4):
        for j in range(d):
            np.testing.assert_array_equal(flat[:, period * d + j],
                                          data[:, j, period])


def test_simulate_bs_single_step_closed_form():
    model = BlackScholesModel(initial_prices=np.array([1.0, 2.0]),
                              vols=np.array([[0.3, 0.0], [0.1, 0.2]]),
                              rate=0.05, steps=np.array([0.25]))
    x = np.array([[[0.5], [-1.0]]])
    prices = simulate_bs(model, x)
    assert prices.shape == (1, 2, 2)
    np.testing.assert_array_equal(prices[0, :, 0], [1.0, 2.0])
    dt = 0.25
    drift1 = (0.05 - 0.5 * 0.09) * dt
    drift2 = (0.05 - 0.5 * (0.01 + 0.04)) * dt
    s1 = 1.0 * np.exp(0.3 * 0.5 * np.sqrt(dt) + drift1)
    s2 = 2.0 * np.exp((0.1 * 0.5 + 0.2 * -1.0) * np.sqrt(dt) + drift2)
    np.testing.assert_allclose(prices[0, :, 1], [s1, s2], rtol=1e-14)


def test_simulate_bs_is_martingale_at_zero_rate():
    model = BlackScholesModel(initial_prices=np.array([1.0]),
                              vols=np.array([[0.2]]),
                              rate=0.0, steps=np.array([0.5, 0.5]))
    x = sample_driver(100_000, 1, 2, seed=5)
    prices = simulate_bs(model, x.data)
    terminal = prices[:, 0, -1]
    se = terminal.std(ddof=1) / np.sqrt(terminal.size)
    assert abs(terminal.mean() - 1.0) < 3 * se


def test_min_put_payoff_hand_case():
    model = BlackScholesModel(initial_prices=np.array([1.0, 1.0]),
                              vols=np.array([[0.2, 0.0], [0.0, 0.2]]),
                              rate=0.0, steps=np.array([1.0]))
    prices = np.array([[[1.0, 0.7], [1.0, 0.9]],
                       [[1.0, 1.2], [1.0, 1.5]]])
    y = payoff_value(Payoff(kind="min_put", strike=1.0), model, prices)
    np.testing.assert_allclose(y, [0.3, 0.0], rtol=0, atol=1e-15)


def test_max_call_payoff_hand_case():
    model = BlackScholesModel(initial_prices=np.array([1.0, 1.0]),
                              vols=np.array([[0.2, 0.0], [0.0, 0.2]]),
                              rate=0.0, steps=np.array([1.0]))
    prices = np.array([[[1.0, 0.7], [1.0, 1.4]],
                       [[1.0, 0.8], [1.0, 0.9]]])
    y = payoff_value(Payoff(kind="max_call", strike=1.0), model, prices)
    np.testing.assert_allclose(y, [0.4, 0.0], rtol=0, atol=1e-15)


def test_payoff_discounting():
    model = BlackScholesModel(initial_prices=np.array([1.0]),
                              vols=np.array([[0.2]]),
                              rate=0.1, steps=np.array([0.5, 0.5]))
    prices = np.array([[[1.0, 1.0, 0.5]]])
    y = payoff_value(Payoff(kind="min_put", strike=1.0), model, prices)
    np.testing.assert_allclose(y, [np.exp(-0.1) * 0.5], rtol=1e-15)


def test_brc_payoff_hand_cases():
    # barrier event knocks the note into a short put on the worst asset
    model = BlackScholesModel(initial_prices=np.array([1.0, 1.0]),
                              vols=np.array([[0.2, 0.0], [0.0, 0.2]]),
                              rate=0.0, steps=np.array([0.5, 0.5]))
    payoff = Payoff(kind="brc", strike=1.0, barrier=0.6, coupon=0.05, face=1.0)
    prices = np.array([
        [[1.0, 0.9, 0.8], [1.0, 1.0, 1.1]],   # no breach: full face + coupon
        [[1.0, 0.5, 0.8], [1.0, 1.0, 1.1]],   # breach, recovers above strike? worst 0.8 < 1
        [[1.0, 0.5, 1.2], [1.0, 1.0, 1.1]],   # breach but worst terminal above strike
    ])
    y = payoff_value(payoff, model, prices)
    np.testing.assert_allclose(y[0], 1.05, rtol=1e-15)
    np.testing.assert_allclose(y[1], 1.05 - (1.0 - 0.8), rtol=1e-15)
    np.testing.assert_allclose(y[2], 1.05, rtol=1e-15)


def test_brc_requires_barrier_below_strike():
    with pytest.raises(ValueError):
        Payoff(kind="brc", strike=1.0, barrier=1.2, coupon=0.05, face=1.0)
    with pytest.raises(ValueError):
        Payoff(kind="brc", strike=1.0, barrier=0.0, coupon=0.05, face=1.0)


def test_custom_payoff_requires_function():
    with pytest.raises(ValueError):
        Payoff(kind="custom")
    payoff = Payoff(kind="custom", custom_fn=lambda prices: prices[:, 0, -1])
    model = BlackScholesModel(initial_prices=np.array([1.0]),
                              vols=np.array([[0.2]]),
                              rate=0.0, steps=np.array([1.0]))
    prices = np.array([[[1.0, 1.7]]])
    np.testing.assert_array_equal(payoff_value(payoff, model, prices), [1.7])


def test_unknown_payoff_kind_rejected():
    with pytest.raises(ValueError):
        Payoff(kind="lookback")


def test_localvol_log_bs_recursion_matches_cumsum():
    steps = np.full(7, 1.0 / 7.0)
    model = log_bs_localvol(0.0, 0.0, 0.2, steps)
    x = sample_driver(64, 1, 7, seed=9)
    z = simulate_localvol(model, x.data)
    assert z.shape == (64, 1, 8)
    drift = -0.5 * 0.04 * steps
    expected = np.cumsum(0.2 * np.sqrt(steps) * x.data[:, 0, :] + drift, axis=1)
    np.testing.assert_allclose(z[:, 0, 1:], expected, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(z[:, 0, 0], 0.0)


def test_localvol_terminal_price_is_lognormal_martingale():
    # E[exp(Z_T)] = 1 for the driftless log recursion
    steps = np.full(7, 1.0 / 7.0)
    model = log_bs_localvol(0.0, 0.0, 0.2, steps)
    x = sample_driver(100_000, 1, 7, seed=17)
    z = simulate_localvol(model, x.data)
    s = np.exp(z[:, 0, -1])
    se = s.std(ddof=1) / np.sqrt(s.size)
    assert abs(s.mean() - 1.0) < 3 * se


def test_localvol_rejects_nonfinite_states():
    def bad_drift(t, z):
        return np.full(z.shape, np.inf)

    def unit_diff(t, z):
        return np.ones(z.shape + (1,))

    model = LocalVolModel(z0=np.zeros(1), drift_fn=bad_drift,
                          diffusion_fn=unit_diff, n_driver=1, n_periods=2)
    x = sample_driver(4, 1, 2, seed=0)
    with pytest.raises(ValueError):
        simulate_localvol(model, x.data)
