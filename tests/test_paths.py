"""Driver sampling, model simulation, and payoff evaluation."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from treeval.cart import _time_major
from treeval.paths import (BlackScholesModel, LogBSModel, Payoff, STREAM_INNER,
                           STREAM_TEST, STREAM_TRAIN, STREAM_VALID, _draw_bits,
                           _normal_from_bits, payoff_value, sample_driver, simulate_bs, stream_rng)


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


def test_sample_driver_shape_and_determinism():
    s = sample_driver(50, 3, 4, seed=11)
    assert s.shape == (50, 3, 4)
    t = sample_driver(50, 3, 4, seed=11)
    np.testing.assert_array_equal(s, t)


def test_sample_driver_bits_are_pinned():
    # every samples.npz byte follows from these draws; a change to the
    # sampler's streams or its normal transform shows here
    x = sample_driver(3, 2, 2, seed=11, stream=(STREAM_TEST,))
    assert type(x) is np.ndarray and x.dtype == np.float64 and x.shape == (3, 2, 2)
    want = [-1.1031482254419955, 0.8563469655312789, 0.7374309246236461,
            -0.5507877243995233, 0.25957192977951754, -2.213610906707156,
            -0.15568934837906678, 1.1408341777638138, 0.04945033408348346,
            0.3387152492591746, 0.9433647214859061, -1.0130902596962983]
    assert x.ravel().tolist() == want


def test_normal_from_bits_is_the_inverse_cdf_of_centred_bits():
    raw = _draw_bits(stream_rng(5, STREAM_INNER), (3, 4, 2, 5))
    raw[0, 0, 0, :3] = [0, 1, (1 << 53) - 1]
    want = ndtri((raw.astype(np.float64) + 0.5) * (0.5**53))
    kept = raw.copy()
    got = _normal_from_bits(raw)
    assert got.dtype == np.float64 and got.shape == raw.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    np.testing.assert_array_equal(raw, kept)


def test_sample_driver_moments():
    s = sample_driver(200_000, 2, 1, seed=3)
    x = s.ravel()
    n = x.size
    assert abs(x.mean()) < 3.0 / np.sqrt(n)
    assert abs(x.var() - 1.0) < 3.0 * np.sqrt(2.0 / n)


def test_flat_layout_is_time_major():
    data = np.arange(2 * 3 * 4, dtype=np.float64).reshape(2, 3, 4)
    flat = _time_major(data)
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


def test_simulate_bs_rejects_a_misshapen_driver():
    model = BlackScholesModel(initial_prices=np.ones(2), vols=0.2 * np.eye(2),
                              rate=0.0, steps=np.array([0.5, 0.5]))
    x = sample_driver(4, 2, 2, seed=0)
    for bad in (x[:, :, 0], x[:, :1], x[:, :, :1], x[0], x[None]):
        with pytest.raises(ValueError, match=r"driver must have shape \(n, 2, 2\)"):
            simulate_bs(model, bad)


def test_simulate_bs_is_martingale_at_zero_rate():
    model = BlackScholesModel(initial_prices=np.array([1.0]),
                              vols=np.array([[0.2]]),
                              rate=0.0, steps=np.array([0.5, 0.5]))
    x = sample_driver(100_000, 1, 2, seed=5)
    prices = simulate_bs(model, x)
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


def test_unknown_payoff_kind_rejected():
    for kind in ("lookback", "custom"):
        with pytest.raises(ValueError, match="unknown payoff kind"):
            Payoff(kind=kind)


@pytest.mark.parametrize("name", ["strike", "barrier", "coupon", "face"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_payoff_rejects_non_finite_terms(name, value):
    for kind in ("min_put", "max_call", "brc"):
        args = dict(kind=kind, strike=1.0, barrier=0.6, coupon=0.05, face=1.0)
        args[name] = value
        with pytest.raises(ValueError, match="must be finite"):
            Payoff(**args)


@pytest.mark.parametrize("name, value, needle", [
    ("initial_prices", [], "initial prices"), ("initial_prices", [1.0, 0.0], "initial prices"),
    ("initial_prices", [1.0, np.nan], "initial prices"),
    ("initial_prices", [1.0, np.inf], "initial prices"),
    ("vols", [[0.2, 0.0], [0.0, np.nan]], "vols"), ("vols", [[np.inf, 0.0], [0.0, 0.2]], "vols"),
    ("vols", [[0.2]], "vols"), ("rate", np.nan, "rate"), ("rate", np.inf, "rate"),
    ("steps", [], "steps"), ("steps", [0.5, np.nan], "steps"), ("steps", [0.5, np.inf], "steps"),
    ("steps", [0.5, 0.0], "steps"), ("steps", [[0.5, 0.5]], "steps"),
])
def test_black_scholes_model_rejects_bad_parameters(name, value, needle):
    args = dict(initial_prices=[1.0, 1.0], vols=0.2 * np.eye(2), rate=0.0, steps=[0.5, 0.5])
    args[name] = value
    with pytest.raises(ValueError, match=needle):
        BlackScholesModel(**args)


def test_localvol_log_bs_recursion_matches_cumsum():
    steps = np.full(7, 1.0 / 7.0)
    model = LogBSModel(0.0, 0.0, 0.2, steps)
    x = sample_driver(64, 1, 7, seed=9)
    z = model.simulate(x)
    assert z.shape == (64, 1, 8)
    drift = -0.5 * 0.04 * steps
    expected = np.cumsum(0.2 * np.sqrt(steps) * x[:, 0, :] + drift, axis=1)
    np.testing.assert_allclose(z[:, 0, 1:], expected, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(z[:, 0, 0], 0.0)


def test_localvol_terminal_price_is_lognormal_martingale():
    # E[exp(Z_T)] = 1 for the driftless log recursion
    steps = np.full(7, 1.0 / 7.0)
    model = LogBSModel(0.0, 0.0, 0.2, steps)
    x = sample_driver(100_000, 1, 7, seed=17)
    z = model.simulate(x)
    s = np.exp(z[:, 0, -1])
    se = s.std(ddof=1) / np.sqrt(s.size)
    assert abs(s.mean() - 1.0) < 3 * se


def test_log_bs_model_simulate_is_the_two_operation_recursion():
    steps = np.array([0.1, 0.25, 0.4, 0.25])
    model = LogBSModel(-0.3, 0.05, 0.35, steps)
    x = sample_driver(257, 1, 4, seed=3)
    z = model.simulate(x)
    want = np.empty((257, 5))
    want[:, 0] = -0.3
    for t, dt in enumerate(steps.tolist()):
        mean = want[:, t] + (0.05 - 0.5 * 0.35 * 0.35) * dt
        want[:, t + 1] = mean + 0.35 * np.sqrt(dt) * x[:, 0, t]
    assert z.shape == (257, 1, 5)
    assert np.array_equal(z[:, 0, :], want)
    assert np.array_equal(model.drift, (0.05 - 0.5 * 0.35 * 0.35) * steps)
    assert np.array_equal(model.sd, 0.35 * np.sqrt(steps)) and model.n_periods == 4


@pytest.mark.parametrize("name, value", [
    ("z0", np.nan), ("z0", np.inf), ("rate", np.nan), ("rate", -np.inf),
    ("sigma", np.nan), ("sigma", np.inf), ("sigma", 0.0), ("sigma", -0.2),
    ("steps", []), ("steps", [[0.5, 0.5]]), ("steps", [0.5, np.nan]),
    ("steps", [0.5, np.inf]), ("steps", [0.5, 0.0]), ("steps", [0.5, -0.5]),
])
def test_log_bs_model_rejects_bad_parameters(name, value):
    args = dict(z0=0.0, rate=0.0, sigma=0.2, steps=[0.5, 0.5])
    args[name] = value
    with pytest.raises(ValueError, match=name):
        LogBSModel(**args)


def test_log_bs_model_simulate_rejects_a_bad_driver():
    model = LogBSModel(0.0, 0.0, 0.2, np.full(2, 0.5))
    x = sample_driver(4, 1, 2, seed=0)
    for bad in (x[:, :, :1], np.concatenate([x, x], axis=1), x[:, 0, :]):
        with pytest.raises(ValueError, match="shape"):
            model.simulate(bad)
    for value in (np.nan, np.inf, -np.inf):
        bad = x.copy()
        bad[2, 0, 1] = value
        with pytest.raises(ValueError, match="finite"):
            model.simulate(bad)


# ------------------------------------------------- scipy ufuncs in a fresh process

SRC = Path(__file__).resolve().parents[1] / "src"

_CLEAN = """
def special_modules():
    return sorted(n for n in sys.modules if n == "scipy.special" or n.startswith("scipy.special."))

def assert_clean():
    # every scipy.special module is the real one, bound on its parent package
    assert getattr(sys.modules.get("scipy.special"), "__file__", None), special_modules()
    for name in special_modules():
        parent, _, child = name.rpartition(".")
        assert getattr(sys.modules[parent], child) is sys.modules[name], name
"""


def _fresh(code: str) -> str:
    """Run code in a new interpreter with treeval importable from src; its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    script = "import sys\n" + _CLEAN + textwrap.dedent(code)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_treeval_import_leaves_no_scipy_special_module():
    out = _fresh("""
        import scipy
        import treeval
        from treeval import paths
        assert special_modules() == [], special_modules()
        assert "special" not in vars(scipy)
        assert type(paths.ndtr).__name__ == type(paths.ndtri).__name__ == "ufunc"
        print(paths.ndtr(0.0), paths.ndtri(0.5))
    """)
    assert out.split() == ["0.5", "0.0"]


def test_later_scipy_special_import_matches_and_keeps_errstate():
    _fresh("""
        import numpy as np
        from treeval import paths
        import scipy.special
        assert_clean()
        x = np.array([-np.inf, -40.0, -38.5, -8.0, -1.0, -0.0, 0.0, 5e-324, 1e-300, 0.5, 1.0,
                      8.5, 40.0, np.inf, np.nan] + np.linspace(-12.0, 12.0, 1001).tolist())
        u = np.array([0.0, 5e-324, 1e-300, 0.5**53, 1e-10, 0.25, 0.5, 1.0 - 0.5**53, 1.0,
                      -np.inf, np.inf, np.nan, -0.5, 2.0] + np.linspace(0.0, 1.0, 1001).tolist())
        for ours, theirs, grid in ((paths.ndtr, scipy.special.ndtr, x),
                                   (paths.ndtri, scipy.special.ndtri, u)):
            assert np.array_equal(ours(grid).view(np.uint64), theirs(grid).view(np.uint64))
        with scipy.special.errstate(all="raise"):
            try:
                scipy.special.ndtri(2.0)
            except scipy.special.SpecialFunctionError:
                pass
            else:
                raise AssertionError("ndtri(2.0) did not raise under errstate(all='raise')")
    """)


def test_loaded_scipy_special_is_used_as_it_is():
    _fresh("""
        import scipy.special
        package = sys.modules["scipy.special"]
        loaded = special_modules()
        from treeval import paths
        assert sys.modules["scipy.special"] is package
        assert special_modules() == loaded
        assert paths.ndtr is scipy.special.ndtr and paths.ndtri is scipy.special.ndtri
        assert_clean()
    """)


def test_failed_extension_load_falls_back_to_the_package():
    out = _fresh("""
        class Refuse:
            # fails one extension import, only while the parent is a bare module
            def find_spec(self, name, path=None, target=None):
                if name == "scipy.special._gufuncs" and not hasattr(
                        sys.modules.get("scipy.special"), "__file__"):
                    print("refused")
                    raise ImportError("refused under a bare parent")
                return None

        sys.meta_path.insert(0, Refuse())
        from treeval import paths
        import scipy.special
        assert paths.ndtr is scipy.special.ndtr and paths.ndtri is scipy.special.ndtri
        assert_clean()
        with scipy.special.errstate(all="raise"):
            try:
                scipy.special.ndtri(2.0)
            except scipy.special.SpecialFunctionError:
                print("raised")
    """)
    assert out.split() == ["refused", "raised"]
