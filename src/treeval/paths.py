"""Stochastic driver sampling, market models, and payoff evaluation.

The stochastic driver is an i.i.d. sequence ``X_1, ..., X_T`` of
d-dimensional standard normal vectors.  Market models map a driver
sample to paths: a multivariate Black-Scholes model produces price
paths ``S_{i,t}``, and the log price of one Black-Scholes asset gives
the Bermudan state paths ``Z_t``.  Payoffs map price paths to
discounted cash flows at the final date.

All randomness flows through counter-based Philox generators keyed by
``(seed, stream tags)`` so that train / validation / test / nested
samples are drawn from provably disjoint streams and every artifact is
reproducible from a single seed.
"""

from __future__ import annotations

import importlib
import operator
import os
import sys
import types
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox, SeedSequence


def _special_ufuncs():
    """The module that holds scipy's compiled ``ndtr`` and ``ndtri`` ufuncs.

    treeval needs only these two, but ``import scipy.special`` runs the
    package's ``__init__``, which also loads its array-API layer,
    ``scipy.linalg`` and the orthogonal polynomials: 0.2-0.3 s and
    about 12 MB per process.  So, unless ``scipy.special`` is already loaded,
    the compiled ``scipy.special._ufuncs`` extension is imported under a
    bare stand-in parent module, and every ``scipy.special*`` entry the
    load added to ``sys.modules`` is removed again.  Removing them all,
    not only the stand-in, lets a later ``import scipy.special`` load
    the real package with all its submodules (``errstate`` needs
    ``_special_ufuncs``).  The ufuncs are the objects scipy exports
    under ``scipy.special``, so their values are the same.  If the
    extension cannot be loaded this way, the package is imported.
    """
    loaded = sys.modules.get("scipy.special")
    if loaded is not None:
        return loaded
    import scipy
    before = set(sys.modules)
    stub = types.ModuleType("scipy.special")
    stub.__path__ = [os.path.join(p, "special") for p in scipy.__path__]
    sys.modules["scipy.special"] = stub
    try:
        return importlib.import_module("scipy.special._ufuncs")
    except ImportError:
        pass
    finally:
        for name in [n for n in sys.modules if n not in before
                     and (n == "scipy.special" or n.startswith("scipy.special."))]:
            del sys.modules[name]
    return importlib.import_module("scipy.special")


# Phi and its inverse; the one place treeval loads scipy's special functions
ndtr, ndtri = operator.attrgetter("ndtr", "ndtri")(_special_ufuncs())

# Stream tags. Keeping them centralized avoids accidental stream reuse
# between pipeline stages that must stay statistically independent.
STREAM_TRAIN = 0
STREAM_VALID = 1
STREAM_TEST = 2
STREAM_INNER = 3


def stream_rng(seed: int, *tags: int) -> Generator:
    """Philox generator on the stream identified by ``(seed, *tags)``.

    Distinct tag tuples yield independent streams for the same seed;
    the mapping is stable across processes and platforms.
    """
    return Generator(Philox(SeedSequence(seed, spawn_key=tuple(tags))))


def _draw_bits(rng: Generator, shape) -> np.ndarray:
    """53-bit integers, value j the top 53 bits of the stream's word j (Lemire's
    draw never rejects on a power-of-two range); ``_normal_from_bits`` maps
    them to standard normals."""
    return rng.integers(0, 1 << 53, size=shape, dtype=np.uint64)


def _normal_from_bits(raw: np.ndarray) -> np.ndarray:
    # Inverse-CDF transform of u = (k + 1/2) * 2^-53 with k a 53-bit
    # integer, so u lies strictly inside (0, 1) and draws are finite.
    # Elementwise, so a block of several scenarios' bits transforms to
    # the same values as each scenario's bits alone.  Every step writes into
    # the one float copy of raw.
    u = raw.astype(np.float64)
    u += 0.5
    u *= 0.5**53
    return ndtri(u, out=u)


def sample_driver(n: int, d: int, T: int, seed: int, stream: tuple = (STREAM_TRAIN,)) -> np.ndarray:
    """n independent driver paths of dimension d over T periods, shape (n, d, T).

    ``x[i, :, s]`` is the period-(s+1) innovation of path i.
    """
    if min(n, d, T) < 1:
        raise ValueError("n, d, T must all be >= 1")
    return _normal_from_bits(_draw_bits(stream_rng(seed, *stream), (n, d, T)))


@dataclass(frozen=True)
class BlackScholesModel:
    """Multivariate Black-Scholes market on a deterministic time grid.

    ``vols`` stacks the row vectors sigma_i, so asset i loads on the
    driver through sigma_i^T X_t.  ``steps`` holds the period lengths
    Delta_1, ..., Delta_T in year fractions.
    """

    initial_prices: np.ndarray
    vols: np.ndarray
    rate: float
    steps: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "initial_prices", np.asarray(self.initial_prices, dtype=np.float64))
        object.__setattr__(self, "vols", np.asarray(self.vols, dtype=np.float64))
        object.__setattr__(self, "steps", np.asarray(self.steps, dtype=np.float64))
        prices, steps = self.initial_prices, self.steps
        if prices.ndim != 1 or prices.size == 0 or not (np.isfinite(prices) & (prices > 0)).all():
            raise ValueError("initial prices must be a non-empty 1-D array of finite positive "
                             "reals")
        if self.vols.shape != (prices.size, prices.size) or not np.isfinite(self.vols).all():
            raise ValueError("vols must be finite, of shape (d, d) with rows sigma_i")
        if not np.isfinite(self.rate):
            raise ValueError("rate must be finite")
        if steps.ndim != 1 or steps.size == 0 or not (np.isfinite(steps) & (steps > 0)).all():
            raise ValueError("steps must be a non-empty 1-D array of finite positive "
                             "year fractions")

    @property
    def n_assets(self) -> int:
        return self.initial_prices.size

    @property
    def n_periods(self) -> int:
        return self.steps.size


def simulate_bs(model: BlackScholesModel, x: np.ndarray) -> np.ndarray:
    """Price paths under the model driven by x.

    Returns an array of shape (n, d, T+1) with ``prices[:, :, 0]`` equal
    to the initial prices and

        S_{i,t} = S_{i,t-1} * exp(sigma_i^T X_t sqrt(Delta_t)
                                  + (r - |sigma_i|^2 / 2) Delta_t).
    """
    data = np.asarray(x, dtype=np.float64)
    d, T = model.n_assets, model.n_periods
    if data.ndim != 3 or data.shape[1:] != (d, T):
        raise ValueError(f"driver must have shape (n, {d}, {T}), got {data.shape}")
    n = data.shape[0]
    drift = (model.rate - 0.5 * (model.vols**2).sum(axis=1))  # (d,)
    prices = np.empty((n, d, T + 1))
    prices[:, :, 0] = model.initial_prices
    for t in range(1, T + 1):
        dt = model.steps[t - 1]
        shock = data[:, :, t - 1] @ model.vols.T  # (n, d), column i = sigma_i^T X_t
        prices[:, :, t] = prices[:, :, t - 1] * np.exp(shock * np.sqrt(dt) + drift * dt)
    return prices


@dataclass(frozen=True)
class Payoff:
    """Discounted payoff of a European structure on the price paths.

    kind
        "min_put"   : (K - min_i S_{i,T})^+
        "max_call"  : (max_i S_{i,T} - K)^+
        "brc"       : barrier reverse convertible paying coupon plus
                      face reduced by the worst normalized loss if the
                      barrier was breached on any monitoring date.
    All kinds are discounted with exp(-r * sum(steps)).
    """

    kind: str
    strike: float = 1.0
    barrier: float = 0.0
    coupon: float = 0.0
    face: float = 1.0

    def __post_init__(self):
        if self.kind not in ("min_put", "max_call", "brc"):
            raise ValueError(f"unknown payoff kind: {self.kind!r}")
        if not np.isfinite([self.strike, self.barrier, self.coupon, self.face]).all():
            raise ValueError("strike, barrier, coupon and face must be finite")
        if self.strike <= 0:
            raise ValueError("strike must be positive")
        if self.kind == "brc" and not (0 < self.barrier < self.strike):
            raise ValueError("barrier must satisfy 0 < barrier < strike")


def payoff_value(payoff: Payoff, model: BlackScholesModel, prices: np.ndarray) -> np.ndarray:
    """Discounted cash flow of each path, shape (n,).

    The barrier of a "brc" is monitored at t = 1, ..., T; the loss leg
    compares terminal prices to strike-adjusted initial prices.
    """
    if prices.ndim != 3 or prices.shape[2] != model.n_periods + 1:
        raise ValueError("prices must have shape (n, d, T+1)")
    disc = np.exp(-model.rate * model.steps.sum())
    terminal = prices[:, :, -1]
    if payoff.kind == "min_put":
        raw = np.maximum(payoff.strike - terminal.min(axis=1), 0.0)
    elif payoff.kind == "max_call":
        raw = np.maximum(terminal.max(axis=1) - payoff.strike, 0.0)
    else:
        breached = (prices[:, :, 1:].min(axis=(1, 2)) <= payoff.barrier)
        norm = terminal / (model.initial_prices[None, :] * payoff.strike)
        loss = np.maximum(1.0 - norm.min(axis=1), 0.0)
        raw = payoff.coupon + payoff.face * (1.0 - breached * loss)
    return disc * raw


@dataclass(frozen=True)
class LogBSModel:
    """Log price of one Black-Scholes asset on a deterministic time grid.

    Z_0 = z0 and Z_t = Z_{t-1} + drift[t-1] + sd[t-1] X_t, with
    drift = (rate - sigma^2/2) Delta and sd = sigma sqrt(Delta) per
    period, so given Z_t = z the next state is N(z + drift[t], sd[t]^2).
    ``steps`` holds the period lengths Delta_1, ..., Delta_T.
    """

    z0: float
    rate: float
    sigma: float
    steps: np.ndarray
    drift: np.ndarray = field(init=False, repr=False)
    sd: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        steps = np.asarray(self.steps, dtype=np.float64)
        if not np.isfinite([self.z0, self.rate]).all():
            raise ValueError("z0 and rate must be finite")
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError("sigma must be finite and positive")
        if steps.ndim != 1 or steps.size == 0 or not (np.isfinite(steps) & (steps > 0)).all():
            raise ValueError("steps must be a non-empty 1-D array of finite positive "
                             "year fractions")
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "drift", (self.rate - 0.5 * self.sigma * self.sigma) * steps)
        object.__setattr__(self, "sd", self.sigma * np.sqrt(steps))

    @property
    def n_periods(self) -> int:
        return self.steps.size

    def simulate(self, x: np.ndarray) -> np.ndarray:
        """State paths of shape (n, 1, T+1) driven by x of shape (n, 1, T).

        Each date adds drift[t], then sd[t] x: two roundings in that
        order, not a cumulative sum, which would reassociate them.
        """
        x = np.asarray(x, dtype=np.float64)
        T = self.n_periods
        if x.ndim != 3 or x.shape[1:] != (1, T):
            raise ValueError(f"driver must have shape (n, 1, {T}); got {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("driver must be finite")
        z = np.empty((x.shape[0], 1, T + 1))
        z[:, 0, 0] = self.z0
        for t in range(T):
            np.add(z[:, 0, t], self.drift[t], out=z[:, 0, t + 1])
            z[:, 0, t + 1] += self.sd[t] * x[:, 0, t]
        return z
