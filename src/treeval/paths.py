"""Stochastic driver sampling, market models, and payoff evaluation.

The stochastic driver is an i.i.d. sequence ``X_1, ..., X_T`` of
d-dimensional standard normal vectors.  Market models map a driver
sample to state paths: a multivariate Black-Scholes model produces
price paths ``S_{i,t}``, and a generic local-volatility recursion
produces state paths ``Z_t``.  Payoffs map price paths to discounted
cash flows at the final date.

All randomness flows through counter-based Philox generators keyed by
``(seed, stream tags)`` so that train / validation / test / nested
samples are drawn from provably disjoint streams and every artifact is
reproducible from a single seed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.random import Generator, Philox, SeedSequence
from scipy.special import ndtri

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
    """53-bit integers; ``_normal_from_bits`` maps them to standard normals."""
    return rng.integers(0, 1 << 53, size=shape, dtype=np.uint64)


# SeedSequence's uint32 hash (numpy/random/bit_generator.pyx): pool size,
# hashmix constants, mix multipliers and xorshift
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _uint32_words(n: int) -> list:
    """SeedSequence's coding of an int: little-endian 32-bit words, [0] for 0."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("seeds and stream tags must be non-negative")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _stream_keys(seed: int, tags: tuple, ids) -> np.ndarray:
    """Philox keys of ``stream_rng(seed, *tags, i)`` for every i in ids, shape (n, 2).

    One pass of SeedSequence's hash over all ids at once: the hash
    constants do not depend on the data, so every round is one uint32
    array op.  Ids must lie in [0, 2**32), where SeedSequence codes them
    as one word.
    """
    ids = np.asarray(ids)
    if ids.ndim != 1 or (ids.size and (ids.min() < 0 or ids.max() > _MASK32)):
        raise ValueError("stream ids must be a 1-D array of integers in [0, 2**32)")
    run = _uint32_words(seed)
    run += [0] * (_POOL - len(run))  # padded to the pool size when a spawn key follows
    words = run + [w for t in tags for w in _uint32_words(t)]
    entropy = [np.full(ids.size, w, dtype=np.uint32) for w in words] + [ids.astype(np.uint32)]
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return r ^ (r >> np.uint32(16))

    pool = [hashmix(w) for w in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(w))
    # generate_state(2, uint64): four words cycling over the pool, paired little-endian
    const = _INIT_B
    state = []
    for w in pool:
        w = w ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        w = w * np.uint32(const)
        state.append((w ^ (w >> np.uint32(16))).astype(np.uint64))
    return np.stack([state[0] | state[1] << np.uint64(32),
                     state[2] | state[3] << np.uint64(32)], axis=1)


def _keyed_bits(bitgen: Philox, key: np.ndarray, shape) -> np.ndarray:
    """``_draw_bits`` on the stream whose Philox key is ``key``, from a reused bit generator.

    A Philox stream is a pure function of its key, so resetting the
    counter and buffer replays it from the start.  ``integers(0, 2**53)``
    on 64-bit words is Lemire's bounded draw with a power-of-two range,
    which never rejects and returns the top 53 bits of each raw word.
    """
    bitgen.state = {"bit_generator": "Philox",
                    "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
                    "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
                    "has_uint32": 0, "uinteger": 0}
    return bitgen.random_raw(math.prod(shape)).reshape(shape) >> np.uint64(11)


def _normal_from_bits(raw: np.ndarray) -> np.ndarray:
    # Inverse-CDF transform of u = (k + 1/2) * 2^-53 with k a 53-bit
    # integer, so u lies strictly inside (0, 1) and draws are finite.
    # Elementwise, so a block of several streams' bits transforms to the
    # same values as each stream's bits alone.
    u = (raw.astype(np.float64) + 0.5) * (0.5**53)
    return ndtri(u)


@dataclass(frozen=True)
class DriverSample:
    """n driver paths: i.i.d. standard normal vectors over T periods.

    Attributes
    ----------
    data : ndarray, shape (n, d, T)
        ``data[i, :, s]`` is the period-(s+1) innovation of path i.
    seed : int
        Seed the sample was drawn from.
    stream : tuple of int
        Stream tags used alongside the seed.
    """

    data: np.ndarray
    seed: int
    stream: tuple = (STREAM_TRAIN,)

    def __post_init__(self):
        if self.data.ndim != 3:
            raise ValueError("driver sample must have shape (n, d, T)")
        n, d, T = self.data.shape
        if min(n, d, T) < 1:
            raise ValueError("driver sample dimensions must all be >= 1")
        if not np.isfinite(self.data).all():
            raise ValueError("driver sample contains non-finite entries")

    @property
    def dims(self) -> tuple:
        return self.data.shape

    def flat(self) -> np.ndarray:
        """Time-major flattening, shape (n, T*d): column s*d + j holds
        coordinate j of period s+1."""
        from .cart import _time_major  # cart imports this module
        return _time_major(self.data)


def sample_driver(n: int, d: int, T: int, seed: int, stream: tuple = (STREAM_TRAIN,)) -> DriverSample:
    """Draw n independent driver paths of dimension d over T periods."""
    if min(n, d, T) < 1:
        raise ValueError("n, d, T must all be >= 1")
    rng = stream_rng(seed, *stream)
    data = _normal_from_bits(_draw_bits(rng, (n, d, T)))
    return DriverSample(data=data, seed=seed, stream=tuple(stream))


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
        if self.initial_prices.ndim != 1 or (self.initial_prices <= 0).any():
            raise ValueError("initial prices must be a 1-D array of positive reals")
        d = self.initial_prices.size
        if self.vols.shape != (d, d):
            raise ValueError("vols must have shape (d, d) with rows sigma_i")
        if self.steps.ndim != 1 or (self.steps <= 0).any():
            raise ValueError("steps must be a 1-D array of positive year fractions")

    @property
    def n_assets(self) -> int:
        return self.initial_prices.size

    @property
    def n_periods(self) -> int:
        return self.steps.size


def simulate_bs(model: BlackScholesModel, x: DriverSample | np.ndarray) -> np.ndarray:
    """Price paths under the model driven by x.

    Returns an array of shape (n, d, T+1) with ``prices[:, :, 0]`` equal
    to the initial prices and

        S_{i,t} = S_{i,t-1} * exp(sigma_i^T X_t sqrt(Delta_t)
                                  + (r - |sigma_i|^2 / 2) Delta_t).
    """
    data = x.data if isinstance(x, DriverSample) else np.asarray(x, dtype=np.float64)
    n, d, T = data.shape
    if d != model.n_assets or T != model.n_periods:
        raise ValueError("driver dims do not match model dims")
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
        "custom"    : ``custom_fn(prices)`` -> (n,) undiscounted values.
    All kinds are discounted with exp(-r * sum(steps)).
    """

    kind: str
    strike: float = 1.0
    barrier: float = 0.0
    coupon: float = 0.0
    face: float = 1.0
    custom_fn: Optional[Callable] = None

    def __post_init__(self):
        if self.kind not in ("min_put", "max_call", "brc", "custom"):
            raise ValueError(f"unknown payoff kind: {self.kind!r}")
        if self.kind in ("min_put", "max_call", "brc") and self.strike <= 0:
            raise ValueError("strike must be positive")
        if self.kind == "brc" and not (0 < self.barrier < self.strike):
            raise ValueError("barrier must satisfy 0 < barrier < strike")
        if self.kind == "custom" and self.custom_fn is None:
            raise ValueError("custom payoff requires custom_fn")


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
    elif payoff.kind == "brc":
        breached = (prices[:, :, 1:].min(axis=(1, 2)) <= payoff.barrier)
        norm = terminal / (model.initial_prices[None, :] * payoff.strike)
        loss = np.maximum(1.0 - norm.min(axis=1), 0.0)
        raw = payoff.coupon + payoff.face * (1.0 - breached * loss)
    else:
        raw = np.asarray(payoff.custom_fn(prices), dtype=np.float64)
        if raw.shape != (prices.shape[0],):
            raise ValueError("custom_fn must return one value per path")
    return disc * raw


@dataclass(frozen=True)
class LocalVolModel:
    """Markovian state recursion Z_t = a_{t-1}(Z_{t-1}) + b_{t-1}(Z_{t-1}) X_t.

    drift_fn(t, z) maps (..., m) states at period start t to (..., m)
    conditional means; diffusion_fn(t, z) maps them to (..., m, d)
    loading matrices on the d-dimensional driver.
    """

    z0: np.ndarray
    drift_fn: Callable
    diffusion_fn: Callable
    n_driver: int
    n_periods: int

    def __post_init__(self):
        object.__setattr__(self, "z0", np.asarray(self.z0, dtype=np.float64))
        if self.z0.ndim != 1:
            raise ValueError("z0 must be a 1-D state vector")
        if self.n_driver < 1 or self.n_periods < 1:
            raise ValueError("n_driver and n_periods must be >= 1")

    @property
    def n_state(self) -> int:
        return self.z0.size


def simulate_localvol(model: LocalVolModel, x: DriverSample | np.ndarray) -> np.ndarray:
    """State paths of shape (n, m, T+1) with ``z[:, :, 0] = z0``."""
    data = x.data if isinstance(x, DriverSample) else np.asarray(x, dtype=np.float64)
    n, d, T = data.shape
    if d != model.n_driver or T != model.n_periods:
        raise ValueError("driver dims do not match model dims")
    m = model.n_state
    z = np.empty((n, m, T + 1))
    z[:, :, 0] = model.z0
    for t in range(1, T + 1):
        prev = z[:, :, t - 1]
        mean = np.asarray(model.drift_fn(t - 1, prev), dtype=np.float64)
        load = np.asarray(model.diffusion_fn(t - 1, prev), dtype=np.float64)
        if mean.shape != (n, m) or load.shape != (n, m, d):
            raise ValueError("drift/diffusion output shapes do not match the state")
        step = mean + np.einsum("nmd,nd->nm", load, data[:, :, t - 1])
        if not np.isfinite(step).all():
            raise ValueError(f"state recursion produced non-finite values at t={t}")
        z[:, :, t] = step
    return z


def log_bs_localvol(z0: float, rate: float, sigma: float, steps: Sequence[float]) -> LocalVolModel:
    """One-dimensional log-price recursion matching a Black-Scholes asset.

    Z_t = Z_{t-1} + (r - sigma^2/2) Delta_t + sigma sqrt(Delta_t) X_t.
    """
    steps = np.asarray(steps, dtype=np.float64)
    if (steps <= 0).any():
        raise ValueError("steps must be positive")

    def drift(t, z):
        return z + (rate - 0.5 * sigma * sigma) * steps[t]

    def diffusion(t, z):
        out = np.full(z.shape + (1,), sigma * np.sqrt(steps[t]))
        return out

    return LocalVolModel(z0=np.array([z0]), drift_fn=drift, diffusion_fn=diffusion,
                         n_driver=1, n_periods=steps.size)
