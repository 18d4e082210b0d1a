"""Ground-truth oracles and the end-to-end experiment harness.

The oracles are plain and nested Monte Carlo estimates of the true
value process, computed on seed streams disjoint from everything the
estimators see.  ``run_experiment`` drives the full European pipeline
(sample, fit, flatten, value surface at {0, 1, T}, error and risk
tables) and ``run_bermudan`` the early-exercise pipeline; both write a
deterministic CSV report bundle.
"""

from __future__ import annotations

import csv
import hashlib
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np
from numpy.random import Philox

from .bermudan import (ExerciseSpec, black_put_price, price_regress_later,
                       price_regress_now, stopping_distribution)
from .cart import TreeConfig
from .ensemble import BoostConfig, ForestConfig, fit, predict
from .flat import flatten_model
from .measure import ProductMeasure
from .parallel import thread_map
from .paths import (STREAM_INNER, STREAM_TEST, STREAM_TRAIN, STREAM_VALID,
                    BlackScholesModel, DriverSample, Payoff, log_bs_localvol,
                    payoff_value, sample_driver, simulate_bs,
                    simulate_localvol, _keyed_bits, _normal_from_bits,
                    _stream_keys)
from .risk import (RiskReport, detrended_qq, loss_samples, normalized_l2,
                   risk_report)
from .valuation import ValueSurface, fit_regress_now, value_surface

# ------------------------------------------------------------------ oracles


def oracle_v0(test_payoffs) -> tuple:
    """Plain MC estimate of the date-0 value: (mean, standard error)."""
    y = np.asarray(test_payoffs, dtype=np.float64)
    if y.size == 0:
        raise ValueError("empty test payoffs")
    se = float(y.std(ddof=1) / np.sqrt(y.size)) if y.size > 1 else 0.0
    return float(y.mean()), se


# inner paths simulated together in one oracle block: big enough to amortise the
# per-call overhead, small enough to keep the block's arrays in cache
_BLOCK_PATHS = 1024


def oracle_v1(payoff: Payoff, model: BlackScholesModel, x1: np.ndarray,
              n_inner: int, seed: int, chunk: int = 256) -> tuple:
    """Nested MC estimate of V_1 at each first-period driver value.

    For scenario i the inner tail draws (X_2..X_T) come from the stream
    (seed, inner, i), so estimates are reproducible per scenario and
    independent of everything else, the thread count and the blocking
    included.  The Philox keys of all k streams come from one vectorised
    pass of SeedSequence's hash, and each ``thread_map`` item rekeys one
    bit generator per scenario instead of building a generator.  Blocks
    of consecutive scenarios holding about ``_BLOCK_PATHS`` inner paths
    are simulated and priced together; chunk caps the scenarios of one
    ``thread_map`` item, which holds whole blocks.  Returns (values,
    standard errors), each of shape (k,).
    """
    if n_inner < 1:
        raise ValueError("n_inner must be >= 1")
    x1 = np.asarray(x1, dtype=np.float64)
    k, d = x1.shape
    T = model.n_periods
    if T == 1:
        # no tail to integrate: the value is the payoff of the one-period path
        vals = payoff_value(payoff, model, simulate_bs(model, x1[:, :, None]))
        return vals, np.zeros(k)
    block = max(1, min(chunk, _BLOCK_PATHS // n_inner))
    vals, ses = np.empty(k), np.zeros(k)
    keys = _stream_keys(seed, (STREAM_INNER,), np.arange(k))

    def run_block(bitgen, a, b):
        m = b - a
        raw = np.empty((m, n_inner, d, T - 1), dtype=np.uint64)
        for j in range(m):
            raw[j] = _keyed_bits(bitgen, keys[a + j], (n_inner, d, T - 1))
        full = np.empty((m, n_inner, d, T))
        full[:, :, :, 0] = x1[a:b, None, :]
        full[:, :, :, 1:] = _normal_from_bits(raw)
        paths = simulate_bs(model, full.reshape(m * n_inner, d, T))
        y = payoff_value(payoff, model, paths).reshape(m, n_inner)
        vals[a:b] = y.mean(axis=1)
        if n_inner > 1:
            ses[a:b] = y.std(axis=1, ddof=1) / np.sqrt(n_inner)

    def run_chunk(bounds):
        # each block writes its own slice of vals and ses
        a, b = bounds
        bitgen = Philox(0)  # rekeyed per scenario
        for i in range(a, b, block):
            run_block(bitgen, i, min(i + block, b))

    step = chunk // block * block  # whole blocks per thread_map item, at most chunk scenarios
    thread_map(run_chunk, [(a, min(a + step, k)) for a in range(0, k, step)])
    return vals, ses


# ----------------------------------------------------------------- planning


def _default_steps(payoff_kind: str):
    # min-put / max-call: two unequal periods; barrier note: monthly grid
    if payoff_kind == "brc":
        return np.full(12, 1.0 / 12.0)
    return np.array([1.0 / 12.0, 11.0 / 12.0])


def standard_model(payoff_kind: str, d: Optional[int] = None, vol: float = 0.2,
                   rate: float = 0.0) -> BlackScholesModel:
    """Independent unit-price assets with sigma_i = vol * e_i."""
    if d is None:
        d = 3 if payoff_kind == "brc" else 6
    return BlackScholesModel(initial_prices=np.ones(d), vols=vol * np.eye(d),
                             rate=rate, steps=_default_steps(payoff_kind))


# Desk default config of each estimator kind; a config file's estimator
# section overrides the fields it sets.
DESK_ESTIMATORS = {
    "boost": BoostConfig(rounds=400, learning_rate=0.1, nodesize=40, max_depth=15,
                         patience=20, seed=7),
    "forest": ForestConfig(nodesize=5, seed=7),
    "tree": TreeConfig(nodesize=5, seed=7),
}
_KINDS = {type(config): kind for kind, config in DESK_ESTIMATORS.items()}


@dataclass(frozen=True)
class ExperimentPlan:
    """Everything an end-to-end European run needs."""

    name: str
    payoff: Payoff
    model: BlackScholesModel
    estimator: TreeConfig | ForestConfig | BoostConfig
    n_train: int = 5000
    n_valid: Optional[int] = None  # default 0.4 * n_train
    n_test: int = 20000
    n_inner: int = 200
    dates: Optional[tuple] = None  # default: the distinct dates of {0, 1, T}
    seed: int = 0
    var_alpha: float = 0.995
    es_alpha: float = 0.99
    measure: Optional[object] = None  # default product of standard normals

    def __post_init__(self):
        if min(self.n_train, self.n_test, self.n_inner) < 1:
            raise ValueError("sample sizes must be >= 1")
        if self.n_valid is not None and self.n_valid < 1:
            raise ValueError("n_valid must be >= 1")
        if type(self.estimator) not in _KINDS:
            raise ValueError("estimator must be a TreeConfig, ForestConfig or BoostConfig")
        _check_resample(self.estimator, self.n_train)

    @property
    def estimator_kind(self) -> str:
        """Output name of the estimator: "boost", "forest" or "tree"."""
        return _KINDS[type(self.estimator)]

    @property
    def valid_size(self) -> int:
        return self.n_valid if self.n_valid is not None else max(1, int(0.4 * self.n_train))

    @property
    def eval_dates(self) -> tuple:
        return self.dates if self.dates is not None else \
            tuple(sorted({0, 1, self.model.n_periods}))


def _check_resample(config, n_train: int) -> None:
    # a forest's n_resample must fit the training sample; found here, not mid-fit
    if isinstance(config, ForestConfig):
        config.resample_size(n_train)


def desk_plan(payoff_kind: str, seed: int = 0, estimator=None,
              **overrides) -> ExperimentPlan:
    """Desk-scale default plan for one of the three standard payoffs."""
    model = standard_model(payoff_kind)
    payoff = {"min_put": Payoff("min_put", strike=1.0),
              "max_call": Payoff("max_call", strike=1.0),
              "brc": Payoff("brc", strike=1.0, barrier=0.6, coupon=0.0, face=1.0)}[payoff_kind]
    if estimator is None:
        estimator = DESK_ESTIMATORS["boost"]
    return ExperimentPlan(name=f"{payoff_kind}_desk", payoff=payoff, model=model,
                          estimator=estimator, seed=seed, **overrides)


def paper_plan(payoff_kind: str, seed: int = 0, estimator=None):
    """Published-scale sample sizes (slow; use for full reproductions)."""
    plan = desk_plan(payoff_kind, seed=seed, estimator=estimator)
    return replace(plan, name=f"{payoff_kind}_paper", n_train=20000, n_valid=8000,
                   n_test=100000, n_inner=1000)


def paper_bermudan_plan(seed: int = 0) -> BermudanPlan:
    """Published-scale Bermudan plan: the default plan with the paper's test size."""
    return BermudanPlan(n_test=100000, seed=seed)


def paper_rf_grid(d: int, T: int) -> tuple:
    """Published forest validation grid over (n_trees, nodesize, features)."""
    p_low = int(np.ceil(d * T / 3))
    out = []
    for m in (100, 250, 500):
        for nodesize in (2, 3, 5):
            for p in (p_low, d * T):
                out.append((f"rf_m{m}_ns{nodesize}_p{p}",
                            ForestConfig(n_trees=m, nodesize=nodesize, features=p)))
    return tuple(out)


def paper_boost_grid(rounds_cap: int = 1000, patience: int = 10) -> tuple:
    """Published boosting validation grid over (nodesize, max_depth).

    The round count of each entry is decided by validation early
    stopping, so the grid fixes only the tree controls.
    """
    out = []
    for nodesize in (5, 15, 25, 35, 45):
        for depth in (40, 50, 60, 70, 80, 90):
            out.append((f"boost_ns{nodesize}_md{depth}",
                        BoostConfig(rounds=rounds_cap, nodesize=nodesize, max_depth=depth,
                                    patience=patience)))
    return tuple(out)


# ----------------------------------------------------------- sample stage

_STREAMS = {"train": STREAM_TRAIN, "valid": STREAM_VALID, "test": STREAM_TEST}


class StreamSample(NamedTuple):
    driver: DriverSample
    prices: np.ndarray   # (n, d, T+1) price paths
    payoffs: np.ndarray  # (n,) discounted payoffs


def sample_streams(plan: ExperimentPlan, tags: Sequence[str] = tuple(_STREAMS)) -> dict:
    """Driver samples, price paths and payoffs of the plan's seed streams.

    tags picks among "train", "valid" and "test"; only those streams
    are drawn.  Each comes from its own (seed, stream) generator, so a
    stream's draws do not depend on which others are drawn.  Returns
    {tag: StreamSample} in the order of tags.
    """
    d, T = plan.model.n_assets, plan.model.n_periods
    sizes = {"train": plan.n_train, "valid": plan.valid_size, "test": plan.n_test}
    out = {}
    for tag in tags:
        driver = sample_driver(sizes[tag], d, T, plan.seed, (_STREAMS[tag],))
        prices = simulate_bs(plan.model, driver)
        out[tag] = StreamSample(driver, prices, payoff_value(plan.payoff, plan.model, prices))
    return out


# --------------------------------------------------------- validation stage


@dataclass(frozen=True)
class ValidationRow:
    name: str
    config: object
    error_pct: float
    n_cells: int


@dataclass(frozen=True)
class ValidationTable:
    rows: tuple

    @property
    def best(self) -> ValidationRow:
        # smallest error; ties broken toward fewer cells, then listing order
        return min(self.rows, key=lambda r: (r.error_pct, r.n_cells))


def run_validation_grid(plan: ExperimentPlan, grid: Sequence) -> ValidationTable:
    """Fit each (name, config) grid entry on training data and score it on validation.

    Scores are normalized L2 prediction errors of the payoff on the
    validation sample, in percent of the mean training payoff.  The
    plan's own estimator is not scored; ``table.best.config`` is the
    one to put in its place.
    """
    if not grid:
        raise ValueError("empty hyperparameter grid")
    train, valid = sample_streams(plan, ("train", "valid")).values()
    y_train, y_valid = train.payoffs, valid.payoffs
    ref = float(np.mean(y_train))
    if ref == 0:
        raise ValueError("degenerate plan: training payoffs average to zero")
    rows = []
    for name, config in grid:
        fitted = fit(config, train.driver, y_train, (valid.driver, y_valid))
        pred = np.asarray(predict(fitted, valid.driver), dtype=np.float64)
        rows.append(ValidationRow(name=name, config=config,
                                  error_pct=normalized_l2(pred, y_valid, ref),
                                  n_cells=fitted.n_cells))
    return ValidationTable(rows=tuple(rows))


# ------------------------------------------------------------- CSV helpers


def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(list(header))
        for row in rows:
            w.writerow([v if isinstance(v, str) else _fmt(v) if isinstance(v, float) else v
                        for v in row])


def _write_qq(path: Path, levels, true_q, detrended) -> None:
    rows = [(_fmt(l), _fmt(tq), _fmt(dq)) for l, tq, dq in zip(levels, true_q, detrended)]
    _write_csv(path, ("level", "true_q", "detrended"), rows)


def _risk_rows(report: RiskReport, extra=()):
    for e in report.entries:
        yield tuple(extra) + (e.measure, _fmt(e.alpha), e.position, _fmt(e.estimate),
                              _fmt(e.oracle), _fmt(e.rel_error_pct))


def risk_stage(plan: ExperimentPlan, surface: ValueSurface, v0: float, v1: np.ndarray,
               y_test: np.ndarray, out: Optional[Path] = None) -> RiskReport:
    """VaR/ES of the date-1 loss V_0 - V_1 against the oracle loss v0 - v1.

    With out set, also writes risk.csv and the detrended Q-Q tables:
    qq_t1.csv (the date-1 column against the nested-MC oracle v1) when
    T >= 2, since at T = 1 it would repeat the next table, and qq_tT.csv
    (the date-T column against the realized payoffs y_test) when the
    surface holds date T.  ``run_experiment`` and ``treeval risk`` both
    write their risk files here.
    """
    T = plan.model.n_periods
    est_long, _ = loss_samples(surface, 0, 1)
    risk = risk_report(est_long, v0 - v1, plan.var_alpha, plan.es_alpha)
    if out is not None:
        _write_csv(out / "risk.csv", ("measure", "alpha", "position", "estimate", "oracle",
                                      "relative_error_pct"), _risk_rows(risk))
        if T != 1:
            _write_qq(out / "qq_t1.csv", *detrended_qq(surface.column(1), v1))
        if T in surface.dates:
            _write_qq(out / "qq_tT.csv", *detrended_qq(surface.column(T), y_test))
    return risk


def _config_text(obj, indent: str = "") -> str:
    """Canonical nested key: value dump of dataclass-like config objects."""
    if hasattr(obj, "__dataclass_fields__"):
        lines = [f"{indent}{type(obj).__name__}:"]
        for name in sorted(obj.__dataclass_fields__):
            lines.append(_config_text_field(name, getattr(obj, name), indent + "  "))
        return "\n".join(lines)
    return f"{indent}{obj!r}"


def _config_text_field(name: str, value, indent: str) -> str:
    if hasattr(value, "__dataclass_fields__"):
        inner = _config_text(value, indent + "  ")
        return f"{indent}{name}:\n{inner}"
    if isinstance(value, np.ndarray):
        return f"{indent}{name}: {np.array2string(value, separator=',', threshold=64)}"
    if isinstance(value, tuple) and value and hasattr(value[0], "__len__") and not isinstance(value[0], str):
        return f"{indent}{name}:\n" + "\n".join(f"{indent}  {item!r}" for item in value)
    return f"{indent}{name}: {value!r}"


def write_snapshot(path: Path, plan, extras: Optional[dict] = None) -> str:
    """Write the resolved configuration next to the outputs; returns its hash."""
    text = _config_text(plan)
    if extras:
        for key in sorted(extras):
            text += f"\n{key}: {extras[key]!r}"
    digest = hashlib.sha256(text.encode()).hexdigest()
    with open(path, "w") as fh:
        fh.write(text + f"\nconfig_hash: {digest}\n")
    return digest


def bundle_hash(out_dir) -> str:
    """Joint SHA-256 of the bundle's deterministic files.

    timings.csv is wall-clock and excluded; everything else must be
    byte-identical across reruns with the same seeds.
    """
    out_dir = Path(out_dir)
    digest = hashlib.sha256()
    for p in sorted(out_dir.rglob("*")):
        if p.is_dir() or p.name == "timings.csv" or p.name == "bundle.hash":
            continue
        digest.update(p.relative_to(out_dir).as_posix().encode())
        digest.update(p.read_bytes())
    return digest.hexdigest()


# -------------------------------------------------------- European pipeline


@dataclass(frozen=True)
class ExperimentReport:
    plan: ExperimentPlan
    v0: float
    v0_se: float
    v1: np.ndarray       # nested MC date-1 oracle per test scenario
    v1_se: np.ndarray    # its per-scenario standard errors
    y_test: np.ndarray   # realized discounted payoffs (exact V_T oracle)
    surface: ValueSurface
    n_cells: int
    l2_rows: tuple       # ((t, error_pct), ...)
    underfit: bool       # date-1 L2 error above the date-T one
    risk: RiskReport
    out_dir: Optional[str]
    config_hash: str


def run_experiment(plan: ExperimentPlan, out_dir=None) -> ExperimentReport:
    """End-to-end European pipeline; writes a report bundle when out_dir is set.

    Bundle files: config.snapshot, l2_errors.csv, qq_t1.csv, qq_tT.csv,
    risk.csv, value_surface_<kind>.csv, timings.csv, where <kind> is
    the plan's ``estimator_kind``.
    """
    timings = []
    clock = time.perf_counter
    t_start = clock()
    d, T = plan.model.n_assets, plan.model.n_periods
    measure = plan.measure if plan.measure is not None else ProductMeasure.standard_normal(d, T)
    train, valid, test = sample_streams(plan).values()
    y_test = test.payoffs
    timings.append(("sampling", clock() - t_start))

    t0 = clock()
    v0, v0_se = oracle_v0(y_test)
    v1, v1_se = oracle_v1(plan.payoff, plan.model, test.driver.data[:, :, 0], plan.n_inner,
                          plan.seed)
    timings.append(("oracles", clock() - t0))
    if v0 == 0:
        raise ValueError("degenerate plan: oracle date-0 value is zero")

    dates = plan.eval_dates
    name = plan.estimator_kind
    t0 = clock()
    fitted = fit(plan.estimator, train.driver, train.payoffs, (valid.driver, valid.payoffs))
    timings.append((f"fit_{name}", clock() - t0))
    t0 = clock()
    fe = flatten_model(fitted)
    timings.append((f"flatten_{name}", clock() - t0))
    t0 = clock()
    surface = value_surface(fe, measure, dates, test.driver,
                            meta={"estimator": name, "seed": plan.seed, "n_cells": fe.n_cells})
    timings.append((f"value_{name}", clock() - t0))
    l2_rows = []
    if 0 in dates:
        est0 = float(surface.column(0)[0])
        l2_rows.append((0, 100.0 * abs(est0 - v0) / abs(v0)))
    if 1 in dates and T != 1:
        l2_rows.append((1, normalized_l2(surface.column(1), v1, v0)))
    if T in dates:
        l2_rows.append((T, normalized_l2(surface.column(T), y_test, v0)))
    errors = dict(l2_rows)
    underfit = 1 in errors and T in errors and errors[1] > errors[T]

    out = None if out_dir is None else Path(out_dir)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    t0 = clock()
    risk = risk_stage(plan, surface, v0, v1, y_test, out)
    timings.append(("risk", clock() - t0))

    config_hash = ""
    if out is not None:
        config_hash = write_snapshot(out / "config.snapshot", plan,
                                     extras={"measure": type(measure).__name__,
                                             "dates": dates})
        _write_csv(out / "l2_errors.csv", ("estimator", "t", "l2_error_pct"),
                   [(name, t, _fmt(e)) for t, e in l2_rows])
        surface.to_csv(out / f"value_surface_{name}.csv")
        _write_csv(out / "timings.csv", ("stage", "seconds"),
                   [(s, _fmt(v)) for s, v in timings])
    return ExperimentReport(plan=plan, v0=v0, v0_se=v0_se, v1=v1, v1_se=v1_se,
                            y_test=y_test, surface=surface, n_cells=fe.n_cells,
                            l2_rows=tuple(l2_rows), underfit=underfit, risk=risk,
                            out_dir=None if out_dir is None else str(out_dir),
                            config_hash=config_hash)


# -------------------------------------------------------- Bermudan pipeline


@dataclass(frozen=True)
class BermudanPlan:
    """Single-asset Bermudan put study on the log-price recursion."""

    z0: float = 0.0
    sigma: float = 0.2
    strike: float = 1.0
    n_dates: int = 7
    horizon: float = 1.0
    n_train: int = 5000
    n_test: int = 20000
    seed: int = 0
    estimator: object = field(default_factory=lambda: ForestConfig(
        n_trees=30, nodesize=20, features=1, seed=11))
    mode: str = "later"  # "later" | "now" | "both"
    var_alpha: float = 0.995
    es_alpha: float = 0.99

    def __post_init__(self):
        if not all(np.isfinite([self.z0, self.sigma, self.strike, self.horizon])):
            raise ValueError("z0, sigma, strike and horizon must be finite")
        if self.sigma <= 0 or self.strike <= 0:
            raise ValueError("sigma and strike must be positive")
        if self.n_dates < 1 or self.horizon <= 0:
            raise ValueError("need n_dates >= 1 and horizon > 0")
        if min(self.n_train, self.n_test) < 1:
            raise ValueError("sample sizes must be >= 1")
        if self.mode not in ("later", "now", "both"):
            raise ValueError('mode must be "later", "now", or "both"')
        _check_resample(self.estimator, self.n_train)

    def exercise_spec(self) -> ExerciseSpec:
        """The put at rate 0: the same undiscounted payoff on every date 0..T."""
        T = self.n_dates
        model = log_bs_localvol(self.z0, 0.0, self.sigma, np.full(T, self.horizon / T))

        def g(z):
            return np.maximum(self.strike - np.exp(z[:, 0]), 0.0)

        return ExerciseSpec(model=model, payoffs=(g,) * (T + 1))


@dataclass(frozen=True)
class BermudanReport:
    plan: BermudanPlan
    value0: float
    true_value0: float
    stopping: np.ndarray          # regress-later (or "now" if mode == "now")
    l2_rows: tuple                # ((t, error_pct), ...)
    stopping_now: Optional[np.ndarray]
    value0_now: Optional[float]
    out_dir: Optional[str]
    config_hash: str


def _bermudan_truth(plan: BermudanPlan, z_test: np.ndarray) -> np.ndarray:
    """Exact value process on test paths: Black put values, shape (k, T+1).

    Valid because the plan's rate is 0, where early exercise is
    suboptimal, so the Bermudan value equals the European one at every
    date.
    """
    T = plan.n_dates
    k = z_test.shape[0]
    out = np.empty((k, T + 1))
    for t in range(T):
        tau = plan.horizon * (T - t) / T
        out[:, t] = black_put_price(z_test[:, 0, t], plan.strike, 0.0, plan.sigma, tau)
    out[:, T] = np.maximum(plan.strike - np.exp(z_test[:, 0, T]), 0.0)
    return out


def run_bermudan(plan: BermudanPlan, out_dir=None) -> BermudanReport:
    """Early-exercise pipeline; writes stopping / error / risk CSVs.

    Bundle files: config.snapshot, stopping.csv (t,probability),
    bermudan_l2.csv, bermudan_risk.csv, timings.csv; regress-now runs
    add stopping_now.csv.
    """
    timings = []
    clock = time.perf_counter
    spec = plan.exercise_spec()
    T = plan.n_dates
    t0 = clock()
    train = sample_driver(plan.n_train, 1, T, plan.seed, (STREAM_TRAIN,))
    test = sample_driver(plan.n_test, 1, T, plan.seed, (STREAM_TEST,))
    z_train = simulate_localvol(spec.model, train)
    z_test = simulate_localvol(spec.model, test)
    timings.append(("sampling", clock() - t0))

    bv = bv_now = None
    if plan.mode in ("later", "both"):
        t0 = clock()
        bv = price_regress_later(spec, z_train, plan.estimator)
        timings.append(("fit_later", clock() - t0))
    if plan.mode in ("now", "both"):
        t0 = clock()
        bv_now = price_regress_now(spec, z_train, plan.estimator)
        timings.append(("fit_now", clock() - t0))
    lead = bv if bv is not None else bv_now

    t0 = clock()
    cont = lead.continuation_matrix(z_test)
    values = lead.values_on(z_test, cont=cont)
    truth = _bermudan_truth(plan, z_test)
    true_v0 = float(black_put_price(plan.z0, plan.strike, 0.0, plan.sigma, plan.horizon))
    l2_rows = tuple((t, normalized_l2(values[:, t], truth[:, t], true_v0)) for t in range(T))
    stopping = stopping_distribution(lead, z_test, cont)
    stopping_now = None
    value0_now = None
    if plan.mode == "both":
        stopping_now = stopping_distribution(bv_now, z_test)
        value0_now = bv_now.value0
    timings.append(("evaluate", clock() - t0))

    config_hash = ""
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        config_hash = write_snapshot(out / "config.snapshot", plan)
        _write_csv(out / "stopping.csv", ("t", "probability"),
                   [(t, _fmt(p)) for t, p in enumerate(stopping)])
        if stopping_now is not None:
            _write_csv(out / "stopping_now.csv", ("t", "probability"),
                       [(t, _fmt(p)) for t, p in enumerate(stopping_now)])
        _write_csv(out / "bermudan_l2.csv", ("t", "l2_error_pct"),
                   [(t, _fmt(e)) for t, e in l2_rows])
        risk_rows = []
        for t in range(T):
            est_long = values[:, t] - values[:, t + 1]
            true_long = truth[:, t] - truth[:, t + 1]
            rep = risk_report(est_long, true_long, plan.var_alpha, plan.es_alpha)
            risk_rows.extend(_risk_rows(rep, extra=(str(t),)))
        _write_csv(out / "bermudan_risk.csv",
                   ("t", "measure", "alpha", "position", "estimate", "oracle",
                    "relative_error_pct"), risk_rows)
        _write_csv(out / "timings.csv", ("stage", "seconds"),
                   [(s, _fmt(v)) for s, v in timings])
    return BermudanReport(plan=plan, value0=lead.value0, true_value0=true_v0,
                          stopping=stopping, l2_rows=l2_rows, stopping_now=stopping_now,
                          value0_now=value0_now,
                          out_dir=None if out_dir is None else str(out_dir),
                          config_hash=config_hash)


# ---------------------------------------------------- regress-now (t=1) leg


def regress_now_date1(plan: ExperimentPlan, config=None) -> np.ndarray:
    """Classical date-1 estimate on the plan's test scenarios.

    Fits the payoff against the first-period cross-section only and
    predicts along the test sample; used to contrast with the dynamic
    estimator's date-1 column.  A boosted config stops early on the
    first-period cross-section of the plan's validation stream, as the
    dynamic fit does on the full validation paths.
    """
    config = config if config is not None else plan.estimator
    train, valid, test = sample_streams(plan, ("train", "valid", "test")).values()
    model = fit_regress_now(train.driver.data[:, :, 0], train.payoffs, config,
                            (valid.driver.data[:, :, 0], valid.payoffs))
    return model.predict(test.driver.data[:, :, 0])
