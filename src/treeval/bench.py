"""Ground-truth oracles and the end-to-end experiment harness.

The oracles give the true value process the estimators are scored
against: at date 0 the plain Monte Carlo mean of the test payoffs; at
date 1 the exact value of a min_put or max_call on independent assets
(``exact_v1``, a one-dimensional quadrature), and otherwise a nested
Monte Carlo estimate (``oracle_v1``) whose inner paths come from a seed
stream disjoint from everything the estimators see.  ``run_experiment``
drives the full European pipeline (sample, fit, flatten, value surface
at {0, 1, T}, error and risk tables) and ``run_bermudan`` the
early-exercise pipeline; both write a deterministic CSV report bundle.
"""

from __future__ import annotations

import csv
import hashlib
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np
from numpy.random import Philox, SeedSequence

from .bermudan import ExerciseSpec, black_put_price, price_regress_later, price_regress_now
from .cart import TreeConfig
from .ensemble import BoostConfig, ForestConfig, fit, predict
from .flat import flatten_model
from .parallel import thread_map
from .paths import (STREAM_INNER, STREAM_TEST, STREAM_TRAIN, STREAM_VALID,
                    BlackScholesModel, LogBSModel, Payoff, ndtr, payoff_value,
                    sample_driver, simulate_bs, _normal_from_bits)
from .risk import (ES_ALPHA, VAR_ALPHA, RiskReport, detrended_qq, loss_samples,
                   normalized_l2, risk_report)
from .valuation import ValueSurface, _checked_dates, value_surface

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
# at most this many scenarios per thread_map item of oracle_v1
_CHUNK = 256


def _first_period(model: BlackScholesModel, x1) -> np.ndarray:
    """x1 as floats, the (k, d) first-period drivers of k scenarios, else ValueError."""
    x1 = np.asarray(x1, dtype=np.float64)
    if x1.ndim != 2 or x1.shape[1] != model.n_assets:
        raise ValueError(f"x1 must have shape (k, {model.n_assets})")
    return x1


def oracle_v1(payoff: Payoff, model: BlackScholesModel, x1: np.ndarray,
              n_inner: int, seed: int) -> tuple:
    """Nested MC estimate of V_1 at each first-period driver value.

    Scenario i takes its n = n_inner d (T-1) tail draws (X_2..X_T) from
    its window of the one stream (seed, inner): the first n of words
    [4 m i, 4 m (i+1)), with m = ceil(n / 4) Philox counter steps of four
    words each.  So estimates are reproducible per scenario and do not
    depend on the thread count or the blocking.  Each block of about
    ``_BLOCK_PATHS`` inner paths places one bit generator at its first
    scenario's counter and is simulated and priced at once; ``_CHUNK``
    caps the scenarios of one ``thread_map`` item, which holds whole
    blocks.  Returns (values, standard errors), each of shape (k,).
    """
    if n_inner < 1:
        raise ValueError("n_inner must be >= 1")
    x1 = _first_period(model, x1)
    k, d = x1.shape
    T = model.n_periods
    if T == 1:
        # no tail to integrate: the value is the payoff of the one-period path
        vals = payoff_value(payoff, model, simulate_bs(model, x1[:, :, None]))
        return vals, np.zeros(k)
    block = max(1, min(_CHUNK, _BLOCK_PATHS // n_inner))
    vals, ses = np.empty(k), np.zeros(k)
    n = n_inner * d * (T - 1)
    steps = -(-n // 4)  # counter steps per scenario window
    # the Philox key of stream_rng(seed, STREAM_INNER)
    key = SeedSequence(seed, spawn_key=(STREAM_INNER,)).generate_state(2, np.uint64)

    def run_block(a, b):
        m = b - a
        raw = Philox(counter=a * steps, key=key).random_raw((m, 4 * steps))
        raw >>= np.uint64(11)  # the 53 bits _draw_bits keeps of each word
        full = np.empty((m, n_inner, d, T))
        full[:, :, :, 0] = x1[a:b, None, :]
        full[:, :, :, 1:] = _normal_from_bits(raw[:, :n]).reshape(m, n_inner, d, T - 1)
        paths = simulate_bs(model, full.reshape(m * n_inner, d, T))
        y = payoff_value(payoff, model, paths).reshape(m, n_inner)
        vals[a:b] = y.mean(axis=1)
        if n_inner > 1:
            ses[a:b] = y.std(axis=1, ddof=1) / np.sqrt(n_inner)

    def run_chunk(bounds):
        # each block writes its own slice of vals and ses
        a, b = bounds
        for i in range(a, b, block):
            run_block(i, min(i + block, b))

    step = _CHUNK // block * block  # whole blocks per thread_map item
    thread_map(run_chunk, [(a, min(a + step, k)) for a in range(0, k, step)])
    return vals, ses


def _gauss_legendre(n: int, panels: int = 1) -> tuple:
    """Nodes (ascending) and weights of a composite Gauss-Legendre rule on [-1, 1].

    ``panels`` equal panels of n nodes each.  The n-point rule comes from
    Newton's method on P_n, evaluated by the three-term recurrence, from
    the guesses cos(pi (i - 1/4) / (n + 1/2)); elementwise, so the rule's
    bits do not depend on BLAS.  It is made exactly symmetric.
    """
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(5):  # quadratic convergence: at n = 32 or 64, 3 steps reach rounding level
        p0, p1 = np.ones(n), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = n * (x * p1 - p0) / (x * x - 1.0)  # P_n'(x)
        x = x - p1 / dp
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x, w = (x - x[::-1]) / 2.0, (w + w[::-1]) / 2.0
    centres = np.arange(1 - panels, panels, 2)[:, None]
    return ((centres + x) / panels).ravel(), np.tile(w / panels, panels)


# exact_v1's rule: windows cut 9 sd past every asset, composite panels of 32
# Gauss-Legendre nodes, each at most 12 sd of the narrowest asset wide, at
# most 16 panels, and blocks of 32 scenarios so a (scenarios, assets, nodes)
# block stays in cache
_TAIL_SDS = 9.0
_GL_NODES = 32
_PANEL_SDS = 12.0
_MAX_PANELS = 16
_EXACT_CHUNK = 32


def _terminal_sds(model: BlackScholesModel) -> np.ndarray:
    """Standard deviation of each log S_{i,T} given S_1, (d,)."""
    return np.sqrt((model.vols**2).sum(axis=1) * model.steps[1:].sum())


def _exact_v1_panels(payoff: Payoff, sd: np.ndarray) -> int:
    """Panels of the composite rule that resolves the narrowest asset's cdf."""
    width = 2 * _TAIL_SDS * sd.max() + (0.0 if payoff.kind == "min_put" else sd.max() ** 2)
    return int(np.ceil(width / (_PANEL_SDS * sd.min())))


def _exact_v1_error(payoff: Payoff, model: BlackScholesModel) -> Optional[str]:
    """Why ``exact_v1`` cannot value this payoff on this model, or None when it can."""
    if payoff.kind not in ("min_put", "max_call"):
        return f"exact_v1 values min_put and max_call, not {payoff.kind}"
    if model.n_periods < 2:
        return "exact_v1 needs T >= 2: at T = 1 the date-1 value is the payoff"
    cov = model.vols @ model.vols.T
    if (cov != np.diag(np.diag(cov))).any():
        return "exact_v1 needs independent assets: vols @ vols.T must be diagonal"
    if not (np.diag(cov) > 0).all():
        return "exact_v1 needs every asset's volatility to be positive"
    panels = _exact_v1_panels(payoff, _terminal_sds(model))
    if panels > _MAX_PANELS:
        return (f"exact_v1 needs at most {_MAX_PANELS} quadrature panels, not {panels}: "
                f"the assets' volatilities are too far apart")
    return None


def exact_v1(payoff: Payoff, model: BlackScholesModel, x1: np.ndarray) -> np.ndarray:
    """Exact V_1 of a min_put or max_call on independent assets, shape (k,).

    Given S_1, log S_{i,T} is normal with mean m_i = log S_{i,1} +
    (r - |sigma_i|^2/2) tau and standard deviation s_i = |sigma_i| sqrt(tau),
    tau = sum(steps[1:]); call F_i its lognormal cdf.  With independent
    assets (Stulz 1982, Johnson 1987), and disc = exp(-r sum(steps)) as
    in ``payoff_value``:

        min_put:  disc * int_0^K [1 - prod_i (1 - F_i(x))] dx
        max_call: disc * int_K^inf [1 - prod_i F_i(x)] dx

    Both run over u = log x (dx = e^u du).  Where some F_i is 0 or 1 to
    within Phi(-9), about 1e-19, the integrand is 1 or 0 and is integrated
    in closed form; what is left is a window
    min_put:  [min_i(m_i - 9 s_i), min(log K, min_i(m_i + 9 s_i))]
    max_call: [max(log K, max_i(m_i - 9 s_i)), max_i(m_i + s_i^2 + 9 s_i)]
    (the s_i^2 for the lognormal's weight in the upper tail), at most
    18 s (plus s^2) wide at any volatility and any tau.  It takes a
    composite Gauss-Legendre rule of 32-node panels, each at most 12 s of
    the narrowest asset wide.  Scenarios are valued in blocks of
    ``_EXACT_CHUNK`` with elementwise ops and per-row reductions, so a
    scenario's value has the same bits in any block.  Raises ValueError
    for brc, for T = 1, for dependent assets, for an asset of zero
    volatility, and for volatilities so far apart (a factor of about 10)
    that the rule would need more than 16 panels.
    """
    reason = _exact_v1_error(payoff, model)
    if reason is not None:
        raise ValueError(reason)
    x1 = _first_period(model, x1)
    var = (model.vols**2).sum(axis=1)
    dt1, tau = model.steps[0], model.steps[1:].sum()
    # the mean of log S_{i,T} is offset + sqrt(dt1) sigma_i^T X_1
    offset = np.log(model.initial_prices) + (model.rate - 0.5 * var) * (dt1 + tau)
    sd = _terminal_sds(model)
    disc = np.exp(-model.rate * model.steps.sum())
    K, log_k = payoff.strike, np.log(payoff.strike)
    put = payoff.kind == "min_put"
    nodes, weights = _gauss_legendre(_GL_NODES, _exact_v1_panels(payoff, sd))
    out = np.empty(x1.shape[0])
    for a in range(0, out.size, _EXACT_CHUNK):
        m = offset + (x1[a:a + _EXACT_CHUNK, None, :] * model.vols).sum(axis=2) * np.sqrt(dt1)
        if put:  # above min_i exp(m_i + 9 s_i) some asset ends below x for sure
            hi = np.minimum((m + _TAIL_SDS * sd).min(axis=1), log_k)
            lo = np.minimum((m - _TAIL_SDS * sd).min(axis=1), hi)
            sure = K - np.exp(hi)
        else:  # below max_i exp(m_i - 9 s_i) some asset ends above x for sure
            lo = np.maximum((m - _TAIL_SDS * sd).max(axis=1), log_k)
            hi = np.maximum((m + (sd + _TAIL_SDS) * sd).max(axis=1), lo)
            sure = np.exp(lo) - K
        half = 0.5 * (hi - lo)
        u = (lo + half)[:, None] + half[:, None] * nodes  # log x at each node, (m, nodes)
        z = (u[:, None, :] - m[:, :, None]) / sd[:, None]
        # P(min_i S_{i,T} < x) or P(max_i S_{i,T} > x) is 1 - prod_i (1 - q_i),
        # q_i = P(S_{i,T} < x) or P(S_{i,T} > x); summed in logs, so that a
        # small tail keeps its digits (a q_i of 1 gives log 0 = -inf, tail 1)
        with np.errstate(divide="ignore"):
            tail = -np.expm1(np.log1p(-ndtr(z if put else -z)).sum(axis=1))
        out[a:a + _EXACT_CHUNK] = disc * (sure + half * (tail * np.exp(u) * weights).sum(axis=1))
    return out


def _date1_truth(plan: ExperimentPlan, x1: np.ndarray) -> tuple:
    """The date-1 truth of the plan's scenarios: (values, standard errors), each (k,).

    ``exact_v1`` with standard errors 0 where it applies (min_put and
    max_call on independent assets, T >= 2); otherwise the nested-MC
    ``oracle_v1`` with ``plan.n_inner`` inner paths.
    """
    if _exact_v1_error(plan.payoff, plan.model) is None:
        return exact_v1(plan.payoff, plan.model, x1), np.zeros(len(x1))
    return oracle_v1(plan.payoff, plan.model, x1, plan.n_inner, plan.seed)


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
    # vol * eye(d), signed zeros included, without the inf * 0 of a product
    vols = np.where(np.eye(d, dtype=bool), vol, np.copysign(0.0, vol))
    return BlackScholesModel(initial_prices=np.ones(d), vols=vols, rate=rate,
                             steps=_default_steps(payoff_kind))


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

    def __post_init__(self):
        if min(self.n_train, self.n_test, self.n_inner) < 1:
            raise ValueError("sample sizes must be >= 1")
        if self.n_valid is not None and self.n_valid < 1:
            raise ValueError("n_valid must be >= 1")
        _check_plan(self)
        if self.dates is not None:
            # distinct dates in 0..T holding 0 and 1, which the date-1 loss V_0 - V_1 reads
            dates = _checked_dates(self.dates, self.model.n_periods, "plan.dates")
            if len(set(dates)) != len(dates):
                raise ValueError(f"plan.dates must be distinct, got {list(dates)}")
            if not {0, 1} <= set(dates):
                raise ValueError("plan.dates must include 0 and 1 (risk reads V_0 - V_1), "
                                 f"got {list(dates)}")
            object.__setattr__(self, "dates", dates)

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


def _check_plan(plan) -> None:
    # both plans' estimator rules, found when a plan is built, not mid-fit:
    # one of the three configs, and a forest's n_resample must fit the
    # training sample
    if type(plan.estimator) not in _KINDS:
        raise ValueError("estimator must be a TreeConfig, ForestConfig or BoostConfig")
    if isinstance(plan.estimator, ForestConfig):
        plan.estimator.resample_size(plan.n_train)


def desk_plan(payoff_kind: str, seed: int = 0, estimator=None,
              **overrides) -> ExperimentPlan:
    """Desk-scale default plan for one of the three standard payoffs."""
    payoff = Payoff(payoff_kind, barrier=0.6 if payoff_kind == "brc" else 0.0)
    model = standard_model(payoff_kind)
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


# ----------------------------------------------------------- sample stage

_STREAMS = {"train": STREAM_TRAIN, "valid": STREAM_VALID, "test": STREAM_TEST}


class StreamSample(NamedTuple):
    driver: np.ndarray  # (n, d, T) driver paths
    payoffs: np.ndarray  # (n,) discounted payoffs


def sample_streams(plan: ExperimentPlan, tags: Sequence[str] = tuple(_STREAMS)) -> dict:
    """Driver samples and payoffs of the plan's seed streams.

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
        out[tag] = StreamSample(driver, payoff_value(plan.payoff, plan.model, prices))
    return out


# ------------------------------------------------------------- CSV helpers


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    """One CSV table; each float is written as its ``repr``, which reads back exactly."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


def _risk_rows(report: RiskReport, extra=()):
    for e in report.entries:
        yield tuple(extra) + (e.measure, e.alpha, e.position, e.estimate, e.oracle,
                              e.rel_error_pct)


def risk_stage(plan: ExperimentPlan, surface: ValueSurface, v0: float, v1: np.ndarray,
               y_test: np.ndarray, out: Optional[Path] = None) -> RiskReport:
    """VaR/ES of the date-1 loss V_0 - V_1 against the oracle loss v0 - v1.

    With out set, also writes risk.csv and the detrended Q-Q tables:
    qq_t1.csv (the date-1 column against the date-1 truth v1) when
    T >= 2, since at T = 1 it would repeat the next table, and qq_tT.csv
    (the date-T column against the realized payoffs y_test) when the
    surface holds date T.  ``run_experiment`` and ``treeval risk`` both
    write their risk files here.
    """
    T = plan.model.n_periods
    est_long, _ = loss_samples(surface, 0, 1)
    risk = risk_report(est_long, v0 - v1, VAR_ALPHA, ES_ALPHA)
    if out is not None:
        _write_csv(out / "risk.csv", ("measure", "alpha", "position", "estimate", "oracle",
                                      "relative_error_pct"), _risk_rows(risk))
        qq = ("level", "true_q", "detrended")
        if T != 1:
            _write_csv(out / "qq_t1.csv", qq, zip(*detrended_qq(surface.column(1), v1)))
        if T in surface.dates:
            _write_csv(out / "qq_tT.csv", qq, zip(*detrended_qq(surface.column(T), y_test)))
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
        value = value.tolist()  # exact and never summarised, on one line
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
    v1: np.ndarray       # date-1 truth per test scenario (exact or nested MC)
    v1_se: np.ndarray    # its per-scenario standard errors: zeros when it is exact
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
    T = plan.model.n_periods
    train, valid, test = sample_streams(plan).values()
    y_test = test.payoffs
    timings.append(("sampling", clock() - t_start))

    t0 = clock()
    v0, v0_se = oracle_v0(y_test)
    v1, v1_se = _date1_truth(plan, test.driver[:, :, 0])
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
    surface = value_surface(fe, dates, test.driver)
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
        config_hash = write_snapshot(out / "config.snapshot", plan, extras={"dates": dates})
        _write_csv(out / "l2_errors.csv", ("estimator", "t", "l2_error_pct"),
                   [(name, *row) for row in l2_rows])
        surface.to_csv(out / f"value_surface_{name}.csv")
        _write_csv(out / "timings.csv", ("stage", "seconds"), timings)
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
    estimator: TreeConfig | ForestConfig | BoostConfig = field(
        default_factory=lambda: ForestConfig(n_trees=30, nodesize=20, features=1, seed=11))
    mode: str = "later"  # "later" | "now" | "both"

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
        _check_plan(self)
        if isinstance(self.estimator, BoostConfig) and self.estimator.patience is not None:
            raise ValueError("a boost's patience needs a validation sample, which the "
                             "Bermudan fits do not draw; set patience: null (None)")

    def exercise_spec(self) -> ExerciseSpec:
        """The put at rate 0: the same undiscounted payoff on every date 0..T."""
        T = self.n_dates
        model = LogBSModel(self.z0, 0.0, self.sigma, np.full(T, self.horizon / T))

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
    z_train = spec.model.simulate(train)
    z_test = spec.model.simulate(test)
    timings.append(("sampling", clock() - t0))

    # the first fit gives the report's values and stopping; "both" adds regress-now
    price = {"later": price_regress_later, "now": price_regress_now}
    fitted = []
    for mode in ("later", "now") if plan.mode == "both" else (plan.mode,):
        t0 = clock()
        fitted.append(price[mode](spec, z_train, plan.estimator))
        timings.append((f"fit_{mode}", clock() - t0))
    lead = fitted[0]

    t0 = clock()
    values, tau = lead.on_paths(z_test)
    truth = _bermudan_truth(plan, z_test)
    true_v0 = float(black_put_price(plan.z0, plan.strike, 0.0, plan.sigma, plan.horizon))
    l2_rows = tuple((t, normalized_l2(values[:, t], truth[:, t], true_v0)) for t in range(T))
    # one stopping law per fitted mode, the lead's first
    taus = [tau] + [f.on_paths(z_test)[1] for f in fitted[1:]]
    laws = [np.bincount(tau, minlength=T + 1) / tau.size for tau in taus]
    timings.append(("evaluate", clock() - t0))

    config_hash = ""
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        config_hash = write_snapshot(out / "config.snapshot", plan)
        for name, law in zip(("stopping.csv", "stopping_now.csv"), laws):
            _write_csv(out / name, ("t", "probability"), enumerate(law))
        _write_csv(out / "bermudan_l2.csv", ("t", "l2_error_pct"), l2_rows)
        risk_rows = []
        for t in range(T):
            est_long = values[:, t] - values[:, t + 1]
            true_long = truth[:, t] - truth[:, t + 1]
            rep = risk_report(est_long, true_long, VAR_ALPHA, ES_ALPHA)
            risk_rows.extend(_risk_rows(rep, extra=(t,)))
        _write_csv(out / "bermudan_risk.csv",
                   ("t", "measure", "alpha", "position", "estimate", "oracle",
                    "relative_error_pct"), risk_rows)
        _write_csv(out / "timings.csv", ("stage", "seconds"), timings)
    both = len(fitted) == 2
    return BermudanReport(plan=plan, value0=lead.value0, true_value0=true_v0,
                          stopping=laws[0], l2_rows=l2_rows,
                          stopping_now=laws[1] if both else None,
                          value0_now=fitted[1].value0 if both else None,
                          out_dir=None if out_dir is None else str(out_dir),
                          config_hash=config_hash)


# ---------------------------------------------------- regress-now (t=1) leg


def regress_now_date1(plan: ExperimentPlan) -> np.ndarray:
    """Classical date-1 estimate on the plan's test scenarios.

    Fits the payoff against the first-period cross-section only and
    predicts along the test sample; used to contrast with the dynamic
    estimator's date-1 column.  A boosted config stops early on the
    first-period cross-section of the plan's validation stream, as the
    dynamic fit does on the full validation paths.
    """
    train, valid, test = sample_streams(plan, ("train", "valid", "test")).values()
    # the first period alone, as a one-period driver
    model = fit(plan.estimator, train.driver[:, :, :1], train.payoffs,
                (valid.driver[:, :, :1], valid.payoffs))
    return predict(model, test.driver[:, :, :1])
