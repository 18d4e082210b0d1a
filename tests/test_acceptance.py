"""Acceptance gate: eleven end-to-end behavior checks at fixed tolerances.

Run with ``pytest -v tests/test_acceptance.py``: each test is one
pass/fail line, and each prints its measured numbers.  Desk-scale runs
are shared through session fixtures so the whole gate finishes in a few
minutes on one core.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from test_cart import brute_force_split
from treeval.bench import (
    BermudanPlan,
    desk_plan,
    regress_now_date1,
    run_bermudan,
    run_experiment,
    standard_model,
)
from treeval.cart import TreeConfig, fit_tree
from treeval.ensemble import (
    BoostConfig,
    ForestConfig,
    fit_boost,
    fit_forest,
    predict,
)
from treeval.flat import FlatEnsemble, evaluate_flat, flatten_model
from treeval.paths import (
    STREAM_TEST,
    STREAM_TRAIN,
    Payoff,
    payoff_value,
    sample_driver,
    simulate_bs,
)
from treeval.risk import empirical_es, empirical_var, normalized_l2
from treeval.valuation import period_prob_matrix, value_at, value_surface

# the slow end-to-end tier: `pytest -m "not acceptance"` runs the unit tests alone
pytestmark = pytest.mark.acceptance

D, T = 6, 2


# ------------------------------------------------------------------ fixtures


@pytest.fixture(scope="session")
def minput_desk(tmp_path_factory):
    """Desk-scale min-put run with its report bundle on disk."""
    out = tmp_path_factory.mktemp("minput_bundle") / "first"
    plan = desk_plan("min_put", seed=0)
    report = run_experiment(plan, out_dir=out)
    return plan, report, out


@pytest.fixture(scope="session")
def maxcall_desk():
    plan = desk_plan("max_call", seed=0)
    return plan, run_experiment(plan)


@pytest.fixture(scope="session")
def minput_training():
    model = standard_model("min_put")
    payoff = Payoff("min_put", strike=1.0)
    train = sample_driver(2000, D, T, 0, (STREAM_TRAIN,))
    labels = payoff_value(payoff, model, simulate_bs(model, train))
    return train, labels


@pytest.fixture(scope="session")
def small_flat(minput_training):
    """Compact boosted min-put model kept small enough for nested MC."""
    train, labels = minput_training
    fitted = fit_boost(train, labels, BoostConfig(rounds=40, learning_rate=0.3,
                                                  nodesize=40, max_depth=5, seed=3))
    return flatten_model(fitted)


# -------------------------------------------------------------------- checks


def test_flat_form_reproduces_every_ensemble_kind(minput_training):
    """Flattened cells re-evaluate each fitted model to float precision."""
    train, labels = minput_training
    pts = sample_driver(10_000, D, T, 99, (STREAM_TEST,))
    fits = (
        ("tree", fit_tree(train, labels, TreeConfig(nodesize=10, seed=1))),
        ("forest", fit_forest(train, labels,
                              ForestConfig(n_trees=20, nodesize=10, seed=2))),
        ("boost", fit_boost(train, labels,
                            BoostConfig(rounds=30, nodesize=20, max_depth=6, seed=3))),
    )
    worst = 0.0
    for name, fitted in fits:
        flat = evaluate_flat(flatten_model(fitted), pts)
        direct = np.asarray(predict(fitted, pts), dtype=np.float64)
        dev = float(np.max(np.abs(flat - direct) / (1.0 + np.abs(direct))))
        assert dev <= 1e-10, (name, dev)
        worst = max(worst, dev)
    print(f"\nPASS flat equivalence: worst relative deviation {worst:.2e} "
          f"over 3 ensembles x 10^4 points")


def test_date1_closed_form_matches_conditional_mc(small_flat):
    """V_1(x_1) in closed form agrees with per-prefix nested Monte Carlo."""
    fe = small_flat
    prefixes = sample_driver(50, D, T, 7, (STREAM_TEST,))[:, :, 0]
    lows1, highs1 = fe.lo[:, :D], fe.hi[:, :D]
    n_inner = 100_000
    worst = 0.0
    for i, x1 in enumerate(prefixes):
        closed = value_at(fe, 1, x1[:, None])
        # conditioning on X_1 = x1 freezes the first-period membership,
        # so only cells whose first-period slab contains x1 survive
        inside = np.all((lows1 < x1) & (x1 <= highs1), axis=1)
        sub = FlatEnsemble(lo=fe.lo[inside][:, D:],
                           hi=fe.hi[inside][:, D:],
                           values=fe.values[inside], dims=(D, 1))
        draws = np.random.default_rng((2024, i)).standard_normal((n_inner, D, 1))
        vals = evaluate_flat(sub, draws)
        se = vals.std(ddof=1) / math.sqrt(n_inner)
        z = abs(closed - float(vals.mean())) / se
        assert z <= 4.0, (i, z)
        worst = max(worst, z)
    print(f"\nPASS closed form vs conditional MC: max |z| {worst:.2f} "
          f"over 50 prefixes (4 SE allowed)")


def test_tower_identity_between_dates(small_flat):
    """The date-1 value column averages back to the date-0 value."""
    fe = small_flat
    test = sample_driver(20_000, D, T, 13, (STREAM_TEST,))
    surface = value_surface(fe, (0, 1), test)
    v0 = float(surface.column(0)[0])
    v1 = surface.column(1)
    sigma = float(v1.std(ddof=1)) / math.sqrt(v1.size)
    gap = abs(float(v1.mean()) - v0)
    assert gap <= 3.0 * sigma
    print(f"\nPASS tower identity: |mean(V_1) - V_0| = {gap:.2e} "
          f"<= 3 sigma = {3 * sigma:.2e}")


def test_minput_desk_error_profile(minput_desk):
    """Desk-scale min-put errors sit in the published magnitude bands."""
    _, report, _ = minput_desk
    errors = dict(report.l2_rows)
    e1, eT = errors[1], errors[2]
    assert 3.0 <= eT <= 12.0
    assert 0.8 <= e1 <= 4.0
    assert e1 < eT
    print(f"\nPASS desk error profile: e1 {e1:.3f}% in [0.8, 4], "
          f"eT {eT:.3f}% in [3, 12], e1 < eT")


def test_value_gap_bounded_by_terminal_fit(minput_desk):
    """Max value-process gap obeys the 2x terminal-fit bound (plus MC noise)."""
    _, rep, _ = minput_desk
    surface = rep.surface
    e0 = abs(float(surface.column(0)[0]) - rep.v0)
    g1 = np.abs(surface.column(1) - rep.v1)
    gT = np.abs(surface.column(2) - rep.y_test)
    lhs = float(np.sqrt(np.mean(np.maximum(e0, np.maximum(g1, gT)) ** 2)))
    fit_term = 2.0 * float(np.sqrt(np.mean((surface.column(2) - rep.y_test) ** 2)))
    mc_term = 3.0 * math.sqrt(rep.v0_se ** 2 + float(np.mean(rep.v1_se ** 2)))
    assert lhs <= fit_term + mc_term
    print(f"\nPASS value-gap bound: {lhs:.4f} <= 2*terminal fit {fit_term:.4f} "
          f"+ 3*mc {mc_term:.4f}")


def test_var_es_exact_values_and_ordering():
    """Order-statistic VaR/ES hand values plus ES >= VaR on random samples."""
    losses = np.arange(1.0, 101.0)
    assert empirical_var(losses, 0.95) == 95.0
    assert empirical_es(losses, 0.95) == 98.0
    rng = np.random.default_rng(6)
    for _ in range(1000):
        n = int(rng.integers(1, 300))
        sample = rng.normal(loc=rng.uniform(-5.0, 5.0),
                            scale=rng.uniform(0.1, 10.0), size=n)
        alpha = float(rng.uniform(0.01, 0.99))
        assert empirical_es(sample, alpha) >= empirical_var(sample, alpha)
    print("\nPASS var/es: var=95 and es=98 exactly; es >= var on 1000 "
          "random samples and levels")


def test_rectangle_probability_suite():
    """Standard-normal cell probabilities: normalization and additivity."""
    rng = np.random.default_rng(11)
    d, T = 3, 2
    full = FlatEnsemble(lo=np.full((1, d * T), -np.inf), hi=np.full((1, d * T), np.inf),
                        values=np.ones(1), dims=(d, T))
    assert (period_prob_matrix(full) == 1.0).all()

    # one cell per (whole, left part, right part) box, each box in period 2
    lows, highs = [], []
    for _ in range(20):
        lo = rng.uniform(-2.0, 0.0, d)
        hi = lo + rng.uniform(0.5, 2.5, d)
        j = int(rng.integers(d))
        mid = 0.5 * (lo[j] + hi[j])
        hi_left, lo_right = hi.copy(), lo.copy()
        hi_left[j] = mid
        lo_right[j] = mid
        lows += [lo, lo, lo_right]
        highs += [hi, hi_left, hi]
    period1 = np.full((len(lows), d), np.inf)
    cells = FlatEnsemble(lo=np.hstack([-period1, lows]), hi=np.hstack([period1, highs]),
                         values=np.ones(len(lows)), dims=(d, T))
    whole, left, right = period_prob_matrix(cells)[:, 1].reshape(-1, 3).T
    worst_add = float(np.max(np.abs(whole - (left + right))))
    assert worst_add <= 1e-10

    print(f"\nPASS rectangle probabilities: normalization exact, additivity "
          f"{worst_add:.1e}")


def test_bermudan_put_stopping_and_errors():
    """On the at-the-money put, both ensembles hold to maturity and track
    the closed-form value process; the classical estimator stops early."""
    configs = (
        ("forest", ForestConfig(n_trees=30, nodesize=20, features=1, seed=11)),
        ("boost", BoostConfig(rounds=100, learning_rate=0.3, nodesize=2,
                              max_depth=6, seed=11)),
    )
    lines = []
    for label, est in configs:
        rep = run_bermudan(BermudanPlan(seed=0, estimator=est, mode="both"))
        mass = float(rep.stopping[-1])
        mass_now = float(rep.stopping_now[-1])
        worst_l2 = max(e for _, e in rep.l2_rows)
        assert mass >= 0.95, (label, mass)
        assert worst_l2 <= 2.0, (label, worst_l2)
        assert mass_now < mass, (label, mass_now, mass)
        lines.append(f"{label} mass {mass:.4f} (now {mass_now:.4f}), "
                     f"max L2 {worst_l2:.3f}%")
    print("\nPASS bermudan put: " + "; ".join(lines))


def test_regress_later_beats_regress_now(minput_desk, maxcall_desk):
    """Dynamic date-1 errors beat the classical date-1 regression."""
    runs = (("min_put", minput_desk[0], minput_desk[1]),
            ("max_call", maxcall_desk[0], maxcall_desk[1]))
    lines = []
    for label, plan, rep in runs:
        e1_later = dict(rep.l2_rows)[1]
        e1_now = normalized_l2(regress_now_date1(plan), rep.v1, rep.v0)
        assert e1_later < e1_now, (label, e1_later, e1_now)
        lines.append(f"{label} later {e1_later:.3f}% < now {e1_now:.3f}%")
    print("\nPASS regress-later vs regress-now: " + "; ".join(lines))


def test_greedy_split_matches_exhaustive_search():
    """Greedy growth splits a root exactly where brute-force enumeration does."""
    rng = np.random.default_rng(2024)
    n_split = 0
    for _ in range(200):
        n = int(rng.integers(2, 31))
        p = int(rng.integers(1, 4))
        x = rng.integers(-4, 5, size=(n, p)).astype(np.float64)
        y = rng.integers(-3, 4, size=n).astype(np.float64)
        # p assets of one period: the tree's column c is column c of x
        tree = fit_tree(x[:, :, None], y, TreeConfig(nodesize=2, max_depth=1))
        oracle = brute_force_split(x, y)
        if oracle is None:
            assert tree.n_nodes == 1
        else:
            assert (tree.feature[0], tree.threshold[0]) == oracle[:2]
            go = x[:, oracle[0]] <= oracle[1]
            assert tree.value[tree.left[0]] == y[go].mean()
            assert tree.value[tree.right[0]] == y[~go].mean()
            n_split += 1
    assert n_split >= 100  # the draw must actually exercise split selection
    print(f"\nPASS greedy split equals exhaustive search on 200 instances "
          f"({n_split} with an admissible split)")


def test_desk_report_bundles_are_byte_identical(minput_desk, tmp_path_factory):
    """Same seeds, same bytes: rerunning the desk pipeline reproduces the
    report bundle exactly (wall-clock timings aside)."""
    plan, _, out1 = minput_desk
    out2 = tmp_path_factory.mktemp("minput_bundle_rerun") / "second"
    run_experiment(plan, out_dir=out2)
    names1 = sorted(p.name for p in Path(out1).iterdir())
    names2 = sorted(p.name for p in Path(out2).iterdir())
    assert names1 == names2
    compared = 0
    for name in names1:
        if name == "timings.csv":
            continue
        assert (Path(out1) / name).read_bytes() == \
            (Path(out2) / name).read_bytes(), name
        compared += 1
    print(f"\nPASS determinism: {compared} bundle files byte-identical "
          f"across independent reruns")
