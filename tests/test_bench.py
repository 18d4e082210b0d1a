"""Tests for the oracle estimators, experiment plans, and report bundles."""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri

import treeval as tv
from treeval import bench, paths
from treeval.bench import (
    BermudanPlan,
    ExperimentPlan,
    ValidationRow,
    ValidationTable,
    _bermudan_truth,
    black_put_price,
    bundle_hash,
    desk_plan,
    oracle_v0,
    oracle_v1,
    paper_boost_grid,
    paper_plan,
    paper_rf_grid,
    regress_now_date1,
    run_bermudan,
    run_experiment,
    run_validation_grid,
    sample_streams,
    standard_model,
    write_snapshot,
)
from treeval.cart import TreeConfig
from treeval.ensemble import BoostConfig, ForestConfig
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
from treeval.valuation import fit_regress_now

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


def test_oracle_v1_reproducible_and_chunk_invariant():
    model = standard_model("min_put", d=2)
    payoff = Payoff("min_put", strike=1.0)
    x1 = sample_driver(30, 2, 2, 0, (STREAM_TEST,)).data[:, :, 0]
    a_vals, a_ses = oracle_v1(payoff, model, x1, n_inner=40, seed=5, chunk=7)
    b_vals, b_ses = oracle_v1(payoff, model, x1, n_inner=40, seed=5, chunk=256)
    assert np.array_equal(a_vals, b_vals)
    assert np.array_equal(a_ses, b_ses)
    c_vals, _ = oracle_v1(payoff, model, x1, n_inner=40, seed=6)
    assert not np.array_equal(a_vals, c_vals)
    with pytest.raises(ValueError):
        oracle_v1(payoff, model, x1, n_inner=0, seed=5)


def _oracle_v1_per_scenario(payoff, model, x1, n_inner, seed):
    # reference: one generator, one simulation and one payoff call per scenario
    k, d = x1.shape
    T = model.n_periods
    vals, ses = np.empty(k), np.empty(k)
    full = np.empty((n_inner, d, T))
    for i in range(k):
        rng = stream_rng(seed, STREAM_INNER, i)
        full[:, :, 0] = x1[i]
        raw = rng.integers(0, 1 << 53, size=(n_inner, d, T - 1), dtype=np.uint64)
        full[:, :, 1:] = ndtri((raw.astype(np.float64) + 0.5) * (0.5**53))
        y = payoff_value(payoff, model, simulate_bs(model, full))
        vals[i] = y.mean()
        ses[i] = y.std(ddof=1) / np.sqrt(n_inner) if n_inner > 1 else 0.0
    return vals, ses


@pytest.mark.parametrize("n_inner", [1, 7, 40])
@pytest.mark.parametrize("kind, d", [("min_put", 2), ("brc", 3)])
def test_oracle_v1_matches_per_scenario_reference(kind, d, n_inner):
    model = standard_model(kind, d=d)
    payoff = desk_plan(kind).payoff
    x1 = sample_driver(300, d, model.n_periods, 3, (STREAM_TEST,)).data[:, :, 0]
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
    x1 = sample_driver(50, 2, model.n_periods, 3, (STREAM_TEST,)).data[:, :, 0]
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
    x1 = sample_driver(k, 1, model.n_periods, 0, (STREAM_TEST,)).data[:, :, 0]
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
    v1, _ = oracle_v1(payoff, model, test.data[:, :, 0], n_inner=100, seed=0)
    tol = 4.0 * math.sqrt(v0_se**2 + v1.var(ddof=1) / v1.size)
    assert abs(v1.mean() - v0) <= tol


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


def test_paper_rf_grid_combos():
    grid = paper_rf_grid(6, 2)
    assert len(grid) == 18
    names = [g[0] for g in grid]
    assert len(set(names)) == 18
    ps = {g[1].features for g in grid}
    assert ps == {4, 12}
    assert {g[1].n_trees for g in grid} == {100, 250, 500}
    assert {g[1].nodesize for g in grid} == {2, 3, 5}
    assert all(isinstance(g[1], ForestConfig) for g in grid)


def test_paper_boost_grid_combos():
    grid = paper_boost_grid()
    assert len(grid) == 30
    assert {g[1].nodesize for g in grid} == {5, 15, 25, 35, 45}
    assert {g[1].max_depth for g in grid} == {40, 50, 60, 70, 80, 90}
    assert all(g[1].rounds == 1000 and g[1].patience == 10 for g in grid)


def test_validation_table_tie_breaks():
    rows = (
        ValidationRow("a", None, 1.0, 10),
        ValidationRow("b", None, 0.5, 8),
        ValidationRow("c", None, 0.5, 5),
        ValidationRow("d", None, 0.5, 5),
    )
    assert ValidationTable(rows).best.name == "c"  # error, then cells, then order
    assert ValidationTable(rows[:2]).best.name == "b"


def test_run_validation_grid_micro():
    plan = desk_plan("min_put", n_train=300, n_valid=100, n_test=10, n_inner=2)
    plan = ExperimentPlan(**{**plan.__dict__, "model": standard_model("min_put", d=2)})
    grid = (("shallow", TreeConfig(nodesize=80)), ("deep", TreeConfig(nodesize=10)))
    table = run_validation_grid(plan, grid)
    assert [r.name for r in table.rows] == ["shallow", "deep"]
    assert all(np.isfinite(r.error_pct) and r.error_pct > 0 for r in table.rows)
    assert all(r.n_cells >= 1 for r in table.rows)
    assert table.best in table.rows
    with pytest.raises(ValueError):
        run_validation_grid(plan, ())


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
    model = fit_regress_now(train.driver.data[:, :, 0], train.payoffs, plan.estimator,
                            (valid.driver.data[:, :, 0], valid.payoffs))
    assert model.model.n_rounds < 60
    assert np.array_equal(regress_now_date1(plan), model.predict(test.driver.data[:, :, 0]))


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
    for bad in ({"sigma": 0.0}, {"strike": -1.0}, {"z0": float("nan")},
                {"horizon": float("inf")}):
        with pytest.raises(ValueError):
            BermudanPlan(**bad)


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
    """Forest trees grown together and the threaded cdf sum: no byte moves with threads."""
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
