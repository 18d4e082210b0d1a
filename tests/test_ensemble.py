"""Forest and boosting behavior on top of the tree grower."""

import numpy as np
import pytest
from numpy.random import Generator, Philox, SeedSequence

from treeval.cart import TreeConfig, _as_points, _predict_trees, _time_major, fit_tree
from treeval.ensemble import (BoostConfig, ForestConfig, _resample_rows, fit, fit_boost,
                              fit_forest, predict)
from treeval.paths import sample_driver


@pytest.fixture(scope="module")
def toy():
    x = sample_driver(120, 2, 2, seed=21)
    y = np.sin(_time_major(x) @ np.array([1.0, 0.5, -0.7, 0.2]))
    return x, y


def test_forest_prediction_is_tree_average(toy):
    x, y = toy
    ff = fit_forest(x, y, ForestConfig(n_trees=7, nodesize=10, seed=3))
    manual = np.mean([predict(t, x) for t in ff.trees], axis=0)
    np.testing.assert_array_equal(predict(ff, x), manual)
    assert len(ff.trees) == 7
    assert ff.n_cells == sum(t.n_leaves for t in ff.trees)


def test_forest_full_subsample_without_replacement_equals_single_tree(toy):
    # drawing all n rows without replacement is a permutation, and the
    # greedy grower is permutation invariant on distinct inputs
    x, y = toy
    cfg = ForestConfig(n_trees=1, nodesize=10, sampling="subsample_without",
                       n_resample=120, seed=5)
    ff = fit_forest(x, y, cfg)
    tree = fit_tree(x, y, TreeConfig(nodesize=10))
    pts = sample_driver(300, 2, 2, seed=22)
    np.testing.assert_allclose(predict(ff, pts), predict(tree, pts),
                               rtol=0, atol=1e-12)


def test_forest_bootstrap_trees_differ(toy):
    x, y = toy
    ff = fit_forest(x, y, ForestConfig(n_trees=2, nodesize=10, seed=1))
    a, b = ff.trees
    same = (a.n_nodes == b.n_nodes and (a.feature == b.feature).all()
            and np.array_equal(a.threshold, b.threshold, equal_nan=True))
    assert not same


def test_forest_refit_is_deterministic(toy):
    x, y = toy
    cfg = ForestConfig(n_trees=4, nodesize=10, features=2, seed=9)
    p1 = predict(fit_forest(x, y, cfg), x)
    p2 = predict(fit_forest(x, y, cfg), x)
    np.testing.assert_array_equal(p1, p2)


def test_forest_seed_changes_fit(toy):
    x, y = toy
    p1 = predict(fit_forest(x, y, ForestConfig(n_trees=3, nodesize=10, seed=1)), x)
    p2 = predict(fit_forest(x, y, ForestConfig(n_trees=3, nodesize=10, seed=2)), x)
    assert not np.array_equal(p1, p2)


def test_forest_config_validation():
    with pytest.raises(ValueError):
        ForestConfig(n_trees=0)
    with pytest.raises(ValueError):
        ForestConfig(sampling="jackknife")
    with pytest.raises(ValueError):
        ForestConfig(sampling="subsample_with")  # needs n_resample
    with pytest.raises(ValueError):
        fit_forest(np.zeros((4, 1, 1)), np.zeros(4),
                   ForestConfig(sampling="subsample_without", n_resample=9))
    with pytest.raises(ValueError):
        fit_forest(np.zeros((4, 1, 1)), np.zeros(4),
                   ForestConfig(sampling="bootstrap", n_resample=3))


def test_forest_rejects_responses_longer_than_the_sample(toy):
    x, y = toy
    with pytest.raises(ValueError, match="one entry per path"):
        fit_forest(x, np.append(y, 0.0), ForestConfig(n_trees=2, nodesize=10))


def test_forest_rejects_responses_shorter_than_the_sample(toy):
    x, y = toy
    with pytest.raises(ValueError, match="one entry per path"):
        fit_forest(x, y[:-1], ForestConfig(n_trees=2, nodesize=10))


def test_forest_rejects_a_nan_response_that_no_tree_draws(toy):
    x, y = toy
    cfg = ForestConfig(n_trees=3, nodesize=10, sampling="subsample_without",
                       n_resample=50, seed=4)
    for s in SeedSequence(cfg.seed).spawn(cfg.n_trees):
        assert 0 not in _resample_rows(Generator(Philox(s)), 120, cfg)  # no tree draws row 0
    bad = y.copy()
    bad[0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        fit_forest(x, bad, cfg)


@pytest.mark.parametrize("cfg", [ForestConfig(n_trees=9, nodesize=3, features=2, seed=4),
                                 ForestConfig(n_trees=4, max_depth=0, seed=5)],
                         ids=["features_2", "root_only"])
def test_forest_predict_is_the_mean_of_its_trees_bitwise(cfg):
    """All trees are routed in one pass; the mean is that of the per-tree routes."""
    x = sample_driver(500, 3, 2, seed=26)
    y = np.cos(_time_major(x) @ np.arange(1.0, 7.0))
    ff = fit_forest(x, y, cfg)
    pts = sample_driver(777, 3, 2, seed=27)
    X = _as_points(pts, ff.dims)
    per_tree = [_predict_trees((t,), X)[0] for t in ff.trees]
    assert np.array_equal(predict(ff, pts), np.mean(per_tree, axis=0))
    for tree, got in zip(ff.trees, per_tree):
        for i in range(0, X.shape[0], 97):  # walk a few rows by hand
            node = 0
            while tree.feature[node] >= 0:
                f = tree.feature[node]
                node = tree.left[node] if X[i, f] <= tree.threshold[node] else tree.right[node]
            assert got[i] == tree.value[node]


def test_forest_prediction_does_not_depend_on_its_batch(toy):
    """A point alone and in a batch gets the same bits: np.mean over the
    trees would sum a batch of one pairwise and a larger batch left to right."""
    x, y = toy
    pts = sample_driver(50, 2, 2, seed=29)
    for n_trees in (8, 12, 33):
        ff = fit_forest(x, y, ForestConfig(n_trees=n_trees, nodesize=3, seed=9))
        batch = predict(ff, pts)
        alone = np.concatenate([predict(ff, pts[i:i + 1]) for i in range(pts.shape[0])])
        assert np.array_equal(alone.view(np.int64), batch.view(np.int64)), n_trees


def test_boost_single_full_step_interpolates(toy):
    # learning_rate 1 with an exact residual tree reproduces y in one round
    x, y = toy
    boost = fit_boost(x, y, BoostConfig(rounds=1, learning_rate=1.0,
                                        nodesize=2, max_depth=None))
    np.testing.assert_allclose(predict(boost, x), y, rtol=0, atol=1e-12)
    assert boost.n_rounds == 1
    assert boost.gammas[0] == pytest.approx(1.0, rel=1e-12)


def test_boost_base_value_is_response_mean(toy):
    x, y = toy
    boost = fit_boost(x, y, BoostConfig(rounds=3, max_depth=2))
    assert boost.base_value == pytest.approx(y.mean(), rel=1e-15)


def test_boost_constant_response_keeps_zero_rounds():
    x = sample_driver(32, 1, 1, seed=23)
    y = np.full(32, 2.5)
    boost = fit_boost(x, y, BoostConfig(rounds=10))
    assert boost.n_rounds == 0
    assert boost.n_cells == 1
    np.testing.assert_array_equal(predict(boost, x), y)


def test_boost_training_error_is_monotone(toy):
    x, y = toy
    boost = fit_boost(x, y, BoostConfig(rounds=30, learning_rate=0.5, max_depth=3))
    errs = np.asarray(boost.train_errors)
    assert errs.size > 0
    assert (np.diff(errs) <= 1e-12).all()


def test_boost_early_stopping_rolls_back_to_best_round():
    # deep trees on pure noise overfit quickly, so validation error turns
    rng = np.random.default_rng(24)
    x = rng.standard_normal((150, 1, 2))
    y = rng.standard_normal(150)
    vx = rng.standard_normal((150, 1, 2))
    vy = rng.standard_normal(150)
    boost = fit_boost(x, y, BoostConfig(rounds=60, learning_rate=0.5,
                                        nodesize=2, max_depth=None, patience=5),
                      valid=(vx, vy))
    assert boost.n_rounds < 60
    errs = np.asarray(boost.valid_errors)
    assert errs.size == boost.n_rounds
    if boost.n_rounds:
        assert errs[-1] == errs.min()


def test_boost_without_patience_keeps_all_rounds(toy):
    x, y = toy
    vx = sample_driver(50, 2, 2, seed=25)
    vy = np.sin(_time_major(vx) @ np.array([1.0, 0.5, -0.7, 0.2]))
    boost = fit_boost(x, y, BoostConfig(rounds=8, max_depth=2),
                      valid=(vx, vy))
    assert boost.n_rounds == 8
    assert len(boost.valid_errors) == 8


def test_boost_validation_requires_responses(toy):
    x, y = toy
    with pytest.raises(ValueError):
        fit_boost(x, y, BoostConfig(rounds=2), valid=(x,))


@pytest.mark.parametrize("spoil, needle", [
    (lambda vy: np.where(np.arange(vy.size) == 17, np.nan, vy), "non-finite"),
    (lambda vy: vy[:1], "one entry per path"),  # would broadcast against every point
], ids=["one-nan", "one-response"])
def test_boost_rejects_bad_validation_responses(spoil, needle):
    # either used to pass silently and keep 0 rounds
    rng = np.random.default_rng(26)
    x, vx = rng.standard_normal((200, 1, 2)), rng.standard_normal((100, 1, 2))
    y, vy = rng.standard_normal(200), rng.standard_normal(100)
    with pytest.raises(ValueError, match=needle):
        fit_boost(x, y, BoostConfig(rounds=30, learning_rate=0.5, nodesize=2, patience=3),
                  valid=(vx, spoil(vy)))


def test_boost_patience_requires_a_validation_sample(toy):
    # patience stops on validation error; without a validation sample it would do nothing
    x, y = toy
    with pytest.raises(ValueError, match="patience needs a validation sample"):
        fit_boost(x, y, BoostConfig(rounds=5, patience=3))
    with pytest.raises(ValueError, match="patience needs a validation sample"):
        fit(BoostConfig(rounds=5, patience=3), x, y)


def test_boost_config_validation():
    with pytest.raises(ValueError):
        BoostConfig(rounds=0)
    with pytest.raises(ValueError):
        BoostConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        BoostConfig(learning_rate=1.5)
    with pytest.raises(ValueError):
        BoostConfig(patience=0)


def test_boost_refit_is_deterministic(toy):
    x, y = toy
    cfg = BoostConfig(rounds=10, max_depth=3, seed=4)
    p1 = predict(fit_boost(x, y, cfg), x)
    p2 = predict(fit_boost(x, y, cfg), x)
    np.testing.assert_array_equal(p1, p2)


def test_predict_rejects_unknown_models():
    with pytest.raises(TypeError):
        predict(object(), np.zeros((1, 1, 1)))


def test_fit_rejects_unknown_configs_and_foreign_layouts():
    # a regress-now fit on a one-period slice relies on these checks
    rng = np.random.default_rng(59)
    x, xv = rng.standard_normal((200, 2, 1)), rng.standard_normal((100, 2, 1))
    y, yv = rng.standard_normal(200), rng.standard_normal(100)
    with pytest.raises(TypeError):
        fit("boost", x, y)
    with pytest.raises(ValueError, match=r"\(k, d, T\) batch with \(d, T\) = \(2, 1\)"):
        fit(BoostConfig(rounds=5, patience=3), x, y, (xv[:, 0, 0], yv))
    with pytest.raises(ValueError, match=r"\(k, d, T\) batch with \(d, T\) = \(2, 1\)"):
        predict(fit(TreeConfig(), x, y), np.zeros(3))
