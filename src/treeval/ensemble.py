"""Random forests and gradient boosting built on the CART grower.

A forest averages trees fitted on resampled data with per-split
coordinate subsampling.  Boosting starts from the response mean and
repeatedly fits a tree to the current residuals ``f_{t-1}(x_i) - y_i``,
subtracting a line-search multiple of it:

    f_t = f_{t-1} - learning_rate * gamma_t * g_t,
    gamma_t = max(0, sum r_i g_t(x_i) / sum g_t(x_i)^2).

With learning_rate = 1 the update is the exact one-dimensional least
squares step; smaller rates shrink each step.  Optional early stopping
tracks validation error and rolls back to the best iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Optional

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .cart import (RegressionTree, TreeConfig, _as_points, _batch_size, _check_responses,
                   _grow_trees, _predict_trees, _presort, _training_points, fit_tree)

_SAMPLINGS = ("bootstrap", "subsample_with", "subsample_without")


@dataclass(frozen=True)
class ForestConfig:
    """Random-forest controls.

    n_trees
        Number of trees M.
    sampling / n_resample
        "bootstrap" draws n points with replacement (n_resample must be
        None or n); the subsample modes draw n_resample points with or
        without replacement.
    features
        Coordinates drawn uniformly without replacement per split, or
        "all".  Below P, each tree draws per cell in level order, as
        ``TreeConfig.features`` describes.
    """

    n_trees: int = 100
    nodesize: int = 5
    features: int | str = "all"
    sampling: str = "bootstrap"
    n_resample: Optional[int] = None
    max_depth: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.sampling not in _SAMPLINGS:
            raise ValueError(f"sampling must be one of {_SAMPLINGS}")
        if self.sampling != "bootstrap" and self.n_resample is None:
            raise ValueError("subsample modes require n_resample")
        if self.n_resample is not None and self.n_resample < 1:
            raise ValueError("n_resample must be >= 1")
        TreeConfig(nodesize=self.nodesize, max_depth=self.max_depth, features=self.features)

    def resample_size(self, n: int) -> int:
        """Rows each tree is grown on when the forest is fitted on n points.

        Raises ValueError when n_resample does not fit n: bootstrap
        draws exactly n rows, and subsampling without replacement
        cannot draw more than n.  Plans call this when they are built,
        so a misfit is a configuration error, not a failed fit.
        """
        if self.sampling == "bootstrap":
            if self.n_resample not in (None, n):
                raise ValueError(f"n_resample: bootstrap resamples exactly the {n} "
                                 f"training points, got {self.n_resample}")
            return n
        if self.sampling == "subsample_without" and self.n_resample > n:
            raise ValueError(f"n_resample: cannot subsample {self.n_resample} of "
                             f"{n} training points without replacement")
        return self.n_resample


@dataclass(frozen=True)
class FittedForest:
    trees: tuple
    dims: tuple
    config: ForestConfig

    @property
    def n_cells(self) -> int:
        return sum(t.n_leaves for t in self.trees)


def _resample_rows(rng: Generator, n: int, cfg: ForestConfig) -> np.ndarray:
    size = cfg.resample_size(n)
    if cfg.sampling == "subsample_without":
        return rng.permutation(n)[:size]
    return rng.integers(0, n, size=size)


def fit_forest(sample, responses, cfg: ForestConfig = ForestConfig()) -> FittedForest:
    """Fit a random forest on driver paths against responses.

    Tree m is grown on rows resampled from stream (seed, m), so each
    tree's data and split draws depend only on (seed, m) and are stable
    under re-runs.  The trees grow together in batches (see
    ``cart._grow_trees``), as many at a time as ``cart._batch_size``
    allows, which changes no tree.
    """
    X, dims = _training_points(sample)
    n = X.shape[0]
    y = _check_responses(responses, n)
    tree_cfg = TreeConfig(nodesize=cfg.nodesize, max_depth=cfg.max_depth,
                          features=cfg.features)
    rngs = [Generator(Philox(s)) for s in SeedSequence(cfg.seed).spawn(cfg.n_trees)]
    step = _batch_size(cfg.resample_size(n), X.shape[1])
    trees = []
    for a in range(0, cfg.n_trees, step):
        batch = rngs[a:a + step]
        rows = [_resample_rows(rng, n, cfg) for rng in batch]
        trees += _grow_trees([X[r] for r in rows], [y[r] for r in rows], tree_cfg, dims, batch)
    return FittedForest(trees=tuple(trees), dims=dims, config=cfg)


@dataclass(frozen=True)
class BoostConfig:
    """Gradient-boosting controls.

    rounds
        Maximum number of boosting rounds.
    patience
        Stop after this many rounds without a new best validation error
        and roll back to the best round; it needs a validation set.  None
        disables early stopping.
    seed
        Recorded only: every split considers all coordinates, so no draw.
    """

    rounds: int = 100
    learning_rate: float = 0.1
    nodesize: int = 2
    max_depth: Optional[int] = 6
    patience: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not 0 < self.learning_rate <= 1:
            raise ValueError("learning_rate must lie in (0, 1]")
        if self.patience is not None and self.patience < 1:
            raise ValueError("patience must be >= 1")
        TreeConfig(nodesize=self.nodesize, max_depth=self.max_depth)


@dataclass(frozen=True)
class FittedBoost:
    base_value: float
    trees: tuple
    gammas: tuple
    dims: tuple
    config: BoostConfig
    train_errors: tuple = ()
    valid_errors: tuple = ()

    @property
    def n_rounds(self) -> int:
        return len(self.trees)

    @property
    def n_cells(self) -> int:
        return 1 + sum(t.n_leaves for t in self.trees)


def fit_boost(sample, responses, cfg: BoostConfig = BoostConfig(),
              valid=None) -> FittedBoost:
    """Fit a boosted tree model, optionally with validation early stopping.

    valid is an optional (X_valid, y_valid) pair, as ``fit`` takes it;
    the validation error is tracked on it every round.  Residual trees
    are grown with all coordinates as candidates; the line-search
    multiplier gamma_t is clipped at zero, and a round with an
    identically-zero tree ends the loop (the update would be a no-op).
    """
    X, dims = _training_points(sample)
    y = np.asarray(responses, dtype=np.float64)
    tree_cfg = TreeConfig(nodesize=cfg.nodesize, max_depth=cfg.max_depth)
    use_valid = valid is not None
    if cfg.patience is not None and not use_valid:
        raise ValueError("patience needs a validation sample; set it to None to fit without one")
    if use_valid:
        valid_sample, valid_responses = valid
        vX = _as_points(valid_sample, dims)
        vy = _check_responses(valid_responses, vX.shape[0])

    base = float(np.mean(y))
    cur = np.full(y.size, base)
    trees, gammas, train_err, valid_err = [], [], [], []
    best_round, best_err = 0, np.inf
    if use_valid:
        vcur = np.full(vy.size, base)
        best_err = float(np.mean((vcur - vy) ** 2))
    presorted = _presort([X])  # every round splits the same X
    g = np.empty(y.size)  # the round's tree at X, written by growth
    for t in range(cfg.rounds):
        resid = cur - y
        tree, = _grow_trees([X], [resid], tree_cfg, dims, [None], presorted, g)
        den = float(np.sum(g * g))
        if den == 0.0:
            break
        gamma = max(float(np.sum(resid * g)) / den, 0.0)
        if gamma == 0.0:
            break
        cur = cur - cfg.learning_rate * gamma * g
        trees.append(tree)
        gammas.append(gamma)
        train_err.append(float(np.mean((cur - y) ** 2)))
        if use_valid:
            vcur = vcur - cfg.learning_rate * gamma * _predict_trees((tree,), vX)[0]
            err = float(np.mean((vcur - vy) ** 2))
            valid_err.append(err)
            if err < best_err:
                best_err, best_round = err, t + 1
            elif cfg.patience is not None and (t + 1) - best_round >= cfg.patience:
                break
    keep = len(trees) if cfg.patience is None else best_round
    return FittedBoost(base_value=base, trees=tuple(trees[:keep]), gammas=tuple(gammas[:keep]),
                       dims=dims, config=cfg,
                       train_errors=tuple(train_err[:keep]), valid_errors=tuple(valid_err[:keep]))


def predict(model, x) -> np.ndarray:
    """Evaluate a fitted tree, forest, or boosted model at a (k, d, T) batch x; shape (k,).

    A point gets the same bits in any batch: a forest sums its trees
    left to right, a boost its rounds.  A tree is a forest of one, whose
    leaf values keep their bits through ``/ 1``.
    """
    if not isinstance(model, (RegressionTree, FittedForest, FittedBoost)):
        raise TypeError(f"cannot predict with object of type {type(model).__name__}")
    X = _as_points(x, model.dims)
    if isinstance(model, FittedBoost):
        acc = np.zeros(X.shape[0])
        for tree, gamma in zip(model.trees, model.gammas):
            acc = acc + model.config.learning_rate * gamma * _predict_trees((tree,), X)[0]
        return model.base_value - acc
    trees = model.trees if isinstance(model, FittedForest) else (model,)
    # left to right at every batch size; np.mean sums one point pairwise
    return reduce(np.add, _predict_trees(trees, X)) / len(trees)


def fit(config, X, y, valid=None):
    """Fit the estimator that config describes on samples X against responses y.

    config is a TreeConfig, ForestConfig, or BoostConfig.  valid is an
    optional (X_valid, y_valid) pair; only boosting uses it, for
    early stopping.
    """
    if isinstance(config, BoostConfig):
        return fit_boost(X, y, config, valid)
    if isinstance(config, ForestConfig):
        return fit_forest(X, y, config)
    if isinstance(config, TreeConfig):
        return fit_tree(X, y, config)
    raise TypeError("estimator config must be a TreeConfig, ForestConfig, or BoostConfig")
