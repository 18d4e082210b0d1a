"""Tree-ensemble payoff learning with closed-form dynamic valuation.

Learn a portfolio's discounted cash flow as a function of the driving
risk factors with regression-tree ensembles, rewrite the fitted model as
a weighted sum of hyperrectangle indicators, and evaluate its entire
value process, risk measures, and early-exercise prices analytically.
"""

from .paths import (STREAM_INNER, STREAM_TEST, STREAM_TRAIN, STREAM_VALID,
                    BlackScholesModel, DriverSample, LocalVolModel, Payoff,
                    log_bs_localvol, payoff_value, sample_driver, simulate_bs,
                    simulate_localvol, stream_rng)
from .cart import RegressionTree, TreeConfig, best_split, fit_tree, predict_tree
from .ensemble import (BoostConfig, FittedBoost, FittedForest, ForestConfig,
                       fit, fit_boost, fit_forest, predict)
from .flat import (FlatEnsemble, evaluate_flat, flatten_boost, flatten_forest,
                   flatten_model, flatten_tree, load_flat, read_flat_text,
                   save_flat, write_flat_text)
from .measure import (ClaytonCopula, CopulaMeasure, IndependenceCopula,
                      NormalMarginal, ProductMeasure, UniformMarginal,
                      normal_interval_prob, rect_prob)
from .valuation import (RegressNowModel, ValueSurface, fit_regress_now,
                        period_prob_matrix, tail_products, value_at,
                        value_surface)
from .bermudan import (BermudanValue, ExerciseSpec, black_put_price,
                       gaussian_cell_sum, price_regress_later,
                       price_regress_now, stopping_distribution, stopping_rule)
from .risk import (RiskEstimate, RiskReport, default_quantile_grid,
                   detrended_qq, empirical_es, empirical_var, loss_samples,
                   normalized_l2, risk_report)
from .bench import (BermudanPlan, BermudanReport, ExperimentPlan,
                    ExperimentReport, ValidationTable, bundle_hash, desk_plan,
                    oracle_v0, oracle_v1, paper_boost_grid, paper_plan,
                    paper_rf_grid, run_bermudan, run_experiment,
                    run_validation_grid, standard_model)
from .parallel import get_threads, set_threads

__version__ = "0.1.0"
