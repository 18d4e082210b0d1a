"""Tree-ensemble payoff learning with closed-form dynamic valuation.

Learn a portfolio's discounted cash flow as a function of the driving
risk factors with regression-tree ensembles, rewrite the fitted model as
a weighted sum of hyperrectangle indicators, and evaluate its entire
value process, risk measures, and early-exercise prices analytically.
"""

from .paths import (STREAM_INNER, STREAM_TEST, STREAM_TRAIN, STREAM_VALID,
                    BlackScholesModel, LogBSModel, Payoff, payoff_value,
                    sample_driver, simulate_bs, stream_rng)
from .cart import RegressionTree, TreeConfig, fit_tree
from .ensemble import (BoostConfig, FittedBoost, FittedForest, ForestConfig,
                       fit, fit_boost, fit_forest, predict)
from .flat import (FlatEnsemble, evaluate_flat, flatten_model, load_flat, save_flat,
                   write_flat_text)
from .valuation import (ValueSurface, period_prob_matrix, tail_products,
                        value_at, value_surface)
from .bermudan import (BermudanValue, ExerciseSpec, black_put_price,
                       gaussian_cell_sum, price_regress_later,
                       price_regress_now)
from .risk import (RiskEstimate, RiskReport, default_quantile_grid,
                   detrended_qq, empirical_es, empirical_var, loss_samples,
                   normalized_l2, risk_report)
from .bench import (BermudanPlan, BermudanReport, ExperimentPlan,
                    ExperimentReport, bundle_hash, desk_plan, exact_v1,
                    oracle_v0, oracle_v1, paper_plan, run_bermudan,
                    run_experiment, standard_model)
from .parallel import get_threads, set_threads

__version__ = "0.1.0"
