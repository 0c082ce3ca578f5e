"""Fisher market and Trading Post mechanisms for budgeted allocation.

Equilibrium solvers for linear / Leontief / CES markets, the trading-post
game with entrance fees, best-response dynamics, and verifiers for Nash
social welfare loss and proportionality.
"""

from .core import (CES, DEFAULT_TOL, LEONTIEF, LINEAR, Instance,
                   ProportionalityReport, ValuationProfile, eval_valuation,
                   eval_valuation_matrix, make_instance, nsw, poa_ratio,
                   proportionality_check)
from .eq_solvers import (EpsEquilibriumReport, KKTReport, MarketEquilibrium,
                         Residuals, duality_gap_leontief, optimal_bundle_utility,
                         solve_ces_eg, solve_eg, solve_eg_many, solve_leontief_dual,
                         solve_linear_eg, verify_eps_market_eq,
                         verify_kkt_leontief, verify_kkt_linear)
from .fisher_game import (FalsifierReport, GameOutcome, fisher_ne_falsify,
                          fisher_outcome, lb_construction, lb_profile_stats,
                          uniform_leontief_ne)
from .instance_lab import (ExperimentConfig, PoARecord, gen_example_3_1,
                           gen_example_leo_family, gen_example_lin_family,
                           gen_identity_leontief, gen_random,
                           gen_tp_nonexistence, load_instance, run_experiment,
                           save_instance)
from .trading_post import (BRResult, NEReport, br_ces, br_concave_numeric,
                           br_dynamics, br_grid_oracle, br_leontief, br_linear,
                           delta_for_eps, ne_to_market, safe_strategy, tp_allocate,
                           verify_tp_ne)

__version__ = "0.1.0"
