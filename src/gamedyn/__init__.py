"""Numerical laboratory for score-based learning dynamics in finite games.

Simulate exponentially discounted score dynamics (first order and with an
LTI payoff filter), classify games by monotonicity, solve for logit-response
rest points, locate bifurcation temperatures, and monitor Lyapunov decrease.
"""

from .analysis import (BifurcationResult, ClassificationReport,
                       ConvergenceReport, RestPointResult, bifurcation_epsilon,
                       classify, composite_lyapunov_trace, convergence_report,
                       dynamics_jacobian, lyapunov_trace,
                       multi_start_rest_points, rest_point, score_bound,
                       score_bound_excess, storage_matrix,
                       tangent_mode_abscissa, time_to_tolerance)
from .choice import bregman_lse, log_sum_exp, profile_jacobian, softmax
from .dynamics import (FeedbackBlock, FeedbackBlockReport, LearningParams,
                       SimulationRun, Trajectory, first_order_field,
                       harmonic_schedule, higher_order_field,
                       induced_strategy_field, integrate, payoff_estimate,
                       run_discrete, run_stochastic, seeded_initial_scores,
                       simulate_batch, simulate_first_order,
                       simulate_higher_order, verify_feedback_block,
                       write_trajectory_csv)
from .errors import (ConfigurationError, DomainError, GameDynError,
                     IntegrationDivergedError, NumericsError, UsageError)
from .games import (GameSpec, expected_payoff_vector, game_from_dict,
                    game_to_dict, load_game, payoff_jacobian, save_game,
                    tangent_basis)
from .presets import available_presets, preset, rps_matrix

__version__ = "0.1.0"

__all__ = [
    "BifurcationResult", "ClassificationReport", "ConvergenceReport",
    "RestPointResult", "bifurcation_epsilon", "classify",
    "composite_lyapunov_trace", "convergence_report", "dynamics_jacobian",
    "lyapunov_trace", "multi_start_rest_points", "rest_point", "score_bound",
    "score_bound_excess", "storage_matrix", "tangent_mode_abscissa",
    "time_to_tolerance",
    "bregman_lse", "log_sum_exp", "profile_jacobian", "softmax",
    "FeedbackBlock", "FeedbackBlockReport", "LearningParams", "SimulationRun",
    "Trajectory", "first_order_field", "harmonic_schedule",
    "higher_order_field", "induced_strategy_field", "integrate",
    "payoff_estimate", "run_discrete", "run_stochastic",
    "seeded_initial_scores", "simulate_batch", "simulate_first_order",
    "simulate_higher_order", "verify_feedback_block", "write_trajectory_csv",
    "ConfigurationError", "DomainError", "GameDynError",
    "IntegrationDivergedError", "NumericsError", "UsageError",
    "GameSpec", "expected_payoff_vector",
    "game_from_dict", "game_to_dict", "load_game",
    "payoff_jacobian", "save_game", "tangent_basis",
    "available_presets", "preset", "rps_matrix",
    "__version__",
]
