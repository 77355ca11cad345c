"""The package's public surface, pinned: a change that adds or drops a
public name has to change this list too.  No module of the package or of
the tests imports a name it never reads."""

import ast
from pathlib import Path

import gamedyn

PUBLIC_NAMES = [
    "BifurcationResult", "ClassificationReport", "ConfigurationError",
    "ConvergenceReport", "DomainError", "FeedbackBlock", "FeedbackBlockReport",
    "GameDynError", "GameSpec", "IntegrationDivergedError", "LearningParams",
    "NumericsError", "RestPointResult", "SimulationRun", "Trajectory",
    "UsageError", "__version__", "available_presets", "bifurcation_epsilon",
    "bregman_lse", "classify", "composite_lyapunov_trace", "convergence_report",
    "dynamics_jacobian", "expected_payoff_vector", "first_order_field",
    "game_from_dict", "game_to_dict", "harmonic_schedule", "higher_order_field",
    "induced_strategy_field", "integrate", "load_game",
    "log_sum_exp", "lyapunov_trace", "multi_start_rest_points",
    "payoff_estimate", "payoff_jacobian", "preset", "profile_jacobian",
    "rest_point", "rps_matrix", "run_discrete", "run_stochastic", "save_game",
    "score_bound", "score_bound_excess", "seeded_initial_scores",
    "simulate_batch", "simulate_first_order", "simulate_higher_order",
    "softmax", "storage_matrix", "tangent_basis", "tangent_mode_abscissa",
    "time_to_tolerance", "verify_feedback_block", "write_trajectory_csv",
]


def test_public_names_are_pinned_and_resolve():
    assert len(PUBLIC_NAMES) == 58
    assert sorted(gamedyn.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(gamedyn, name), name


def test_no_module_imports_a_name_it_never_reads():
    """A name counts as read if the module loads it anywhere or lists it in
    __all__; from __future__ imports are skipped."""
    root = Path(__file__).resolve().parents[1]
    unread = []
    for path in sorted([*root.glob("src/gamedyn/*.py"), *root.glob("tests/*.py")]):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                read |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                unread += [f"{path.relative_to(root)}:{node.lineno} {name}"
                           for name in names if name not in read]
    assert unread == []
