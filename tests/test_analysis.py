"""Tests for classification, rest-point solving, linearization, bifurcation
search, and the trajectory monitors."""

import dataclasses
import inspect

import numpy as np
import pytest
from address_limit import run_capped
from scipy.linalg import solve_continuous_lyapunov
from tensor_reference import coupled_block, numeric_jacobian, random_tensor_game

from gamedyn import (ConfigurationError, DomainError, FeedbackBlock, GameSpec,
                     LearningParams, NumericsError, Trajectory, UsageError,
                     available_presets, bifurcation_epsilon, bregman_lse, classify,
                     composite_lyapunov_trace,
                     convergence_report, dynamics_jacobian, first_order_field,
                     higher_order_field, integrate,
                     log_sum_exp, lyapunov_trace, multi_start_rest_points, preset,
                     rest_point, run_discrete, run_stochastic, score_bound,
                     score_bound_excess, seeded_initial_scores, simulate_first_order,
                     simulate_higher_order, softmax, storage_matrix,
                     tangent_mode_abscissa, time_to_tolerance,
                     verify_feedback_block, write_trajectory_csv)
from gamedyn import analysis
from gamedyn.games import _bind_payoff


# --------------------------------------------------------------- classification

@pytest.mark.parametrize("l,expected_class", [
    (0.5, "strictly-monotone"),
    (1.0, "null-monotone"),
    (2.5, "hypo-monotone"),
    (5.0, "hypo-monotone"),
    (8.0, "hypo-monotone"),
])
def test_classify_rps_family(l, expected_class):
    rep = classify(preset("rps", {"l": l}))
    assert rep.exact is True
    np.testing.assert_allclose(rep.tangent_eigenvalues, [l - 1.0, l - 1.0],
                               atol=1e-12)
    assert rep.monotonicity_class == expected_class
    assert rep.mu == pytest.approx(max(0.0, (l - 1.0) / 2.0), abs=1e-12)


# tangent spectra of E^T (Phi + Phi^T) E, frozen from a direct null-space
# computation on the preset payoff matrices
FROZEN_CLASSIFICATION = {
    "anticoord123": ([-4.0 - 2.0 / np.sqrt(3.0), -4.0 + 2.0 / np.sqrt(3.0)],
                     "strictly-monotone", 0.0),
    "matching_pennies": ([0.0, 0.0], "null-monotone", 0.0),
    "shapley": ([-1.0, -1.0, 1.0, 1.0], "hypo-monotone", 0.5),
    "network_zero_sum_mp": ([0.0, 0.0, 0.0], "null-monotone", 0.0),
    "jordan_mp": ([-4.0, 2.0, 2.0], "hypo-monotone", 1.0),
    "modified_rps_A": ([-7.0 / 3.0, -1.0], "strictly-monotone", 0.0),
    "modified_rps_Abar": ([1.0, 7.0 / 3.0], "hypo-monotone", 7.0 / 6.0),
    "modified_jordan": ([-2.150459959, 0.599745051, 1.550714908],
                        "hypo-monotone", 0.775357454),
}


@pytest.mark.parametrize("name", sorted(FROZEN_CLASSIFICATION))
def test_classify_frozen_table(name):
    eigs, cls, mu = FROZEN_CLASSIFICATION[name]
    rep = classify(preset(name))
    assert rep.exact is True
    np.testing.assert_allclose(rep.tangent_eigenvalues, eigs, atol=1e-8)
    assert rep.monotonicity_class == cls
    assert rep.mu == pytest.approx(mu, abs=1e-8)


def test_classify_two_player_rps_full_spectrum():
    rep = classify(preset("two_player_rps", {"l": 5.0}))
    np.testing.assert_allclose(rep.tangent_eigenvalues, [-4.0, -4.0, 4.0, 4.0],
                               atol=1e-9)
    np.testing.assert_allclose(rep.full_eigenvalues,
                               [-8.0, -4.0, -4.0, 4.0, 4.0, 8.0], atol=1e-9)
    rep1 = classify(preset("two_player_rps", {"l": 1.0}))
    np.testing.assert_allclose(rep1.tangent_eigenvalues, np.zeros(4), atol=1e-12)
    assert rep1.monotonicity_class == "null-monotone"


def test_classify_aligned_eigenvalues():
    # the symmetrized map can have tangent-aligned eigenvectors even when the
    # compressed spectrum differs; both views are reported
    rep_a = classify(preset("modified_rps_A"))
    np.testing.assert_allclose(rep_a.aligned_eigenvalues, [-1.0], atol=1e-9)
    assert rep_a.mu_aligned == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(
        rep_a.full_eigenvalues,
        [(1.0 - np.sqrt(33.0)) / 2.0, -1.0, (1.0 + np.sqrt(33.0)) / 2.0],
        atol=1e-9)
    rep_b = classify(preset("modified_rps_Abar"))
    np.testing.assert_allclose(rep_b.aligned_eigenvalues, [1.0], atol=1e-9)
    assert rep_b.mu_aligned == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(
        rep_b.full_eigenvalues,
        [-(1.0 + np.sqrt(33.0)) / 2.0, 1.0, (np.sqrt(33.0) - 1.0) / 2.0],
        atol=1e-9)
    # coordinate-axis eigenvectors of a diagonal map never lie in the tangent
    assert classify(preset("anticoord123")).aligned_eigenvalues is None


def test_classify_sampled_tensor_game():
    base = preset("jordan_mp")
    clone = GameSpec(base.action_counts, base.payoff_tensors,
                     name="jordan_tensor")
    rep = classify(clone)
    assert rep.exact is False
    # the payoff map is multilinear with pairwise couplings, so every sampled
    # Jacobian matches the exact linear map
    np.testing.assert_allclose(rep.tangent_eigenvalues, [-4.0, 2.0, 2.0],
                               atol=1e-6)
    assert rep.mu == pytest.approx(1.0, abs=1e-6)
    assert rep.sample_argmax is not None


def test_classification_report_dict():
    d = classify(preset("rps", {"l": 5.0})).to_dict()
    assert d["class"] == "hypo-monotone"
    assert d["mu"] == pytest.approx(2.0)
    assert d["exact"] is True
    assert len(d["eigenvalues"]) == 2


# ------------------------------------------------------------------ rest points

@pytest.mark.parametrize("l", [1.0, 2.5, 5.0])
def test_rest_point_rps_closed_form(l):
    game = preset("rps", {"l": l})
    result = rest_point(game, 1.0)
    assert result.converged
    assert result.residual <= 1e-10
    np.testing.assert_allclose(result.z_star, np.full(3, (1.0 - l) / 3.0),
                               atol=1e-8)
    np.testing.assert_allclose(result.x_star, np.full(3, 1.0 / 3.0), atol=1e-8)


# solved independently by a Newton multistart on the raw payoff matrices
FROZEN_REST_POINTS = {
    ("anticoord123", 1.0): [0.4071970967, 0.3215972394, 0.2712056639],
    ("anticoord123", 0.1): [0.5125599871, 0.2855330006, 0.2019070123],
    ("modified_rps_A", 1.0): [0.3784837681, 0.2980107585, 0.3235054734],
    ("modified_rps_A", 0.2): [0.4039253543, 0.3039095800, 0.2921650657],
    ("modified_rps_Abar", 1.0): [0.2742232364, 0.3647121685, 0.3610645950],
    ("modified_rps_Abar", 0.2): [0.2719871457, 0.3245664155, 0.4034464388],
    ("modified_jordan", 1.0): [0.5833772902, 0.4166227098, 0.5544489699,
                               0.4455510301, 0.3906685064, 0.6093314936],
    ("modified_jordan", 0.1): [0.2628153628, 0.7371846372, 0.7010462214,
                               0.2989537786, 0.4573857577, 0.5426142423],
}


@pytest.mark.parametrize("name,eps", sorted(FROZEN_REST_POINTS))
def test_rest_point_frozen_oracles(name, eps):
    result = rest_point(preset(name), eps)
    assert result.converged
    assert result.residual <= 1e-10
    np.testing.assert_allclose(result.x_star, FROZEN_REST_POINTS[(name, eps)],
                               atol=1e-6)


def test_rest_point_validation():
    game = preset("rps", {"l": 1.0})
    with pytest.raises(DomainError):
        rest_point(game, 0.0)
    with pytest.raises(DomainError):
        rest_point(game, 1.0, z0=np.zeros(4))


def test_rest_point_large_eps_centroid():
    result = rest_point(preset("shapley"), 1e6)
    np.testing.assert_allclose(result.x_star, np.full(6, 1.0 / 3.0), atol=1e-5)


def test_multi_start_dedup():
    results = multi_start_rest_points(preset("rps", {"l": 2.5}), 1.0,
                                      n_starts=20, seed=3)
    assert len(results) == 1
    np.testing.assert_allclose(results[0].z_star, np.full(3, -0.5), atol=1e-8)


@pytest.mark.parametrize("n_starts", [0, -3, 2.5, True, np.True_, "2"])
def test_multi_start_needs_a_start(n_starts, monkeypatch):
    """No start is refused before any solve, not turned into one solve from
    zero, and so is a count that is not a whole number (2.5 ran 2 starts,
    True 1)."""
    def no_work(*args, **kwargs):
        raise AssertionError("multi_start_rest_points solved before checking n_starts")

    monkeypatch.setattr("gamedyn.analysis.rest_point", no_work)
    with pytest.raises(DomainError, match="n_starts"):
        multi_start_rest_points(preset("rps", {"l": 2.5}), 1.0, n_starts=n_starts)


@pytest.mark.parametrize("name,params,eps", [
    ("rps", {"l": 2.5}, 1.0), ("rps", {"l": 8.0}, 0.5), ("two_player_rps", {"l": 5.0}, 0.3),
    ("shapley", {}, 0.3), ("anticoord123", {}, 0.1)])
def test_rest_point_evaluates_the_payoff_map_once_per_point(name, params, eps, monkeypatch):
    """rest_point evaluates U(sigma(.)) once at the start and once per
    damped iterate and line-search candidate: that one evaluation gives the
    residual, the next damped iterate and the Newton right-hand side.  These
    cases take full Newton steps, one candidate each, so every iteration
    costs one evaluation."""
    evaluations = []

    def counted_payoff(game):
        payoff = _bind_payoff(game)

        def evaluate(x):
            evaluations.append(x)
            return payoff(x)
        return evaluate

    newton_steps = []

    def counted_jacobian(*args, **kwargs):
        newton_steps.append(args)
        return dynamics_jacobian(*args, **kwargs)

    monkeypatch.setattr("gamedyn.analysis._bind_payoff", counted_payoff)
    monkeypatch.setattr("gamedyn.analysis.dynamics_jacobian", counted_jacobian)
    result = rest_point(preset(name, params), eps)
    assert result.converged and newton_steps
    assert len(evaluations) == 1 + result.iterations


def test_rest_point_result_dict():
    d = rest_point(preset("rps", {"l": 2.5}), 1.0).to_dict()
    assert d["status"] == "converged"
    assert d["eps"] == 1.0
    assert len(d["z"]) == 3 and len(d["x"]) == 3


def _floats(values):
    return None if values is None else [float(v) for v in values]


def test_result_dicts_name_every_key():
    """The JSON form of each result, key by key: renamed fields under their
    JSON names, arrays and tuples as lists of floats, the sampled argmax and
    the frequency grid left out, derived keys added."""
    for name in available_presets():
        game = preset(name, {"l": 5.0} if name in ("rps", "two_player_rps") else {})
        rep = classify(game)
        assert rep.to_dict() == {
            "eigenvalues": _floats(rep.tangent_eigenvalues), "lambda_max": rep.lambda_max,
            "mu": rep.mu, "class": rep.monotonicity_class, "exact": rep.exact,
            "full_eigenvalues": _floats(rep.full_eigenvalues),
            "aligned_eigenvalues": _floats(rep.aligned_eigenvalues),
            "mu_aligned": rep.mu_aligned}, name
        res = rest_point(game, 0.3)
        assert res.to_dict() == {
            "z": _floats(res.z_star), "x": _floats(res.x_star), "residual": res.residual,
            "iterations": res.iterations, "method": res.method, "status": res.status,
            "eps": res.eps}, name
    game = preset("rps", {"l": 8.0})
    for block in (None, FeedbackBlock.high_pass(1.0, 1.0, game.action_counts)):
        bif = bifurcation_epsilon(game, LearningParams(), block=block, eps_range=(0.5, 3.0))
        assert bif.to_dict() == {
            "eps_star": bif.eps_star, "status": bif.status, "iterations": bif.iterations,
            "bracket": _floats(bif.bracket), "abscissa_low": bif.abscissa_low,
            "abscissa_high": bif.abscissa_high}
    report = verify_feedback_block(FeedbackBlock.high_pass(1.0, 1.0, (3,)))
    assert report.to_dict() == {
        "hurwitz_ok": report.hurwitz_ok, "spectral_abscissa": report.spectral_abscissa,
        "zero_dc_ok": report.zero_dc_ok, "dc_gain_norm": report.dc_gain_norm,
        "grid_positive_real_ok": report.grid_positive_real_ok,
        "min_hermitian_eigenvalue": report.min_hermitian_eigenvalue,
        "frequency_range": [1e-3, 1e3], "n_frequencies": 200, "passed": True}


def test_start_box_that_cannot_be_drawn_is_a_numerics_error():
    """Payoffs near the float limit give a start box whose width overflows:
    NumericsError, not numpy's OverflowError."""
    with pytest.raises(NumericsError, match="no start box can be drawn"):
        multi_start_rest_points(preset("rps", {"l": 1e308}), 1.0, n_starts=2)


# ---------------------------------------------------------------- linearization

@pytest.mark.parametrize("l,eps", [(8.0, 1.0), (5.0, 0.5), (2.5, 1.0)])
@pytest.mark.parametrize("gamma", [1.0, 2.0])
def test_first_order_jacobian_closed_form(l, eps, gamma):
    game = preset("rps", {"l": l})
    params = LearningParams(eps=eps, gamma=gamma)
    z_star = np.full(3, (1.0 - l) / 3.0)
    jac = dynamics_jacobian(z_star, game, params)
    eigs = np.sort_complex(np.linalg.eigvals(jac))
    re = gamma * (l - 1.0 - 6.0 * eps) / (6.0 * eps)
    im = gamma * np.sqrt(3.0) * (l + 1.0) / (6.0 * eps)
    expected = np.sort_complex(np.array([-gamma, re + 1j * im, re - 1j * im]))
    np.testing.assert_allclose(eigs, expected, atol=1e-9)


def test_jacobian_matches_finite_differences(rng):
    from gamedyn import first_order_field

    game = preset("shapley")
    params = LearningParams(eps=0.7, gamma=1.3)
    z = rng.uniform(-1.0, 1.0, 6)
    jac = dynamics_jacobian(z, game, params)
    fd = numeric_jacobian(lambda v: first_order_field(v, game, params), z)
    np.testing.assert_allclose(jac, fd, atol=1e-6)


def test_higher_order_jacobian_structure():
    game = preset("rps", {"l": 2.5})
    params = LearningParams(eps=1.0, gamma=1.0)
    block = FeedbackBlock.high_pass(1.0, 1.0, game.action_counts)
    result = rest_point(game, 1.0)
    jac = dynamics_jacobian(result.z_star, game, params, block=block)
    assert jac.shape == (6, 6)
    # filter rows: dxi = A xi + B sigma(z)
    np.testing.assert_allclose(jac[3:, 3:], -np.eye(3), atol=1e-12)
    assert tangent_mode_abscissa(jac, game.action_counts) < 0.0


def test_jacobian_shape_validation():
    game = preset("rps", {"l": 1.0})
    with pytest.raises(DomainError):
        dynamics_jacobian(np.zeros(4), game, LearningParams(eps=1.0, gamma=1.0))


JACOBIAN_GAMES = {
    "rps-l2.5": lambda: preset("rps", {"l": 2.5}),
    "rps-l5": lambda: preset("rps", {"l": 5.0}),
    "rps-l8": lambda: preset("rps", {"l": 8.0}),
    "rps-l1e4": lambda: preset("rps", {"l": 1e4}),
    "shapley": lambda: preset("shapley"),
    "jordan_mp": lambda: preset("jordan_mp"),
    "tensor333": lambda: random_tensor_game((3, 3, 3), 4),
}


@pytest.mark.parametrize("game_key", list(JACOBIAN_GAMES))
def test_dynamics_jacobian_matches_finite_differences_of_the_field(game_key):
    """The closed-form linearization against central differences of the
    field it linearizes, first order and filtered (at xi = xi*(sigma(z))),
    at the rest points of eps 1 and 0.7 and at a seeded state.  The
    differences lose accuracy as the payoffs grow (rps l=1e4 is off by
    about 1.3e-6 at its rest point), so the tolerance scales with them."""
    game = JACOBIAN_GAMES[game_key]()
    n = game.total_actions
    assert (game.linear_map is None) == (game_key == "tensor333")
    tol = 1e-6 * max(1.0, game.max_abs_payoff())
    blocks = [None, FeedbackBlock.high_pass(1.0, 1.0, game.action_counts),
              FeedbackBlock.high_pass(2.5, 0.5, game.action_counts)]
    states = [(eps, rest_point(game, eps).z_star) for eps in (1.0, 0.7)]
    states.append((0.7, np.random.default_rng(5).uniform(-1.0, 1.0, n)))
    for eps, z in states:
        for gamma in (1.0, 1.3):
            params = LearningParams(gamma=gamma, eps=eps)
            for block in blocks:
                jac = dynamics_jacobian(z, game, params, block=block)
                if block is None:
                    fd = numeric_jacobian(lambda v: first_order_field(v, game, params), z)
                else:
                    x = softmax(z, eps, game.action_counts)
                    state = np.concatenate([z, block.equilibrium_filter_state(x)])
                    fd = numeric_jacobian(
                        lambda v: higher_order_field(v, game, params, block), state)
                np.testing.assert_allclose(jac, fd, rtol=0.0, atol=tol)


def test_tangent_mode_abscissa_sign_flip():
    # the cycling regime loses stability below the critical temperature
    game = preset("rps", {"l": 8.0})
    for eps, positive in [(1.0, True), (1.3, False)]:
        result = rest_point(game, eps)
        jac = dynamics_jacobian(result.z_star, game,
                                LearningParams(eps=eps, gamma=1.0))
        abscissa = tangent_mode_abscissa(jac, game.action_counts)
        assert (abscissa > 0.0) is positive


# ------------------------------------------------------------------- bifurcation

def test_bifurcation_found_rps8():
    result = bifurcation_epsilon(preset("rps", {"l": 8.0}),
                                 LearningParams(eps=1.0, gamma=1.0),
                                 eps_range=(0.5, 3.0), tol=1e-4)
    assert result.status == "found"
    assert result.eps_star == pytest.approx(7.0 / 6.0, abs=1e-3)
    assert result.abscissa_low > 0.0 > result.abscissa_high
    assert result.to_dict()["status"] == "found"


def test_bifurcation_absent_for_null_monotone():
    result = bifurcation_epsilon(preset("rps", {"l": 1.0}),
                                 LearningParams(eps=1.0, gamma=1.0),
                                 eps_range=(0.1, 2.0))
    assert result.status == "no-bifurcation-in-range"
    assert result.eps_star is None
    assert result.abscissa_low < 0.0 and result.abscissa_high < 0.0


def test_bifurcation_range_validation():
    game = preset("rps", {"l": 8.0})
    params = LearningParams(eps=1.0, gamma=1.0)
    with pytest.raises(DomainError):
        bifurcation_epsilon(game, params, eps_range=(0.0, 1.0))
    with pytest.raises(DomainError):
        bifurcation_epsilon(game, params, eps_range=(2.0, 1.0))


def _refuse_rest_point(*args, **kwargs):
    raise AssertionError("the bisection started")


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
def test_bifurcation_tolerance_validation(tol, monkeypatch):
    monkeypatch.setattr("gamedyn.analysis.rest_point", _refuse_rest_point)
    with pytest.raises(DomainError, match="bisection tolerance"):
        bifurcation_epsilon(preset("rps", {"l": 8.0}), LearningParams(eps=1.0, gamma=1.0),
                            eps_range=(0.5, 3.0), tol=tol)


def test_bifurcation_fallback_solves_only_the_start_it_uses(monkeypatch):
    """When the warm-started solve fails, the bisection takes the first
    converged of its ten seeded starts and solves none after it."""
    game = preset("rps", {"l": 8.0})
    expected = bifurcation_epsilon(game, LearningParams(), eps_range=(0.5, 3.0), tol=1e-2)
    solve = analysis.rest_point
    from_starts = []
    warm = []

    def failing_warm_solve(game, eps, z0=None):
        result = solve(game, eps, z0=z0)
        if z0 is None or any(z0 is r.z_star for r in from_starts):
            warm.append(eps)
            return dataclasses.replace(result, status="not-found")
        from_starts.append(result)
        return result

    monkeypatch.setattr("gamedyn.analysis.rest_point", failing_warm_solve)
    got = bifurcation_epsilon(game, LearningParams(), eps_range=(0.5, 3.0), tol=1e-2)
    assert got.eps_star == expected.eps_star
    assert len(from_starts) == len(warm) > 2
    assert all(r.converged for r in from_starts)


def test_bifurcation_stops_at_adjacent_floats():
    result = bifurcation_epsilon(preset("rps", {"l": 8.0}),
                                 LearningParams(eps=1.0, gamma=1.0),
                                 eps_range=(0.5, 3.0), tol=1e-300)
    assert result.status == "found"
    lo, hi = result.bracket
    assert np.nextafter(lo, np.inf) == hi
    assert result.eps_star == pytest.approx(7.0 / 6.0, abs=1e-9)


# ------------------------------------------------------------ Lyapunov monitors

def test_lyapunov_trace_decreases_on_monotone_game():
    game = preset("rps", {"l": 1.0})
    params = LearningParams(eps=1.0, gamma=1.0)
    z0 = seeded_initial_scores(3, 11)
    traj = simulate_first_order(game, params, z0, dt=0.01, t_end=50.0,
                                record_every=10)
    values, verdict = lyapunov_trace(traj, np.zeros(3), 1.0, game.action_counts)
    assert verdict == "non-increasing"
    assert values.min() >= -1e-12
    assert values[-1] <= 1e-6


def test_lyapunov_trace_flags_increase_near_unstable_point():
    game = preset("rps", {"l": 8.0})
    params = LearningParams(eps=1.0, gamma=1.0)
    z_star = np.full(3, -7.0 / 3.0)
    z0 = z_star + np.array([1e-3, -5e-4, 2e-4])
    traj = simulate_first_order(game, params, z0, dt=0.01, t_end=80.0,
                                record_every=10)
    _, verdict = lyapunov_trace(traj, z_star, 1.0, game.action_counts)
    assert verdict == "increased"


def _passivity_worst_eigenvalue(block, p_mat):
    top = np.hstack([block.a_mat.T @ p_mat + p_mat @ block.a_mat,
                     p_mat @ block.b_mat - block.c_mat.T])
    bottom = np.hstack([block.b_mat.T @ p_mat - block.c_mat,
                        -(block.d_mat + block.d_mat.T)])
    return np.linalg.eigvalsh(np.vstack([top, bottom])).max()


def test_storage_matrix_scaling():
    # for K s / (s + a) the passivity matrix is certified only by P = (K/a) I
    for gain in (0.5, 1.0, 2.5, 4.0):
        for cutoff in (0.25, 0.7, 1.0, 2.0):
            for counts in ((3,), (2, 3)):
                block = FeedbackBlock.high_pass(gain, cutoff, counts)
                p_mat = storage_matrix(block)
                np.testing.assert_allclose(p_mat, gain / cutoff * np.eye(block.dim),
                                           rtol=1e-7, atol=0.0)
                assert _passivity_worst_eigenvalue(block, p_mat) <= 1e-8


def test_storage_matrix_of_non_certifiable_block_solves_lyapunov():
    block = coupled_block(5, 3)
    p_mat = storage_matrix(block)
    # no scale certifies this block, so P is the unscaled Lyapunov solution
    assert min(_passivity_worst_eigenvalue(block, s * p_mat)
               for s in np.logspace(-6, 6, 49)) > 1e-8
    np.testing.assert_allclose(
        p_mat, solve_continuous_lyapunov(block.a_mat.T, -np.eye(5)),
        rtol=0.0, atol=1e-12)


def test_storage_system_that_cannot_be_held_is_refused():
    """At 150 actions each Kronecker product of the n^2 x n^2 storage system
    takes 3.77 GiB: refused with DomainError in a child capped at 1 GiB of
    address space, where it raised numpy's MemoryError."""
    proc = run_capped("from gamedyn import DomainError, FeedbackBlock, storage_matrix\n"
                      "try:\n"
                      "    storage_matrix(FeedbackBlock.high_pass(1, 1, (150,)))\n"
                      "except DomainError as err:\n"
                      "    print(f'DomainError: {err}')\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(
        "DomainError: the storage system cannot be held in memory: ")


_I3 = np.eye(3)
_ROTATION = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])


@pytest.mark.parametrize("call, error, message", [
    (lambda: storage_matrix(FeedbackBlock(0.0 * _I3, _I3, _I3, 0.0 * _I3)),
     NumericsError, "not finite and positive definite"),
    (lambda: storage_matrix(FeedbackBlock(_ROTATION, _I3, _I3, 0.0 * _I3)),
     NumericsError, "not finite and positive definite"),
    (lambda: FeedbackBlock(0.0 * _I3, _I3, _I3, 0.0 * _I3).equilibrium_filter_state(
        np.full(3, 1.0 / 3.0)), ConfigurationError, "singular A matrix"),
    (lambda: tangent_mode_abscissa(np.full((3, 3), np.inf), (3,)),
     NumericsError, "non-finite entries"),
], ids=["storage_matrix-zero-A", "storage_matrix-eigenvalues-pm-i",
        "equilibrium_filter_state-singular-A", "tangent_mode_abscissa-non-finite"])
def test_singular_or_non_finite_linear_algebra_is_a_gamedyn_error(call, error, message):
    """A singular Lyapunov operator (A = 0, or eigenvalues +-i that sum to
    0), a singular A and a Jacobian that is not finite are refused with the
    package's errors; each raised numpy's LinAlgError."""
    with pytest.raises(error, match=message):
        call()


def test_composite_lyapunov_trace_decreases():
    game = preset("rps", {"l": 2.5})
    params = LearningParams(eps=1.0, gamma=1.0)
    block = FeedbackBlock.high_pass(1.0, 1.0, game.action_counts)
    result = rest_point(game, 1.0)
    xi_star = block.equilibrium_filter_state(result.x_star)
    np.testing.assert_allclose(xi_star, -result.x_star, atol=1e-12)
    z0 = seeded_initial_scores(3, 4)
    traj = simulate_higher_order(game, params, block, z0, dt=0.01,
                                 t_end=120.0, record_every=10)
    values, verdict = composite_lyapunov_trace(traj, result.z_star, 1.0, block,
                                               game.action_counts)
    assert verdict == "non-increasing"
    assert values[-1] <= 1e-8


def test_composite_lyapunov_trace_validation():
    game = preset("rps", {"l": 2.5})
    block = FeedbackBlock.high_pass(1.0, 1.0, game.action_counts)
    times = np.arange(4.0)
    wide = Trajectory(times, np.zeros((4, 3)), filter_state=np.zeros((4, 3)))
    with pytest.raises(ConfigurationError):
        composite_lyapunov_trace(wide, np.zeros(3), 1.0, block, game.action_counts,
                                 p_mat=-np.eye(3))
    # a NaN P raised LinAlgError from its eigenvalues
    with pytest.raises(ConfigurationError, match="storage matrix P must be symmetric"):
        composite_lyapunov_trace(wide, np.zeros(3), 1.0, block, game.action_counts,
                                 p_mat=np.full((3, 3), np.nan))
    narrow = Trajectory(times, np.zeros((4, 3)))
    with pytest.raises(DomainError):
        composite_lyapunov_trace(narrow, np.zeros(3), 1.0, block, game.action_counts)


# ----------------------------------------------------------- trajectory verdicts

def test_convergence_report_converged():
    game = preset("rps", {"l": 2.5})
    params = LearningParams(eps=1.0, gamma=1.0)
    traj = simulate_first_order(game, params, seeded_initial_scores(3, 0),
                                dt=0.01, t_end=120.0, record_every=10)
    report = convergence_report(traj, x_star=np.full(3, 1.0 / 3.0))
    assert report.status == "converged"
    assert report.terminal_distance < 1e-6


def test_convergence_report_limit_cycle():
    game = preset("rps", {"l": 8.0})
    params = LearningParams(eps=1.0, gamma=1.0)
    traj = simulate_first_order(game, params, seeded_initial_scores(3, 0),
                                dt=0.01, t_end=150.0, record_every=10)
    report = convergence_report(traj, x_star=np.full(3, 1.0 / 3.0))
    assert report.status == "limit-cycle"
    assert report.amplitude > 1e-3


def test_convergence_report_undetermined_on_decaying_swing():
    times = np.linspace(0.0, 100.0, 501)
    swing = 0.3 * np.exp(-times / 15.0) * np.sin(2.0 * times)
    strategies = np.column_stack([0.5 + swing, 0.5 - swing])
    traj = Trajectory(times, strategies.copy(), strategies=strategies)
    report = convergence_report(traj)
    assert report.status == "undetermined"
    assert report.amplitude_second_half < report.amplitude_first_half


def test_convergence_report_validation():
    times = np.linspace(0.0, 10.0, 50)
    bare = Trajectory(times, np.zeros((50, 2)))
    with pytest.raises(UsageError):
        convergence_report(bare)
    tiny = Trajectory(np.arange(5.0), np.zeros((5, 2)),
                      strategies=np.zeros((5, 2)))
    with pytest.raises(UsageError):
        convergence_report(tiny)


def test_time_to_tolerance_crossings():
    times = np.arange(5.0)
    strategies = np.array([[0.5], [0.2], [1e-4], [5e-4], [1e-5]])
    traj = Trajectory(times, strategies.copy(), strategies=strategies)
    assert time_to_tolerance(traj, np.zeros(1)) == 2.0
    inside = Trajectory(times, strategies.copy(),
                        strategies=np.full((5, 1), 1e-5))
    assert time_to_tolerance(inside, np.zeros(1)) == 0.0
    never = Trajectory(times, strategies.copy(),
                       strategies=np.full((5, 1), 0.5))
    assert time_to_tolerance(never, np.zeros(1)) is None


@pytest.mark.parametrize("analyze", [
    convergence_report,
    lambda traj: time_to_tolerance(traj, np.zeros(1)),
    lambda traj: score_bound_excess(traj, preset("rps", {"l": 2.5})),
], ids=["convergence_report", "time_to_tolerance", "score_bound_excess"])
def test_trajectory_without_samples_is_refused(analyze):
    """A trajectory of zero samples is refused with UsageError (it raised
    IndexError), before its width is read."""
    empty = Trajectory(np.empty(0), np.empty((0, 1)), strategies=np.empty((0, 1)))
    with pytest.raises(UsageError, match="no samples"):
        analyze(empty)


def _rps_run():
    """A short first-order run on rps l=2.5: 3 scores, 51 samples."""
    return simulate_first_order(preset("rps", {"l": 2.5}), LearningParams(),
                                seeded_initial_scores(3, 0), dt=0.1, t_end=5.0,
                                record_every=1)


BOUNDARY_CALLS = {
    "convergence_report-length": (
        lambda: convergence_report(_rps_run(), x_star=np.full(2, 0.5)), "x_star has shape"),
    "time_to_tolerance-length": (
        lambda: time_to_tolerance(_rps_run(), np.full(2, 0.5)), "x_star has shape"),
    "convergence_report-scalar": (
        lambda: convergence_report(_rps_run(), x_star=0.5), "x_star has shape"),
    "time_to_tolerance-scalar": (
        lambda: time_to_tolerance(_rps_run(), 0.5), "x_star has shape"),
    "convergence_report-non-finite": (
        lambda: convergence_report(_rps_run(), x_star=[np.nan, 0.5, 0.5]), "non-finite"),
    "time_to_tolerance-non-finite": (
        lambda: time_to_tolerance(_rps_run(), [np.inf, 0.5, 0.5]), "non-finite"),
    "lyapunov_trace-width": (
        lambda: lyapunov_trace(_rps_run(), np.zeros(2), 1.0, (2,)),
        "score vector has length 3, expected 2"),
    "dynamics_jacobian-block": (
        lambda: dynamics_jacobian(np.zeros(3), preset("rps", {"l": 2.5}), LearningParams(),
                                  block=FeedbackBlock.high_pass(1.0, 1.0, (2,))),
        "feedback block has dimension 2, expected 3"),
    "composite_lyapunov_trace-block": (
        lambda: composite_lyapunov_trace(Trajectory(np.arange(4.0), np.zeros((4, 6))),
                                         np.zeros(3), 1.0,
                                         FeedbackBlock.high_pass(1.0, 1.0, (2,)), (3,)),
        "feedback block has dimension 2, expected 3"),
    "composite_lyapunov_trace-storage-shape": (
        lambda: composite_lyapunov_trace(
            Trajectory(np.arange(4.0), np.zeros((4, 3)), filter_state=np.zeros((4, 3))),
            np.zeros(3), 1.0, FeedbackBlock.high_pass(1.0, 1.0, (3,)), (3,), p_mat=np.eye(2)),
        r"storage matrix P has shape \(2, 2\), expected \(3, 3\)"),
    "bifurcation_epsilon-one-bound": (
        lambda: bifurcation_epsilon(preset("rps", {"l": 2.5}), LearningParams(),
                                    eps_range=(0.1,)),
        r"eps range has shape \(1,\), expected \(2,\)"),
    "tangent_mode_abscissa-shape": (
        lambda: tangent_mode_abscissa(np.eye(4), (3,)),
        r"Jacobian shape \(4, 4\) is neither \(3, 3\) nor \(6, 6\)"),
    "score_bound-length": (
        lambda: score_bound(preset("rps", {"l": 2.5}), [1.0, 2.0]), "z0 has shape"),
    "score_bound-block": (
        lambda: score_bound(preset("rps", {"l": 2.5}), np.zeros(3),
                            FeedbackBlock.high_pass(1.0, 1.0, (2,))),
        "feedback block has dimension 2, expected 3"),
    "score_bound_excess-game": (
        lambda: score_bound_excess(_rps_run(), preset("shapley")),
        "score vector has length 3, expected 6"),
    "equilibrium_filter_state-length": (
        lambda: FeedbackBlock.high_pass(1.0, 1.0, (3,)).equilibrium_filter_state(np.ones(2)),
        "profile has shape"),
    "log_sum_exp-empty": (
        lambda: log_sum_exp(np.zeros((2, 0)), 1.0), "has no score on its last axis"),
    "bregman_lse-reference": (
        lambda: bregman_lse(np.zeros(3), np.zeros(2), 1.0, (3,)),
        r"z_ref has shape \(2,\), expected \(3,\)"),
    "run_discrete-string-steps": (
        lambda: run_discrete(preset("rps", {"l": 2.5}), LearningParams(), np.zeros(3),
                             0.1, "5"), "steps must be an integer, got '5'"),
    "run_stochastic-boolean-steps": (
        lambda: run_stochastic(preset("rps", {"l": 2.5}), LearningParams(), np.zeros(3),
                               True, rng=0), "steps must be an integer, got True"),
}


@pytest.mark.parametrize("call, message", list(BOUNDARY_CALLS.values()),
                         ids=list(BOUNDARY_CALLS))
def test_public_analysis_inputs_are_refused_at_the_boundary(call, message):
    """Inputs that do not fit the trajectory, game or block are a DomainError:
    they raised numpy errors, or were broadcast into a silent answer (a
    scalar x_star, a 2-entry score bound, a bound from a 2-dimensional
    block, a 3-score run read as 6 scores or as 2) or read as undetermined
    (a non-finite x_star); a step count that is a string raised TypeError,
    and one that is a boolean ran a step.  A storage matrix of the wrong
    width raised einsum's ValueError, a one-bound eps range IndexError, and
    a Jacobian of neither the (n, n) nor the (2n, 2n) layout gave a float."""
    with pytest.raises(DomainError, match=message):
        call()


# -------------------------------------------------------------- bound and checks

def test_verify_feedback_block_report():
    good = verify_feedback_block(FeedbackBlock.high_pass(1.0, 1.0, (3,)))
    assert good.passed
    d = good.to_dict()
    for key in ("hurwitz_ok", "zero_dc_ok", "grid_positive_real_ok",
                "min_hermitian_eigenvalue", "passed"):
        assert key in d
    eye = np.eye(2)
    unstable = verify_feedback_block(FeedbackBlock(eye, -eye, eye, eye))
    assert not unstable.hurwitz_ok and not unstable.passed
    leaky = verify_feedback_block(FeedbackBlock(-eye, -eye, eye, 0.0 * eye))
    assert leaky.hurwitz_ok and not leaky.zero_dc_ok


def test_score_bound_values():
    game = preset("rps", {"l": 2.5})
    np.testing.assert_allclose(score_bound(game, np.array([3.0, 0.5, -1.0])),
                               [3.0, 2.5, 2.5])
    block = FeedbackBlock.high_pass(1.0, 1.0, game.action_counts)
    np.testing.assert_allclose(
        score_bound(game, np.array([3.0, 0.5, -1.0]), block=block),
        [4.5, 4.5, 4.5])


def test_score_bound_refuses_impulse_responses_that_change_sign():
    """sup|xi| <= ||A^-1 B||_inf for strategies in [0, 1] needs every entry
    of e^{At} B to keep its sign.  A lightly damped rotation drives xi_1 to
    about 6.9 against the 1.09 that bound claims, so score_bound refuses it,
    as it refuses a B column of mixed sign.  Each block has D = C A^-1 B,
    the zero DC gain every integrated block has; a block that fails that
    check, or whose A is not Hurwitz, is refused before any bound is solved
    (a singular A used to raise numpy's LinAlgError, and the unstable one
    below got the bound [7, 7, 7])."""
    rotation = np.array([[-0.1, 1.0], [-1.0, -0.1]])
    lam, vec = np.linalg.eig(rotation)
    t = np.linspace(0.0, 200.0, 40001)
    impulse = np.einsum("ij,tj,jk->tik", vec, np.exp(np.outer(t, lam)),
                        np.linalg.inv(vec)).real
    sup_xi = np.clip(impulse[:, 0, :], 0.0, None).sum() * (t[1] - t[0])
    assert sup_xi > 6.0
    assert np.abs(np.linalg.inv(rotation)).sum(axis=1).max() < 1.1
    game = preset("matching_pennies")
    eye = np.eye(4)
    z0 = np.zeros(4)
    mixed_column = np.kron(np.eye(2), [[1.0, 0.0], [-1.0, 1.0]])
    for a_mat, b_mat in [(np.kron(np.eye(2), rotation), eye), (-eye, mixed_column)]:
        block = FeedbackBlock(a_mat, b_mat, eye, np.linalg.solve(a_mat, b_mat))
        with pytest.raises(ConfigurationError, match="Metzler"):
            score_bound(game, z0, block=block)
    metzler = np.kron(np.eye(2), [[-2.0, 1.0], [1.0, -2.0]])
    # ||A^-1 B||_inf = 1 through C = I, and ||D||_inf = ||A^-1||_inf = 1
    np.testing.assert_allclose(
        score_bound(game, z0, block=FeedbackBlock(metzler, eye, eye, np.linalg.inv(metzler))),
        game.max_abs_payoff() + 2.0)
    rps = preset("rps", {"l": 5.0})
    i3 = np.eye(3)
    for block, reason in [(FeedbackBlock(0.0 * i3, i3, i3, 0.0 * i3), "not Hurwitz"),
                          (FeedbackBlock(i3, -i3, i3, i3), "not Hurwitz"),
                          (FeedbackBlock(-i3, i3, i3, 0.0 * i3), "DC gain")]:
        with pytest.raises(ConfigurationError, match=reason):
            score_bound(rps, np.zeros(3), block=block)


def test_score_bound_excess_on_run():
    game = preset("rps", {"l": 5.0})
    params = LearningParams(eps=1.0, gamma=1.0)
    traj = simulate_first_order(game, params, seeded_initial_scores(3, 2),
                                dt=0.01, t_end=30.0, record_every=10)
    assert score_bound_excess(traj, game) <= 0.0


def test_score_bound_excess_needs_a_filter_at_rest():
    """The filtered score bound holds for xi(0) = 0.  A stable step from a
    filter started far from rest leaves it (max|z| 14.3 against 4.5), which
    read as an excess of 9.78, a step that looked unstable; such a run is
    refused."""
    game = preset("rps", {"l": 2.5})
    block = FeedbackBlock.high_pass(1.0, 1.0, game.action_counts)
    traj = simulate_higher_order(game, LearningParams(), block, np.zeros(3),
                                 xi0=np.full(3, -40.0), dt=0.01, t_end=20.0)
    assert np.abs(traj.states).max() > 14.0
    with pytest.raises(DomainError, match="filter state of 0 at the first sample"):
        score_bound_excess(traj, game, block)


def _raw_filtered_run():
    """integrate's own record of a filtered rps run with strategies
    attached: 6 columns [z, xi] that are not 6 scores."""
    game = preset("rps", {"l": 2.5})
    block = FeedbackBlock.high_pass(1.0, 1.0, (3,))
    traj = integrate(lambda s: higher_order_field(s, game, LearningParams(), block),
                     np.concatenate([seeded_initial_scores(3, 0), np.zeros(3)]),
                     dt=0.1, t_end=5.0)
    return dataclasses.replace(traj, strategies=softmax(traj.states[:, :3], 1.0, (3,)))


def _shapley_run():
    """A short first-order run on shapley: 6 scores."""
    return simulate_first_order(preset("shapley"), LearningParams(),
                                seeded_initial_scores(6, 0), dt=0.1, t_end=5.0)


RUNS_OF_ANOTHER_LAYOUT = {
    "lyapunov_trace-6-scores": (
        lambda path: lyapunov_trace(_shapley_run(), np.zeros(3), 1.0, (3,)),
        "score vector has length 6, expected 3"),
    "score_bound_excess-filtered-run": (
        lambda path: score_bound_excess(
            simulate_higher_order(preset("rps", {"l": 2.5}), LearningParams(),
                                  FeedbackBlock.high_pass(1.0, 1.0, (3,)),
                                  seeded_initial_scores(3, 0), dt=0.1, t_end=5.0),
            preset("two_player_rps", {"l": 2.5})),
        "score vector has length 3, expected 6"),
    "write_trajectory_csv-6-scores": (
        lambda path: write_trajectory_csv(path, _shapley_run(), (3,)),
        "score vector has length 6, expected 3"),
    "write_trajectory_csv-raw": (
        lambda path: write_trajectory_csv(path, _raw_filtered_run(), (3,)),
        "score vector has length 6, expected 3"),
    "write_trajectory_csv-5-strategies": (
        lambda path: write_trajectory_csv(
            path, Trajectory(np.arange(2.0), np.zeros((2, 3)), strategies=np.zeros((2, 5))),
            (3,)),
        "strategies has length 5, expected 3"),
    "lyapunov_trace-raw": (
        lambda path: lyapunov_trace(_raw_filtered_run(), np.zeros(3), 1.0, (3,)),
        "score vector has length 6, expected 3"),
    "composite_lyapunov_trace-raw": (
        lambda path: composite_lyapunov_trace(_raw_filtered_run(), np.zeros(3), 1.0,
                                              FeedbackBlock.high_pass(1.0, 1.0, (3,)), (3,)),
        "trajectory does not carry a filter state"),
    "score_bound_excess-raw": (
        lambda path: score_bound_excess(_raw_filtered_run(), preset("rps", {"l": 2.5}),
                                        FeedbackBlock.high_pass(1.0, 1.0, (3,))),
        "score vector has length 6, expected 3"),
    "score_bound_excess-filtered-run-without-block": (
        lambda path: score_bound_excess(
            simulate_higher_order(preset("rps", {"l": 5.0}), LearningParams(),
                                  FeedbackBlock.high_pass(1.0, 1.0, (3,)),
                                  seeded_initial_scores(3, 0), dt=0.1, t_end=5.0),
            preset("rps", {"l": 5.0})),
        "filtered run needs the block it ran with"),
    "score_bound_excess-first-order-run-with-block": (
        lambda path: score_bound_excess(
            simulate_first_order(preset("rps", {"l": 5.0}), LearningParams(),
                                 seeded_initial_scores(3, 0), dt=0.1, t_end=5.0),
            preset("rps", {"l": 5.0}), FeedbackBlock.high_pass(1.0, 1.0, (3,))),
        "run without a filter state has no block"),
}


@pytest.mark.parametrize("call, message", list(RUNS_OF_ANOTHER_LAYOUT.values()),
                         ids=list(RUNS_OF_ANOTHER_LAYOUT))
def test_runs_are_read_in_their_own_layout(call, message, tmp_path):
    """A trajectory's states are its n scores and its filter state is a
    field of its own, so a run of another game, or integrate's raw [z, xi]
    record, is refused before any value is computed or any file is opened.
    Each was read as n scores plus a filter state when 2n wide.  Strategies
    that are not n wide are refused too (the file's rows outgrew its
    header), and so is a score bound checked with a block the run did not
    run with (on rps l=5 a filtered run read -3.47 against M = 5 without its
    block, and a first-order run -5.47 against M = 7 with one)."""
    path = tmp_path / "run.csv"
    with pytest.raises(DomainError, match=message):
        call(path)
    assert not path.exists()


def test_numeric_jacobian_smooth_map():
    def func(v):
        return np.array([np.sin(v[0]) * v[1], v[0] ** 2])

    x0 = np.array([0.7, -0.3])
    expected = np.array([[np.cos(0.7) * -0.3, np.sin(0.7)], [1.4, 0.0]])
    np.testing.assert_allclose(numeric_jacobian(func, x0), expected, atol=1e-8)


def test_tuning_values_are_fixed():
    """The solver, verdict and check thresholds are constants; only the
    inputs some caller sets remain parameters."""
    expected = {
        rest_point: ["game", "eps", "z0"],
        multi_start_rest_points: ["game", "eps", "n_starts", "seed"],
        classify: ["game"],
        dynamics_jacobian: ["z_star", "game", "params", "block"],
        tangent_mode_abscissa: ["jac", "action_counts"],
        bifurcation_epsilon: ["game", "params", "block", "eps_range", "tol"],
        lyapunov_trace: ["traj", "z_star", "eps", "action_counts"],
        composite_lyapunov_trace: ["traj", "z_star", "eps", "block", "action_counts",
                                   "gamma", "p_mat"],
        convergence_report: ["traj", "x_star"],
        time_to_tolerance: ["traj", "x_star"],
        score_bound_excess: ["traj", "game", "block"],
        FeedbackBlock.ensure_valid: ["self"],
        verify_feedback_block: ["block"],
        seeded_initial_scores: ["n", "seed"],
        run_stochastic: ["game", "params", "z0", "steps", "rng", "mode", "record_every"],
        integrate: ["field", "state0", "dt", "t_end", "record_every", "row_t_end"],
        LearningParams: ["gamma", "eps"],
    }
    for func, params in expected.items():
        assert list(inspect.signature(func).parameters) == params, func.__name__
