"""Tests for classification, rest-point solving, linearization, bifurcation
search, and the trajectory monitors."""

import inspect

import numpy as np
import pytest
from scipy.linalg import solve_continuous_lyapunov
from tensor_reference import coupled_block

from gamedyn import (ConfigurationError, DomainError, FeedbackBlock, GameSpec,
                     LearningParams, Trajectory, UsageError,
                     bifurcation_epsilon, classify, composite_lyapunov_trace,
                     convergence_report, dynamics_jacobian, lyapunov_trace,
                     multi_start_rest_points, numeric_jacobian, preset,
                     rest_point, run_stochastic, score_bound,
                     score_bound_excess, seeded_initial_scores, simulate_first_order,
                     simulate_higher_order, storage_matrix,
                     tangent_mode_abscissa, time_to_tolerance,
                     verify_feedback_block)


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


@pytest.mark.parametrize("n_starts", [0, -3])
def test_multi_start_needs_a_start(n_starts, monkeypatch):
    """No start is refused before any solve, not turned into one solve from
    zero."""
    def no_work(*args, **kwargs):
        raise AssertionError("multi_start_rest_points solved before checking n_starts")

    monkeypatch.setattr("gamedyn.analysis.rest_point", no_work)
    with pytest.raises(DomainError, match="n_starts"):
        multi_start_rest_points(preset("rps", {"l": 2.5}), 1.0, n_starts=n_starts)


def test_rest_point_result_dict():
    d = rest_point(preset("rps", {"l": 2.5}), 1.0).to_dict()
    assert d["status"] == "converged"
    assert d["eps"] == 1.0
    assert len(d["z"]) == 3 and len(d["x"]) == 3


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
    values, verdict = composite_lyapunov_trace(traj, result.z_star, xi_star,
                                               1.0, block, game.action_counts)
    assert verdict == "non-increasing"
    assert values[-1] <= 1e-8


def test_composite_lyapunov_trace_validation():
    game = preset("rps", {"l": 2.5})
    block = FeedbackBlock.high_pass(1.0, 1.0, game.action_counts)
    times = np.arange(4.0)
    wide = Trajectory(times, np.zeros((4, 6)))
    with pytest.raises(ConfigurationError):
        composite_lyapunov_trace(wide, np.zeros(3), np.zeros(3), 1.0, block,
                                 game.action_counts, p_mat=-np.eye(3))
    narrow = Trajectory(times, np.zeros((4, 3)))
    with pytest.raises(DomainError):
        composite_lyapunov_trace(narrow, np.zeros(3), np.zeros(3), 1.0, block,
                                 game.action_counts)


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
    assert time_to_tolerance(traj, np.zeros(1), tol=1e-3) == 2.0
    inside = Trajectory(times, strategies.copy(),
                        strategies=np.full((5, 1), 1e-5))
    assert time_to_tolerance(inside, np.zeros(1), tol=1e-3) == 0.0
    never = Trajectory(times, strategies.copy(),
                       strategies=np.full((5, 1), 0.5))
    assert time_to_tolerance(never, np.zeros(1), tol=1e-3) is None


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
    as it refuses a B column of mixed sign."""
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
        with pytest.raises(ConfigurationError, match="Metzler"):
            score_bound(game, z0, block=FeedbackBlock(a_mat, b_mat, eye, 0.0 * eye))
    metzler = np.kron(np.eye(2), [[-2.0, 1.0], [1.0, -2.0]])
    np.testing.assert_allclose(
        score_bound(game, z0, block=FeedbackBlock(metzler, eye, eye, 0.0 * eye)),
        game.max_abs_payoff() + 1.0)


def test_score_bound_excess_on_run():
    game = preset("rps", {"l": 5.0})
    params = LearningParams(eps=1.0, gamma=1.0)
    traj = simulate_first_order(game, params, seeded_initial_scores(3, 2),
                                dt=0.01, t_end=30.0, record_every=10)
    assert score_bound_excess(traj, game) <= 0.0


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
        numeric_jacobian: ["func", "x0"],
        dynamics_jacobian: ["z_star", "game", "params", "block", "fd_check"],
        tangent_mode_abscissa: ["jac", "action_counts"],
        bifurcation_epsilon: ["game", "params", "block", "eps_range", "tol"],
        lyapunov_trace: ["traj", "z_star", "eps", "action_counts"],
        composite_lyapunov_trace: ["traj", "z_star", "xi_star", "eps", "block",
                                   "action_counts", "gamma", "p_mat"],
        convergence_report: ["traj", "x_star"],
        score_bound_excess: ["traj", "game", "block"],
        FeedbackBlock.ensure_valid: ["self"],
        verify_feedback_block: ["block"],
        seeded_initial_scores: ["n", "seed"],
        run_stochastic: ["game", "params", "z0", "steps", "rng", "mode", "record_every"],
        LearningParams: ["gamma", "eps"],
    }
    for func, params in expected.items():
        assert list(inspect.signature(func).parameters) == params, func.__name__
