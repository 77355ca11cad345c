import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from address_limit import run_capped
from tensor_reference import (coupled_block, random_tensor_game,
                              revision_protocol_field, tensor_payoff)

from gamedyn import (ConfigurationError, DomainError, FeedbackBlock,
                     IntegrationDivergedError, LearningParams, SimulationRun,
                     Trajectory, expected_payoff_vector,
                     first_order_field, higher_order_field, induced_strategy_field,
                     integrate, preset, profile_jacobian,
                     rest_point, run_discrete,
                     run_stochastic, score_bound, score_bound_excess,
                     seeded_initial_scores, simulate_batch, simulate_first_order,
                     simulate_higher_order, softmax, verify_feedback_block,
                     write_trajectory_csv)
from gamedyn.dynamics import _VIEW_WIDTH, _Field, _Recorder


def test_learning_params_validation():
    with pytest.raises(DomainError):
        LearningParams(gamma=0.0, eps=1.0)
    with pytest.raises(DomainError):
        LearningParams(gamma=1.0, eps=-0.5)
    params = LearningParams(gamma=2.0, eps=0.5)
    assert params.gamma == 2.0 and params.eps == 0.5


def test_high_pass_block_shapes():
    block = FeedbackBlock.high_pass(2.0, 0.5, (3, 3))
    assert block.dim == 6
    np.testing.assert_allclose(block.a_mat, -0.5 * np.eye(6))
    np.testing.assert_allclose(block.b_mat, -0.5 * np.eye(6))
    np.testing.assert_allclose(block.c_mat, 2.0 * np.eye(6))
    np.testing.assert_allclose(block.d_mat, 2.0 * np.eye(6))
    assert block.spectral_abscissa() == pytest.approx(-0.5)
    assert np.linalg.norm(block.dc_gain()) == pytest.approx(0.0, abs=1e-12)


def test_high_pass_parameter_validation():
    with pytest.raises(DomainError):
        FeedbackBlock.high_pass(1.0, 0.0, (3,))
    with pytest.raises(DomainError):
        FeedbackBlock.high_pass(-1.0, 1.0, (3,))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_feedback_block_rejects_non_finite_values(bad):
    with pytest.raises(DomainError, match="gain must be nonnegative and finite"):
        FeedbackBlock.high_pass(bad, 1.0, (3,))
    with pytest.raises(DomainError, match="cutoff must be positive and finite"):
        FeedbackBlock.high_pass(1.0, bad, (3,))
    mats = [-np.eye(2), -np.eye(2), np.eye(2), np.eye(2)]
    for i in range(4):
        broken = [m.copy() for m in mats]
        broken[i][1, 0] = bad
        with pytest.raises(DomainError, match="matrices must be finite"):
            FeedbackBlock(*broken)


def test_verify_feedback_block_pass_and_fail():
    """Each of the three certificates fails alone on its own block, and
    the report fails with it."""
    good = verify_feedback_block(FeedbackBlock.high_pass(1.0, 1.0, (3,)))
    assert good.passed
    assert good.hurwitz_ok and good.zero_dc_ok and good.grid_positive_real_ok
    d = good.to_dict()
    for key in ("hurwitz_ok", "zero_dc_ok", "grid_positive_real_ok",
                "min_hermitian_eigenvalue", "passed"):
        assert key in d

    for eye in (np.eye(2), np.eye(3)):
        unstable = FeedbackBlock(a_mat=eye, b_mat=-eye, c_mat=eye, d_mat=eye)
        rep = verify_feedback_block(unstable)
        assert not rep.hurwitz_ok and not rep.passed

        leaky = FeedbackBlock(a_mat=-eye, b_mat=-eye, c_mat=eye,
                              d_mat=np.zeros_like(eye))
        rep = verify_feedback_block(leaky)
        assert rep.hurwitz_ok and not rep.zero_dc_ok and not rep.passed

        # a singular A has no finite DC gain: reported, not raised
        singular = FeedbackBlock(0.0 * eye, eye, eye, 0.0 * eye)
        rep = verify_feedback_block(singular)
        assert not rep.hurwitz_ok and not rep.zero_dc_ok and not rep.passed
        assert rep.dc_gain_norm == np.inf

    # H(s) = 1/(s+1) - 1 = -s/(s+1): Hurwitz with zero DC gain, but
    # Re H(jw) = -w^2/(1+w^2) < 0 at every grid frequency
    eye = np.eye(3)
    rep = verify_feedback_block(FeedbackBlock(-eye, -eye, -eye, -eye))
    assert rep.hurwitz_ok and rep.zero_dc_ok
    assert not rep.grid_positive_real_ok and not rep.passed
    assert rep.min_hermitian_eigenvalue < 0.0

    # a pole on the grid, at +-jw with w a grid frequency: H(jw) does not
    # exist, which reads as -inf (it raised numpy's LinAlgError)
    w = np.logspace(-3.0, 3.0, 200)[120]
    eye = np.eye(2)
    rep = verify_feedback_block(FeedbackBlock(np.array([[0.0, w], [-w, 0.0]]), eye, eye,
                                              0.0 * eye))
    assert rep.min_hermitian_eigenvalue == -np.inf
    assert not rep.grid_positive_real_ok and not rep.passed


@pytest.mark.parametrize("mats", [
    [np.zeros((2, 3))] * 4,
    [-np.eye(2), -np.eye(2), np.eye(2), np.eye(3)],
    [np.zeros(2)] * 4,
], ids=["not-square", "unequal-sizes", "one-axis"])
def test_feedback_block_matrices_must_be_square_and_equally_sized(mats):
    with pytest.raises(DomainError, match="must be square and equally sized"):
        FeedbackBlock(*mats)


def test_ensure_valid_checks_the_current_matrices():
    block = FeedbackBlock.high_pass(1.0, 1.0, (3,))
    block.ensure_valid()
    block.a_mat = np.eye(3)
    with pytest.raises(ConfigurationError, match="not Hurwitz"):
        block.ensure_valid()
    with pytest.raises(ConfigurationError, match="not Hurwitz"):
        simulate_higher_order(preset("rps", {"l": 2.0}), LearningParams(1.0, 1.0),
                              block, np.zeros(3), dt=0.1, t_end=1.0)


def test_equilibrium_filter_state_cancels_input():
    game = preset("rps", {"l": 5.0})
    block = FeedbackBlock.high_pass(1.0, 1.0, (3,))
    solved = rest_point(game, 1.0)
    xi_star = block.equilibrium_filter_state(solved.x_star)
    np.testing.assert_allclose(xi_star, -solved.x_star, atol=1e-12)
    state = np.concatenate([solved.z_star, xi_star])
    field = higher_order_field(state, game, LearningParams(1.0, 1.0), block)
    np.testing.assert_allclose(field, 0.0, atol=1e-10)


def test_first_order_field_forms(rng):
    game = preset("rps", {"l": 2.5})
    z = rng.uniform(-1, 1, 3)
    x = softmax(z, 1.0, (3,))
    u = expected_payoff_vector(game, x)
    np.testing.assert_allclose(first_order_field(z, game, LearningParams(1.0, 1.0)),
                               u - z, atol=1e-14)
    np.testing.assert_allclose(first_order_field(z, game, LearningParams(4.0, 1.0)),
                               4.0 * (u - z), atol=1e-14)


def test_zero_gain_filter_recovers_first_order(rng):
    game = preset("matching_pennies")
    block = FeedbackBlock.high_pass(0.0, 1.0, (2, 2))
    params = LearningParams(1.0, 1.0)
    z = rng.uniform(-1, 1, 4)
    xi = rng.uniform(-1, 1, 4)
    field = higher_order_field(np.concatenate([z, xi]), game, params, block)
    np.testing.assert_allclose(field[:4], first_order_field(z, game, params),
                               atol=1e-14)


def test_chain_rule_links_score_and_strategy_fields(rng):
    for name, params in (("rps", {"l": 2.5}), ("shapley", None),
                         ("jordan_mp", None)):
        game = preset(name, params)
        lp = LearningParams(1.3, 0.8)
        for _ in range(25):
            z = rng.uniform(-2, 2, game.total_actions)
            zdot = first_order_field(z, game, lp)
            xdot = induced_strategy_field(z, game, lp)
            chained = profile_jacobian(z, lp.eps, game.action_counts) @ zdot
            np.testing.assert_allclose(xdot, chained, atol=1e-10)


def test_revision_protocol_matches_induced_field(rng):
    game = preset("modified_rps_Abar")
    lp = LearningParams(1.0, 1.0)
    for _ in range(25):
        z = rng.uniform(-2, 2, 3)
        x = softmax(z, lp.eps, (3,))
        np.testing.assert_allclose(revision_protocol_field(x, z, game, lp),
                                   induced_strategy_field(z, game, lp),
                                   atol=1e-10)


def test_rk4_accuracy_on_rotation():
    omega = np.array([[0.0, -1.0], [1.0, 0.0]])
    traj = integrate(lambda s: s @ omega.T, np.array([1.0, 0.0]),
                     dt=0.01, t_end=1.0)
    expect = np.array([np.cos(1.0), np.sin(1.0)])
    np.testing.assert_allclose(traj.states[-1], expect, atol=1e-9)
    assert traj.times[0] == 0.0 and traj.times[-1] == pytest.approx(1.0)


def test_integrate_batch_matches_single():
    game = preset("rps", {"l": 2.5})
    params = LearningParams(1.0, 1.0)
    z0 = np.stack([seeded_initial_scores(3, s) for s in (0, 1)])
    batched = simulate_first_order(game, params, z0, dt=0.05, t_end=5.0)
    single = simulate_first_order(game, params, z0[1], dt=0.05, t_end=5.0)
    np.testing.assert_allclose(batched[1].states, single.states, atol=1e-13)


def test_record_every_and_final_sample():
    traj = integrate(lambda s: -s, np.ones(2), dt=0.1, t_end=1.0,
                     record_every=3)
    # samples at step multiples of 3 plus the final step
    np.testing.assert_allclose(traj.times, [0.0, 0.3, 0.6, 0.9, 1.0],
                               atol=1e-12)


def test_horizon_shorter_than_step_rejected():
    game = preset("rps", {"l": 2.5})
    with pytest.raises(DomainError):
        simulate_first_order(game, LearningParams(1.0, 1.0), np.zeros(3),
                             dt=0.5, t_end=0.2)
    for t_end in (0.05, np.inf, np.nan):
        with pytest.raises(DomainError):
            integrate(lambda s: -s, np.ones(2), dt=0.1, t_end=t_end)
    traj = integrate(lambda s: -s, np.ones(2), dt=0.1, t_end=0.1)
    np.testing.assert_allclose(traj.times, [0.0, 0.1], atol=1e-12)


def test_horizon_off_the_step_grid_rejected():
    """t_end must be a whole number of steps of dt, not rounded to the
    nearest one (past t_end at dt = 0.6, short of it at dt = 0.4);
    floating-point noise in t_end / dt is not refused."""
    game = preset("rps", {"l": 2.5})
    params = LearningParams(1.0, 1.0)
    for dt in (0.6, 0.4):
        with pytest.raises(DomainError, match="not a whole number of steps"):
            simulate_first_order(game, params, np.zeros(3), dt=dt, t_end=1.0)
        with pytest.raises(DomainError, match="not a whole number of steps"):
            simulate_batch(game, [SimulationRun(params, np.zeros(3), 1.2),
                                  SimulationRun(params, np.zeros(3), 1.0)], dt=dt)
        with pytest.raises(DomainError, match="not a whole number of steps"):
            integrate(lambda s: -s, np.ones((2, 2)), dt=dt, t_end=1.2,
                      row_t_end=[1.2, 1.0])
        # the longer horizon alone is a whole number of steps
        integrate(lambda s: -s, np.ones(2), dt=dt, t_end=1.2)
    assert 0.3 / 0.1 != 3.0
    traj = integrate(lambda s: -s, np.ones(2), dt=0.1, t_end=0.3)
    np.testing.assert_allclose(traj.times, [0.0, 0.1, 0.2, 0.3], atol=1e-12)


HUGE_RECORDS = {
    # 1e300 samples: more than numpy can index
    "integrate": "integrate(field, np.zeros(3), 1e-300, 1.0)",
    # 1e9 samples of two rows, 48 GB
    "integrate-batch": "integrate(field, np.zeros((2, 3)), 1e-9, 1.0, record_every=1)",
    "simulate_first_order": "simulate_first_order(rps, params, np.zeros(3), 1e-300, 1.0)",
    # 1e11 samples, 2.4 TB
    "run_discrete": "run_discrete(rps, params, np.zeros(3), 0.1, 10**12, 10)",
    # 1e10 samples, 240 GB
    "run_stochastic": "run_stochastic(rps, params, np.zeros(3), 10**11, rng, record_every=10)",
    # a step count beyond the largest float raised OverflowError
    "run_discrete-beyond-float": "run_discrete(rps, params, np.zeros(3), 0.1, 10**400, 10)",
}

REFUSE_HUGE_RECORD = """
import sys
import numpy as np
from gamedyn import *

rps, params, rng, calls = preset("rps", {"l": 5.0}), LearningParams(), np.random.default_rng(0), []
drawn = rng.bit_generator.state

def field(s):
    calls.append(1)
    return -s

try:
    eval(sys.argv[1])
except DomainError as err:
    print(f"DomainError: {err}")
print("steps taken:", len(calls), "generator moved:", rng.bit_generator.state != drawn)
"""


@pytest.mark.parametrize("call", list(HUGE_RECORDS))
def test_record_that_cannot_be_held_is_refused(call):
    """A record numpy cannot allocate or index is refused with DomainError
    before any step, in a child capped at 1 GiB of address space (a plan of
    one Python int per sample raised MemoryError there)."""
    proc = run_capped(REFUSE_HUGE_RECORD, HUGE_RECORDS[call])
    assert proc.returncode == 0, proc.stderr
    refusal, steps = proc.stdout.splitlines()
    assert refusal.startswith("DomainError: the record cannot be held in memory: ")
    assert steps == "steps taken: 0 generator moved: False"


def test_recorder_returns_views_of_a_prefix_of_the_plan():
    """A row whose samples are a prefix of the sample plan gets views of the
    record (a boolean mask copied every record); a row whose span holds a
    shorter row's off-grid horizon gets its own samples, copied."""
    rec = _Recorder(np.zeros((2, 3)), [10, 7], 3)
    assert rec.steps.tolist() == [0, 3, 6, 7, 9, 10]
    rows = 2
    for step in rec.steps[1:]:
        rows = rec.take(np.full((rows, 3), float(step)))
    long, short = rec.result()
    assert short.times.tolist() == short.states[:, 0].tolist() == [0, 3, 6, 7]
    assert long.times.tolist() == long.states[:, 0].tolist() == [0, 3, 6, 9, 10]
    assert np.shares_memory(short.states, rec.rec)
    assert not np.shares_memory(long.states, rec.rec)
    alone = _Recorder(np.zeros(3), [10], 3)
    for step in alone.steps[1:]:
        alone.take(np.full(3, float(step)))
    traj = alone.result()
    assert traj.times.tolist() == [0, 3, 6, 9, 10]
    assert np.shares_memory(traj.states, alone.rec)


def test_divergence_reports_last_good_time():
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationDivergedError) as err:
            integrate(lambda s: s ** 3, np.array([5.0]), dt=0.5, t_end=40.0,
                      record_every=1)
    assert err.value.last_good_time is not None
    assert err.value.last_good_time >= 0.0


def test_trajectory_time_monotonicity():
    with pytest.raises(DomainError):
        Trajectory(np.array([0.0, 0.0, 1.0]), np.zeros((3, 2)))


@pytest.mark.parametrize("column", ["strategies", "lyapunov", "actions", "payoffs",
                                    "filter_state"])
def test_trajectory_columns_align_with_times(column):
    """Every optional column has one row per sample."""
    times = np.arange(3.0)
    Trajectory(times, np.zeros((3, 2)), **{column: np.zeros((3, 2))})
    for rows in (np.zeros(2), np.zeros((4, 2)), np.float64(0.0)):
        with pytest.raises(DomainError, match=column):
            Trajectory(times, np.zeros((3, 2)), **{column: rows})


def test_trajectory_filter_state_has_the_shape_of_its_scores():
    """A filter state holds one entry per score at each sample."""
    for xi in (np.zeros((3, 3)), np.zeros((3, 1)), np.zeros((3, 2, 1))):
        with pytest.raises(DomainError, match="does not match states of shape"):
            Trajectory(np.arange(3.0), np.zeros((3, 2)), filter_state=xi)


def test_seeded_scores_deterministic_and_bounded():
    a = seeded_initial_scores(6, 42)
    b = seeded_initial_scores(6, 42)
    assert np.array_equal(a, b)
    assert np.all(np.abs(a) <= 1.0)
    assert not np.array_equal(a, seeded_initial_scores(6, 43))


def test_simulate_first_order_standard_rps_settles():
    game = preset("rps", {"l": 1.0})
    traj = simulate_first_order(game, LearningParams(1.0, 1.0),
                                seeded_initial_scores(3, 0), dt=0.01,
                                t_end=60.0, record_every=10)
    np.testing.assert_allclose(traj.states[-1], 0.0, atol=1e-8)
    np.testing.assert_allclose(traj.strategies[-1], 1.0 / 3.0, atol=1e-8)


def test_higher_order_state_layout():
    game = preset("rps", {"l": 5.0})
    block = FeedbackBlock.high_pass(1.0, 1.0, (3,))
    traj = simulate_higher_order(game, LearningParams(1.0, 1.0), block,
                                 seeded_initial_scores(3, 1), dt=0.01,
                                 t_end=30.0, record_every=10)
    assert traj.states.shape[1] == 3
    assert traj.filter_state.shape == traj.states.shape
    # filter state starts at zero
    assert np.all(traj.filter_state[0] == 0.0)
    solved = rest_point(game, 1.0)
    np.testing.assert_allclose(traj.strategies[-1], solved.x_star, atol=1e-6)


def test_score_bound_invariance():
    game = preset("rps", {"l": 8.0})
    z0 = seeded_initial_scores(3, 0)
    traj = simulate_first_order(game, LearningParams(1.0, 1.0), z0, dt=0.01,
                                t_end=100.0, record_every=10)
    assert score_bound_excess(traj, game) <= 0.0
    bound = score_bound(game, z0)
    assert np.all(bound >= game.max_abs_payoff() - 1e-12)

    block = FeedbackBlock.high_pass(1.0, 1.0, (3,))
    traj_ho = simulate_higher_order(game, LearningParams(1.0, 1.0), block, z0,
                                    dt=0.01, t_end=100.0, record_every=10)
    assert score_bound_excess(traj_ho, game, block=block) <= 0.0
    assert np.all(score_bound(game, z0, block=block) >= bound)


def test_trajectory_csv_layout(tmp_path):
    game = preset("shapley")
    traj = simulate_first_order(game, LearningParams(1.0, 1.0),
                                seeded_initial_scores(6, 0), dt=0.05,
                                t_end=2.0, record_every=4)
    path = tmp_path / "run.csv"
    write_trajectory_csv(path, traj, game.action_counts, ternary=True)
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t"
    assert sum(1 for h in header if h.startswith("z_")) == 6
    assert sum(1 for h in header if h.startswith("x_")) == 6
    assert sum(1 for h in header if h.startswith("tern")) == 4
    assert len(lines) == len(traj.times) + 1


def test_trajectory_csv_needs_strategies(tmp_path):
    """A trajectory without strategies is refused before the file is
    opened, so an existing file keeps its content."""
    traj = integrate(lambda s: -s, np.array([1.0, 0.5, 0.2]), dt=0.1, t_end=1.0)
    assert traj.strategies is None
    path = tmp_path / "run.csv"
    path.write_text("kept\n")
    with pytest.raises(DomainError, match="no strategies"):
        write_trajectory_csv(path, traj, (3,))
    assert path.read_text() == "kept\n"
    with pytest.raises(DomainError, match="no strategies"):
        write_trajectory_csv(tmp_path / "new.csv", traj, (3,))
    assert not (tmp_path / "new.csv").exists()


def test_trajectory_csv_needs_n_or_2n_state_columns(tmp_path):
    """States that are not n scores, 2n columns included, are refused before
    the file is opened, not cut to n scores or read as scores and a filter
    state; states that are not one row per sample are refused when the
    Trajectory is built."""
    path = tmp_path / "run.csv"
    path.write_text("kept\n")
    for width in (4, 5, 6):
        traj = Trajectory(np.arange(3.0), np.zeros((3, width)),
                          strategies=np.full((3, 3), 1.0 / 3.0))
        with pytest.raises(DomainError, match=f"score vector has length {width}, expected 3"):
            write_trajectory_csv(path, traj, (3,))
        assert path.read_text() == "kept\n"
    for states in (np.zeros(3), np.zeros((3, 2, 3))):
        with pytest.raises(DomainError, match="must align, one row per sample"):
            Trajectory(np.arange(3.0), states, strategies=np.full((3, 3), 1.0 / 3.0))


# ------------------------------------------- bound field vs. a written-out one

REFERENCE_GAMES = {
    "rps": lambda: preset("rps", {"l": 2.0}),
    "two_player_rps": lambda: preset("two_player_rps", {"l": 3.0}),
    "bimatrix23": lambda: random_tensor_game((2, 3), 7),
    "jordan_mp": lambda: preset("jordan_mp"),
    "tensor232": lambda: random_tensor_game((2, 3, 2), 11),
}


def _reference_field(game, params, block):
    """The score field composed from the public soft-max and a payoff vector
    summed from the payoff tensors, with the filter written out from its four
    matrices."""
    n = game.total_actions

    def field(state):
        z = state[..., :n]
        x = softmax(z, params.eps, game.action_counts)
        u = tensor_payoff(game, x)
        if block is None:
            return params.gamma * (u - z)
        xi = state[..., n:]
        v = xi @ block.c_mat.T + x @ block.d_mat.T
        dxi = xi @ block.a_mat.T + x @ block.b_mat.T
        return np.concatenate([params.gamma * (u - z - v), dxi], axis=-1)

    return field


def _reference_rk4(field, state, dt, steps):
    states = [state]
    for _ in range(steps):
        k1 = field(state)
        k2 = field(state + 0.5 * dt * k1)
        k3 = field(state + 0.5 * dt * k2)
        k4 = field(state + dt * k3)
        state = state + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(state)
    return np.stack(states, axis=1)


def _initial_scores(game, batch):
    rng = np.random.default_rng(batch)
    return rng.uniform(-2, 2, (batch, game.total_actions))


@pytest.mark.parametrize("batch", [1, 5])
@pytest.mark.parametrize("regime", ["discounted", "filtered"])
@pytest.mark.parametrize("game_key", list(REFERENCE_GAMES))
def test_simulate_matches_reference_field(game_key, regime, batch):
    game = REFERENCE_GAMES[game_key]()
    n = game.total_actions
    params = LearningParams(gamma=1.5, eps=0.7)
    z0 = _initial_scores(game, batch)
    dt, steps = 0.05, 40
    if regime == "filtered":
        block = coupled_block(n, 3)
        xi0 = np.random.default_rng(4).uniform(-1, 1, z0.shape)
        trajs = simulate_higher_order(game, params, block, z0, xi0, dt=dt,
                                      t_end=dt * steps, record_every=1)
        state0 = np.concatenate([z0, xi0], axis=-1)
    else:
        block = None
        trajs = simulate_first_order(game, params, z0, dt=dt, t_end=dt * steps,
                                     record_every=1)
        state0 = z0
    expect = _reference_rk4(_reference_field(game, params, block), state0, dt, steps)
    assert len(trajs) == batch
    for b, traj in enumerate(trajs):
        assert traj.states.shape == (steps + 1, n)
        np.testing.assert_allclose(traj.states, expect[b][:, :n], rtol=0.0, atol=1e-12)
        if block is None:
            assert traj.filter_state is None
        else:
            np.testing.assert_allclose(traj.filter_state, expect[b][:, n:], rtol=0.0,
                                       atol=1e-12)
        np.testing.assert_allclose(
            traj.strategies, softmax(expect[b][:, :n], params.eps, game.action_counts),
            rtol=0.0, atol=1e-12)
    # the public fields are the same bound kernel
    field = (first_order_field if block is None else
             lambda s, g, p: higher_order_field(s, g, p, block))
    np.testing.assert_allclose(field(state0, game, params),
                               _reference_field(game, params, block)(state0),
                               rtol=0.0, atol=1e-12)


def _einsum_payoff(game, x):
    """U(x) as one einsum per player over the others' blocks."""
    axes = "abcdefgh"[:game.player_count]
    slices = game.block_slices
    parts = []
    for p, tensor in enumerate(game.payoff_tensors):
        others = [q for q in range(game.player_count) if q != p]
        sub = f"{axes},{','.join('...' + axes[q] for q in others)}->...{axes[p]}"
        parts.append(np.einsum(sub, tensor, *(x[..., slices[q]] for q in others)))
    return np.concatenate(parts, axis=-1)


@pytest.mark.parametrize("shape", [(), (1,), (5,)])
@pytest.mark.parametrize("regime", ["discounted", "filtered"])
def test_public_fields_are_the_plain_expression(regime, shape):
    """first_order_field and higher_order_field equal, bit for bit, the
    numpy expression of their flow: (sigma(z) @ Phi^T - z) gamma, the einsum
    U without a linear map, and [sigma(z), xi] @ W with W assembled here
    from the four filter matrices."""
    gamma = 1.5
    for key, make in REFERENCE_GAMES.items():
        game = make()
        n = game.total_actions
        params = LearningParams(gamma, 0.7)
        rng = np.random.default_rng(n)
        z = rng.uniform(-2, 2, shape + (n,))
        x = softmax(z, params.eps, game.action_counts)
        phi = game.linear_map
        assert (phi is None) == (key == "tensor232")
        if regime == "filtered":
            block = coupled_block(n, 3)
            xi = rng.uniform(-1, 1, z.shape)
            top = -block.d_mat.T if phi is None else phi.T - block.d_mat.T
            w_mat = np.block([[top, block.b_mat.T], [-block.c_mat.T, block.a_mat.T]])
            expect = np.concatenate([x, xi], axis=-1) @ w_mat
            if phi is None:
                expect[..., :n] += _einsum_payoff(game, x)
            expect[..., :n] = (expect[..., :n] - z) * gamma
            got = higher_order_field(np.concatenate([z, xi], axis=-1), game, params,
                                     block)
        else:
            u = _einsum_payoff(game, x) if phi is None else x @ phi.T
            expect = (u - z) * gamma
            got = first_order_field(z, game, params)
        assert got.shape == expect.shape
        assert np.array_equal(got, expect), key


@pytest.mark.parametrize("batch", [1, 5])
@pytest.mark.parametrize("game_key", list(REFERENCE_GAMES))
def test_run_discrete_matches_reference_update(game_key, batch):
    game = REFERENCE_GAMES[game_key]()
    params = LearningParams(gamma=1.5, eps=0.7)
    alpha, steps = 0.3, 25
    z = _initial_scores(game, batch)
    expect = [z]
    for _ in range(steps):
        u = tensor_payoff(game, softmax(z, params.eps, game.action_counts))
        z = z + alpha * params.gamma * (u - z)
        expect.append(z)
    expect = np.stack(expect)
    trajs = run_discrete(game, params, _initial_scores(game, batch),
                         alpha=alpha, steps=steps)
    assert len(trajs) == batch
    for row, traj in enumerate(trajs):
        np.testing.assert_array_equal(traj.times, np.arange(steps + 1))
        np.testing.assert_allclose(traj.states, expect[:, row], rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(traj.strategies,
                                   softmax(expect[:, row], params.eps, game.action_counts),
                                   rtol=0.0, atol=1e-12)


def test_bound_field_rejects_mismatched_inputs():
    game = preset("rps", {"l": 2.0})
    params = LearningParams(1.0, 1.0)
    with pytest.raises(DomainError, match="score vector has length 4"):
        simulate_first_order(game, params, np.zeros(4), dt=0.1, t_end=1.0)
    with pytest.raises(DomainError, match="score vector has length 2"):
        first_order_field(np.zeros(2), game, params)
    with pytest.raises(DomainError, match="state has length 3"):
        higher_order_field(np.zeros(3), game, params,
                           FeedbackBlock.high_pass(1.0, 1.0, (3,)))
    with pytest.raises(DomainError, match="feedback block has dimension 4"):
        simulate_higher_order(game, params, FeedbackBlock.high_pass(1.0, 1.0, (4,)),
                              np.zeros(3), dt=0.1, t_end=1.0)
    with pytest.raises(DomainError, match="non-finite entries in score input"):
        first_order_field(np.array([0.0, np.nan, 0.0]), game, params)


def test_large_step_overflow_is_refused():
    """A step far beyond RK4's stability region overflows inside a step, not
    at a sample; it must end in divergence at the last good sample, without
    a RuntimeWarning, never in a returned trajectory or a usage error."""
    game = preset("rps", {"l": 8.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationDivergedError) as err:
            simulate_first_order(game, LearningParams(1.0, 1.0),
                                 seeded_initial_scores(3, 0), dt=40.0,
                                 t_end=40000.0, record_every=500)
    assert err.value.last_good_time == 0.0


# ------------------------------------------------------ lockstep batches

BATCH_GAMES = {
    "rps": lambda: preset("rps", {"l": 5.0}),
    "two_player_rps": lambda: preset("two_player_rps", {"l": 5.0}),
    "jordan_mp": lambda: preset("jordan_mp"),
    "tensor232": lambda: random_tensor_game((2, 3, 2), 5),
}


def _assert_same_trajectories(got, expect):
    """Every field of every Trajectory is equal, or None in both."""
    assert len(got) == len(expect)
    for a, b in zip(got, expect):
        for field in dataclasses.fields(Trajectory):
            x, y = getattr(a, field.name), getattr(b, field.name)
            assert (x is None) == (y is None), field.name
            assert x is None or np.array_equal(x, y), field.name


def _at(field, state):
    """The bound field at every row of state (..., d), as a new array of
    its shape: one bind on a coordinate-major copy of the rows, which the
    field's leading groups must cover."""
    rows = np.ascontiguousarray(state.reshape(-1, state.shape[-1]).T)
    out = np.empty(rows.shape)
    field.bind(rows, out)()
    return out.T.reshape(state.shape)


def test_field_plan_is_linear_in_the_groups():
    """_Field keeps its merged segments and per-row gammas once, whatever
    height a bind takes, so building it for 4,000 one-row groups of
    alternating gamma 1 and 2 stays within 1 MiB.  A plan per group
    boundary, each with a gamma vector over the rows before it, peaks at
    about 63 MiB here."""
    game = preset("rps", {"l": 5.0})
    groups = [(1, False, 1.0 + k % 2) for k in range(4000)]
    tracemalloc.start()
    try:
        _Field(game, 0.5, None, groups)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


@pytest.mark.parametrize("b", [1, 2, 5, 16])
@pytest.mark.parametrize("n", [2, 3, 4, 6, 12])
def test_stacked_one_row_products_are_separate_gemv(n, b):
    """_Field multiplies a one-row group, or neighbouring one-row
    groups, in one stacked product, rows lifted to (b, 1, n).  The BLAS
    must give every row the bits of its own one-row product (gemv), also
    with the strided operand and output views the field uses; a BLAS that
    breaks this fails here, by name, rather than across the batch-equality
    tests."""
    rng = np.random.default_rng(100 * n + b)
    m = rng.standard_normal((n, n))
    x = rng.standard_normal((b, n))
    separate = np.stack([x[i] @ m for i in range(b)])
    stacked = np.matmul(x[:, None, :], m)[:, 0]
    assert np.array_equal(stacked.view(np.uint64), separate.view(np.uint64))
    operand = rng.standard_normal((b, 2 * n))
    out = np.empty((b, 2 * n))
    np.matmul(operand[:, :n][:, None], m, out=out[:, :n][:, None])
    separate = np.stack([operand[i, :n] @ m for i in range(b)])
    assert np.array_equal(out[:, :n].view(np.uint64), separate.view(np.uint64))


@pytest.mark.parametrize("b", [2, 5, 16, 100, 500])
@pytest.mark.parametrize("d", range(2, _VIEW_WIDTH + 1))
def test_column_range_products_are_row_major_gemm(d, b):
    """_Field keeps a batch coordinate-major, (d, rows), and multiplies a
    group of b >= 2 rows in place as M^T @ X[:, cols], on a column range of
    the wider buffer, into the same columns of its output.  The BLAS must
    give every row the bits of the row-major product X[:, cols]^T @ M, for
    M stored as the field stores W (C-contiguous) and Phi^T (a transposed
    view), so that the layout moves no bit."""
    rng = np.random.default_rng(1000 * d + b)
    for m in (rng.standard_normal((d, d)), rng.standard_normal((d, d)).T):
        big = rng.standard_normal((d, b + 9))
        out = np.full(big.shape, np.nan)
        cols = slice(4, 4 + b)
        np.matmul(m.T, big[:, cols], out=out[:, cols])
        expect = np.ascontiguousarray(big[:, cols].T) @ m
        assert np.array_equal(out[:, cols].T.view(np.uint64), expect.view(np.uint64))


@pytest.mark.parametrize("b", [1, 2, 5, 16])
@pytest.mark.parametrize("d", [2, 3, 4, 6, 9, 12, 16])
def test_one_row_products_from_a_row_copy_are_separate_gemv(d, b):
    """_Field multiplies one-row groups on a contiguous (rows, 1, d) copy
    of their columns, writing each product into its column of the wider
    output.  That must give every row the bits of its own one-row product
    (gemv), also in a one-column batch."""
    rng = np.random.default_rng(100 * d + b)
    for m in (rng.standard_normal((d, d)), rng.standard_normal((d, d)).T):
        big = rng.standard_normal((d, b + 3))
        separate = np.stack([big[:, 2 + i].copy() @ m for i in range(b)])
        rows, out = np.empty((b, 1, d)), np.full(big.shape, np.nan)
        np.copyto(rows[:, 0], big[:, 2:2 + b].T)
        np.matmul(rows, m, out=out[:, 2:2 + b].T[:, None])
        assert np.array_equal(out[:, 2:2 + b].T.view(np.uint64), separate.view(np.uint64))


def _plain_softmax(z, eps, counts):
    """The row-major soft-max arithmetic, block by block over the last axis:
    maximum, shift, division by eps unless 1, exp, add.reduce, division."""
    out = np.empty(z.shape)
    start = 0
    for c in counts:
        zb = z[..., start:start + c]
        w = zb - np.maximum.reduce(zb, axis=-1, keepdims=True)
        if eps != 1.0:
            w = w / eps
        w = np.exp(w)
        out[..., start:start + c] = w / np.add.reduce(w, axis=-1, keepdims=True)
        start += c
    return out


@pytest.mark.parametrize("eps", [1.0, 0.3])
@pytest.mark.parametrize("height", [1, 2, 5, 16])
@pytest.mark.parametrize("counts", [(2,), (3,), (7,), (8,), (9,), (16,), (3, 3),
                                    (2, 3, 2), (8, 3)])
def test_softmax_sums_in_the_row_major_order(counts, height, eps):
    """softmax and the bound field's soft-max give, bit for bit, the
    row-major arithmetic over the last axis, whose add.reduce sums left to
    right up to 7 terms and pairwise from 8.  The field's soft-max is read
    exactly from the filter derivative xidot = x of the block A = -I,
    B = I, C = D = 0 at xi = 0."""
    rng = np.random.default_rng(height)
    n = sum(counts)
    z = 4.0 * rng.standard_normal((height, n))
    expect = _plain_softmax(z, eps, counts)
    assert np.array_equal(softmax(z, eps, counts).view(np.uint64), expect.view(np.uint64))
    assert np.array_equal(softmax(z[0], eps, counts).view(np.uint64),
                          expect[0].view(np.uint64))
    game = random_tensor_game(counts, 1)
    eye = np.eye(n)
    block = FeedbackBlock(-eye, eye, 0.0 * eye, 0.0 * eye)
    field = _Field(game, eps, block, [(height, True, 1.0)])
    state = np.concatenate([z, np.zeros(z.shape)], axis=1)
    assert np.array_equal(_at(field, state)[:, n:].view(np.uint64), expect.view(np.uint64))


def _row_major_field(game, params, block, state):
    """The score field of one run in row-major arithmetic, written out:
    the plain soft-max, one product of the run's rows (gemv for a vector,
    gemm for a batch) by Phi^T or the stacked filter matrix W, then
    gamma (U - z [- v])."""
    n = game.total_actions
    z = state[..., :n]
    x = _plain_softmax(z, params.eps, game.action_counts)
    phi_t = game.linear_map.T
    if block is None:
        out = x @ phi_t
    else:
        w_mat = np.block([[phi_t - block.d_mat.T, block.b_mat.T],
                          [-block.c_mat.T, block.a_mat.T]])
        out = np.concatenate([x, state[..., n:]], axis=-1) @ w_mat
    out[..., :n] -= z
    if params.gamma != 1.0:
        out[..., :n] *= params.gamma
    return out


def _row_major_rk4(field, state, dt, steps, record_every):
    """Samples of the plain RK4 expression, as integrate records them."""
    samples = [state]
    for k in range(steps):
        k1 = field(state)
        k2 = field(state + 0.5 * dt * k1)
        k3 = field(state + 0.5 * dt * k2)
        k4 = field(state + dt * k3)
        state = state + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (k + 1) % record_every == 0 or k + 1 == steps:
            samples.append(state)
    return np.stack(samples, axis=-2)


CATALOGUE_LAYOUTS = {
    "(3,)": lambda: preset("rps", {"l": 5.0}),
    "(2, 2)": lambda: preset("matching_pennies"),
    "(3, 3)": lambda: preset("shapley"),
    "(2, 2, 2)": lambda: preset("jordan_mp"),
}


@pytest.mark.parametrize("layout", list(CATALOGUE_LAYOUTS))
def test_batches_match_a_row_major_reference(layout):
    """simulate_batch records, bit for bit, a row-major RK4 reference
    written out here in the arithmetic of each run alone, on a mixed batch
    of one catalogue layout: first-order and filtered rows, gamma 1 and 4,
    one-row and several-row runs, and two horizons, so rows leave.  Unlike
    the comparison of a batch with separate runs, this sees a change that
    moves every row alike.  run_discrete matches the plain recursion on a
    3-row batch, and a plain callable integrated over a batch gives each
    row what it gives that row alone (its matrix holds powers of two, so
    each product is exact and gemv and gemm agree)."""
    game = CATALOGUE_LAYOUTS[layout]()
    assert game.action_counts == eval(layout)
    n = game.total_actions
    block = coupled_block(n, 3)
    rng = np.random.default_rng(len(layout))
    dt, record_every = 0.1, 4
    runs = []
    for filtered, gamma, t_end, rows in [(False, 1.0, 6.0, 3), (True, 4.0, 6.0, 2),
                                         (False, 4.0, 3.0, 1), (True, 1.0, 3.0, 1),
                                         (True, 1.0, 6.0, 1), (False, 4.0, 3.0, 2)]:
        z0 = rng.uniform(-1, 1, (rows, n) if rows > 1 else n)
        xi0 = rng.uniform(-1, 1, z0.shape) if filtered else None
        runs.append(SimulationRun(LearningParams(gamma, 0.5), z0, t_end,
                                  block if filtered else None, xi0))
    got = simulate_batch(game, runs, dt=dt, record_every=record_every)
    for run, trajs in zip(runs, got):
        state = run.z0 if run.block is None else np.concatenate([run.z0, run.xi0], axis=-1)
        expect = _row_major_rk4(
            lambda s, r=run: _row_major_field(game, r.params, r.block, s), state, dt,
            round(run.t_end / dt), record_every)
        if isinstance(trajs, Trajectory):
            trajs, expect = [trajs], [expect]
        for traj, states in zip(trajs, expect):
            assert traj.times[-1] == pytest.approx(run.t_end)
            assert traj.states.tobytes() == states[:, :n].tobytes()
            if run.block is not None:
                assert traj.filter_state.tobytes() == states[:, n:].tobytes()
    params = LearningParams(1.0, 0.5)
    z0 = rng.uniform(-1, 1, (3, n))
    for row, traj in zip(z0, run_discrete(game, params, z0, 0.3, 40, 3)):
        z, states = row, [row]
        for k in range(40):
            z = z + 0.3 * _row_major_field(game, params, None, z)
            if (k + 1) % 3 == 0 or k + 1 == 40:
                states.append(z)
        assert traj.states.tobytes() == np.stack(states).tobytes()
    m = np.array([[-0.25, -1.0], [1.0, -0.5]])
    batch = rng.uniform(-1, 1, (3, 2))
    trajs = integrate(lambda s: s @ m.T, batch, 0.1, 3.0, 4)
    for row, traj in zip(batch, trajs):
        _assert_same_trajectories([traj], [integrate(lambda s: s @ m.T, row, 0.1, 3.0, 4)])


@pytest.mark.parametrize("n", [2, 3, 6, 9])
def test_stacked_spectra_and_solves_are_separate_calls(n):
    """classify takes every tangent spectrum in one e^T @ stack @ e and one
    eigvalsh, and verify_feedback_block solves its whole frequency grid in
    one complex solve against a broadcast right-hand side and one eigvalsh
    of the Hermitian parts.  LAPACK and BLAS must give every item of each
    stacked call the bits of the same call on that item alone."""
    rng = np.random.default_rng(n)
    k = 7
    e_mat = np.linalg.qr(rng.standard_normal((n, n - 1)))[0]
    mats = rng.standard_normal((k, n, n))
    syms = mats + mats.transpose(0, 2, 1)
    compressed = e_mat.T @ syms @ e_mat
    for i in range(k):
        assert np.array_equal(compressed[i], e_mat.T @ syms[i] @ e_mat)
    pencils = 1j * rng.uniform(0.1, 10.0, k)[:, None, None] * np.eye(n) - mats
    rhs = rng.standard_normal((n, n))
    solved = np.linalg.solve(pencils, rhs[None])  # a stack of one: numpy 1.x reads 2-D b as vectors
    herms = solved + solved.conj().transpose(0, 2, 1)
    for stack in (compressed, syms, herms):
        spectra = np.linalg.eigvalsh(stack)
        for i in range(k):
            assert np.array_equal(spectra[i], np.linalg.eigvalsh(stack[i]))
    for i in range(k):
        assert np.array_equal(solved[i], np.linalg.solve(pencils[i], rhs))


@pytest.mark.parametrize("batch", [1, 5])
@pytest.mark.parametrize("horizons", [(150.0, 120.0), (150.0, 450.0)])
@pytest.mark.parametrize("game_key", list(BATCH_GAMES))
def test_simulate_batch_equals_separate_runs(game_key, horizons, batch):
    """Every run of a mixed batch (both schemes, gamma 1 and 4, two
    horizons, a full filter started off rest) records bit for bit what a
    separate call records for it, at one row per run and at five.  Runs of
    one scheme and horizon sit next to each other in the batch."""
    game = BATCH_GAMES[game_key]()
    n = game.total_actions
    block = coupled_block(n, 3)
    rng = np.random.default_rng(batch)
    dt, record_every = 0.5, 7
    runs = []
    for filtered, gamma, t_end in [(False, 1.0, horizons[0]), (False, 4.0, horizons[0]),
                                   (True, 1.0, horizons[0]), (True, 4.0, horizons[0]),
                                   (False, 1.0, horizons[1]), (True, 4.0, horizons[1])]:
        z0 = rng.uniform(-1, 1, (batch, n) if batch > 1 else n)
        xi0 = rng.uniform(-1, 1, z0.shape) if filtered and gamma > 1 else None
        runs.append(SimulationRun(LearningParams(gamma, 1.0), z0, t_end,
                                  block if filtered else None, xi0))
    got = simulate_batch(game, runs, dt=dt, record_every=record_every)
    assert len(got) == len(runs)
    for run, trajs in zip(runs, got):
        if run.block is None:
            expect = simulate_first_order(game, run.params, run.z0, dt=dt,
                                          t_end=run.t_end, record_every=record_every)
        else:
            expect = simulate_higher_order(game, run.params, block, run.z0, run.xi0,
                                           dt=dt, t_end=run.t_end,
                                           record_every=record_every)
        if batch == 1:
            assert isinstance(trajs, Trajectory)
            trajs, expect = [trajs], [expect]
        assert trajs[0].times[-1] == pytest.approx(run.t_end)
        _assert_same_trajectories(trajs, expect)


def test_feedback_blocks_compare_by_value():
    """Blocks built alike are equal, which simulate_batch relies on; the
    generated dataclass equality raised ValueError on their arrays."""
    block = FeedbackBlock.high_pass(1.0, 1.0, (3,))
    assert block == FeedbackBlock.high_pass(1.0, 1.0, (3,))
    assert block != FeedbackBlock.high_pass(2.0, 1.0, (3,))
    assert block != FeedbackBlock.high_pass(1.0, 1.0, (2,))
    assert block != "high-pass"


def test_simulate_batch_refuses_what_rows_cannot_share():
    game = preset("rps", {"l": 5.0})
    z0 = seeded_initial_scores(3, 0)
    one = LearningParams(1.0, 1.0)
    block = FeedbackBlock.high_pass(1.0, 1.0, (3,))
    with pytest.raises(DomainError, match="share eps"):
        simulate_batch(game, [SimulationRun(one, z0, 1.0),
                              SimulationRun(LearningParams(1.0, 0.5), z0, 1.0)], dt=0.1)
    with pytest.raises(DomainError, match="share one feedback block"):
        simulate_batch(game, [SimulationRun(one, z0, 1.0, block),
                              SimulationRun(one, z0, 1.0,
                                            FeedbackBlock.high_pass(2.0, 1.0, (3,)))],
                       dt=0.1)
    for runs, message in [
            ([], "needs at least one run"),
            ([SimulationRun(one, z0, 1.0, xi0=np.zeros(3))], "xi0 needs a filtered run"),
            ([SimulationRun(one, z0, 1.0, block, xi0=np.zeros(2))], "xi0 must match"),
            ([SimulationRun(one, np.zeros((1, 2, 3)), 1.0)], "z0 must be a vector"),
            ([SimulationRun(one, np.zeros((0, 3)), 1.0)], "at least one initial score row")]:
        with pytest.raises(DomainError, match=message):
            simulate_batch(game, runs, dt=0.1)
    # an equal block built twice is the same filter
    same = simulate_batch(game, [SimulationRun(one, z0, 1.0, block),
                                 SimulationRun(one, z0, 1.0,
                                               FeedbackBlock.high_pass(1.0, 1.0, (3,)))],
                          dt=0.1)
    _assert_same_trajectories([same[0]], [same[1]])


def test_states_of_three_axes_are_refused():
    game = preset("rps", {"l": 2.0})
    z0 = np.zeros((2, 2, 3))
    with pytest.raises(DomainError, match="state0 must be a vector or a batch"):
        integrate(lambda s: -s, z0, dt=0.1, t_end=1.0)
    with pytest.raises(DomainError, match="z0 must be a vector or a batch"):
        run_discrete(game, LearningParams(), z0, 0.1, 5)


def test_integrate_row_horizons():
    """Rows leave the batch after their own final sample and record what a
    run to their horizon records; horizons must come longest first."""
    state0 = np.array([[1.0, 0.5], [2.0, -1.0], [0.3, 0.2]])
    trajs = integrate(lambda s: -s, state0, dt=0.1, t_end=1.0, record_every=3,
                      row_t_end=[1.0, 0.5, 0.5])
    for row, t_end, traj in zip(state0, [1.0, 0.5, 0.5], trajs):
        alone = integrate(lambda s: -s, row, dt=0.1, t_end=t_end, record_every=3)
        _assert_same_trajectories([traj], [alone])
    np.testing.assert_allclose(trajs[1].times, [0.0, 0.3, 0.5], atol=1e-12)
    for bad in ([0.5, 1.0, 0.5], [0.5, 0.5, 0.5], [1.0, 0.5]):
        with pytest.raises(DomainError, match="longest first"):
            integrate(lambda s: -s, state0, dt=0.1, t_end=1.0, row_t_end=bad)


def _plain_rk4(field, state, dt, n_steps, record_every):
    samples = [state]
    for k in range(n_steps):
        k1 = field(state)
        k2 = field(state + 0.5 * dt * k1)
        k3 = field(state + 0.5 * dt * k2)
        k4 = field(state + dt * k3)
        state = state + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (k + 1) % record_every == 0:
            samples.append(state)
    return np.stack(samples)


def test_integrate_stops_at_an_exact_fixed_point():
    """Once a recorded step returns the previous state bit for bit, the rest
    of the samples repeat it and the field is called no more; every sample
    still equals a plain RK4 loop to the horizon.  A rotation never repeats
    its state and runs every step."""
    calls = []

    def counted(field):
        return lambda state: calls.append(None) or field(state)

    game = preset("rps", {"l": 5.0})
    params = LearningParams(1.0, 1.0)
    field = lambda z: first_order_field(z, game, params)  # noqa: E731
    z0 = seeded_initial_scores(3, 0)
    traj = integrate(counted(field), z0, dt=0.1, t_end=500.0, record_every=10)
    assert np.array_equal(traj.states, _plain_rk4(field, z0, 0.1, 5000, 10))
    assert len(calls) < 4 * 5000

    calls.clear()
    omega = np.array([[0.0, -1.0], [1.0, 0.0]])
    rotation = lambda s: s @ omega.T  # noqa: E731
    start = np.array([1.0, 0.0])
    traj = integrate(counted(rotation), start, dt=0.01, t_end=1.0)
    assert len(calls) == 4 * 100
    assert np.array_equal(traj.states, _plain_rk4(rotation, start, 0.01, 100, 1))


def _blow_up(state):
    """s' = s^2 - s: a start below 1 decays to an exact fixed point, one above
    1 overflows in finite time (from 2, at step 4 of dt = 0.5)."""
    return state * state - state


@pytest.mark.parametrize("short_t_end", [1.5, 2.0])
def test_integrate_failed_row_ends_alone(short_t_end):
    """A row whose recorded sample is non-finite fails alone, with the
    message and last good time of a run of that row alone, also when the
    batch samples it at another row's horizon (step 3 or 4, off its own
    grid of 5): the other row keeps its samples, and the loop stops once
    every row still in the batch is at an exact fixed point or has failed."""
    calls = []

    def counted(state):
        calls.append(None)
        return _blow_up(state)

    state0 = np.array([[2.0], [0.5], [0.5]])
    row_t_end = [5000.0, 5000.0, short_t_end]
    trajs = integrate(counted, state0, dt=0.5, t_end=5000.0, record_every=5,
                      row_t_end=row_t_end)
    batch_calls, calls[:] = len(calls), []
    with pytest.raises(IntegrationDivergedError) as alone:
        integrate(_blow_up, state0[0], dt=0.5, t_end=5000.0, record_every=5)
    assert isinstance(trajs[0], IntegrationDivergedError)
    assert str(trajs[0]) == str(alone.value) == "non-finite state at t=2.5"
    assert trajs[0].last_good_time == alone.value.last_good_time == 0.0
    for row in (1, 2):
        expect = integrate(counted if row == 1 else _blow_up, state0[row], dt=0.5,
                           t_end=row_t_end[row], record_every=5)
        _assert_same_trajectories([trajs[row]], [expect])
    assert batch_calls == len(calls) < 4 * 10000


@pytest.mark.parametrize("filtered", [False, True], ids=["first-order", "filtered"])
@pytest.mark.parametrize("doomed", [0, 1])
@pytest.mark.parametrize("game_key", ["rps", "shapley", "jordan_mp"])
def test_simulate_batch_failed_run_ends_alone(game_key, doomed, filtered):
    """Of two one-row runs, the one at gamma = 1e300 overflows: its entry is
    the failure of its run alone, and the other run records what it records
    alone, bit for bit, without a RuntimeWarning."""
    game = preset("rps", {"l": 5.0}) if game_key == "rps" else preset(game_key)
    n = game.total_actions
    block = FeedbackBlock.high_pass(1.0, 1.0, game.action_counts) if filtered else None
    gammas = [1.0, 1.0]
    gammas[doomed] = 1e300
    runs = [SimulationRun(LearningParams(gamma, 1.0), seeded_initial_scores(n, seed),
                          20.0, block) for seed, gamma in enumerate(gammas)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = simulate_batch(game, runs, dt=0.05, record_every=10)
        alone = [simulate_batch(game, [run], dt=0.05, record_every=10)[0] for run in runs]
        with pytest.raises(IntegrationDivergedError) as raised:
            if filtered:
                simulate_higher_order(game, runs[doomed].params, block, runs[doomed].z0,
                                      dt=0.05, t_end=20.0, record_every=10)
            else:
                simulate_first_order(game, runs[doomed].params, runs[doomed].z0,
                                     dt=0.05, t_end=20.0, record_every=10)
    assert isinstance(got[doomed], IntegrationDivergedError)
    assert str(got[doomed]) == str(alone[doomed]) == str(raised.value)
    assert got[doomed].last_good_time == alone[doomed].last_good_time
    assert got[doomed].last_good_time == raised.value.last_good_time == 0.0
    _assert_same_trajectories([got[1 - doomed]], [alone[1 - doomed]])


@pytest.mark.parametrize("game_key", ["rps", "shapley"])
def test_run_discrete_failed_row_ends_alone(game_key):
    """A discrete batch row that overflows is that row's failure, with the
    integer k of its last good sample, and the other rows record what a
    batch of them alone records, bit for bit, without a RuntimeWarning."""
    game = preset("rps", {"l": 5.0}) if game_key == "rps" else preset(game_key)
    params = LearningParams(gamma=3.0, eps=1.0)
    z0 = np.array([seeded_initial_scores(game.total_actions, seed) for seed in range(3)])
    z0[0] = 1e307
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = run_discrete(game, params, z0, 1.0, 100, record_every=10)
        alone = run_discrete(game, params, z0[1:], 1.0, 100, record_every=10)
    assert isinstance(got[0], IntegrationDivergedError)
    assert str(got[0]) == "non-finite scores at k=10"
    assert got[0].last_good_time == 0 and type(got[0].last_good_time) is int
    _assert_same_trajectories(got[1:], alone)


@pytest.mark.parametrize("game_key", ["rps", "two_player_rps", "shapley", "jordan_mp"])
def test_run_discrete_rows_equal_their_1d_runs(game_key):
    """Each row of a run_discrete batch is a one-row group of the field, so
    it records its 1-D run bit for bit; one gemm product over the rows
    rounds the rps and two_player_rps rows differently.  An empty batch
    gives an empty list."""
    game = preset(game_key, {"l": 5.0} if game_key.endswith("rps") else {})
    params = LearningParams(gamma=1.0, eps=1.0)
    z0 = np.array([seeded_initial_scores(game.total_actions, seed) for seed in range(3)])
    got = run_discrete(game, params, z0, 0.1, 800, record_every=10)
    alone = [run_discrete(game, params, row, 0.1, 800, record_every=10) for row in z0]
    _assert_same_trajectories(got, alone)
    assert run_discrete(game, params, z0[:0], 0.1, 800, record_every=10) == []


# ---------------------------------------- check-free kernel, buffered RK4

@pytest.mark.parametrize("record_every", [2.5, np.nan, "5", True, np.True_])
def test_non_integral_record_every_is_refused(record_every):
    """record_every is refused unless it is a whole number, not truncated
    (the ODE schemes) or compared with % (the discrete and stochastic
    schemes); a string (a TypeError) and a boolean (read as 1) are refused
    too."""
    game = preset("rps", {"l": 2.0})
    params = LearningParams()
    z0 = np.zeros(3)
    calls = [
        lambda: integrate(lambda s: -s, np.ones(2), dt=0.1, t_end=1.0,
                          record_every=record_every),
        lambda: simulate_first_order(game, params, z0, dt=0.1, t_end=1.0,
                                     record_every=record_every),
        lambda: simulate_batch(game, [SimulationRun(params, z0, 1.0)], dt=0.1,
                               record_every=record_every),
        lambda: run_discrete(game, params, z0, 0.1, 12, record_every=record_every),
        lambda: run_stochastic(game, params, z0, 12, rng=0, record_every=record_every),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="record_every"):
            call()


@pytest.mark.parametrize("game_key", ["rps", "tensor232"])
def test_bound_field_returns_fresh_arrays(game_key):
    """A bound field keeps scratch per state shape, yet what it returned
    stays unchanged by later calls, at the same height and at a smaller one
    once rows have left, and it never writes into its input.  Each result
    equals that of a field bound afresh for the call."""
    game = BATCH_GAMES[game_key]()
    n = game.total_actions
    block = coupled_block(n, 3)
    rng = np.random.default_rng(5)
    binds = [
        (block, [(2, True, 4.0), (1, True, 1.0), (2, False, 1.0)], [(5,), (5,), (3,), (2,)]),
        (None, [(3, False, 4.0), (1, False, 1.0)], [(4,), (3,), (4,)]),
        (None, [(1, False, 1.0), (3, False, 1.0)], [(), (4,), ()]),
        (block, [(1, True, 1.0), (3, True, 1.0), (2, True, 1.0)], [(4,), (), (2, 3)]),
    ]
    for bound_block, groups, leads in binds:
        d = n if bound_block is None else 2 * n
        field = _Field(game, 0.5, bound_block, groups)
        states = [rng.uniform(-2, 2, lead + (d,)) for lead in leads]
        inputs = [s.copy() for s in states]
        results = [_at(field, s) for s in states]
        copies = [r.copy() for r in results]
        results.append(_at(field, states[0]))
        for state, before in zip(states, inputs):
            assert np.array_equal(state, before)
        for result, copy in zip(results, copies):
            assert np.array_equal(result, copy)
        for state, result in zip(states, results):
            fresh = _at(_Field(game, 0.5, bound_block, groups), state)
            assert result.shape == fresh.shape
            assert np.array_equal(result, fresh)
        assert np.array_equal(results[-1], results[0])
        assert results[-1] is not results[0]


@pytest.mark.parametrize("game_key", list(BATCH_GAMES))
def test_bound_evaluation_is_the_field(game_key):
    """bind(state, out) fixes the views and the scratch once: every call of
    the evaluation writes into out, bit for bit, what a bind on a copy of
    whatever state holds then returns, also after binding again at a
    smaller height once rows have left.  It never writes into state, and
    the filter derivative of first-order rows stays exactly 0.0.
    integrate gives the same samples over a plain callable wrapping the
    field as over the bound field."""
    game = BATCH_GAMES[game_key]()
    n = game.total_actions
    block = coupled_block(n, 3)
    groups = [(2, True, 4.0), (1, True, 1.0), (2, False, 1.0), (1, False, 4.0)]
    first_order = np.array([False] * 3 + [True] * 3)
    field = _Field(game, 0.5, block, groups)
    rng = np.random.default_rng(11)
    for height in (6, 5, 3):
        # bind takes coordinate-major (d, rows) buffers
        state = np.empty((2 * n, height))
        out = np.full(state.shape, np.nan)
        evaluate = field.bind(state, out)
        for _ in range(3):
            rows = rng.uniform(-2, 2, (height, 2 * n))
            rows[first_order[:height], n:] = 0.0
            state[...] = rows.T
            before = state.tobytes()
            evaluate()
            assert state.tobytes() == before
            assert out.T.tobytes() == _at(field, rows).tobytes()
            assert not out[n:, first_order[:height]].view(np.uint64).any()
    state0 = rng.uniform(-1, 1, (6, 2 * n))
    state0[first_order, n:] = 0.0
    row_t_end = [6.0, 6.0, 6.0, 4.0, 4.0, 2.0]
    bound = integrate(field, state0, 0.25, 6.0, 3, row_t_end=row_t_end)
    plain = integrate(lambda s: _at(field, s), state0, 0.25, 6.0, 3, row_t_end=row_t_end)
    for a, b in zip(bound, plain):
        assert a.times.tobytes() == b.times.tobytes()
        assert a.states.tobytes() == b.states.tobytes()


@pytest.mark.parametrize("game_key", list(BATCH_GAMES))
def test_buffered_rk4_is_the_plain_expression(game_key):
    """Every run of a mixed first-order/filtered batch (gamma 1 and 4, eps
    0.5, three horizons) records, bit for bit, a test-local RK4 loop of the
    plain expression s + dt/6 (k1 + 2 k2 + 2 k3 + k4) over the public field
    of that run alone."""
    game = BATCH_GAMES[game_key]()
    n = game.total_actions
    block = coupled_block(n, 3)
    rng = np.random.default_rng(7)
    dt, record_every = 0.25, 3
    runs = []
    for filtered, gamma, t_end, rows in [(False, 1.0, 20.0, 1), (True, 4.0, 20.0, 3),
                                         (False, 4.0, 12.0, 2), (True, 1.0, 12.0, 1),
                                         (True, 4.0, 6.0, 2)]:
        z0 = rng.uniform(-1, 1, (rows, n) if rows > 1 else n)
        xi0 = rng.uniform(-1, 1, z0.shape) if filtered else None
        runs.append(SimulationRun(LearningParams(gamma, 0.5), z0, t_end,
                                  block if filtered else None, xi0))
    got = simulate_batch(game, runs, dt=dt, record_every=record_every)
    for run, trajs in zip(runs, got):
        if run.block is None:
            state = run.z0
            field = lambda s, p=run.params: first_order_field(s, game, p)  # noqa: E731
        else:
            state = np.concatenate([run.z0, run.xi0], axis=-1)
            field = lambda s, p=run.params: higher_order_field(s, game, p, block)  # noqa: E731
        steps = round(run.t_end / dt)
        samples = [state]
        for k in range(steps):
            k1 = field(state)
            k2 = field(state + 0.5 * dt * k1)
            k3 = field(state + 0.5 * dt * k2)
            k4 = field(state + dt * k3)
            state = state + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if (k + 1) % record_every == 0 or k + 1 == steps:
                samples.append(state)
        expect = np.stack(samples, axis=-2)
        if isinstance(trajs, Trajectory):
            trajs, expect = [trajs], [expect]
        for traj, states in zip(trajs, expect):
            assert traj.times[-1] == pytest.approx(run.t_end)
            assert np.array_equal(traj.states, states[:, :n])
            if run.block is None:
                assert traj.filter_state is None
            else:
                assert np.array_equal(traj.filter_state, states[:, n:])


@pytest.mark.parametrize("dt", [8.0, 15.0])
def test_mid_step_overflow_keeps_the_last_good_sample(dt):
    """The kernel does not check its input: an overflow inside a step
    carries NaN to the next recorded sample, and the divergence names the
    sample before the first step whose stages a checking field refuses."""
    game = preset("rps", {"l": 8.0})
    params = LearningParams(1.0, 1.0)
    z0 = seeded_initial_scores(3, 0)
    record_every = 3
    state = z0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, 2001):
            try:
                k1 = first_order_field(state, game, params)
                k2 = first_order_field(state + 0.5 * dt * k1, game, params)
                k3 = first_order_field(state + 0.5 * dt * k2, game, params)
                k4 = first_order_field(state + dt * k3, game, params)
            except DomainError:
                break
            state = state + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    assert 3 < k < 2000
    with pytest.raises(IntegrationDivergedError) as err:
        simulate_first_order(game, params, z0, dt=dt, t_end=2000 * dt,
                             record_every=record_every)
    assert err.value.last_good_time == (k - 1) // record_every * record_every * dt


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_public_boundaries_refuse_non_finite_scores(value):
    """With the check out of the kernel, each public entry point still
    refuses non-finite scores itself."""
    game = preset("rps", {"l": 2.0})
    params = LearningParams()
    block = FeedbackBlock.high_pass(1.0, 1.0, (3,))
    z = np.array([0.0, value, 0.0])
    calls = [
        lambda: softmax(z, 1.0, (3,)),
        lambda: first_order_field(z, game, params),
        lambda: higher_order_field(np.concatenate([z, np.zeros(3)]), game, params, block),
        lambda: higher_order_field(np.concatenate([np.zeros(3), z]), game, params, block),
        lambda: run_discrete(game, params, z, 0.1, 5),
        lambda: run_stochastic(game, params, z, 5, rng=0),
        lambda: rest_point(game, 1.0, z0=z),
        # a non-finite start is refused, not reported as a divergence
        lambda: simulate_first_order(game, params, z, dt=0.1, t_end=1.0),
        lambda: simulate_higher_order(game, params, block, z, dt=0.1, t_end=1.0),
        lambda: simulate_higher_order(game, params, block, np.zeros(3), xi0=z,
                                      dt=0.1, t_end=1.0),
        lambda: simulate_batch(game, [SimulationRun(params, np.stack([np.zeros(3), z]), 1.0)],
                               dt=0.1),
        lambda: integrate(lambda s: -s, z, 0.1, 1.0),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="non-finite entries in score input"):
            call()
