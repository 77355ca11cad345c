"""Tests for the discrete-time update and the stochastic approximation."""

import csv

import numpy as np
import pytest

from gamedyn import (DomainError, LearningParams, Trajectory,
                     expected_payoff_vector, game_from_dict, harmonic_schedule,
                     payoff_estimate, preset, run_discrete, run_stochastic,
                     softmax, write_trajectory_csv)
from gamedyn.dynamics import _UNIFORM_BLOCK, write_stochastic_csv


def test_payoff_estimate_matching_action_columns(rng):
    game = preset("rps", {"l": 2.5})
    x = np.array([0.2, 0.3, 0.5])
    _, acts, _ = payoff_estimate(game, x, rng, size=4000)
    # matching games draw own and opponent actions from the same population
    assert acts.shape == (4000, 2)
    assert acts.min() >= 0 and acts.max() <= 2
    for col in range(2):
        freqs = np.bincount(acts[:, col], minlength=3) / 4000.0
        np.testing.assert_allclose(freqs, x, atol=0.03)


def test_payoff_estimate_per_player_action_marginals(rng):
    game = preset("jordan_mp")
    x = np.array([0.3, 0.7, 0.6, 0.4, 0.5, 0.5])
    _, acts, _ = payoff_estimate(game, x, rng, size=6000)
    assert acts.shape == (6000, 3)
    for p, sl in enumerate(game.block_slices):
        freqs = np.bincount(acts[:, p], minlength=2) / 6000.0
        np.testing.assert_allclose(freqs, x[sl], atol=0.03)


def test_payoff_estimate_single_draw(rng):
    game = preset("two_player_rps", {"l": 5.0})
    _, acts, _ = payoff_estimate(game, np.full(6, 1 / 3), rng)
    assert acts.shape == (2,)


@pytest.mark.parametrize("mode", ["full-info", "bandit"])
def test_payoff_estimate_unbiased_matching(mode, rng):
    game = preset("rps", {"l": 2.5})
    x = np.array([0.2, 0.5, 0.3])
    u = expected_payoff_vector(game, x)
    u_hat, _, _ = payoff_estimate(game, x, rng, mode=mode, size=200_000)
    se = u_hat.std(axis=0, ddof=1) / np.sqrt(u_hat.shape[0])
    assert np.all(np.abs(u_hat.mean(axis=0) - u) <= 4.0 * se + 1e-12)


@pytest.mark.parametrize("mode", ["full-info", "bandit"])
def test_payoff_estimate_unbiased_three_player(mode, rng):
    game = preset("jordan_mp")
    x = np.array([0.3, 0.7, 0.6, 0.4, 0.45, 0.55])
    u = expected_payoff_vector(game, x)
    u_hat, _, _ = payoff_estimate(game, x, rng, mode=mode, size=200_000)
    se = u_hat.std(axis=0, ddof=1) / np.sqrt(u_hat.shape[0])
    assert np.all(np.abs(u_hat.mean(axis=0) - u) <= 4.0 * se + 1e-12)


def test_payoff_estimate_bandit_support(rng):
    game = preset("two_player_rps", {"l": 5.0})
    x = np.full(6, 1 / 3)
    u_hat, acts, realized = payoff_estimate(game, x, rng, mode="bandit",
                                            size=64)
    for p, sl in enumerate(game.block_slices):
        block = u_hat[:, sl]
        mask = np.zeros_like(block, dtype=bool)
        mask[np.arange(64), acts[:, p]] = True
        # only the realized action carries weight in the bandit estimate
        assert np.all(block[~mask] == 0.0)
        np.testing.assert_allclose(block[mask], realized[:, p] / x[sl][acts[:, p]])


def test_payoff_estimate_full_info_columns(rng):
    game = preset("rps", {"l": 1.0})
    x = np.array([0.25, 0.45, 0.3])
    a_mat = game.payoff_tensors[0]
    u_hat, acts, realized = payoff_estimate(game, x, rng, size=32)
    # full information reveals the whole payoff column of the opponent draw
    np.testing.assert_allclose(u_hat, a_mat[:, acts[:, 1]].T)
    np.testing.assert_allclose(realized[:, 0], a_mat[acts[:, 0], acts[:, 1]])


def test_payoff_estimate_rejects_unknown_mode(rng):
    game = preset("matching_pennies")
    with pytest.raises(DomainError):
        payoff_estimate(game, np.full(4, 0.5), rng, mode="oracle")
    # the estimator is bound before the first step, so even no step checks it
    with pytest.raises(DomainError, match="unknown estimator mode"):
        run_stochastic(game, LearningParams(), np.zeros(4), steps=0, rng=rng, mode="oracle")


@pytest.mark.parametrize("name, length", [("rps", 2), ("rps", 4), ("shapley", 5)])
def test_sampler_rejects_profile_of_wrong_length(name, length, rng):
    game = preset(name, {"l": 2.0} if name == "rps" else None)
    x = np.full(length, 1.0 / length)
    with pytest.raises(DomainError, match=f"profile has length {length}"):
        payoff_estimate(game, x, rng, size=3)
    with pytest.raises(DomainError, match=f"profile has length {length}"):
        payoff_estimate(game, x, rng)


DISTRIBUTION = "profile must be finite and non-negative"


@pytest.mark.parametrize("mode", ["full-info", "bandit"])
@pytest.mark.parametrize("name, x, message", [
    ("rps", [np.nan, 0.5, 0.5], DISTRIBUTION), ("rps", [2.0, -1.0, 0.0], DISTRIBUTION),
    ("rps", [0.1, 0.1, 0.1], DISTRIBUTION),
    ("jordan_mp", [0.7, 0.7, 0.3, 0.3, 0.5, 0.5], DISTRIBUTION),
    ("rps", [[1 / 3, 1 / 3, 1 / 3]], r"profile has shape \(1, 3\), expected \(3,\)"),
    ("jordan_mp", [[0.5] * 6], r"profile has shape \(1, 6\), expected \(6,\)"),
], ids=["nan", "negative", "sum-0.3", "block-sums-1.4-0.6", "rps-row-1x3", "jordan_mp-row-1x6"])
def test_payoff_estimate_refuses_a_profile_that_is_not_a_distribution(name, x, message,
                                                                      mode, rng):
    """A profile must be finite and non-negative with each block summing to
    1; the fourth sums to 3 over three blocks, but not per block.  It must
    also be one vector: a (1, n) row ran in full-info mode, raised numpy's
    IndexError in bandit mode, and a jordan_mp row failed the block sums,
    which sliced its first axis."""
    game = preset(name, {"l": 2.0} if name == "rps" else None)
    for size in (None, 3):
        with pytest.raises(DomainError, match=message):
            payoff_estimate(game, np.array(x), rng, mode, size)


@pytest.mark.parametrize("size", [2.5, -1, -0.5, True, np.True_, "3"])
def test_payoff_estimate_refuses_a_size_that_is_not_whole(size, rng):
    game = preset("jordan_mp")
    with pytest.raises(DomainError, match="size must be"):
        payoff_estimate(game, np.full(6, 0.5), rng, size=size)


@pytest.mark.parametrize("mode", ["full-info", "bandit"])
def test_payoff_estimate_of_no_draws_is_empty(mode, rng):
    game = preset("jordan_mp")
    u_hat, acts, realized = payoff_estimate(game, np.full(6, 0.5), rng, mode, size=0)
    assert (u_hat.shape, acts.shape, realized.shape) == ((0, 6), (0, 3), (0, 3))


def test_run_discrete_zero_alpha_keeps_z0():
    game = preset("rps", {"l": 1.0})
    params = LearningParams(eps=1.0, gamma=1.0)
    z = np.array([0.3, -0.1, 0.2])
    rec = run_discrete(game, params, z, 0.0, steps=5)
    np.testing.assert_array_equal(rec.states, np.tile(z, (6, 1)))
    np.testing.assert_allclose(rec.strategies[-1], softmax(z, 1.0, game.action_counts))


@pytest.mark.parametrize("alpha", [-0.1, 1.2])
def test_step_size_bounds(alpha):
    game = preset("rps", {"l": 1.0})
    params = LearningParams(eps=1.0, gamma=1.0)
    with pytest.raises(DomainError, match="step size must lie in"):
        run_discrete(game, params, np.zeros(3), alpha, steps=5)


def test_harmonic_schedule_values():
    assert harmonic_schedule(0) == 1.0
    assert harmonic_schedule(3) == 0.25


@pytest.mark.parametrize("scheme", ["discrete", "stochastic"])
@pytest.mark.parametrize("record_every", [0, -1])
def test_record_every_must_be_positive(scheme, record_every):
    game = preset("rps", {"l": 2.0})
    params = LearningParams(eps=1.0, gamma=1.0)
    with pytest.raises(DomainError):
        if scheme == "discrete":
            run_discrete(game, params, np.zeros(3), alpha=0.1, steps=5,
                         record_every=record_every)
        else:
            run_stochastic(game, params, np.zeros(3), steps=5, rng=0,
                           record_every=record_every)


@pytest.mark.parametrize("scheme", ["discrete", "stochastic"])
def test_negative_steps_rejected(scheme):
    """Negative and non-integral step counts are refused, not truncated."""
    game = preset("rps", {"l": 2.0})
    params = LearningParams(eps=1.0, gamma=1.0)
    for steps in (-3, 2.5, 2.7, np.nan):
        with pytest.raises(DomainError, match="steps"):
            if scheme == "discrete":
                run_discrete(game, params, np.zeros(3), alpha=0.1, steps=steps)
            else:
                run_stochastic(game, params, np.zeros(3), steps=steps, rng=0)


@pytest.mark.parametrize("scheme", ["discrete", "stochastic"])
def test_zero_steps_returns_initial_sample(scheme):
    game = preset("rps", {"l": 2.0})
    params = LearningParams(eps=1.0, gamma=1.0)
    z0 = np.array([0.3, -0.2, 0.1])
    if scheme == "discrete":
        traj = run_discrete(game, params, z0, alpha=0.1, steps=0)
    else:
        traj = run_stochastic(game, params, z0, steps=0, rng=0)
    assert list(traj.times) == [0]
    np.testing.assert_array_equal(traj.states, [z0])


def test_run_discrete_settles_matching_pennies():
    game = preset("matching_pennies")
    params = LearningParams(eps=1.0, gamma=1.0)
    traj = run_discrete(game, params, np.array([0.8, -0.4, 0.3, -0.6]),
                        alpha=0.2, steps=400, record_every=50)
    ks, zs, xs = traj.times, traj.states, traj.strategies
    assert ks[0] == 0 and ks[-1] == 400
    assert zs.shape == (len(ks), 4) and xs.shape == zs.shape
    # the unique rest point of matching pennies is the uniform profile
    np.testing.assert_allclose(zs[-1], np.zeros(4), atol=1e-9)
    np.testing.assert_allclose(xs[-1], np.full(4, 0.5), atol=1e-9)


def _assert_no_draw(rec):
    """The initial sample of a stochastic run has no realized draw."""
    assert np.all(rec.actions[0] == -1) and np.all(np.isnan(rec.payoffs[0]))


def test_run_stochastic_deterministic_per_seed():
    game = preset("rps", {"l": 2.5})
    params = LearningParams(eps=1.0, gamma=1.0)
    z0 = np.array([0.1, -0.2, 0.05])
    rec_a = run_stochastic(game, params, z0, steps=50, rng=7)
    rec_b = run_stochastic(game, params, z0, steps=50, rng=7)
    rec_c = run_stochastic(game, params, z0, steps=50, rng=8)
    np.testing.assert_array_equal(rec_a.states, rec_b.states)
    assert not np.array_equal(rec_a.states, rec_c.states)
    assert rec_a.times[0] == 0 and rec_a.times[-1] == 50
    _assert_no_draw(rec_a)
    assert rec_a.strategies.shape == rec_a.states.shape


def _assert_identical(got, want):
    assert got.dtype == want.dtype and np.array_equal(got, want)


# One game per shape of the sampler's zero-padded table: a matching game
# (rps, one row for both draws), equal-sized blocks (shapley, jordan_mp) and
# unequal blocks, whose padding takes part in the draw (a 2x3 bimatrix game).
SAMPLER_GAMES = {
    "rps": lambda: preset("rps", {"l": 2.5}),
    "shapley": lambda: preset("shapley"),
    "jordan_mp": lambda: preset("jordan_mp"),
    "bimatrix23": lambda: game_from_dict({
        "players": 2, "action_counts": [2, 3],
        "payoffs": [[3.0, -1.0, 0.5, 1.0, 2.0, -2.0],
                    [-1.0, 2.0, 1.5, 0.0, -3.0, 2.0]]}),
}


@pytest.mark.parametrize("mode", ["full-info", "bandit"])
@pytest.mark.parametrize("name", list(SAMPLER_GAMES))
def test_run_stochastic_matches_stochastic_step_loop(name, mode):
    """run_stochastic takes its uniforms _UNIFORM_BLOCK steps at a time.  A
    run two blocks and three steps long equals a loop of stochastic steps
    written out on the unbound sampler bit for bit, actions and payoffs with
    their dtypes included, and leaves the caller's generator in the loop's
    final state."""
    game = SAMPLER_GAMES[name]()
    params = LearningParams(eps=0.7, gamma=1.5)
    z0 = np.random.default_rng(1).uniform(-1, 1, game.total_actions)
    steps, record_every = 2 * _UNIFORM_BLOCK + 3, 7
    rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
    rec = run_stochastic(game, params, z0, steps=steps, rng=rng, mode=mode,
                         record_every=record_every)
    ks, zs, xs, events = _reference_samples(game, params, z0, steps, record_every,
                                            _stochastic_recursion(game, params, ref_rng, mode))
    np.testing.assert_array_equal(rec.times, ks)
    np.testing.assert_array_equal(rec.states, zs)
    np.testing.assert_array_equal(rec.strategies, xs)
    _assert_no_draw(rec)
    assert len(rec.actions) == len(rec.payoffs) == len(events)
    for got_acts, got_pays, (acts, pays) in zip(rec.actions[1:], rec.payoffs[1:], events[1:]):
        _assert_identical(got_acts, acts)
        _assert_identical(got_pays, pays)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_run_stochastic_checks_scores():
    game = preset("rps", {"l": 2.5})
    params = LearningParams(eps=1.0, gamma=1.0)
    with pytest.raises(DomainError, match="score vector has length 4"):
        run_stochastic(game, params, np.zeros(4), steps=5, rng=0)
    # the scores are checked before the mode
    with pytest.raises(DomainError, match="score vector has length 4"):
        run_stochastic(game, params, np.zeros(4), steps=5, rng=0, mode="semi")
    # a batch of score vectors is refused, not run into an IndexError
    with pytest.raises(DomainError, match="single score vector"):
        run_stochastic(game, params, np.zeros((2, 3)), steps=5, rng=0)


def test_run_stochastic_tracks_simplex():
    game = preset("jordan_mp")
    params = LearningParams(eps=0.5, gamma=1.0)
    rec = run_stochastic(game, params, np.zeros(6), steps=200, rng=3,
                         record_every=20)
    sums = np.add.reduceat(rec.strategies, [0, 2, 4], axis=1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)


def test_write_stochastic_csv_layout(tmp_path):
    """The stochastic layout, written by the one writer and, with the same
    bytes, by the write_stochastic_csv shim that gamedyn.dynamics keeps."""
    game = preset("rps", {"l": 1.0})
    params = LearningParams(eps=1.0, gamma=1.0)
    rec = run_stochastic(game, params, np.zeros(3), steps=10, rng=0,
                         record_every=5)
    path = tmp_path / "stoch.csv"
    write_trajectory_csv(path, rec, game.action_counts)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    assert header == (["k"] + [f"z_{i}" for i in range(1, 4)]
                      + [f"x_{i}" for i in range(1, 4)]
                      + ["action_own", "action_opp", "payoff"])
    assert len(rows) == 1 + len(rec.times)
    # the initial sample has no realized action or payoff
    assert rows[1][7:] == ["", "", ""]
    assert rows[2][7] != ""
    write_stochastic_csv(tmp_path / "shim.csv", rec, game.action_counts)
    assert (tmp_path / "shim.csv").read_bytes() == path.read_bytes()


def _fmt(v):
    return f"{v:.17g}"


def _reference_stochastic_csv(path, record, action_counts, matching=False):
    """The stochastic scheme's own CSV writer before the one writer took
    its place, kept as the reference: record is a dict of ks, z, x and the
    per-sample actions and payoffs, None for the initial sample."""
    counts = tuple(int(c) for c in action_counts)
    n = sum(counts)
    n_cols = 2 if matching else len(counts)
    act_names = (["action_own", "action_opp"] if matching
                 else [f"action_{p + 1}" for p in range(n_cols)])
    pay_names = (["payoff"] if matching
                 else [f"payoff_{p + 1}" for p in range(len(counts))])
    header = (["k"] + [f"z_{i + 1}" for i in range(n)]
              + [f"x_{i + 1}" for i in range(n)] + act_names + pay_names)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, k in enumerate(record["ks"]):
            row = [str(int(k))]
            row += [_fmt(v) for v in record["z"][i]]
            row += [_fmt(v) for v in record["x"][i]]
            acts = record["actions"][i]
            pays = record["payoffs"][i]
            if acts is None:
                row += [""] * (n_cols + len(pay_names))
            else:
                row += [str(int(a)) for a in np.atleast_1d(acts)]
                row += [_fmt(float(p)) for p in np.atleast_1d(pays)[:len(pay_names)]]
            writer.writerow(row)


def _reference_samples(game, params, z0, steps, record_every, step):
    """The recorded samples of a loop over a written-out one-step update:
    step(z, k) returns (Z+, sigma(Z+), *events)."""
    ks = [0]
    zs = [z0]
    xs = [softmax(z0, params.eps, game.action_counts)]
    events = [None]
    z = z0
    for k in range(steps):
        z, x, *drawn = step(z, k)
        if (k + 1) % record_every == 0 or k + 1 == steps:
            ks.append(k + 1)
            zs.append(z)
            xs.append(x)
            events.append(drawn)
    return np.array(ks), np.stack(zs), np.stack(xs), events


@pytest.mark.parametrize("steps", [0, 60])
@pytest.mark.parametrize("name", ["rps", "shapley", "jordan_mp", "two_player_rps"])
def test_one_writer_matches_the_scheme_writers(name, steps, tmp_path):
    """write_trajectory_csv writes the bytes of the stochastic scheme's own
    writer and of the discrete scheme's tuple wrapped as a Trajectory, for
    samples recorded by loops over the written-out one-step updates."""
    game = preset(name, {"l": 5.0 if name == "rps" else 3.0}
                  if "rps" in name else None)
    params = LearningParams(eps=0.7, gamma=1.5)
    z0 = np.random.default_rng(1).uniform(-1, 1, game.total_actions)
    record_every = 7

    for mode in ("full-info", "bandit"):
        rng = np.random.default_rng(9)
        ks, zs, xs, events = _reference_samples(
            game, params, z0, steps, record_every,
            _stochastic_recursion(game, params, rng, mode))
        record = {"ks": ks, "z": zs, "x": xs,
                  "actions": [e and e[0] for e in events],
                  "payoffs": [e and e[1] for e in events]}
        want, got = tmp_path / f"want_{mode}.csv", tmp_path / f"got_{mode}.csv"
        _reference_stochastic_csv(want, record, game.action_counts, matching=game.matching)
        write_trajectory_csv(got, run_stochastic(game, params, z0, steps=steps,
                                                 rng=np.random.default_rng(9), mode=mode,
                                                 record_every=record_every),
                             game.action_counts)
        assert got.read_bytes() == want.read_bytes(), mode

    alpha = 0.3
    ks, zs, xs, _ = _reference_samples(game, params, z0, steps, record_every,
                                       _discrete_recursion(game, params, alpha))
    for ternary in (False, True):
        want, got = tmp_path / f"want_{ternary}.csv", tmp_path / f"got_{ternary}.csv"
        write_trajectory_csv(want, Trajectory(np.asarray(ks, dtype=float), zs, xs),
                             game.action_counts, ternary=ternary)
        write_trajectory_csv(got, run_discrete(game, params, z0, alpha, steps,
                                               record_every=record_every),
                             game.action_counts, ternary=ternary)
        assert got.read_bytes() == want.read_bytes(), ternary


def _reference_estimate(game, x, rng, mode, m):
    """The unbound sampler: one rng.random(m) call per block, inverted by a
    cumsum and searchsorted per block, then the payoffs gathered player by
    player."""
    blocks = [x, x] if game.matching else [x[sl] for sl in game.block_slices]
    cols = []
    for xb in blocks:
        cum = np.cumsum(xb)
        cum[-1] = 1.0
        draws = np.searchsorted(cum, rng.random(m), side="right")
        cols.append(np.minimum(draws, len(xb) - 1))
    acts = np.column_stack(cols)
    u_hat = np.zeros((m, game.total_actions))
    if game.matching:
        a_mat = game.payoff_tensors[0]
        own, opp = acts[:, 0], acts[:, 1]
        realized = a_mat[own, opp][:, None]
        if mode == "full-info":
            u_hat = a_mat[:, opp].T.copy()
        else:
            u_hat[np.arange(m), own] = realized[:, 0] / x[own]
        return u_hat, acts, realized
    players = range(game.player_count)
    realized = np.empty((m, game.player_count))
    for p, tensor in enumerate(game.payoff_tensors):
        realized[:, p] = tensor[tuple(acts[:, q] for q in players)]
    for p, (tensor, sl) in enumerate(zip(game.payoff_tensors, game.block_slices)):
        own = acts[:, p]
        if mode == "full-info":
            idx = tuple(acts[:, q] for q in players if q != p)
            u_hat[:, sl] = np.moveaxis(tensor, p, 0)[(slice(None),) + idx].T
        else:
            u_hat[np.arange(m), sl.start + own] = realized[:, p] / x[sl][own]
    return u_hat, acts, realized


def _stochastic_recursion(game, params, rng, mode):
    """The stochastic recursion Z+ = Z + alpha_k gamma (u_hat - Z) written
    out on _reference_estimate: step(z, k) returns (Z+, sigma(Z+), actions,
    realized payoffs)."""
    def step(z, k):
        x = softmax(z, params.eps, game.action_counts)
        u_hat, acts, realized = _reference_estimate(game, x, rng, mode, 1)
        z_next = z + harmonic_schedule(k) * params.gamma * (u_hat[0] - z)
        return z_next, softmax(z_next, params.eps, game.action_counts), acts[0], realized[0]
    return step


def _discrete_recursion(game, params, alpha):
    """The discrete recursion Z+ = Z + alpha gamma (U(sigma(Z)) - Z) written
    out on expected_payoff_vector: step(z, k) returns (Z+, sigma(Z+))."""
    def step(z, k):
        u = expected_payoff_vector(game, softmax(z, params.eps, game.action_counts))
        z_next = z + alpha * params.gamma * (u - z)
        return z_next, softmax(z_next, params.eps, game.action_counts)
    return step


@pytest.mark.parametrize("mode", ["full-info", "bandit"])
@pytest.mark.parametrize("name", list(SAMPLER_GAMES))
def test_bound_sampler_matches_unbound_reference(name, mode):
    """payoff_estimate and run_stochastic draw the same uniforms in the same
    order as a sampler that takes one rng.random call per block, and give
    the same actions, payoffs and scores bit for bit."""
    game = SAMPLER_GAMES[name]()
    draw = np.random.default_rng(2)
    x = np.concatenate([draw.dirichlet(np.ones(c)) for c in game.action_counts])
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    for got, want in zip(payoff_estimate(game, x, rng, mode, size=500),
                         _reference_estimate(game, x, ref_rng, mode, 500)):
        _assert_identical(got, want)
    assert rng.bit_generator.state == ref_rng.bit_generator.state

    params = LearningParams(eps=0.7, gamma=1.5)
    z0 = np.random.default_rng(1).uniform(-1, 1, game.total_actions)
    rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
    rec = run_stochastic(game, params, z0, steps=300, rng=rng, mode=mode)
    step = _stochastic_recursion(game, params, ref_rng, mode)
    z = z0
    for k in range(300):
        z, _, acts, realized = step(z, k)
        assert np.array_equal(rec.states[k + 1], z)
        _assert_identical(rec.actions[k + 1], acts)
        _assert_identical(rec.payoffs[k + 1], realized)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
