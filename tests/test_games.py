import inspect
import pickle

import numpy as np
import pytest
from tensor_reference import numeric_jacobian, random_tensor_game, tensor_payoff

from gamedyn import (DomainError, GameSpec, available_presets, classify,
                     expected_payoff_vector, game_from_dict, game_to_dict,
                     linear_game_map, load_game, payoff_jacobian, preset,
                     rest_point, save_game, tangent_basis)


def random_profile(counts, rng):
    """One Dirichlet(1, ..., 1) strategy block per player, concatenated."""
    return np.concatenate([rng.dirichlet(np.ones(c)) for c in counts])


def test_action_count_validation():
    with pytest.raises(DomainError):
        GameSpec((1,), (np.zeros((1, 1)),), matching=True)
    with pytest.raises(DomainError):
        GameSpec((2, 2), (np.zeros((2, 2)),))
    with pytest.raises(DomainError):
        GameSpec((2, 2), (np.zeros((2, 3)), np.zeros((2, 2))))


def test_one_player_game_that_is_not_matched_pays_its_tensor():
    """A single player who is not matched against itself is paid the
    fixed vector t whatever it plays, so z* = t is its only rest point."""
    t = np.array([0.5, -1.0, 2.0])
    game = GameSpec((3,), (t,))
    assert linear_game_map(game) is None
    rng = np.random.default_rng(3)
    x = random_profile((3,), rng)
    np.testing.assert_array_equal(expected_payoff_vector(game, x), t)
    xs = np.stack([random_profile((3,), rng) for _ in range(4)])
    np.testing.assert_array_equal(expected_payoff_vector(game, xs), np.tile(t, (4, 1)))
    solved = rest_point(game, 0.7)
    assert solved.converged and solved.residual == 0.0
    np.testing.assert_array_equal(solved.z_star, t)


def test_matching_needs_single_population():
    with pytest.raises(DomainError):
        GameSpec((2, 2), (np.zeros((2, 2)), np.zeros((2, 2))), matching=True)
    with pytest.raises(DomainError):
        GameSpec((3,), (np.zeros((3, 2)),), matching=True)


def test_linear_map_shape_checked():
    with pytest.raises(DomainError):
        GameSpec((2, 2), (np.zeros((2, 2)), np.zeros((2, 2))),
                 linear_map=np.zeros((3, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_payoffs_rejected(bad):
    a_mat = np.zeros((2, 2))
    a_mat[0, 1] = bad
    with pytest.raises(DomainError):
        GameSpec((2,), (a_mat,), matching=True)
    with pytest.raises(DomainError):
        GameSpec((2, 2), (np.zeros((2, 2)), np.zeros((2, 2))),
                 linear_map=np.pad(a_mat, ((0, 2), (0, 2))))


def test_expected_payoff_linear_vs_tensor():
    game = preset("two_player_rps", {"l": 5.0})
    phi = linear_game_map(game)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = random_profile(game.action_counts, rng)
        expect = tensor_payoff(game, x)
        np.testing.assert_allclose(phi @ x, expect, atol=1e-12)
        np.testing.assert_allclose(expected_payoff_vector(game, x), expect,
                                   atol=1e-12)


def test_expected_payoff_batched_matches_loop():
    game = preset("jordan_mp")
    rng = np.random.default_rng(1)
    xs = np.stack([random_profile(game.action_counts, rng)
                   for _ in range(7)])
    batched = expected_payoff_vector(game, xs)
    for i in range(7):
        np.testing.assert_allclose(batched[i],
                                   expected_payoff_vector(game, xs[i]),
                                   atol=1e-12)


def test_jordan_payoffs_reduce_to_linear_map():
    # the three-player pennies tensor collapses to a linear map on the simplex
    game = preset("jordan_mp")
    phi = np.zeros((6, 6))
    phi[0, 2], phi[0, 3] = 1.0, -1.0
    phi[1, 2], phi[1, 3] = -1.0, 1.0
    phi[2, 4], phi[2, 5] = 1.0, -1.0
    phi[3, 4], phi[3, 5] = -1.0, 1.0
    phi[4, 0], phi[4, 1] = -1.0, 1.0
    phi[5, 0], phi[5, 1] = 1.0, -1.0
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = random_profile(game.action_counts, rng)
        expect = tensor_payoff(game, x)
        np.testing.assert_allclose(phi @ x, expect, atol=1e-12)
        np.testing.assert_allclose(expected_payoff_vector(game, x), expect,
                                   atol=1e-12)


def test_matching_payoff_is_matrix_product():
    game = preset("rps", {"l": 2.5})
    rng = np.random.default_rng(3)
    x = random_profile(game.action_counts, rng)
    np.testing.assert_allclose(expected_payoff_vector(game, x),
                               game.payoff_tensors[0] @ x, atol=1e-12)


def test_tangent_basis_properties():
    for counts in ((3,), (2, 2), (3, 3), (2, 2, 2)):
        e_mat = tangent_basis(counts)
        n = sum(counts)
        assert e_mat.shape == (n, n - len(counts))
        np.testing.assert_allclose(e_mat.T @ e_mat, np.eye(n - len(counts)),
                                   atol=1e-12)
        start = 0
        for c in counts:
            np.testing.assert_allclose(e_mat[start:start + c].sum(axis=0),
                                       0.0, atol=1e-12)
            start += c


def test_json_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(4)
    for name, params in (("two_player_rps", {"l": 5.0}), ("jordan_mp", None),
                         ("rps", {"l": 8.0})):
        game = preset(name, params)
        clone = game_from_dict(game_to_dict(game))
        assert clone.matching == game.matching
        assert clone.action_counts == game.action_counts
        for _ in range(10):
            x = random_profile(game.action_counts, rng)
            lhs = expected_payoff_vector(game, x)
            rhs = expected_payoff_vector(clone, x)
            assert np.array_equal(lhs, rhs)
        path = tmp_path / f"{name}.json"
        save_game(path, game)
        loaded = load_game(path)
        x = random_profile(game.action_counts, rng)
        assert np.array_equal(expected_payoff_vector(game, x),
                              expected_payoff_vector(loaded, x))


def test_payoff_jacobian_matches_linear_map():
    game = preset("shapley")
    phi = linear_game_map(game)
    x = np.full(6, 1.0 / 3.0)
    np.testing.assert_allclose(payoff_jacobian(game, x), phi, atol=1e-8)


def test_preset_parameter_errors():
    """Each preset refuses parameters it does not take, names the one it
    requires, and fills in its defaults; an unknown name lists every preset."""
    from gamedyn import UsageError
    for name in available_presets():
        with pytest.raises(UsageError) as err:
            preset(name, {"bogus": 1})
        assert str(err.value) == f"preset '{name}' does not accept parameters ['bogus']"
    for name in ("rps", "two_player_rps"):
        with pytest.raises(UsageError, match="requires parameter 'l'"):
            preset(name)

    def same(a, b):
        return a.name == b.name and all(np.array_equal(s, t) for s, t in
                                        zip(a.payoff_tensors, b.payoff_tensors, strict=True))

    default = preset("network_zero_sum_mp")
    assert same(default, preset("network_zero_sum_mp", {"k12": 1, "k13": 2, "k23": 3}))
    moved = preset("network_zero_sum_mp", {"k12": 2})
    assert moved.name == "network_zero_sum_mp(k12=2,k13=2,k23=3)"
    assert same(moved, preset("network_zero_sum_mp", {"k12": 2, "k13": 2, "k23": 3}))
    assert not same(moved, default)
    with pytest.raises(UsageError) as err:
        preset("nonexistent_game")
    assert all(name in str(err.value) for name in available_presets())


# ------------------------------------------------- linear maps and the Jacobian

PRESET_PARAMS = {"rps": {"l": 2.5}, "two_player_rps": {"l": 5.0}}


@pytest.mark.parametrize("name", sorted(available_presets()))
def test_every_preset_map_matches_its_tensors(name):
    game = preset(name, PRESET_PARAMS.get(name))
    phi = linear_game_map(game)
    rng = np.random.default_rng(5)
    xs = np.stack([random_profile(game.action_counts, rng)
                   for _ in range(10)])
    expect = tensor_payoff(game, xs)
    if phi is not None:
        np.testing.assert_allclose(xs @ phi.T, expect, atol=1e-12)
    np.testing.assert_allclose(expected_payoff_vector(game, xs), expect, atol=1e-12)


def test_linear_map_disagreeing_with_tensors_rejected():
    doc = {"players": 2, "action_counts": [2, 2],
           "payoffs": [[3, 0, 0, 1], [3, 0, 0, 1]],
           "linear_map": np.zeros(16).tolist()}
    with pytest.raises(DomainError, match="linear map disagrees"):
        game_from_dict(doc)
    # a 3-player map off in one entry, and a matching game whose map is A^T
    jordan = game_to_dict(preset("jordan_mp"))
    jordan["linear_map"][5] += 1e-6
    with pytest.raises(DomainError, match="linear map disagrees"):
        game_from_dict(jordan)
    a_mat = np.array([[0.0, 1.0, 2.0], [3.0, 0.0, 1.0], [1.0, 2.0, 0.0]])
    with pytest.raises(DomainError, match="linear map disagrees"):
        GameSpec((3,), (a_mat,), linear_map=a_mat.T, matching=True)
    # the right maps are kept
    assert np.array_equal(GameSpec((3,), (a_mat,), linear_map=a_mat,
                                   matching=True).linear_map, a_mat)
    jordan["linear_map"][5] -= 1e-6
    assert game_from_dict(jordan).linear_map is not None


def test_game_spec_pickle_round_trip():
    rng = np.random.default_rng(6)
    for name in ("shapley", "jordan_mp", "rps"):
        game = preset(name, PRESET_PARAMS.get(name))
        clone = pickle.loads(pickle.dumps(game))
        assert clone.action_counts == game.action_counts
        assert clone.matching == game.matching
        assert clone.block_slices == game.block_slices
        x = random_profile(game.action_counts, rng)
        assert np.array_equal(expected_payoff_vector(clone, x),
                              expected_payoff_vector(game, x))


def test_game_spec_compares_by_identity():
    game = preset("shapley")
    other = preset("shapley")
    assert (game == other) is False
    assert game == game
    assert hash(game) == hash(game)


@pytest.mark.parametrize("counts", [(2, 3, 2), (3, 3, 3), (2, 2, 2, 2)])
def test_payoff_jacobian_is_exact_for_tensor_games(counts):
    game = random_tensor_game(counts, sum(counts))
    assert linear_game_map(game) is None
    rng = np.random.default_rng(8)
    for _ in range(5):
        x = random_profile(counts, rng)
        jac = payoff_jacobian(game, x)
        fd = numeric_jacobian(lambda v: tensor_payoff(game, v), x)
        assert float(np.abs(jac - fd).max()) <= 1e-9
        for sl in game.block_slices:
            assert not jac[sl, sl].any()
    with pytest.raises(DomainError):
        payoff_jacobian(game, np.zeros(3))


def test_games_with_more_than_eight_players():
    """einsum takes its subscripts from the ASCII letters: a nine-player game
    evaluates its payoffs, and a game with more players than letters is
    refused before its tensors are read."""
    counts = (2,) * 9
    game = random_tensor_game(counts, 9)
    x = random_profile(counts, np.random.default_rng(9))
    np.testing.assert_allclose(expected_payoff_vector(game, x), tensor_payoff(game, x),
                               rtol=0.0, atol=1e-12)
    assert payoff_jacobian(game, x).shape == (18, 18)
    with pytest.raises(DomainError, match="at most 52 players, got 53"):
        GameSpec((2,) * 53, tuple(np.zeros(1) for _ in range(53)))


def test_no_finite_difference_step_option():
    assert list(inspect.signature(payoff_jacobian).parameters) == ["game", "x"]
    assert "step" not in inspect.signature(classify).parameters


def _loop_tensors(name, k12=1.0, k13=2.0, k23=3.0):
    """The three-player payoff tensors as the presets once built them, one
    entry at a time from closed-form payoff rules."""
    u1, u2, u3 = np.zeros((2, 2, 2)), np.zeros((2, 2, 2)), np.zeros((2, 2, 2))
    if name == "network_zero_sum_mp":
        a12, a13, a23 = (np.array([[k, -k], [-k, k]]) for k in (k12, k13, k23))
    m1 = np.array([[0.0, 2.0], [1.0, 0.0]])
    m2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    m3 = np.array([[0.0, 1.0 / 3.0], [1.0, 0.0]])
    for i in range(2):
        for j in range(2):
            for k in range(2):
                if name == "network_zero_sum_mp":
                    u1[i, j, k] = a12[i, j] + a13[i, k]
                    u2[i, j, k] = -a12[i, j] + a23[j, k]
                    u3[i, j, k] = -a13[i, k] - a23[j, k]
                elif name == "jordan_mp":
                    u1[i, j, k] = 1.0 if i == j else -1.0
                    u2[i, j, k] = 1.0 if j == k else -1.0
                    u3[i, j, k] = 1.0 if k != i else -1.0
                else:
                    u1[i, j, k] = m1[i, j]
                    u2[i, j, k] = m2[j, k]
                    u3[i, j, k] = m3[k, i]
    return u1, u2, u3


@pytest.mark.parametrize("name,params", [
    ("network_zero_sum_mp", {}),
    ("network_zero_sum_mp", {"k12": 0.0, "k13": 0.0, "k23": 0.0}),
    ("network_zero_sum_mp", {"k12": -0.5, "k13": 0.0, "k23": 2.5}),
    ("jordan_mp", {}),
    ("modified_jordan", {}),
], ids=["network-default", "network-zero", "network-mixed", "jordan_mp",
        "modified_jordan"])
def test_polymatrix_presets_keep_their_tensor_bytes(name, params):
    """The three-player tensors derived from Phi equal the entry-by-entry
    construction byte for byte, signed zeros included (zero weights give
    -0.0 entries)."""
    game = preset(name, params)
    for got, want in zip(game.payoff_tensors, _loop_tensors(name, **params), strict=True):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_scalar_profile_is_refused():
    """A 0-d profile is refused with DomainError (it raised IndexError)."""
    with pytest.raises(DomainError, match="profile has length 0, expected 3"):
        expected_payoff_vector(preset("rps", {"l": 2.0}), 0.5)
