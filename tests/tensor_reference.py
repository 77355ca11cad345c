"""A payoff map written out from the payoff tensors alone, so tests can
check the package's payoff evaluation without going through it, the
revision-protocol form of the strategy-space flow, plus the random games
and filters those checks run on."""

import itertools

import numpy as np

from gamedyn import FeedbackBlock, game_from_dict


def tensor_payoff(game, x):
    """U(x) summed term by term over joint pure profiles: entry i of block p
    is the sum of T_p[s] times the others' probabilities of s, over profiles
    s with s_p = i.  A matching game gives A x.  Batch dims are allowed."""
    x = np.asarray(x, dtype=float)
    if game.matching:
        a_mat = game.payoff_tensors[0]
        return sum(a_mat[:, j] * x[..., j, None] for j in range(a_mat.shape[1]))
    offsets = np.cumsum((0,) + game.action_counts[:-1])
    u = np.zeros_like(x)
    for profile in itertools.product(*(range(c) for c in game.action_counts)):
        for p, tensor in enumerate(game.payoff_tensors):
            weight = np.ones(x.shape[:-1])
            for q, action in enumerate(profile):
                if q != p:
                    weight = weight * x[..., offsets[q] + action]
            u[..., offsets[p] + profile[p]] += tensor[profile] * weight
    return u


def revision_protocol_field(x, z, game, params):
    """Mean dynamics of the pairwise revision protocol whose switch rate to
    action j is (gamma/eps) x_j (u_j - z_j), evaluated literally as inflow
    minus outflow with u = tensor_payoff(game, x): the reference for
    induced_strategy_field, which it equals when x = sigma(z)."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    u = tensor_payoff(game, x)
    scale = params.gamma / params.eps
    out = np.empty_like(x)
    for sl in game.block_slices:
        xb, ub, zb = x[sl], u[sl], z[sl]
        # rho[i, j]: switch rate from action i to action j
        rho = scale * np.tile(xb * (ub - zb), (xb.size, 1))
        out[sl] = xb @ rho - xb * rho.sum(axis=1)
    return out


def random_tensor_game(counts, seed):
    """A game with uniform random payoff tensors and no linear map (for more
    than two players)."""
    rng = np.random.default_rng(seed)
    size = int(np.prod(counts))
    return game_from_dict({"players": len(counts), "action_counts": list(counts),
                           "payoffs": [rng.uniform(-1, 1, size).tolist()
                                       for _ in counts]})


def coupled_block(n, seed):
    """A filter with full, non-symmetric A, B, C and D = C A^-1 B, so H(0) = 0
    and any transposed or swapped matrix changes the field."""
    rng = np.random.default_rng(seed)
    a_mat = -4.0 * np.eye(n) + 0.3 * rng.uniform(-1, 1, (n, n))
    b_mat = rng.uniform(-1, 1, (n, n))
    c_mat = rng.uniform(-1, 1, (n, n))
    return FeedbackBlock(a_mat, b_mat, c_mat, c_mat @ np.linalg.solve(a_mat, b_mat))
