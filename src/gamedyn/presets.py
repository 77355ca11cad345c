"""Built-in example games.

Every preset returns a GameSpec with float64 payoffs.  Each game is
described once: a matching or bimatrix game by its payoff matrices, from
which GameSpec derives Phi, and a three-player game by its Phi, from which
_polymatrix derives the payoff tensors.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from .choice import block_slices
from .errors import UsageError
from .games import GameSpec


def rps_matrix(l: float) -> np.ndarray:
    """Circulant win/loss matrix with win value 1 and loss value -l."""
    return np.array([[0.0, -l, 1.0], [1.0, 0.0, -l], [-l, 1.0, 0.0]])


def _matching(name: str, a_mat: np.ndarray) -> GameSpec:
    a_mat = np.asarray(a_mat, dtype=float)
    return GameSpec((a_mat.shape[0],), (a_mat,), matching=True, name=name)


def _two_player(name: str, a_mat: np.ndarray, b_mat: np.ndarray) -> GameSpec:
    """Bimatrix game. a_mat[i, j] and b_mat[i, j] are the row and column
    player payoffs at pure profile (i, j), so U^2(x) = B^T x^1."""
    a_mat = np.asarray(a_mat, dtype=float)
    b_mat = np.asarray(b_mat, dtype=float)
    return GameSpec(a_mat.shape, (a_mat, b_mat), name=name)


def _polymatrix(name: str, counts: tuple[int, ...], phi: np.ndarray) -> GameSpec:
    """Polymatrix game with linear map Phi: the payoff to player p at the
    joint action s sums block (p, q) of Phi at (s_p, s_q) over q != p in
    ascending order.  The sum starts from its first term, not from zeros,
    so a -0.0 of Phi stays -0.0 in the tensors."""
    slices = block_slices(counts)
    players = range(len(counts))
    tensors = []
    for p in players:
        terms = []
        for q in players:
            if q != p:
                shape = [1] * len(counts)
                shape[p], shape[q] = counts[p], counts[q]
                block = phi[slices[p], slices[q]]
                terms.append((block if p < q else block.T).reshape(shape))
        tensors.append(sum(terms[1:], terms[0]))
    return GameSpec(counts, tuple(tensors), linear_map=phi, name=name)


def _build_rps(l: float) -> GameSpec:
    return _matching(f"rps(l={l:g})", rps_matrix(l))


def _build_anticoord123() -> GameSpec:
    return _matching("anticoord123", np.diag([-1.0, -2.0, -3.0]))


def _build_matching_pennies() -> GameSpec:
    a_mat = np.array([[1.0, -1.0], [-1.0, 1.0]])
    return _two_player("matching_pennies", a_mat, -a_mat)


def _build_two_player_rps(l: float) -> GameSpec:
    a_mat = rps_matrix(l)
    return _two_player(f"two_player_rps(l={l:g})", a_mat, a_mat.T)


def _build_shapley() -> GameSpec:
    a_mat = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    return _two_player("shapley", a_mat, a_mat.T)


def _build_network_zero_sum_mp(k12: float, k13: float, k23: float) -> GameSpec:
    """Three players on a complete graph, pairwise zero-sum matching pennies
    with edge weights k12, k13, k23."""

    def edge(k: float) -> np.ndarray:
        return np.array([[k, -k], [-k, k]])

    a12, a13, a23 = edge(k12), edge(k13), edge(k23)
    zero = np.zeros((2, 2))
    phi = np.block([
        [zero, a12, a13],
        [-a12.T, zero, a23],
        [-a13.T, -a23.T, zero],
    ])
    return _polymatrix(f"network_zero_sum_mp(k12={k12:g},k13={k13:g},k23={k23:g})",
                       (2, 2, 2), phi)


def _build_jordan_mp() -> GameSpec:
    """Three-player matching pennies cycle: player 1 wants to match player 2,
    player 2 wants to match player 3, player 3 wants to mismatch player 1."""
    r_mat = np.array([[1.0, -1.0], [-1.0, 1.0]])
    zero = np.zeros((2, 2))
    phi = np.block([
        [zero, r_mat, zero],
        [zero, zero, r_mat],
        [-r_mat, zero, zero],
    ])
    return _polymatrix("jordan_mp", (2, 2, 2), phi)


def _build_modified_rps_a() -> GameSpec:
    return _matching("modified_rps_A",
                     np.array([[0.0, -1.0, 3.0], [2.0, 0.0, -1.0], [-1.0, 3.0, 0.0]]))


def _build_modified_rps_abar() -> GameSpec:
    return _matching("modified_rps_Abar",
                     np.array([[0.0, -3.0, 1.0], [1.0, 0.0, -2.0], [-3.0, 1.0, 0.0]]))


def _build_modified_jordan() -> GameSpec:
    """Asymmetric three-player cycle: each player's payoff depends on the
    next player's coin only, with stakes 2, 1 and 1/3."""
    m1 = np.array([[0.0, 2.0], [1.0, 0.0]])
    m2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    m3 = np.array([[0.0, 1.0 / 3.0], [1.0, 0.0]])
    zero = np.zeros((2, 2))
    phi = np.block([
        [zero, m1, zero],
        [zero, zero, m2],
        [m3, zero, zero],
    ])
    return _polymatrix("modified_jordan", (2, 2, 2), phi)


# name: (builder, its parameters with their defaults (None: required), description)
_PRESETS: dict[str, tuple[Callable[..., GameSpec], dict[str, float | None], str]] = {
    "rps": (_build_rps, {"l": None}, "single-population rock-paper-scissors, params: l (loss value)"),
    "anticoord123": (_build_anticoord123, {}, "single-population anti-coordination with costs 1, 2, 3"),
    "matching_pennies": (_build_matching_pennies, {}, "two-player zero-sum matching pennies"),
    "two_player_rps": (_build_two_player_rps, {"l": None}, "two-player rock-paper-scissors, params: l"),
    "shapley": (_build_shapley, {}, "two-player Shapley cycling game"),
    "network_zero_sum_mp": (_build_network_zero_sum_mp, {"k12": 1.0, "k13": 2.0, "k23": 3.0},
                            "three-player pairwise zero-sum matching pennies, params: k12, k13, k23"),
    "jordan_mp": (_build_jordan_mp, {}, "three-player matching pennies cycle"),
    "modified_rps_A": (_build_modified_rps_a, {}, "modified rock-paper-scissors, stable variant"),
    "modified_rps_Abar": (_build_modified_rps_abar, {}, "modified rock-paper-scissors, unstable variant"),
    "modified_jordan": (_build_modified_jordan, {}, "asymmetric three-player coin cycle"),
}


def preset(name: str, params: Mapping[str, float] | None = None) -> GameSpec:
    """Build a preset game by name; unknown names, and parameters the preset
    does not take or requires and lacks, raise UsageError."""
    if name not in _PRESETS:
        known = ", ".join(sorted(_PRESETS))
        raise UsageError(f"unknown preset '{name}' (known: {known})")
    builder, defaults, _ = _PRESETS[name]
    params = params or {}
    unknown = set(params) - set(defaults)
    if unknown:
        raise UsageError(f"preset '{name}' does not accept parameters {sorted(unknown)}")
    for key, default in defaults.items():
        if key not in params and default is None:
            raise UsageError(f"preset '{name}' requires parameter '{key}'")
    return builder(**{key: float(params.get(key, default)) for key, default in defaults.items()})


def available_presets() -> dict[str, str]:
    """Preset names mapped to one-line descriptions."""
    return {name: desc for name, (_, _, desc) in _PRESETS.items()}
