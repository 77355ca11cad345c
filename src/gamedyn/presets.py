"""Built-in example games.

Every preset returns a GameSpec with float64 payoffs and, where the payoff
map is exactly linear, the matrix Phi with U(x) = Phi x.  Each game is
described once: a bimatrix game by its two payoff matrices, from which
games._bimatrix_map assembles Phi, and a three-player game by its Phi, from
which _polymatrix derives the payoff tensors.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from .choice import block_slices
from .errors import UsageError
from .games import GameSpec, _bimatrix_map


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
    return GameSpec(a_mat.shape, (a_mat, b_mat), linear_map=_bimatrix_map(a_mat, b_mat),
                    name=name)


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


def _require(params: Mapping[str, float], key: str, preset_name: str) -> float:
    if key not in params:
        raise UsageError(f"preset '{preset_name}' requires parameter '{key}'")
    return float(params[key])


def _reject_unknown(params: Mapping[str, float], allowed: set[str], preset_name: str) -> None:
    unknown = set(params) - allowed
    if unknown:
        raise UsageError(f"preset '{preset_name}' does not accept parameters {sorted(unknown)}")


def _build_rps(params: Mapping[str, float]) -> GameSpec:
    _reject_unknown(params, {"l"}, "rps")
    l = _require(params, "l", "rps")
    return _matching(f"rps(l={l:g})", rps_matrix(l))


def _build_anticoord123(params: Mapping[str, float]) -> GameSpec:
    _reject_unknown(params, set(), "anticoord123")
    return _matching("anticoord123", np.diag([-1.0, -2.0, -3.0]))


def _build_matching_pennies(params: Mapping[str, float]) -> GameSpec:
    _reject_unknown(params, set(), "matching_pennies")
    a_mat = np.array([[1.0, -1.0], [-1.0, 1.0]])
    return _two_player("matching_pennies", a_mat, -a_mat)


def _build_two_player_rps(params: Mapping[str, float]) -> GameSpec:
    _reject_unknown(params, {"l"}, "two_player_rps")
    l = _require(params, "l", "two_player_rps")
    a_mat = rps_matrix(l)
    return _two_player(f"two_player_rps(l={l:g})", a_mat, a_mat.T)


def _build_shapley(params: Mapping[str, float]) -> GameSpec:
    _reject_unknown(params, set(), "shapley")
    a_mat = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    return _two_player("shapley", a_mat, a_mat.T)


def _build_network_zero_sum_mp(params: Mapping[str, float]) -> GameSpec:
    """Three players on a complete graph, pairwise zero-sum matching pennies
    with edge weights k12, k13, k23."""
    _reject_unknown(params, {"k12", "k13", "k23"}, "network_zero_sum_mp")
    k12 = float(params.get("k12", 1.0))
    k13 = float(params.get("k13", 2.0))
    k23 = float(params.get("k23", 3.0))

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


def _build_jordan_mp(params: Mapping[str, float]) -> GameSpec:
    """Three-player matching pennies cycle: player 1 wants to match player 2,
    player 2 wants to match player 3, player 3 wants to mismatch player 1."""
    _reject_unknown(params, set(), "jordan_mp")
    r_mat = np.array([[1.0, -1.0], [-1.0, 1.0]])
    zero = np.zeros((2, 2))
    phi = np.block([
        [zero, r_mat, zero],
        [zero, zero, r_mat],
        [-r_mat, zero, zero],
    ])
    return _polymatrix("jordan_mp", (2, 2, 2), phi)


def _build_modified_rps_a(params: Mapping[str, float]) -> GameSpec:
    _reject_unknown(params, set(), "modified_rps_A")
    return _matching("modified_rps_A",
                     np.array([[0.0, -1.0, 3.0], [2.0, 0.0, -1.0], [-1.0, 3.0, 0.0]]))


def _build_modified_rps_abar(params: Mapping[str, float]) -> GameSpec:
    _reject_unknown(params, set(), "modified_rps_Abar")
    return _matching("modified_rps_Abar",
                     np.array([[0.0, -3.0, 1.0], [1.0, 0.0, -2.0], [-3.0, 1.0, 0.0]]))


def _build_modified_jordan(params: Mapping[str, float]) -> GameSpec:
    """Asymmetric three-player cycle: each player's payoff depends on the
    next player's coin only, with stakes 2, 1 and 1/3."""
    _reject_unknown(params, set(), "modified_jordan")
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


_BUILDERS: dict[str, tuple[Callable[[Mapping[str, float]], GameSpec], str]] = {
    "rps": (_build_rps, "single-population rock-paper-scissors, params: l (loss value)"),
    "anticoord123": (_build_anticoord123, "single-population anti-coordination with costs 1, 2, 3"),
    "matching_pennies": (_build_matching_pennies, "two-player zero-sum matching pennies"),
    "two_player_rps": (_build_two_player_rps, "two-player rock-paper-scissors, params: l"),
    "shapley": (_build_shapley, "two-player Shapley cycling game"),
    "network_zero_sum_mp": (_build_network_zero_sum_mp,
                            "three-player pairwise zero-sum matching pennies, params: k12, k13, k23"),
    "jordan_mp": (_build_jordan_mp, "three-player matching pennies cycle"),
    "modified_rps_A": (_build_modified_rps_a, "modified rock-paper-scissors, stable variant"),
    "modified_rps_Abar": (_build_modified_rps_abar, "modified rock-paper-scissors, unstable variant"),
    "modified_jordan": (_build_modified_jordan, "asymmetric three-player coin cycle"),
}


def preset(name: str, params: Mapping[str, float] | None = None) -> GameSpec:
    """Build a preset game by name; unknown names or bad params raise UsageError."""
    if name not in _BUILDERS:
        known = ", ".join(sorted(_BUILDERS))
        raise UsageError(f"unknown preset '{name}' (known: {known})")
    builder, _ = _BUILDERS[name]
    return builder(dict(params or {}))


def available_presets() -> dict[str, str]:
    """Preset names mapped to one-line descriptions."""
    return {name: desc for name, (_, desc) in _BUILDERS.items()}
