"""Finite normal-form games.

Payoff storage, expected-payoff evaluation, simplex tangent bases, and a
JSON file format.

Two payoff mechanisms are supported:

* multi-player tensor games, where player ``p`` holds a dense array over
  the joint action set and the payoff vector at a mixed profile is the
  multilinear expectation with player ``p`` pinned to each action in turn;
* single-population matching games (``matching=True``), where one
  population is randomly matched against itself in a symmetric two-sided
  contest with matrix ``A``, so the payoff vector at state ``x`` is ``A x``.
"""

from __future__ import annotations

import json
import math
import string
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .choice import _check_counts, _check_length, _check_vector, block_slices
from .errors import DomainError, UsageError

_AXES = string.ascii_letters  # einsum's subscripts: one per player


@dataclass(frozen=True, eq=False)
class GameSpec:
    """A finite game in normal form.

    action_counts: actions per player, n^p >= 2.
    payoff_tensors: one dense float64 array per player.  Shape is the joint
        action set, except for matching games where the single tensor is the
        (n, n) contest matrix indexed (own action, opponent action).
    linear_map: the matrix Phi with U(x) = Phi x exactly, read-only.  A
        given map must agree with the payoff tensors at every joint pure
        profile, and so on the whole product of simplices, as U is
        multilinear.  Without one, a matching game's Phi is its matrix and a
        two-player game's is [[0, A], [B^T, 0]]; any other game has None.
    matching: single-population random-matching payoff mechanism.
    """

    action_counts: tuple[int, ...]
    payoff_tensors: tuple[np.ndarray, ...]
    linear_map: np.ndarray | None = None
    matching: bool = False
    name: str = ""

    def __post_init__(self):
        counts = _check_counts(self.action_counts)
        if len(counts) > len(_AXES):
            raise DomainError(f"a game has at most {len(_AXES)} players, got {len(counts)}")
        tensors = tuple(np.ascontiguousarray(t, dtype=float) for t in self.payoff_tensors)
        if len(tensors) != len(counts):
            raise DomainError("one payoff tensor per player is required")
        if not all(np.all(np.isfinite(t)) for t in tensors):
            raise DomainError("payoff tensors must be finite")
        if self.matching:
            if len(counts) != 1:
                raise DomainError("matching games have a single population")
            n = counts[0]
            if tensors[0].shape != (n, n):
                raise DomainError(f"matching payoff matrix must be {n}x{n}, got {tensors[0].shape}")
        else:
            for p, t in enumerate(tensors):
                if t.shape != counts:
                    raise DomainError(f"player {p} tensor has shape {t.shape}, expected {counts}")
        n_total = sum(counts)
        lin = self.linear_map
        if lin is None and self.matching:
            lin = tensors[0]
        elif lin is None and len(counts) == 2:
            lin = _bimatrix_map(*tensors)
        if lin is not None:
            lin = np.ascontiguousarray(lin, dtype=float)
            if lin.shape != (n_total, n_total):
                raise DomainError(f"linear map must be {n_total}x{n_total}, got {lin.shape}")
            if not np.all(np.isfinite(lin)):
                raise DomainError("linear map must be finite")
            lin.setflags(write=False)
        for t in tensors:
            t.setflags(write=False)
        stored_map = self.linear_map is not None
        object.__setattr__(self, "action_counts", counts)
        object.__setattr__(self, "payoff_tensors", tensors)
        object.__setattr__(self, "linear_map", lin)
        object.__setattr__(self, "_slices", block_slices(counts))
        if stored_map:
            self._check_linear_map()

    def _check_linear_map(self) -> None:
        """Compare the stored map with the tensor-only U at every joint pure
        profile (one one-hot row per profile)."""
        idx = np.indices(self.action_counts).reshape(self.player_count, -1)
        pure = np.concatenate([np.eye(c)[i] for c, i in zip(self.action_counts, idx)],
                              axis=-1)
        if self.matching:
            expect = pure @ self.payoff_tensors[0].T
        else:
            expect = _bind_contraction(self)(pure)
        gap = float(np.abs(pure @ self.linear_map.T - expect).max())
        if gap > 1e-9 * max(1.0, self.max_abs_payoff()):
            raise DomainError(f"linear map disagrees with the payoff tensors by {gap:.3g} "
                              "at a pure profile")

    @property
    def player_count(self) -> int:
        return len(self.action_counts)

    @property
    def total_actions(self) -> int:
        return sum(self.action_counts)

    @property
    def block_slices(self) -> tuple[slice, ...]:
        return self._slices  # type: ignore[attr-defined]

    def max_abs_payoff(self) -> float:
        return max(float(np.abs(t).max()) for t in self.payoff_tensors)


def tangent_basis(action_counts: Sequence[int]) -> np.ndarray:
    """Orthonormal bases of the per-player simplex tangent spaces, stacked
    block-diagonally into one (n, n - N) matrix whose columns sum to zero
    within each block: Gram-Schmidt on the difference vectors e1-e2,
    e1-e3, ... per player."""
    counts = _check_counts(action_counts)
    n = sum(counts)
    full = np.zeros((n, n - len(counts)))
    col = 0
    for c, rows in zip(counts, block_slices(counts)):
        cols = []
        for k in range(1, c):
            v = np.zeros(c)
            v[0], v[k] = 1.0, -1.0
            for q in cols:
                v = v - (q @ v) * q
            v = v / np.linalg.norm(v)
            cols.append(v)
        full[rows, col:col + c - 1] = np.column_stack(cols)
        col += c - 1
    full.setflags(write=False)
    return full


def expected_payoff_vector(game: GameSpec, x) -> np.ndarray:
    """Payoff vector U(x): entry i of block p is the expected payoff to
    player p for playing action i against the others' mixed strategies.

    Accepts a concatenated profile of shape (..., n); batch dims broadcast.
    """
    x = np.asarray(x, dtype=float)
    _check_length(x, game.total_actions, "profile")
    return _bind_payoff(game)(x)


def _bind_payoff(game: GameSpec):
    """The payoff map U of a game, for float profiles of the right length:
    x @ Phi^T when the game has a linear map (every matching and two-player
    game), the per-player einsum of _bind_contraction otherwise.
    expected_payoff_vector, the bound score fields and rest_point all take U
    from here (the filtered field folds the same Phi^T into its stacked
    matrix); the returned map does not check x."""
    phi = game.linear_map
    if phi is None:
        return _bind_contraction(game)
    phi_t = phi.T
    return lambda x: x @ phi_t


def _bind_contraction(game: GameSpec):
    """U(x) of a tensor game as one einsum per player, with the subscripts
    and block slices built once; the returned map does not check x."""
    n_players = game.player_count
    slices = game.block_slices
    if n_players == 1:
        tensor = game.payoff_tensors[0]
        return lambda x: np.broadcast_to(tensor, x.shape[:-1] + tensor.shape).copy()
    terms = []
    for p, tensor in enumerate(game.payoff_tensors):
        others = [q for q in range(n_players) if q != p]
        rest = ",".join("..." + _AXES[q] for q in others)
        terms.append((f"{_AXES[:n_players]},{rest}->...{_AXES[p]}", tensor,
                      [slices[q] for q in others]))

    def contract(x: np.ndarray) -> np.ndarray:
        return np.concatenate([np.einsum(sub, tensor, *(x[..., sl] for sl in sls))
                               for sub, tensor, sls in terms], axis=-1)

    return contract


def _bimatrix_map(a_mat: np.ndarray, b_mat: np.ndarray) -> np.ndarray:
    """Phi = [[0, A], [B^T, 0]] of a bimatrix game with row and column
    payoffs A[i, j] and B[i, j] at the pure profile (i, j)."""
    n1, n2 = a_mat.shape
    phi = np.zeros((n1 + n2, n1 + n2))
    phi[:n1, n1:] = a_mat
    phi[n1:, :n1] = b_mat.T
    return phi


def payoff_jacobian(game: GameSpec, x) -> np.ndarray:
    """Jacobian DU(x) of the payoff vector map at a single profile.

    With a linear map this is Phi.  Otherwise U is multilinear, so block
    (p, q) is player p's tensor contracted with the strategy of every player
    except p and q, and the diagonal blocks are zero.
    """
    n = game.total_actions
    x = _check_vector(x, n, "profile")
    if game.linear_map is not None:
        return np.array(game.linear_map)
    n_players = game.player_count
    slices = game.block_slices
    jac = np.zeros((n, n))
    for p, tensor in enumerate(game.payoff_tensors):
        for q in range(n_players):
            if q == p:
                continue
            others = [r for r in range(n_players) if r not in (p, q)]
            sub = ",".join([_AXES[:n_players]] + [_AXES[r] for r in others])
            jac[slices[p], slices[q]] = np.einsum(f"{sub}->{_AXES[p]}{_AXES[q]}", tensor,
                                                  *(x[slices[r]] for r in others))
    return jac


def game_to_dict(game: GameSpec) -> dict:
    """JSON-ready description of a game."""
    doc = {
        "players": game.player_count,
        "action_counts": list(game.action_counts),
        "payoffs": [t.ravel().tolist() for t in game.payoff_tensors],
    }
    if game.linear_map is not None:
        doc["linear_map"] = game.linear_map.ravel().tolist()
    if game.matching:
        doc["matching"] = True
    if game.name:
        doc["name"] = game.name
    return doc


def _whole(value, what: str) -> int:
    """A JSON count as an int, refused unless it is a whole number (not a
    JSON true or false, which Python reads as an int)."""
    if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise UsageError(f"{what} must be a whole number, got {value!r}")
    return int(value)


def _numbers(values, size: int, what: str) -> np.ndarray:
    """A flat JSON array of size numbers as a float array."""
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{what} must hold numbers: {exc}") from exc
    if arr.size != size:
        raise UsageError(f"{what} has {arr.size} entries, expected {size}")
    return arr


def game_from_dict(doc: dict) -> GameSpec:
    try:
        players = _whole(doc["players"], "players")
        counts = tuple(_whole(c, "an action_counts entry") for c in doc["action_counts"])
        payoffs = doc["payoffs"]
    except (KeyError, TypeError) as exc:
        raise UsageError(f"malformed game document: {exc}") from exc
    if players != len(counts):
        raise UsageError("players and action_counts disagree")
    matching = doc.get("matching", False)
    if not isinstance(matching, bool):
        raise UsageError(f"matching must be true or false, got {matching!r}")
    shapes = [(counts[0], counts[0])] if matching and counts else [counts] * players
    if not isinstance(payoffs, list) or len(payoffs) != players:
        raise UsageError("payoffs must hold one flat array per player")
    tensors = [_numbers(flat, math.prod(shape), "payoff array").reshape(shape)
               for flat, shape in zip(payoffs, shapes)]
    lin = doc.get("linear_map")
    n = sum(counts)
    if lin is not None:
        lin = _numbers(lin, n * n, "linear_map").reshape((n, n))
    return GameSpec(counts, tuple(tensors), linear_map=lin, matching=matching,
                    name=str(doc.get("name", "")))


def save_game(path: str | Path, game: GameSpec) -> None:
    Path(path).write_text(json.dumps(game_to_dict(game), indent=2) + "\n")


def load_game(path: str | Path) -> GameSpec:
    p = Path(path)
    if not p.exists():
        raise UsageError(f"game file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except OSError as exc:
        raise UsageError(f"cannot read game file {p}: {exc.strerror}") from exc
    except ValueError as exc:
        raise UsageError(f"game file is not valid JSON: {exc}") from exc
    return game_from_dict(doc)
