"""Finite normal-form games.

Payoff storage, expected-payoff evaluation, linear game maps, simplex
tangent bases, and a JSON file format.

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
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .choice import block_slices
from .errors import DomainError, UsageError

_AXES = "abcdefgh"


def as_profile_vector(x) -> np.ndarray:
    """Coerce a MixedProfile or array-like to a float array (batch dims allowed)."""
    return np.asarray(getattr(x, "vector", x), dtype=float)


@dataclass(frozen=True, eq=False)
class GameSpec:
    """A finite game in normal form.

    action_counts: actions per player, n^p >= 2.
    payoff_tensors: one dense float64 array per player.  Shape is the joint
        action set, except for matching games where the single tensor is the
        (n, n) contest matrix indexed (own action, opponent action).
    linear_map: optional matrix Phi with U(x) = Phi x exactly; it must agree
        with the payoff tensors at every joint pure profile, and so on the
        whole product of simplices, as U is multilinear.
    matching: single-population random-matching payoff mechanism.
    """

    action_counts: tuple[int, ...]
    payoff_tensors: tuple[np.ndarray, ...]
    linear_map: np.ndarray | None = None
    matching: bool = False
    name: str = ""

    def __post_init__(self):
        counts = tuple(int(c) for c in self.action_counts)
        if not counts or any(c < 2 for c in counts):
            raise DomainError("every player needs at least two actions")
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

    def split(self, x: np.ndarray) -> list[np.ndarray]:
        """Split a concatenated profile (batch dims allowed) into player blocks."""
        return [x[..., sl] for sl in self.block_slices]


@dataclass(frozen=True)
class MixedProfile:
    """Concatenated per-player strategy blocks, each a simplex point."""

    vector: np.ndarray
    action_counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(int(c) for c in self.action_counts)
        v = np.ascontiguousarray(self.vector, dtype=float)
        if v.shape != (sum(counts),):
            raise DomainError(f"profile has shape {v.shape}, expected ({sum(counts)},)")
        if np.any(v < -1e-12):
            raise DomainError("negative strategy weight")
        for sl in block_slices(counts):
            s = float(v[sl].sum())
            if abs(s - 1.0) > 1e-9:
                raise DomainError(f"strategy block sums to {s!r}, not 1")
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)
        object.__setattr__(self, "action_counts", counts)

    @property
    def blocks(self) -> list[np.ndarray]:
        return [self.vector[sl] for sl in block_slices(self.action_counts)]

    @classmethod
    def from_blocks(cls, blocks: Iterable[np.ndarray]) -> "MixedProfile":
        blocks = [np.asarray(b, dtype=float) for b in blocks]
        return cls(np.concatenate(blocks), tuple(len(b) for b in blocks))

    @classmethod
    def centroid(cls, action_counts: Sequence[int]) -> "MixedProfile":
        return cls.from_blocks([np.full(c, 1.0 / c) for c in action_counts])

    @classmethod
    def random(cls, action_counts: Sequence[int], rng: np.random.Generator) -> "MixedProfile":
        return cls.from_blocks([rng.dirichlet(np.ones(c)) for c in action_counts])


@dataclass(frozen=True)
class TangentBasis:
    """Orthonormal per-player bases of the simplex tangent spaces.

    blocks[p] has shape (n^p, n^p - 1) with columns orthonormal and summing
    to zero; matrix is their block-diagonal stack of shape (n, n - N).
    """

    blocks: tuple[np.ndarray, ...]
    matrix: np.ndarray


def tangent_basis(action_counts: Sequence[int]) -> TangentBasis:
    """Gram-Schmidt on the difference vectors e1-e2, e1-e3, ... per player."""
    counts = tuple(int(c) for c in action_counts)
    blocks = []
    for c in counts:
        cols = []
        for k in range(1, c):
            v = np.zeros(c)
            v[0], v[k] = 1.0, -1.0
            for q in cols:
                v = v - (q @ v) * q
            v = v / np.linalg.norm(v)
            cols.append(v)
        blocks.append(np.column_stack(cols))
    n = sum(counts)
    full = np.zeros((n, n - len(counts)))
    row = col = 0
    for b in blocks:
        full[row:row + b.shape[0], col:col + b.shape[1]] = b
        row += b.shape[0]
        col += b.shape[1]
    for b in blocks:
        b.setflags(write=False)
    full.setflags(write=False)
    return TangentBasis(tuple(blocks), full)


def pure_payoff(game: GameSpec, profile: Sequence[int]) -> list[float]:
    """Payoffs at a joint pure-action profile, one float per player.

    For a matching game the single index is the monomorphic population
    action, so the payoff is the self-match value A[i, i].
    """
    idx = tuple(int(i) for i in profile)
    if len(idx) != game.player_count:
        raise DomainError(f"profile has {len(idx)} entries for {game.player_count} players")
    for p, (i, c) in enumerate(zip(idx, game.action_counts)):
        if not 0 <= i < c:
            raise DomainError(f"action {i} out of range for player {p} with {c} actions")
    if game.matching:
        i = idx[0]
        return [float(game.payoff_tensors[0][i, i])]
    return [float(t[idx]) for t in game.payoff_tensors]


def expected_payoff_vector(game: GameSpec, x) -> np.ndarray:
    """Payoff vector U(x): entry i of block p is the expected payoff to
    player p for playing action i against the others' mixed strategies.

    Accepts a concatenated profile of shape (..., n); batch dims broadcast.
    """
    x = as_profile_vector(x)
    n = game.total_actions
    if x.shape[-1] != n:
        raise DomainError(f"profile has length {x.shape[-1]}, expected {n}")
    return _bind_payoff(game)(x)


def _bind_payoff(game: GameSpec):
    """The payoff map U of a game, for float profiles of the right length:
    x @ Phi^T when linear_game_map has a matrix (every matching game), the
    per-player einsum of _bind_contraction otherwise.  expected_payoff_vector,
    the bound score fields and rest_point all take U from here (the filtered
    field folds the same Phi^T into its stacked matrix); the returned map
    does not check x."""
    phi = linear_game_map(game)
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


def linear_game_map(game: GameSpec) -> np.ndarray | None:
    """The matrix Phi with U(x) = Phi x, when the game map is exactly linear.

    Stored maps are returned as-is.  Two-player games are assembled as
    [[0, A], [B^T, 0]] from the payoff tensors, where A[i, j] and B[i, j]
    are the row and column player's payoffs at the pure profile (i, j).
    Returns None when no exact linear map is available.
    """
    if game.linear_map is not None:
        return game.linear_map
    if game.player_count == 2:
        a_mat, b_mat = game.payoff_tensors
        n1, n2 = game.action_counts
        phi = np.zeros((n1 + n2, n1 + n2))
        phi[:n1, n1:] = a_mat
        phi[n1:, :n1] = b_mat.T
        return phi
    return None


def payoff_jacobian(game: GameSpec, x) -> np.ndarray:
    """Jacobian DU(x) of the payoff vector map at a single profile.

    With a linear map this is Phi.  Otherwise U is multilinear, so block
    (p, q) is player p's tensor contracted with the strategy of every player
    except p and q, and the diagonal blocks are zero.
    """
    x = as_profile_vector(x)
    n = game.total_actions
    if x.shape != (n,):
        raise DomainError(f"profile has shape {x.shape}, expected ({n},)")
    phi = linear_game_map(game)
    if phi is not None:
        return np.array(phi)
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


def game_from_dict(doc: dict) -> GameSpec:
    try:
        players = int(doc["players"])
        counts = tuple(int(c) for c in doc["action_counts"])
        payoffs = doc["payoffs"]
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed game document: {exc}") from exc
    if players != len(counts):
        raise UsageError("players and action_counts disagree")
    matching = bool(doc.get("matching", False))
    if matching:
        shapes = [(counts[0], counts[0])]
    else:
        shapes = [counts] * players
    if len(payoffs) != players:
        raise UsageError("payoffs must hold one flat array per player")
    tensors = []
    for flat, shape in zip(payoffs, shapes):
        arr = np.asarray(flat, dtype=float)
        if arr.size != int(np.prod(shape)):
            raise UsageError(f"payoff array has {arr.size} entries, expected {int(np.prod(shape))}")
        tensors.append(arr.reshape(shape))
    lin = doc.get("linear_map")
    n = sum(counts)
    if lin is not None:
        lin = np.asarray(lin, dtype=float)
        if lin.size != n * n:
            raise UsageError(f"linear_map has {lin.size} entries, expected {n * n}")
        lin = lin.reshape((n, n))
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
    except json.JSONDecodeError as exc:
        raise UsageError(f"game file is not valid JSON: {exc}") from exc
    return game_from_dict(doc)
