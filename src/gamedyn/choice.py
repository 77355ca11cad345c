"""Soft-max choice map and its calculus.

All maps take a temperature eps > 0.  The block soft-max is

    sigma_i(z) = exp(z_i / eps) / sum_j exp(z_j / eps),

computed with max subtraction.  log_sum_exp is its potential,
eps * log sum_j exp(z_j / eps), whose gradient is the soft-max and whose
Bregman divergence serves as a Lyapunov function for the score dynamics.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence

import numpy as np

from .errors import DomainError

# Reductions called as ufuncs skip the per-call wrapper cost of
# ndarray.all/max/sum and give the same values.
_all = np.logical_and.reduce
_max = np.maximum.reduce
_sum = np.add.reduce


def _check_counts(action_counts: Sequence[int]) -> tuple[int, ...]:
    """A layout of per-player action counts as a tuple of ints: a non-empty
    sequence of whole numbers, each at least 2, or a DomainError."""
    try:
        values = tuple(action_counts)
        counts = tuple(int(c) for c in values)
    except (TypeError, ValueError, OverflowError):
        values = counts = ()
    if not counts or counts != values or min(counts) < 2:
        raise DomainError("every player needs at least two actions")
    return counts


def block_slices(counts: tuple[int, ...]) -> tuple[slice, ...]:
    """Slices of the per-player blocks in a concatenated profile."""
    return tuple(slice(end - c, end) for c, end in zip(counts, accumulate(counts)))


def _check_eps(eps: float) -> float:
    eps = float(eps)
    if not 0.0 < eps < np.inf:
        raise DomainError(f"temperature must be positive and finite, got {eps!r}")
    if 1.0 / eps == np.inf:
        raise DomainError(f"temperature eps={eps!r} is too small: 1/eps is not finite")
    return eps


def _check_finite(z: np.ndarray) -> None:
    if not _all(np.isfinite(z), axis=None):
        raise DomainError("non-finite entries in score input")


def _check_length(state: np.ndarray, n: int, what: str = "score vector") -> None:
    length = state.shape[-1] if state.ndim else 0
    if length != n:
        raise DomainError(f"{what} has length {length}, expected {n}")


def _check_vector(v, n: int, what: str) -> np.ndarray:
    """v as a float array of shape (n,), or a DomainError."""
    v = np.asarray(v, dtype=float)
    if v.shape != (n,):
        raise DomainError(f"{what} has shape {v.shape}, expected ({n},)")
    return v


def softmax(z, eps: float, action_counts: Sequence[int]) -> np.ndarray:
    """Per-player soft-max of a concatenated score vector (batch dims allowed)."""
    eps = _check_eps(eps)
    z = np.asarray(z, dtype=float)
    counts = _check_counts(action_counts)
    _check_length(z, sum(counts))
    _check_finite(z)
    out = np.empty(z.shape)
    # the scores' axis first, as np.moveaxis(z, -1, 0) at a fraction of its cost
    first = (-1, *range(z.ndim - 1))
    _bind_softmax(eps, counts, z.transpose(first), out.transpose(first))()
    return out


# numpy's last-axis add.reduce adds blocks at least this wide pairwise
_PAIRWISE_WIDTH = 8


def _bind_softmax(eps: float, counts: tuple[int, ...], z: np.ndarray, out: np.ndarray):
    """The per-player soft-max of scores z into an output out of the same
    shape, for a validated eps and block layout.  Both are coordinate-major,
    scores along the first axis: a batch is (n, rows), so that each score
    is one contiguous row.  Returns a zero-argument evaluation that writes
    sigma(z) into out and returns it: the block views of z and out, the
    scratch and eps as a 0-d array are made once, so the evaluation reads
    whatever z holds when it is called, checks nothing and is not
    re-entrant.

    Equal blocks are split into (players, width, rows) and run together,
    unequal ones block by block as (1, width, rows).  Each block is shifted
    by its maximum, divided by eps (left out at eps == 1, where it is
    exact), exponentiated and divided by its sum: bit for bit the
    arithmetic of the plain expression over a last axis.  The maximum and
    the sum reduce the action axis in one call each, which numpy runs as
    one pass per action row over the contiguous rows, adding left to
    right: the order of its last-axis add.reduce up to 7 terms.  From
    _PAIRWISE_WIDTH actions that add.reduce adds pairwise, so a wider block
    is copied action-last and summed along its last axis.  The work runs in
    place in a contiguous array (the block view of out when that is
    contiguous), as ufuncs on strided views cost more per call, and the
    last division writes into out.
    """
    if len(set(counts)) == 1:
        # splitting the first axis always gives a view, of z as of out
        shape = (len(counts), counts[0]) + out.shape[1:]
        views = [(z.reshape(shape), out.reshape(shape))]
    else:
        views = [(z[sl][None], out[sl][None]) for sl in block_slices(counts)]
    parts = []
    for zb, view in views:
        w = view if view.flags.c_contiguous else np.empty(view.shape)
        col = np.empty(view.shape[:1] + view.shape[2:])
        last = wide = None
        if view.shape[1] >= _PAIRWISE_WIDTH:
            last = w.transpose((0, *range(2, w.ndim), 1))  # the action axis last
            wide = np.empty(last.shape)
        parts.append((zb, view, w, col, col[:, None], last, wide))
    scale = None if eps == 1.0 else np.array(eps, dtype=float)
    subtract, divide, exp = np.subtract, np.divide, np.exp

    def sigma() -> np.ndarray:
        for zb, view, w, col, spread, last, wide in parts:
            _max(zb, axis=1, out=col)
            subtract(zb, spread, w)
            if scale is not None:
                divide(w, scale, w)
            exp(w, w)
            if wide is None:
                _sum(w, axis=1, out=col)
            else:
                np.copyto(wide, last)
                _sum(wide, axis=-1, out=col)
            divide(w, spread, view)
        return out

    return sigma


def log_sum_exp(z_block, eps: float) -> np.ndarray:
    """eps * log sum exp(z / eps) over the last axis, max-subtracted; the
    last axis must hold at least one score."""
    eps = _check_eps(eps)
    z = np.asarray(z_block, dtype=float)
    if z.shape[-1:] == (0,):
        raise DomainError(f"score block of shape {z.shape} has no score on its last axis")
    _check_finite(z)
    m = z.max(axis=-1)
    shifted = z - m[..., None]
    return m + eps * np.log(np.exp(shifted / eps).sum(axis=-1))


def profile_jacobian(z, eps: float, action_counts: Sequence[int]) -> np.ndarray:
    """Block-diagonal Jacobian of the per-player soft-max at a full profile."""
    counts = _check_counts(action_counts)
    z = _check_vector(z, sum(counts), "score vector")
    return _jacobian_at(softmax(z, eps, counts), float(eps), counts)


def _jacobian_at(x: np.ndarray, eps: float, counts: tuple[int, ...]) -> np.ndarray:
    """The soft-max Jacobian from the profile x = sigma(z) it is taken at:
    block (diag(x^p) - x^p x^p^T) / eps per player, zero off the diagonal."""
    player = np.repeat(np.arange(len(counts)), counts)
    same = player[:, None] == player
    return (np.diag(x) - np.where(same, np.outer(x, x), 0.0)) / eps


def bregman_lse(z, z_ref, eps: float, action_counts: Sequence[int]) -> np.ndarray:
    """Bregman divergence of the summed per-player log_sum_exp potentials,

        V_ref(z) = sum_p [ lse(z^p) - lse(ref^p) - sigma(ref^p) . (z^p - ref^p) ],

    nonnegative and zero iff z - ref is constant on each block.  z may carry
    batch dims; z_ref is a single profile.
    """
    eps = _check_eps(eps)
    z = np.asarray(z, dtype=float)
    counts = _check_counts(action_counts)
    n = sum(counts)
    _check_length(z, n)
    ref = _check_vector(z_ref, n, "z_ref")
    _check_finite(z)
    sigma_ref = softmax(ref, eps, counts)
    total = np.zeros(z.shape[:-1])
    for sl in block_slices(counts):
        zb = z[..., sl]
        rb = ref[sl]
        sb = sigma_ref[sl]
        total = total + (log_sum_exp(zb, eps) - log_sum_exp(rb, eps)
                         - (zb - rb) @ sb)
    return total
