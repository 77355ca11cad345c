"""Score dynamics: continuous-time fields, a fixed-step RK4 integrator,
and discrete/stochastic recursions.

The first-order flow keeps an exponentially discounted score per action,

    zdot = gamma * (U(sigma(z)) - z),        x = sigma(z),

with the undiscounted variant zdot = U(sigma(z)) behind a flag.  The
higher-order flow passes the payoff through a strictly-proper feedback
filter (A, B, C, D) with zero DC gain before it reaches the score:

    zdot  = gamma * (U(x) - z - v),  xidot = A xi + B x,  v = C xi + D x.

Every score field, including the increment of the discrete scheme, comes
from one bound kernel, _bind_field, in which the filter is an option of a
group of rows.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .choice import _bind_softmax, _check_eps, block_slices, softmax
from .errors import ConfigurationError, DomainError, IntegrationDivergedError
from .games import (GameSpec, _bind_payoff, expected_payoff_vector,
                    linear_game_map)


@dataclass(frozen=True)
class LearningParams:
    """Learning rate gamma, soft-max temperature eps, and the discount switch."""

    gamma: float = 1.0
    eps: float = 1.0
    undiscounted: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.gamma) and self.gamma > 0.0):
            raise DomainError(f"gamma must be positive, got {self.gamma!r}")
        _check_eps(self.eps)


@dataclass
class FeedbackBlock:
    """State-space payoff filter H(s) = C (sI - A)^-1 B + D, stored as full
    block-diagonal matrices over all score coordinates."""

    a_mat: np.ndarray
    b_mat: np.ndarray
    c_mat: np.ndarray
    d_mat: np.ndarray

    def __post_init__(self):
        mats = [np.ascontiguousarray(m, dtype=float)
                for m in (self.a_mat, self.b_mat, self.c_mat, self.d_mat)]
        shapes = {m.shape for m in mats}
        if len(shapes) != 1 or mats[0].ndim != 2 or mats[0].shape[0] != mats[0].shape[1]:
            raise DomainError("feedback block matrices must be square and equally sized")
        if not all(np.all(np.isfinite(m)) for m in mats):
            raise DomainError("feedback block matrices must be finite")
        self.a_mat, self.b_mat, self.c_mat, self.d_mat = mats

    @classmethod
    def high_pass(cls, gain: float, cutoff: float, action_counts: Sequence[int]) -> "FeedbackBlock":
        """First-order high-pass filter K s / (s + a) applied per coordinate."""
        gain = float(gain)
        cutoff = float(cutoff)
        if not 0.0 < cutoff < np.inf:
            raise DomainError(f"cutoff must be positive and finite, got {cutoff!r}")
        if not 0.0 <= gain < np.inf:
            raise DomainError(f"gain must be nonnegative and finite, got {gain!r}")
        n = int(sum(action_counts))
        eye = np.eye(n)
        return cls(-cutoff * eye, -cutoff * eye, gain * eye, gain * eye)

    @property
    def dim(self) -> int:
        return self.a_mat.shape[0]

    def spectral_abscissa(self) -> float:
        return float(np.linalg.eigvals(self.a_mat).real.max())

    def dc_gain(self) -> np.ndarray:
        """H(0) = -C A^-1 B + D; raises ConfigurationError when A is singular."""
        try:
            inv_b = np.linalg.solve(self.a_mat, self.b_mat)
        except np.linalg.LinAlgError as exc:
            raise ConfigurationError("feedback block has singular A matrix") from exc
        return -self.c_mat @ inv_b + self.d_mat

    def ensure_valid(self, dc_tol: float = 1e-10) -> None:
        """Check that A is Hurwitz and the DC gain is zero."""
        if self.spectral_abscissa() >= 0.0:
            raise ConfigurationError("feedback block A matrix is not Hurwitz")
        dc = float(np.abs(self.dc_gain()).max())
        if dc > dc_tol:
            raise ConfigurationError(f"feedback block DC gain {dc:.3e} exceeds {dc_tol:.1e}")

    def equilibrium_filter_state(self, x_star: np.ndarray) -> np.ndarray:
        """xi* = -A^-1 B x*, the filter state at a rest point with strategy x*."""
        return np.linalg.solve(self.a_mat, -self.b_mat @ np.asarray(x_star, dtype=float))


@dataclass
class FeedbackBlockReport:
    """Certification result for a feedback block."""

    hurwitz_ok: bool
    spectral_abscissa: float
    zero_dc_ok: bool
    dc_gain_norm: float
    grid_positive_real_ok: bool
    min_hermitian_eigenvalue: float
    frequencies: np.ndarray

    @property
    def passed(self) -> bool:
        return self.hurwitz_ok and self.zero_dc_ok and self.grid_positive_real_ok

    def to_dict(self) -> dict:
        return {
            "hurwitz_ok": self.hurwitz_ok,
            "spectral_abscissa": self.spectral_abscissa,
            "zero_dc_ok": self.zero_dc_ok,
            "dc_gain_norm": self.dc_gain_norm,
            "grid_positive_real_ok": self.grid_positive_real_ok,
            "min_hermitian_eigenvalue": self.min_hermitian_eigenvalue,
            "frequency_range": [float(self.frequencies[0]), float(self.frequencies[-1])],
            "n_frequencies": int(len(self.frequencies)),
            "passed": self.passed,
        }


def verify_feedback_block(block: FeedbackBlock, freqs: np.ndarray | None = None,
                          dc_tol: float = 1e-10) -> FeedbackBlockReport:
    """Certify a feedback block: A Hurwitz, H(0) = 0, and positive realness
    of H(jw) on a logarithmic frequency grid (default 1e-3..1e3 rad/s,
    200 points, minimum eigenvalue of the Hermitian part)."""
    if freqs is None:
        freqs = np.logspace(-3.0, 3.0, 200)
    freqs = np.asarray(freqs, dtype=float)
    abscissa = block.spectral_abscissa()
    dc_norm = float(np.abs(block.dc_gain()).max())
    n = block.dim
    eye = np.eye(n)
    min_eig = np.inf
    for w in freqs:
        h = block.c_mat @ np.linalg.solve(1j * w * eye - block.a_mat, block.b_mat) + block.d_mat
        herm = 0.5 * (h + h.conj().T)
        min_eig = min(min_eig, float(np.linalg.eigvalsh(herm).min()))
    return FeedbackBlockReport(
        hurwitz_ok=abscissa < 0.0,
        spectral_abscissa=abscissa,
        zero_dc_ok=dc_norm <= dc_tol,
        dc_gain_norm=dc_norm,
        grid_positive_real_ok=min_eig > 0.0,
        min_hermitian_eigenvalue=float(min_eig),
        frequencies=freqs,
    )


# ---------------------------------------------------------------- vector fields

def _check_length(state: np.ndarray, n: int, what: str = "score vector") -> None:
    length = state.shape[-1] if state.ndim else 0
    if length != n:
        raise DomainError(f"{what} has length {length}, expected {n}")


def _filter_matrix(game: GameSpec, block: FeedbackBlock) -> np.ndarray:
    """The stacked W = [[Phi^T - D^T, B^T], [-C^T, A^T]], which turns
    [sigma(z), xi] into (U - v, xidot) in one product; a game without a
    linear map Phi leaves Phi^T out of W."""
    n = game.total_actions
    if block.dim != n:
        raise DomainError(f"feedback block has dimension {block.dim}, expected {n}")
    phi = linear_game_map(game)
    top = -block.d_mat.T if phi is None else phi.T - block.d_mat.T
    return np.block([[top, block.b_mat.T], [-block.c_mat.T, block.a_mat.T]])


def _group(rows: int, params: LearningParams, filtered: bool) -> tuple:
    """The row group (rows, filtered, gamma) of _bind_field for a run; gamma
    None marks the undiscounted first-order field.  The filtered field
    ignores the discount switch."""
    undiscounted = params.undiscounted and not filtered
    return rows, filtered, None if undiscounted else params.gamma


def _bind_field(
    game: GameSpec, eps: float, block: FeedbackBlock | None,
    groups: Sequence[tuple[int, bool, float | None]],
) -> Callable[[np.ndarray], np.ndarray]:
    """The score field of consecutive row groups (rows, filtered, gamma)
    that share the game, eps and the validated block, with everything that
    is fixed across RK4 stages bound once.  A filtered group evaluates
    gamma (U - z - v) and xidot, a first-order group gamma (U - z), and a
    first-order group with gamma None the undiscounted U(sigma(z)).

    One group takes a state of any leading shape.  Several groups take the
    rows of any leading groups, so rows can leave a batch at group
    boundaries.  The map checks only that each soft-max input is finite.

    The payoff map is games._bind_payoff; filtered rows multiply
    [sigma(z), xi] by the stacked W of _filter_matrix and add U(sigma(z))
    when the game has no linear map.  Every row gets the arithmetic of a
    separate run of its group.  BLAS rounds a one-row product (gemv)
    differently from a product over several rows (gemm), and a wider or
    zero-padded product differently again, so each stage multiplies every
    group by its own map: filtered rows by W, first-order rows by Phi^T (or
    U(x) without a linear map).  Neighbouring groups of one scheme that
    each have several rows share one product, since gemm rounds each row of
    such a product alike.  First-order rows carry a zero filter state when
    the batch has filtered rows.
    """
    n = game.total_actions
    plans = {}
    segments: list[list] = []
    gammas: list[float | None] = []
    stop = 0
    for rows, filtered, gamma in groups:
        start, stop = stop, stop + rows
        if segments and segments[-1][2:] == [filtered, True] and rows > 1:
            segments[-1][1] = stop
        else:
            segments.append([start, stop, filtered, rows > 1])
        gammas += [gamma] * rows
        g = gammas[0] if len(set(gammas)) == 1 else np.array(gammas)[:, None]
        plans[stop] = ([(slice(a, b), f) for a, b, f, _ in segments], g)
    single = ([(..., groups[0][1])], groups[0][2]) if len(groups) == 1 else None

    sigma = _bind_softmax(eps, game.action_counts)
    payoff = _bind_payoff(game)
    phi = linear_game_map(game)
    phi_t = None if phi is None else phi.T
    w_mat = None if block is None else _filter_matrix(game, block)

    def field(state: np.ndarray) -> np.ndarray:
        segs, g = single or plans[len(state)]
        out = np.zeros(state.shape)
        # without a filter the state is all scores
        z, dz = (state, out) if w_mat is None else (state[..., :n], out[..., :n])
        x = sigma(z)
        if w_mat is not None:
            y = state.copy()
            y[..., :n] = x
        u = None if phi_t is not None else payoff(x)
        for rows, filtered in segs:
            if filtered:
                np.matmul(y[rows], w_mat, out=out[rows])
                if u is not None:
                    dz[rows] += u[rows]
            elif u is None:
                np.matmul(x[rows], phi_t, out=dz[rows])
            else:
                dz[rows] = u[rows]
        if g is not None:
            dz -= z
            dz *= g
        return out

    return field


def first_order_field(z, game: GameSpec, params: LearningParams) -> np.ndarray:
    """zdot = gamma (U(sigma(z)) - z), or U(sigma(z)) when undiscounted."""
    z = np.asarray(z, dtype=float)
    _check_length(z, game.total_actions)
    return _bind_field(game, params.eps, None, [_group(1, params, False)])(z)


def higher_order_field(state, game: GameSpec, params: LearningParams,
                       block: FeedbackBlock) -> np.ndarray:
    """Combined (z, xi) field of the filtered score dynamics."""
    block.ensure_valid()
    state = np.asarray(state, dtype=float)
    _check_length(state, 2 * game.total_actions, "state")
    return _bind_field(game, params.eps, block, [_group(1, params, True)])(state)


def induced_strategy_field(z, game: GameSpec, params: LearningParams) -> np.ndarray:
    """Strategy-space image of the first-order flow at x = sigma(z):

        xdot_i = (gamma/eps) x_i [ (u_i - x.u) - (z_i - x.z) ]   per block."""
    z = np.asarray(z, dtype=float)
    x = softmax(z, params.eps, game.action_counts)
    u = expected_payoff_vector(game, x)
    scale = params.gamma / params.eps
    out = np.empty_like(x)
    for sl in game.block_slices:
        xb, ub, zb = x[..., sl], u[..., sl], z[..., sl]
        mean_u = (xb * ub).sum(axis=-1, keepdims=True)
        mean_z = (xb * zb).sum(axis=-1, keepdims=True)
        out[..., sl] = scale * xb * ((ub - mean_u) - (zb - mean_z))
    return out


def revision_protocol_field(x, z, game: GameSpec, params: LearningParams,
                            adjustment: np.ndarray | None = None) -> np.ndarray:
    """Mean dynamics of the pairwise revision protocol whose switch rate to
    action j is (gamma/eps) x_j (u_j - adj_j - z_j), evaluated literally as
    inflow minus outflow.  Equals induced_strategy_field when x = sigma(z)
    and adjustment is None; pass the filter output v to get the
    higher-order variant."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if x.shape != z.shape or x.shape != (game.total_actions,):
        raise DomainError("x and z must be single profiles of matching length")
    u = expected_payoff_vector(game, x)
    if adjustment is not None:
        u = u - np.asarray(adjustment, dtype=float)
    scale = params.gamma / params.eps
    out = np.empty_like(x)
    for sl in game.block_slices:
        xb, ub, zb = x[sl], u[sl], z[sl]
        c = xb.size
        # rho[i, j]: switch rate from action i to action j.
        rho = scale * np.tile(xb * (ub - zb), (c, 1))
        inflow = xb @ rho
        outflow = xb * rho.sum(axis=1)
        out[sl] = inflow - outflow
    return out


# ------------------------------------------------------------------ integration

@dataclass
class Trajectory:
    """Sampled solution: times (m,), states (m, d), strategies (m, n)."""

    times: np.ndarray
    states: np.ndarray
    strategies: np.ndarray | None = None
    lyapunov: np.ndarray | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.times.ndim != 1 or len(self.times) != len(self.states):
            raise DomainError("times and states must align")
        if len(self.times) > 1 and np.any(np.diff(self.times) <= 0.0):
            raise DomainError("times must be strictly increasing")
        if self.strategies is not None:
            self.strategies = np.asarray(self.strategies, dtype=float)


def _horizon_steps(dt: float, t_end: float, record_every: int = 1) -> int:
    """The RK4 step count of a horizon, after checking the sampling."""
    if not (dt > 0.0 and dt <= t_end < np.inf) or record_every < 1:
        raise DomainError("dt must be positive, t_end finite and >= dt, "
                          "and record_every >= 1")
    return int(round(t_end / dt))


def integrate(field: Callable[[np.ndarray], np.ndarray], state0, dt: float,
              t_end: float, record_every: int = 1,
              strategy_fn: Callable[[np.ndarray], np.ndarray] | None = None,
              row_t_end: Sequence[float] | None = None):
    """Classical fixed-step RK4.

    state0 of shape (d,) yields one Trajectory; shape (b, d) integrates a
    batch in lockstep and yields a list of Trajectories.  Samples are taken
    every record_every steps plus the final step.  row_t_end gives each row
    of a batch its own horizon, longest first, the first equal to t_end: a
    row leaves the batch after its final step, and field then gets the
    leading rows that remain.  Each row records the samples a run to its
    own horizon records.  A non-finite sample, or a DomainError from field
    on a non-finite stage input, stops integration with
    IntegrationDivergedError carrying the last good time.

    field must be a pure function of the state, and give each row the same
    result whichever rows share the batch: a recorded step whose state
    equals the previous one bit for bit is an exact fixed point of the RK4
    map, so the remaining samples repeat it and integration stops there.
    """
    dt = float(dt)
    t_end = float(t_end)
    record_every = int(record_every)
    n_steps = _horizon_steps(dt, t_end, record_every)
    s = np.array(state0, dtype=float)
    if s.ndim not in (1, 2):
        raise DomainError("state0 must be a vector or a batch of vectors")
    batched = s.ndim == 2
    row_steps = [n_steps] * (len(s) if batched else 1)
    if row_t_end is not None:
        row_steps = [_horizon_steps(dt, float(h)) for h in row_t_end]
        if (not batched or len(row_steps) != len(s) or row_steps[0] != n_steps
                or any(a < b for a, b in zip(row_steps, row_steps[1:]))):
            raise DomainError("row_t_end needs one horizon per batch row, "
                              "longest first, the first equal to t_end")
    ends = sorted(set(row_steps))
    remaining = {end: sum(r > end for r in row_steps) for end in ends}
    sample_steps = np.array(sorted({*range(0, n_steps + 1, record_every), *ends}))
    rec = np.empty((len(sample_steps),) + s.shape)
    rec[0] = s
    i = 1
    next_end = ends[0]
    sixth = dt / 6.0
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(n_steps):
                prev = s
                k1 = field(s)
                k2 = field(s + 0.5 * dt * k1)
                k3 = field(s + 0.5 * dt * k2)
                k4 = field(s + dt * k3)
                s = s + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                step = k + 1
                if step % record_every == 0 or step == next_end:
                    if not np.all(np.isfinite(s)):
                        raise IntegrationDivergedError(
                            f"non-finite state at t={step * dt:.6g}",
                            last_good_time=float(sample_steps[i - 1] * dt))
                    rec[i, :len(s)] = s  # rows that left keep their samples
                    i += 1
                    if np.array_equal(s.view(np.uint64), prev.view(np.uint64)):
                        rec[i:, :len(s)] = s
                        break
                    if step == next_end and step < n_steps:
                        s = s[:remaining[step]]
                        next_end = ends[ends.index(step) + 1]
    except DomainError as exc:
        last_good = float(sample_steps[i - 1] * dt)
        raise IntegrationDivergedError(
            f"non-finite stage input after t={last_good:.6g}",
            last_good_time=last_good) from exc
    times = sample_steps * dt
    if not batched:
        strategies = strategy_fn(rec) if strategy_fn is not None else None
        return Trajectory(times, rec, strategies)
    on_grid = sample_steps % record_every == 0
    trajs = []
    for row, last in enumerate(row_steps):
        keep = (sample_steps <= last) & (on_grid | (sample_steps == last))
        states = rec[keep, row]
        strategies = strategy_fn(states) if strategy_fn is not None else None
        trajs.append(Trajectory(times[keep], states, strategies))
    return trajs


def seeded_initial_scores(n: int, seed: int, low: float = -1.0, high: float = 1.0) -> np.ndarray:
    """Deterministic initial score draw, uniform per coordinate."""
    return np.random.default_rng(int(seed)).uniform(low, high, int(n))


@dataclass(frozen=True, eq=False)
class SimulationRun:
    """One run of simulate_batch: initial scores z0, (n,) or a batch (b, n),
    integrated to t_end under params.  A feedback block makes the run
    filtered, with the filter state starting at xi0 (at rest by default)."""

    params: LearningParams
    z0: np.ndarray
    t_end: float = 500.0
    block: FeedbackBlock | None = None
    xi0: np.ndarray | None = None


def _same_block(a: FeedbackBlock, b: FeedbackBlock) -> bool:
    return a is b or all(np.array_equal(m, k) for m, k in zip(
        (a.a_mat, a.b_mat, a.c_mat, a.d_mat), (b.a_mat, b.b_mat, b.c_mat, b.d_mat)))


def simulate_batch(game: GameSpec, runs: Sequence[SimulationRun], dt: float = 0.01,
                   record_every: int = 10) -> list:
    """Integrate several runs on one game as a single lockstep RK4 batch.

    The runs share the game, the temperature eps and at most one feedback
    block; each has its own gamma and horizon, and is filtered when it
    carries the block.  An undiscounted first-order run cannot share a
    batch.  A z0 of shape (n,) is a one-row run.  All rows start together
    and each leaves the batch after its last sample.  Returns one entry per
    run, as simulate_first_order or simulate_higher_order returns it for
    that run alone, with the same samples bit for bit.
    """
    runs = list(runs)
    if not runs:
        raise DomainError("simulate_batch needs at least one run")
    n = game.total_actions
    eps = runs[0].params.eps
    blocks = [run.block for run in runs if run.block is not None]
    block = blocks[0] if blocks else None
    if any(run.params.eps != eps for run in runs):
        raise DomainError("runs in one batch must share eps")
    if any(not _same_block(b, block) for b in blocks):
        raise DomainError("runs in one batch must share one feedback block")
    if len(runs) > 1 and any(r.params.undiscounted and r.block is None for r in runs):
        raise DomainError("an undiscounted run cannot share a batch")
    if block is not None:
        block.ensure_valid()
    dt = float(dt)
    starts = []
    for run in runs:
        z0 = np.asarray(run.z0, dtype=float)
        _check_length(z0, n)
        if run.block is None and run.xi0 is not None:
            raise DomainError("xi0 needs a filtered run")
        if block is None:
            starts.append(z0)
            continue
        xi0 = np.zeros_like(z0) if run.xi0 is None else np.asarray(run.xi0, dtype=float)
        if xi0.shape != z0.shape:
            raise DomainError("xi0 must match the shape of z0")
        starts.append(np.concatenate([z0, xi0], axis=-1))
    counts = game.action_counts

    def strat(states: np.ndarray) -> np.ndarray:
        return softmax(states[..., :n], eps, counts)

    if any(z.ndim > 2 for z in starts):
        raise DomainError("z0 must be a vector or a batch of vectors")
    starts = [np.atleast_2d(z) for z in starts]
    if not any(len(z) for z in starts):
        raise DomainError("simulate_batch needs at least one initial score row")
    steps = [_horizon_steps(dt, float(run.t_end), int(record_every)) for run in runs]
    order = sorted(range(len(runs)), key=lambda i: (
        -steps[i], runs[i].block is not None, len(starts[i]) == 1))
    groups = [_group(len(starts[i]), runs[i].params, runs[i].block is not None)
              for i in order]
    field = _bind_field(game, eps, block, groups)
    row_t_end = [float(runs[i].t_end) for i in order for _ in range(len(starts[i]))]
    row_trajs = integrate(field, np.concatenate([starts[i] for i in order]), dt,
                          row_t_end[0], record_every, strat, row_t_end=row_t_end)
    out: list = [None] * len(runs)
    for i in order:
        trajs, row_trajs = row_trajs[:len(starts[i])], row_trajs[len(starts[i]):]
        if block is not None and runs[i].block is None:
            trajs = [Trajectory(t.times, t.states[:, :n].copy(), t.strategies)
                     for t in trajs]
        out[i] = trajs if np.ndim(runs[i].z0) == 2 else trajs[0]
    return out


def simulate_first_order(game: GameSpec, params: LearningParams, z0,
                         dt: float = 0.01, t_end: float = 500.0,
                         record_every: int = 10):
    """Integrate the first-order score flow from z0 ((n,) or batch (b, n))."""
    return simulate_batch(game, [SimulationRun(params, z0, t_end)], dt, record_every)[0]


def simulate_higher_order(game: GameSpec, params: LearningParams,
                          block: FeedbackBlock, z0, xi0=None,
                          dt: float = 0.01, t_end: float = 500.0,
                          record_every: int = 10):
    """Integrate the filtered score flow; the filter starts at rest (xi0 = 0)."""
    return simulate_batch(game, [SimulationRun(params, z0, t_end, block, xi0)],
                          dt, record_every)[0]


# ------------------------------------------------- discrete-time recursions

def euler_step(z, game: GameSpec, params: LearningParams, alpha: float):
    """One explicit Euler step Z+ = Z + alpha gamma (U(sigma(Z)) - Z).

    Returns (Z+, sigma(Z+)).  With alpha * gamma = 1 this is the exact
    best-scored update Z+ = U(sigma(Z)).  The increment is the first-order
    field at gamma = 1, so the discount switch plays no part.
    """
    alpha = _check_alpha(alpha)
    z = np.asarray(z, dtype=float)
    _check_length(z, game.total_actions)
    increment = _bind_field(game, params.eps, None, [(1, False, 1.0)])
    z_next = z + alpha * params.gamma * increment(z)
    return z_next, softmax(z_next, params.eps, game.action_counts)


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"step size must lie in [0, 1], got {alpha!r}")
    return alpha


def _column_counts(game: GameSpec) -> tuple[int, ...]:
    """The action count of each column of a joint action: one column per
    player, or own and opponent draw in a matching game."""
    n = game.total_actions
    return (n, n) if game.matching else game.action_counts


def _bind_sampler(game: GameSpec):
    """The pure-action sampler of a game, with its block layout bound once:
    draw(x, rng, m) returns (m, columns) actions drawn from the float
    profile x, one column per entry of _column_counts.

    Column c inverts the cumulative sum of its block, last entry pinned to
    1, at uniforms u in [0, 1): the action is the number of entries <= u,
    which is searchsorted(cum, u, side="right") since the sum only grows
    before the pinned entry.  The blocks sit as rows of one zero-padded
    table, so one cumsum serves them all, and one rng.random call takes
    the m uniforms of each column in turn: the stream of one call per
    column.  The map does not check x.
    """
    counts = np.array(_column_counts(game))
    rows = np.repeat(np.arange(len(counts)), counts)
    cols = np.concatenate([np.arange(c) for c in counts])
    source = np.arange(len(rows)) % game.total_actions
    pinned = np.arange(counts.max()) >= counts[:, None] - 1

    def draw(x: np.ndarray, rng, m: int) -> np.ndarray:
        table = np.zeros(pinned.shape)
        table[rows, cols] = x[source]
        cum = table.cumsum(axis=1)
        cum[pinned] = 1.0
        uniforms = rng.random((len(counts), m))
        return (cum[:, None, :] <= uniforms[:, :, None]).sum(axis=2).T

    return draw


def _bind_estimate(game: GameSpec, mode: str):
    """The payoff estimator of payoff_estimate for one game and mode, with
    the sampler and the payoff tables built once: estimate(x, rng, m)
    returns (u_hat, actions, realized payoffs), each with the m draws on
    its first axis.  The map does not check x.

    Every payoff is a gather from the flattened payoff tensors (the one
    matrix of a matching game): the realized payoff of tensor p sits at
    offsets[p] + a @ strides for the joint action a, and the payoff of
    score entry j against the others' actions at base[j] + a @ others[:, j].
    """
    if mode not in ("full-info", "bandit"):
        raise DomainError(f"unknown estimator mode {mode!r}")
    draw = _bind_sampler(game)
    full_info = mode == "full-info"
    n = game.total_actions
    counts = _column_counts(game)
    columns = np.arange(len(counts))
    payers = columns[:len(game.payoff_tensors)]
    strides = np.array([int(np.prod(counts[c + 1:])) for c in columns])
    flat = np.concatenate([t.ravel() for t in game.payoff_tensors])
    offsets = payers * int(np.prod(counts))
    column_of = np.repeat(payers, counts[:len(payers)])
    own_action = np.concatenate([np.arange(counts[p]) for p in payers])
    base = offsets[column_of] + own_action * strides[column_of]
    others = np.where(columns[:, None] == column_of, 0, strides[:, None])
    starts = np.array([sl.start for sl in game.block_slices])

    def estimate(x: np.ndarray, rng, m: int):
        acts = draw(x, rng, m)
        realized = flat[offsets + (acts @ strides)[:, None]]
        if full_info:
            return flat[base + acts @ others], acts, realized
        u_hat = np.zeros((m, n))
        own = starts + acts[:, payers]
        u_hat[np.arange(m)[:, None], own] = realized / x[own]
        return u_hat, acts, realized

    return estimate


def sample_joint_actions(game: GameSpec, x, rng, size: int | None = None) -> np.ndarray:
    """Sample pure actions from a mixed profile, one column per player.

    Matching games return two columns (own draw, opponent draw from the same
    population).  With size=None a single (columns,) vector is returned.
    """
    x = np.asarray(getattr(x, "vector", x), dtype=float)
    _check_length(x, game.total_actions, "profile")
    acts = _bind_sampler(game)(x, np.random.default_rng(rng),
                               1 if size is None else int(size))
    return acts[0] if size is None else acts


def payoff_estimate(game: GameSpec, x, rng, mode: str = "full-info",
                    size: int | None = None):
    """Unbiased one-shot payoff estimate from realized pure actions.

    full-info: every entry of the own block is the pure payoff against the
    opponents' realized actions.  bandit: only the realized own action gets
    its realized payoff divided by its probability; all other entries are 0.

    Returns (u_hat, actions, realized_payoffs); with integer size the first
    axis of each output enumerates independent draws.
    """
    estimate = _bind_estimate(game, mode)
    x = np.asarray(getattr(x, "vector", x), dtype=float)
    _check_length(x, game.total_actions, "profile")
    draws = estimate(x, np.random.default_rng(rng), 1 if size is None else int(size))
    return tuple(a[0] for a in draws) if size is None else draws


def stochastic_step(z, game: GameSpec, params: LearningParams, alpha: float,
                    rng, mode: str = "full-info"):
    """One stochastic-approximation step Z+ = Z + alpha gamma (u_hat - Z).

    Returns (Z+, sigma(Z+), actions, realized_payoffs).  alpha = 0 leaves
    the scores unchanged.
    """
    alpha = _check_alpha(alpha)
    estimate = _bind_estimate(game, mode)
    z = np.asarray(z, dtype=float)
    x = softmax(z, params.eps, game.action_counts)
    u_hat, acts, realized = estimate(x, np.random.default_rng(rng), 1)
    z_next = z + alpha * params.gamma * (u_hat[0] - z)
    return z_next, softmax(z_next, params.eps, game.action_counts), acts[0], realized[0]


def _check_run(steps: int, record_every: int) -> int:
    if record_every < 1:
        raise DomainError(f"record_every must be >= 1, got {record_every!r}")
    if steps < 0:
        raise DomainError(f"steps must be >= 0, got {steps!r}")
    if not float(steps).is_integer():
        raise DomainError(f"steps must be an integer, got {steps!r}")
    return int(steps)


def run_discrete(game: GameSpec, params: LearningParams, z0, alpha: float,
                 steps: int, record_every: int = 1):
    """Iterate the euler_step update; returns (ks, Z samples, X samples)."""
    steps = _check_run(steps, record_every)
    rate = _check_alpha(alpha) * params.gamma
    z = np.asarray(z0, dtype=float)
    _check_length(z, game.total_actions)
    increment = _bind_field(game, params.eps, None, [(1, False, 1.0)])
    ks = [0]
    zs = [z.copy()]
    for k in range(steps):
        z = z + rate * increment(z)
        if (k + 1) % record_every == 0 or k + 1 == steps:
            ks.append(k + 1)
            zs.append(z.copy())
    zs = np.stack(zs)
    xs = softmax(zs, params.eps, game.action_counts)
    return np.asarray(ks), zs, xs


def harmonic_schedule(k: int) -> float:
    """Diminishing step sequence alpha_k = 1 / (k + 1)."""
    return 1.0 / (k + 1.0)


def run_stochastic(game: GameSpec, params: LearningParams, z0, steps: int,
                   rng, mode: str = "full-info",
                   alpha_schedule: Callable[[int], float] = harmonic_schedule,
                   record_every: int = 1):
    """Iterate the stochastic_step update with a step-size schedule, with
    the soft-max and the payoff estimator bound once and one soft-max per
    step.

    Returns a dict with sampled ks, Z, X, realized joint actions and
    realized payoffs (aligned with the post-step sample index).
    """
    steps = _check_run(steps, record_every)
    rng = np.random.default_rng(rng)
    z = np.asarray(z0, dtype=float)
    _check_length(z, game.total_actions)
    sigma = _bind_softmax(params.eps, game.action_counts)
    estimate = _bind_estimate(game, mode)
    ks = [0]
    zs = [z.copy()]
    acts_log = [None]
    pay_log = [None]
    for k in range(steps):
        rate = _check_alpha(alpha_schedule(k)) * params.gamma
        u_hat, acts, realized = estimate(sigma(z), rng, 1)
        z = z + rate * (u_hat[0] - z)
        if (k + 1) % record_every == 0 or k + 1 == steps:
            ks.append(k + 1)
            zs.append(z.copy())
            acts_log.append(acts[0].copy())
            pay_log.append(realized[0].copy())
    zs = np.stack(zs)
    xs = softmax(zs, params.eps, game.action_counts)
    return {"ks": np.asarray(ks), "z": zs, "x": xs,
            "actions": acts_log, "payoffs": pay_log}


# ------------------------------------------------------------------- CSV output

def ternary_coordinates(x_block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Planar coordinates of 3-simplex points for plotting triangular orbits."""
    x_block = np.asarray(x_block, dtype=float)
    u = x_block[..., 1] + 0.5 * x_block[..., 2]
    v = (np.sqrt(3.0) / 2.0) * x_block[..., 2]
    return u, v


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def write_trajectory_csv(path: str | Path, traj: Trajectory,
                         action_counts: Sequence[int], ternary: bool = False) -> None:
    """One row per sample: t, scores, strategies, optional filter state,
    optional Lyapunov value, optional ternary projections.  A trajectory
    without strategies is refused before the file is opened."""
    if traj.strategies is None:
        raise DomainError("trajectory has no strategies to write")
    counts = tuple(int(c) for c in action_counts)
    n = sum(counts)
    d = traj.states.shape[1]
    header = ["t"] + [f"z_{i + 1}" for i in range(n)] + [f"x_{i + 1}" for i in range(n)]
    has_filter = d == 2 * n
    if has_filter:
        header += [f"xi_{i + 1}" for i in range(n)]
    if traj.lyapunov is not None:
        header.append("V")
    tern_blocks = []
    if ternary:
        for p, sl in enumerate(block_slices(counts)):
            if counts[p] == 3:
                tern_blocks.append(sl)
                header += [f"tern{p + 1}_u", f"tern{p + 1}_v"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, t in enumerate(traj.times):
            row = [_fmt(t)]
            row += [_fmt(v) for v in traj.states[i, :n]]
            row += [_fmt(v) for v in traj.strategies[i]]
            if has_filter:
                row += [_fmt(v) for v in traj.states[i, n:]]
            if traj.lyapunov is not None:
                row.append(_fmt(traj.lyapunov[i]))
            for sl in tern_blocks:
                u, v = ternary_coordinates(traj.strategies[i, sl])
                row += [_fmt(float(u)), _fmt(float(v))]
            writer.writerow(row)


def write_stochastic_csv(path: str | Path, record: dict,
                         action_counts: Sequence[int], matching: bool = False) -> None:
    """Rows k, Z, X plus the realized joint action and per-player payoff."""
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
