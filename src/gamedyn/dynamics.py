"""Score dynamics: continuous-time fields, a fixed-step RK4 integrator,
and discrete/stochastic recursions.

The first-order flow keeps an exponentially discounted score per action,

    zdot = gamma * (U(sigma(z)) - z),        x = sigma(z).

The higher-order flow passes the payoff through a strictly-proper feedback
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

from .choice import (_all, _bind_softmax, _check_eps, _check_finite, _sum,
                     block_slices, softmax)
from .errors import ConfigurationError, DomainError, IntegrationDivergedError
from .games import (GameSpec, _bind_payoff, expected_payoff_vector,
                    linear_game_map)


@dataclass(frozen=True)
class LearningParams:
    """Learning rate gamma and soft-max temperature eps."""

    gamma: float = 1.0
    eps: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.gamma) and self.gamma > 0.0):
            raise DomainError(f"gamma must be positive, got {self.gamma!r}")
        _check_eps(self.eps)


_DC_TOL = 1e-10  # the largest |H(0)| entry a feedback block may have


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

    def ensure_valid(self) -> None:
        """Check that A is Hurwitz and the DC gain is zero to 1e-10."""
        if self.spectral_abscissa() >= 0.0:
            raise ConfigurationError("feedback block A matrix is not Hurwitz")
        dc = float(np.abs(self.dc_gain()).max())
        if dc > _DC_TOL:
            raise ConfigurationError(f"feedback block DC gain {dc:.3e} exceeds {_DC_TOL:.1e}")

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


def verify_feedback_block(block: FeedbackBlock) -> FeedbackBlockReport:
    """Certify a feedback block: A Hurwitz, H(0) = 0 to 1e-10, and positive
    realness of H(jw) on a logarithmic frequency grid (1e-3..1e3 rad/s,
    200 points, minimum eigenvalue of the Hermitian part)."""
    freqs = np.logspace(-3.0, 3.0, 200)
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
        zero_dc_ok=dc_norm <= _DC_TOL,
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


def _bind_field(
    game: GameSpec, eps: float, block: FeedbackBlock | None,
    groups: Sequence[tuple[int, bool, float]],
) -> Callable[[np.ndarray], np.ndarray]:
    """The score field of consecutive row groups (rows, filtered, gamma)
    that share the game, eps and the validated block, with everything that
    is fixed across RK4 stages bound once.  A filtered group evaluates
    gamma (U - z - v) and xidot, a first-order group gamma (U - z).

    One group takes a state of any leading shape.  Several groups take the
    rows of any leading groups, so rows can leave a batch at group
    boundaries.  The map checks nothing: a non-finite state gives a
    non-finite result, which integrate finds at its next recorded sample.

    Each state shape gets its plan and scratch once: the product operand
    [sigma(z), xi] (sigma(z) alone without a filter), into which the bound
    soft-max writes, and the soft-max's own scratch.  Every call returns a
    new array and never writes into its input, but the shared scratch
    makes a bound field not re-entrant.  gamma == 1 skips its exact
    multiplication.

    The payoff map is games._bind_payoff; filtered rows multiply
    [sigma(z), xi] by the stacked W of _filter_matrix and add U(sigma(z))
    when the game has no linear map.  Every row gets the arithmetic of a
    separate run of its group.  BLAS rounds a one-row product (gemv)
    differently from a product over several rows (gemm), and a wider or
    zero-padded product differently again, so each stage multiplies every
    group by its own map: filtered rows by W, first-order rows by Phi^T (or
    U(x) without a linear map).  Neighbouring groups of one scheme that
    each have several rows share one product, since gemm rounds each row of
    such a product alike.  One-row groups are multiplied as stacked
    products, rows lifted to (rows, 1, d), and neighbouring ones of one
    scheme (the seeds of simulate) share one: numpy computes it as one gemv
    per row, the bits of their separate runs (tests/test_dynamics.py pins
    this for the BLAS at hand).
    First-order rows carry a zero filter state when the batch has filtered
    rows.
    """
    n = game.total_actions
    plans = {}
    segments: list[list] = []
    gammas: list[float] = []
    stop = 0
    for rows, filtered, gamma in groups:
        start, stop = stop, stop + rows
        if segments and segments[-1][2:] == [filtered, rows > 1]:
            segments[-1][1] = stop
        else:
            segments.append([start, stop, filtered, rows > 1])
        gammas += [gamma] * rows
        g = gammas[0] if len(set(gammas)) == 1 else np.array(gammas)[:, None]
        segs = []
        for a, b, f, several in segments:
            span = slice(a, b)
            # a stacked one-row product takes its rows as (rows, 1, d)
            segs.append((span, f, span if several else (span, None)))
        plans[stop] = (segs, g)
    single = ([(..., groups[0][1], ...)], groups[0][2]) if len(groups) == 1 else None

    payoff = _bind_payoff(game)
    phi = linear_game_map(game)
    phi_t = None if phi is None else phi.T
    w_mat = None if block is None else _filter_matrix(game, block)
    bound = {}

    def bind(shape: tuple) -> tuple:
        segs, g = single or plans[shape[0]]
        # first-order rows next to filtered ones keep a zero xidot
        mixed = w_mat is not None and not all(f for _, f, _ in segs)
        scale = None if np.isscalar(g) and g == 1.0 else g
        operand = np.empty(shape)
        x, tail = (operand, None) if w_mat is None else (operand[..., :n], operand[..., n:])
        products = [(rows, f, (operand if f else x)[index], index)
                    for rows, f, index in segs]
        plan = bound[shape] = (products, scale, np.zeros if mixed else np.empty,
                               _bind_softmax(eps, game.action_counts, x), x, tail)
        return plan

    def field(state: np.ndarray) -> np.ndarray:
        products, scale, new, sigma, x, tail = bound.get(state.shape) or bind(state.shape)
        out = new(state.shape)
        if tail is None:
            z, dz = state, out
        else:
            z, dz = state[..., :n], out[..., :n]
            tail[...] = state[..., n:]
        sigma(z)
        u = None if phi_t is not None else payoff(x)
        for rows, filtered, operand, index in products:
            if filtered:
                np.matmul(operand, w_mat, out=out[index])
                if u is not None:
                    dz[rows] += u[rows]
            elif u is None:
                np.matmul(operand, phi_t, out=dz[index])
            else:
                dz[rows] = u[rows]
        dz -= z
        if scale is not None:
            dz *= scale
        return out

    return field


def first_order_field(z, game: GameSpec, params: LearningParams) -> np.ndarray:
    """zdot = gamma (U(sigma(z)) - z)."""
    z = np.asarray(z, dtype=float)
    _check_length(z, game.total_actions)
    _check_finite(z)
    return _bind_field(game, params.eps, None, [(1, False, params.gamma)])(z)


def higher_order_field(state, game: GameSpec, params: LearningParams,
                       block: FeedbackBlock) -> np.ndarray:
    """Combined (z, xi) field of the filtered score dynamics."""
    block.ensure_valid()
    state = np.asarray(state, dtype=float)
    _check_length(state, 2 * game.total_actions, "state")
    _check_finite(state)
    return _bind_field(game, params.eps, block, [(1, True, params.gamma)])(state)


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


# ------------------------------------------------------------------ integration

@dataclass
class Trajectory:
    """Sampled path of every scheme: times (m,) (the iteration k of a
    recursion), states (m, d), strategies (m, n), Lyapunov values (m,), and
    the stochastic recursion's realized joint actions and payoffs, whose
    row 0 holds no draw (actions -1, payoffs NaN)."""

    times: np.ndarray
    states: np.ndarray
    strategies: np.ndarray | None = None
    lyapunov: np.ndarray | None = None
    actions: np.ndarray | None = None
    payoffs: np.ndarray | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.times.ndim != 1 or len(self.times) != len(self.states):
            raise DomainError("times and states must align")
        if len(self.times) > 1 and np.any(np.diff(self.times) <= 0.0):
            raise DomainError("times must be strictly increasing")
        if self.strategies is not None:
            self.strategies = np.asarray(self.strategies, dtype=float)
        for name in ("strategies", "lyapunov", "actions", "payoffs"):
            column = getattr(self, name)
            if column is not None and np.shape(column)[:1] != self.times.shape:
                raise DomainError(f"{name} of shape {np.shape(column)} needs "
                                  f"{len(self.times)} rows, one per sample")


def _check_whole(value, name: str, least: int) -> int:
    """value as an int, refused unless it is a whole number >= least."""
    if value < least:
        raise DomainError(f"{name} must be >= {least}, got {value!r}")
    if not float(value).is_integer():
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _horizon_steps(dt: float, t_end: float) -> int:
    """The RK4 step count of a horizon, after checking it."""
    if not (dt > 0.0 and dt <= t_end < np.inf):
        raise DomainError("dt must be positive, and t_end finite and >= dt")
    steps = t_end / dt
    if steps == np.inf:
        raise DomainError(f"t_end / dt = {t_end!r} / {dt!r} is not a finite step count")
    return int(round(steps))


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
    own horizon records.

    The loop checks nothing but its recorded samples.  A step that
    overflows carries NaN or inf to the next recorded sample, where a
    non-finite state stops integration with IntegrationDivergedError
    carrying the last good time.  Stage inputs and the weighted sum of the
    stages go to buffers allocated once, in the order of the plain
    s + dt/6 (k1 + 2 k2 + 2 k3 + k4), so every value is the same bit for
    bit.

    field must be a pure function of the state that returns a new array,
    and give each row the same result whichever rows share the batch: a
    recorded step whose state equals the previous one bit for bit is an
    exact fixed point of the RK4 map, so the remaining samples repeat it
    and integration stops there.
    """
    dt = float(dt)
    t_end = float(t_end)
    record_every = _check_whole(record_every, "record_every", 1)
    n_steps = _horizon_steps(dt, t_end)
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
    half = 0.5 * dt
    sixth = dt / 6.0
    stage = np.empty_like(s)
    # the weighted stage sum, then the new state; afterwards the previous one
    acc = np.empty_like(s)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            k1 = field(s)
            k2 = field(np.add(s, np.multiply(k1, half, out=stage), out=stage))
            k3 = field(np.add(s, np.multiply(k2, half, out=stage), out=stage))
            k4 = field(np.add(s, np.multiply(k3, dt, out=stage), out=stage))
            np.add(k1, np.multiply(k2, 2.0, out=acc), out=acc)
            np.add(acc, np.multiply(k3, 2.0, out=stage), out=acc)
            np.add(acc, k4, out=acc)
            np.add(s, np.multiply(acc, sixth, out=acc), out=acc)
            s, acc = acc, s
            step = k + 1
            if step % record_every == 0 or step == next_end:
                if not _all(np.isfinite(s), axis=None):
                    raise IntegrationDivergedError(
                        f"non-finite state at t={step * dt:.6g}",
                        last_good_time=float(sample_steps[i - 1] * dt))
                rec[i, :len(s)] = s  # rows that left keep their samples
                i += 1
                if _all(np.equal(s.view(np.uint64), acc.view(np.uint64)), axis=None):
                    rec[i:, :len(s)] = s
                    break
                if step == next_end and step < n_steps:
                    rows = remaining[step]
                    s, acc, stage = s[:rows], acc[:rows], stage[:rows]
                    next_end = ends[ends.index(step) + 1]
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


def seeded_initial_scores(n: int, seed: int) -> np.ndarray:
    """Deterministic initial score draw, uniform on [-1, 1] per coordinate."""
    return np.random.default_rng(int(seed)).uniform(-1.0, 1.0, int(n))


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
    carries the block.  A z0 of shape (n,) is a one-row run.  All rows
    start together and each leaves the batch after its last sample.
    Returns one entry per run, as simulate_first_order or
    simulate_higher_order returns it for that run alone, with the same
    samples bit for bit.
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
    record_every = _check_whole(record_every, "record_every", 1)
    steps = [_horizon_steps(dt, float(run.t_end)) for run in runs]
    order = sorted(range(len(runs)), key=lambda i: (
        -steps[i], runs[i].block is not None, len(starts[i]) == 1))
    groups = [(len(starts[i]), runs[i].block is not None, runs[i].params.gamma)
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
    field at gamma = 1.
    """
    alpha = _check_alpha(alpha)
    z = np.asarray(z, dtype=float)
    _check_length(z, game.total_actions)
    _check_finite(z)
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


def _bandit(mode: str) -> bool:
    """Whether an estimator mode is the bandit one, refusing unknown modes."""
    if mode not in ("full-info", "bandit"):
        raise DomainError(f"unknown estimator mode {mode!r}")
    return mode == "bandit"


def _bind_draws(game: GameSpec, x: np.ndarray, bandit: bool = False):
    """The sampler and payoff estimator of a game at the float profile x,
    which the maps read at each call (a caller rewrites x in place between
    calls): returns (draw, estimate, realize).  None of them checks x.

    draw(u) maps uniforms u in [0, 1) of shape (..., columns), one column
    per entry of _column_counts, to pure actions of the same shape.  Column
    c inverts the cumulative sum of its block at u: the action is the
    number of the block's first count - 1 partial sums that are <= u, the
    count of searchsorted(cum, u, side="right") with the last sum pinned
    to 1.  Each draw copies x into the rows of a zero-padded table, one
    row per block (a matching game's one population serves both columns),
    whose entries from each block's last on are pinned to 1 after the
    cumulative sum, so one cumsum and one comparison serve every column.

    estimate(acts) returns u_hat and realize(acts) the realized payoffs,
    both gathered from the flattened payoff tensors (the one matrix of a
    matching game): the realized payoff of tensor p sits at
    offsets[p] + a @ strides for the joint action a, and the payoff of
    score entry j against the others' actions at base[j] + a @ others[:, j].
    """
    counts = np.array(_column_counts(game))
    n = game.total_actions
    blocks = counts[:1] if game.matching else counts
    width = blocks.max()
    table = np.zeros((len(blocks), width))
    cells = table.reshape(-1)
    at = np.concatenate([b * width + np.arange(c) for b, c in enumerate(blocks)])
    pinned = np.arange(width) >= blocks[:, None] - 1
    cum = np.empty(table.shape)
    partial = cum[:, :-1]

    def draw(u: np.ndarray) -> np.ndarray:
        cells[at] = x
        np.add.accumulate(table, axis=1, out=cum)
        np.copyto(cum, 1.0, where=pinned)
        return _sum(partial <= u[..., None], axis=-1)

    columns = np.arange(len(counts))
    payers = len(game.payoff_tensors)
    strides = np.array([int(np.prod(counts[c + 1:])) for c in columns])
    flat = np.concatenate([t.ravel() for t in game.payoff_tensors])
    offsets = np.arange(payers) * int(np.prod(counts))
    column_of = np.repeat(columns[:payers], counts[:payers])
    own_action = np.concatenate([np.arange(c) for c in counts[:payers]])
    base = offsets[column_of] + own_action * strides[column_of]
    others = np.where(columns[:, None] == column_of, 0, strides[:, None])
    starts = np.array([sl.start for sl in game.block_slices])

    def realize(acts: np.ndarray) -> np.ndarray:
        return flat[offsets + (acts @ strides)[..., None]]

    def estimate(acts: np.ndarray) -> np.ndarray:
        if not bandit:
            return flat[base + acts @ others]
        own = starts + acts[..., :payers]
        u_hat = np.zeros(acts.shape[:-1] + (n,))
        draws = () if acts.ndim == 1 else (np.arange(len(acts))[:, None],)
        u_hat[draws + (own,)] = realize(acts) / x[own]
        return u_hat

    return draw, estimate, realize


def _draw_columns(game: GameSpec, x: np.ndarray, rng, size: int | None,
                  bandit: bool = False):
    """The m = size (or 1) draws of sample_joint_actions and payoff_estimate,
    one rng.random call taking the m uniforms of each column in turn:
    the stream of one call per column.  Returns (acts, estimate, realize)."""
    draw, estimate, realize = _bind_draws(game, x, bandit)
    m = 1 if size is None else int(size)
    return draw(rng.random((len(_column_counts(game)), m)).T), estimate, realize


def sample_joint_actions(game: GameSpec, x, rng, size: int | None = None) -> np.ndarray:
    """Sample pure actions from a mixed profile, one column per player.

    Matching games return two columns (own draw, opponent draw from the same
    population).  With size=None a single (columns,) vector is returned.
    """
    x = np.asarray(x, dtype=float)
    _check_length(x, game.total_actions, "profile")
    acts = _draw_columns(game, x, np.random.default_rng(rng), size)[0]
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
    bandit = _bandit(mode)
    x = np.asarray(x, dtype=float)
    _check_length(x, game.total_actions, "profile")
    acts, estimate, realize = _draw_columns(game, x, np.random.default_rng(rng), size, bandit)
    draws = estimate(acts), acts, realize(acts)
    return tuple(a[0] for a in draws) if size is None else draws


def stochastic_step(z, game: GameSpec, params: LearningParams, alpha: float,
                    rng, mode: str = "full-info"):
    """One stochastic-approximation step Z+ = Z + alpha gamma (u_hat - Z).

    Returns (Z+, sigma(Z+), actions, realized_payoffs).  alpha = 0 leaves
    the scores unchanged.
    """
    alpha = _check_alpha(alpha)
    bandit = _bandit(mode)
    z = np.asarray(z, dtype=float)
    x = softmax(z, params.eps, game.action_counts)
    draw, estimate, realize = _bind_draws(game, x, bandit)
    acts = draw(np.random.default_rng(rng).random(len(_column_counts(game))))
    z_next = z + alpha * params.gamma * (estimate(acts) - z)
    return z_next, softmax(z_next, params.eps, game.action_counts), acts, realize(acts)


def _record(ks: list, zs: list, k: int, z: np.ndarray) -> None:
    """Append sample k of a discrete or stochastic run.  As in integrate,
    only recorded samples are checked: a non-finite one raises
    IntegrationDivergedError with the last good k."""
    if not _all(np.isfinite(z), axis=None):
        raise IntegrationDivergedError(f"non-finite scores at k={k}", last_good_time=ks[-1])
    ks.append(k)
    zs.append(z.copy())


def run_discrete(game: GameSpec, params: LearningParams, z0, alpha: float,
                 steps: int, record_every: int = 1) -> Trajectory:
    """Iterate the euler_step update; returns the Trajectory of the samples,
    with the iteration k as time."""
    steps = _check_whole(steps, "steps", 0)
    record_every = _check_whole(record_every, "record_every", 1)
    rate = _check_alpha(alpha) * params.gamma
    z = np.asarray(z0, dtype=float)
    _check_length(z, game.total_actions)
    _check_finite(z)
    increment = _bind_field(game, params.eps, None, [(1, False, 1.0)])
    ks = [0]
    zs = [z.copy()]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            z = z + rate * increment(z)
            if (k + 1) % record_every == 0 or k + 1 == steps:
                _record(ks, zs, k + 1, z)
    zs = np.stack(zs)
    return Trajectory(ks, zs, softmax(zs, params.eps, game.action_counts))


def harmonic_schedule(k: int) -> float:
    """Diminishing step sequence alpha_k = 1 / (k + 1)."""
    return 1.0 / (k + 1.0)


# run_stochastic draws the uniforms of at most this many steps per call
_UNIFORM_BLOCK = 256


def run_stochastic(game: GameSpec, params: LearningParams, z0, steps: int,
                   rng, mode: str = "full-info", record_every: int = 1) -> Trajectory:
    """Iterate the stochastic_step update with the step sizes of
    harmonic_schedule, with the soft-max (into one buffer x) and the sampler
    and estimator of _bind_draws (which read x) bound once: each step makes
    one soft-max and one draw.  A full-info step gathers its realized
    payoffs only when it is recorded.

    The uniforms come in blocks of at most _UNIFORM_BLOCK steps from one
    rng.random((m, columns)) call each: the stream of one call per step,
    and, as exactly steps * columns are drawn, the same final state of the
    generator.  A run that diverges part way may leave the generator up to
    a block ahead.

    Returns the Trajectory of the samples, with the iteration k as time and
    the joint action and payoffs realized in the step that led to each
    sample; the initial sample has none (actions -1, payoffs NaN).
    """
    steps = _check_whole(steps, "steps", 0)
    record_every = _check_whole(record_every, "record_every", 1)
    rng = np.random.default_rng(rng)
    z = np.asarray(z0, dtype=float)
    _check_length(z, game.total_actions)
    _check_finite(z)
    bandit = _bandit(mode)
    if z.ndim != 1:
        raise DomainError("z0 must be a single score vector")
    x = np.empty(z.shape)
    sigma = _bind_softmax(params.eps, game.action_counts, x)
    draw, estimate, realize = _bind_draws(game, x, bandit)
    columns = len(_column_counts(game))
    ks = [0]
    zs = [z.copy()]
    acts_log = [np.full(columns, -1)]
    pay_log = [np.full(game.player_count, np.nan)]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            i = k % _UNIFORM_BLOCK
            if i == 0:
                uniforms = rng.random((min(_UNIFORM_BLOCK, steps - k), columns))
            rate = harmonic_schedule(k) * params.gamma
            sigma(z)
            acts = draw(uniforms[i])
            z = z + rate * (estimate(acts) - z)
            if (k + 1) % record_every == 0 or k + 1 == steps:
                _record(ks, zs, k + 1, z)
                acts_log.append(acts)
                pay_log.append(realize(acts))
    zs = np.stack(zs)
    return Trajectory(ks, zs, softmax(zs, params.eps, game.action_counts),
                      actions=np.stack(acts_log), payoffs=np.stack(pay_log))


# ------------------------------------------------------------------- CSV output

def _ternary_coordinates(x_block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Planar coordinates of 3-simplex points for plotting triangular orbits."""
    x_block = np.asarray(x_block, dtype=float)
    u = x_block[..., 1] + 0.5 * x_block[..., 2]
    v = (np.sqrt(3.0) / 2.0) * x_block[..., 2]
    return u, v


def write_trajectory_csv(path: str | Path, traj: Trajectory,
                         action_counts: Sequence[int], ternary: bool = False) -> None:
    """The one CSV writer of every scheme.  One row per sample: t, scores,
    strategies, optional filter state, Lyapunov value, realized actions and
    payoffs, and ternary projections.  With realized actions, the first
    column is the iteration k, and the action and payoff cells of row 0,
    which no draw precedes, are empty.  A trajectory without strategies, or
    with states whose width is neither n nor 2n, is refused before the file
    is opened."""
    if traj.strategies is None:
        raise DomainError("trajectory has no strategies to write")
    counts = tuple(int(c) for c in action_counts)
    n = sum(counts)
    if traj.states.shape[1:] not in ((n,), (2 * n,)):
        raise DomainError(f"states of shape {traj.states.shape} are neither "
                          f"{n} scores nor {n} scores with a filter state")
    events = traj.actions is not None
    header = (["k" if events else "t"] + [f"z_{i + 1}" for i in range(n)]
              + [f"x_{i + 1}" for i in range(n)])
    blocks = [traj.times[:, None], traj.states[:, :n], traj.strategies]
    if traj.states.shape[1] == 2 * n:
        header += [f"xi_{i + 1}" for i in range(n)]
        blocks.append(traj.states[:, n:])
    if traj.lyapunov is not None:
        header.append("V")
        blocks.append(np.asarray(traj.lyapunov)[:, None])
    start = len(header)
    if events:
        players = range(len(counts))
        header += (["action_own", "action_opp", "payoff"]
                   if traj.actions.shape[1] != len(counts) else
                   [f"action_{p + 1}" for p in players] + [f"payoff_{p + 1}" for p in players])
        blocks += [traj.actions, traj.payoffs]
    stop = len(header)
    if ternary:
        for p, sl in enumerate(block_slices(counts)):
            if counts[p] == 3:
                header += [f"tern{p + 1}_u", f"tern{p + 1}_v"]
                blocks.append(np.column_stack(_ternary_coordinates(traj.strategies[:, sl])))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, row in enumerate(np.hstack(blocks).tolist()):
            cells = [f"{v:.17g}" for v in row]
            if i == 0:
                cells[start:stop] = [""] * (stop - start)
            writer.writerow(cells)


def write_stochastic_csv(path: str | Path, record: Trajectory,
                         action_counts: Sequence[int]) -> None:
    """write_trajectory_csv under the name that perfbench's tracer still
    looks up; the package itself no longer calls it or exports it."""
    write_trajectory_csv(path, record, action_counts)
