"""Score dynamics: continuous-time fields, a fixed-step RK4 integrator,
and discrete/stochastic recursions.

The first-order flow keeps an exponentially discounted score per action,

    zdot = gamma * (U(sigma(z)) - z),        x = sigma(z).

The higher-order flow passes the payoff through a strictly-proper feedback
filter (A, B, C, D) with zero DC gain before it reaches the score:

    zdot  = gamma * (U(x) - z - v),  xidot = A xi + B x,  v = C xi + D x.

Every score field, including the increment of the discrete scheme, comes
from one bound kernel, _Field, in which the filter is an option of a group
of rows.
"""

from __future__ import annotations

import csv
import numbers
from dataclasses import dataclass, fields
from itertools import pairwise
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .choice import (_all, _bind_softmax, _check_counts, _check_eps,
                     _check_finite, _check_length, _check_vector, _sum,
                     block_slices, softmax)
from .errors import ConfigurationError, DomainError, IntegrationDivergedError
from .games import GameSpec, _bind_payoff, expected_payoff_vector


@dataclass(frozen=True)
class LearningParams:
    """Learning rate gamma and soft-max temperature eps."""

    gamma: float = 1.0
    eps: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.gamma) and self.gamma > 0.0):
            raise DomainError(f"gamma must be positive and finite, got {self.gamma!r}")
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

    def __eq__(self, other) -> bool:
        """Blocks are equal when their four matrices are, entry by entry."""
        return isinstance(other, FeedbackBlock) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    @classmethod
    def high_pass(cls, gain: float, cutoff: float, action_counts: Sequence[int]) -> "FeedbackBlock":
        """First-order high-pass filter K s / (s + a) applied per coordinate."""
        gain = float(gain)
        cutoff = float(cutoff)
        if not 0.0 < cutoff < np.inf:
            raise DomainError(f"cutoff must be positive and finite, got {cutoff!r}")
        if not 0.0 <= gain < np.inf:
            raise DomainError(f"gain must be nonnegative and finite, got {gain!r}")
        eye = np.eye(sum(_check_counts(action_counts)))
        return cls(-cutoff * eye, -cutoff * eye, gain * eye, gain * eye)

    @property
    def dim(self) -> int:
        return self.a_mat.shape[0]

    def spectral_abscissa(self) -> float:
        return float(np.linalg.eigvals(self.a_mat).real.max())

    def _solve_a(self, rhs: np.ndarray) -> np.ndarray:
        """A^-1 rhs; raises ConfigurationError when A is singular."""
        try:
            return np.linalg.solve(self.a_mat, rhs)
        except np.linalg.LinAlgError as exc:
            raise ConfigurationError("feedback block has singular A matrix") from exc

    def dc_gain(self) -> np.ndarray:
        """H(0) = -C A^-1 B + D; raises ConfigurationError when A is singular."""
        return -self.c_mat @ self._solve_a(self.b_mat) + self.d_mat

    def ensure_valid(self) -> None:
        """Check that A is Hurwitz and the DC gain is zero to 1e-10."""
        if self.spectral_abscissa() >= 0.0:
            raise ConfigurationError("feedback block A matrix is not Hurwitz")
        dc = float(np.abs(self.dc_gain()).max())
        if dc > _DC_TOL:
            raise ConfigurationError(f"feedback block DC gain {dc:.3e} exceeds {_DC_TOL:.1e}")

    def equilibrium_filter_state(self, x_star: np.ndarray) -> np.ndarray:
        """xi* = -A^-1 B x*, the filter state at a rest point with strategy x*;
        raises ConfigurationError when A is singular."""
        x_star = _check_vector(x_star, self.dim, "profile")
        return self._solve_a(-self.b_mat @ x_star)


def _check_dim(block: FeedbackBlock, n: int) -> None:
    if block.dim != n:
        raise DomainError(f"feedback block has dimension {block.dim}, expected {n}")


def _fields_dict(result, omit: Sequence[str] = (), **renames: str) -> dict:
    """The JSON form of a result dataclass: each field but those in omit,
    under its own name or its entry in renames, with arrays and tuples as
    lists of floats."""
    doc = {}
    for f in fields(result):
        if f.name not in omit:
            value = getattr(result, f.name)
            if isinstance(value, (np.ndarray, tuple)):
                value = np.asarray(value, dtype=float).tolist()
            doc[renames.get(f.name, f.name)] = value
    return doc


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
        return {**_fields_dict(self, ("frequencies",)),
                "frequency_range": [float(self.frequencies[0]), float(self.frequencies[-1])],
                "n_frequencies": int(len(self.frequencies)),
                "passed": self.passed}


def verify_feedback_block(block: FeedbackBlock) -> FeedbackBlockReport:
    """Certify a feedback block: A Hurwitz, H(0) = 0 to 1e-10, and positive
    realness of H(jw) on a logarithmic frequency grid (1e-3..1e3 rad/s,
    200 points, minimum eigenvalue of the Hermitian part).  A pole on the
    grid reads as a minimum eigenvalue of -inf."""
    freqs = np.logspace(-3.0, 3.0, 200)
    abscissa = block.spectral_abscissa()
    try:
        dc_norm = float(np.abs(block.dc_gain()).max())
    except ConfigurationError:
        dc_norm = np.inf  # a singular A has no finite DC gain
    pencils = 1j * freqs[:, None, None] * np.eye(block.dim) - block.a_mat
    try:
        h = block.c_mat @ np.linalg.solve(pencils, block.b_mat[None]) + block.d_mat
    except np.linalg.LinAlgError:
        min_eig = -np.inf
    else:
        herm = 0.5 * (h + h.conj().transpose(0, 2, 1))
        min_eig = float(np.linalg.eigvalsh(herm).min())
    return FeedbackBlockReport(
        hurwitz_ok=abscissa < 0.0,
        spectral_abscissa=abscissa,
        zero_dc_ok=dc_norm <= _DC_TOL,
        dc_gain_norm=dc_norm,
        grid_positive_real_ok=min_eig > 0.0,
        min_hermitian_eigenvalue=min_eig,
        frequencies=freqs,
    )


# ---------------------------------------------------------------- vector fields

def _filter_matrix(game: GameSpec, block: FeedbackBlock) -> np.ndarray:
    """The stacked W = [[Phi^T - D^T, B^T], [-C^T, A^T]], which turns
    [sigma(z), xi] into (U - v, xidot) in one product; a game without a
    linear map Phi leaves Phi^T out of W."""
    _check_dim(block, game.total_actions)
    phi = game.linear_map
    top = -block.d_mat.T if phi is None else phi.T - block.d_mat.T
    return np.block([[top, block.b_mat.T], [-block.c_mat.T, block.a_mat.T]])


class _Field:
    """The score field of consecutive row groups (rows, filtered, gamma)
    that share the game, eps and the validated block, with everything that
    is fixed across RK4 stages bound once.  A filtered group evaluates
    gamma (U - z - v) and xidot, a first-order group gamma (U - z).

    One group takes a state of any leading shape.  Several groups take the
    rows of any leading groups, so rows can leave a batch at group
    boundaries.  The field checks nothing: a non-finite state gives a
    non-finite result, which integrate finds at its next recorded sample.

    bind(state, out) returns a zero-argument evaluation that writes the
    field at whatever state holds into out.  Everything else is fixed at
    the bind: the row plan, the views of state and out, the product operand
    [sigma(z), xi] (sigma(z) alone without a filter) into which the bound
    soft-max writes, the soft-max's own views and scratch, and gamma as a
    0-d array (left out at gamma == 1, where it is exact).  First-order rows
    next to filtered ones carry a zero filter state, so the bind zeroes
    their xidot in out once and the evaluation never writes it.  An
    evaluation is not re-entrant; it never writes into state.  Calling the
    field, field(state), binds afresh and returns a new array.

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
    """

    def __init__(self, game: GameSpec, eps: float, block: FeedbackBlock | None,
                 groups: Sequence[tuple[int, bool, float]]):
        self.plans = {}
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
            self.plans[stop] = (segs, g)
        self.single = ([(..., groups[0][1], ...)], groups[0][2]) if len(groups) == 1 else None
        self.n = game.total_actions
        self.eps = eps
        self.counts = game.action_counts
        phi = game.linear_map
        self.phi_t = None if phi is None else phi.T
        self.payoff = _bind_payoff(game) if phi is None else None
        self.w_mat = None if block is None else _filter_matrix(game, block)

    def __call__(self, state: np.ndarray) -> np.ndarray:
        out = np.empty(state.shape)
        self.bind(state, out)()
        return out

    def bind(self, state: np.ndarray, out: np.ndarray) -> Callable[[], None]:
        segs, g = self.single or self.plans[state.shape[0]]
        n, w_mat, phi_t, payoff = self.n, self.w_mat, self.phi_t, self.payoff
        scale = None if np.isscalar(g) and g == 1.0 else np.asarray(g, dtype=float)
        operand = np.empty(state.shape)
        if w_mat is None:
            z, dz, xi, x, tail = state, out, None, operand, None
        else:
            z, dz, xi = state[..., :n], out[..., :n], state[..., n:]
            x, tail = operand[..., :n], operand[..., n:]
        sigma = _bind_softmax(self.eps, self.counts, z, x)
        products = []
        u_rows = []
        for rows, filtered, index in segs:
            if filtered:
                products.append((operand[index], w_mat, out[index]))
            else:
                if w_mat is not None:
                    out[rows, n:] = 0.0  # a first-order row's xidot
                if phi_t is not None:
                    products.append((x[index], phi_t, dz[index]))
            if payoff is not None:
                u_rows.append((rows, filtered, dz[rows]))
        matmul, add, subtract, multiply = np.matmul, np.add, np.subtract, np.multiply

        def evaluate() -> None:
            if xi is not None:
                tail[...] = xi
            sigma()
            for a, m, o in products:
                matmul(a, m, o)
            if u_rows:
                u = payoff(x)
                for rows, filtered, d in u_rows:
                    if filtered:
                        add(d, u[rows], d)
                    else:
                        d[...] = u[rows]
            subtract(dz, z, dz)
            if scale is not None:
                multiply(dz, scale, dz)

        return evaluate


def first_order_field(z, game: GameSpec, params: LearningParams) -> np.ndarray:
    """zdot = gamma (U(sigma(z)) - z)."""
    z = np.asarray(z, dtype=float)
    _check_length(z, game.total_actions)
    _check_finite(z)
    return _Field(game, params.eps, None, [(1, False, params.gamma)])(z)


def higher_order_field(state, game: GameSpec, params: LearningParams,
                       block: FeedbackBlock) -> np.ndarray:
    """Combined (z, xi) field of the filtered score dynamics."""
    block.ensure_valid()
    state = np.asarray(state, dtype=float)
    _check_length(state, 2 * game.total_actions, "state")
    _check_finite(state)
    return _Field(game, params.eps, block, [(1, True, params.gamma)])(state)


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
    recursion), states (m, d), strategies (m, n), Lyapunov values (m,), the
    stochastic recursion's realized joint actions and payoffs, whose row 0
    holds no draw (actions -1, payoffs NaN), and the filter state xi (m, n)
    of a filtered run, whose states are then its n scores z."""

    times: np.ndarray
    states: np.ndarray
    strategies: np.ndarray | None = None
    lyapunov: np.ndarray | None = None
    actions: np.ndarray | None = None
    payoffs: np.ndarray | None = None
    filter_state: np.ndarray | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.times.ndim != 1 or self.states.ndim != 2 or len(self.times) != len(self.states):
            raise DomainError("times (m,) and states (m, d) must align, one row per sample")
        if len(self.times) > 1 and np.any(np.diff(self.times) <= 0.0):
            raise DomainError("times must be strictly increasing")
        for name in ("strategies", "filter_state"):
            if getattr(self, name) is not None:
                setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        for name in ("strategies", "lyapunov", "actions", "payoffs", "filter_state"):
            column = getattr(self, name)
            if column is not None and np.shape(column)[:1] != self.times.shape:
                raise DomainError(f"{name} of shape {np.shape(column)} needs "
                                  f"{len(self.times)} rows, one per sample")
        if self.filter_state is not None and self.filter_state.shape != self.states.shape:
            raise DomainError(f"filter_state of shape {self.filter_state.shape} does not match "
                              f"states of shape {self.states.shape}")


def _check_whole(value, name: str, least: int) -> int:
    """value as an int, refused unless it is a whole number >= least; a
    bool or a value that is not a numbers.Real (np.bool_ is not one) is
    refused too."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise DomainError(f"{name} must be >= {least}, got {value!r}")
    if not (isinstance(value, int) or float(value).is_integer()):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _horizon_steps(dt: float, t_end: float) -> int:
    """The RK4 step count of a horizon, a whole number to 1e-9 relative."""
    if not (dt > 0.0 and dt <= t_end < np.inf):
        raise DomainError("dt must be positive, and t_end finite and >= dt")
    steps = t_end / dt
    if steps == np.inf:
        raise DomainError(f"t_end / dt = {t_end!r} / {dt!r} is not a finite step count")
    if abs(steps - round(steps)) > 1e-9 * steps:
        raise DomainError(f"t_end / dt = {t_end!r} / {dt!r} is not a whole number of steps")
    return int(round(steps))


class _Recorder:
    """The samples of integrate, run_discrete and run_stochastic: step 0,
    every record_every-th step and each row's last step (last[r] for row r
    of a batch, longest first), in one buffer with the named columns (width,
    fill); a row keeps those of its run alone.  A record numpy cannot
    allocate or index is refused before any step.  take checks a sample as a
    whole, and row by row only when it is not finite.  A newly failed row
    gets the error of its run alone: message at the time of its own next
    sample, and its own sample before as the last good time, with steps of
    length unit."""

    def __init__(self, state0: np.ndarray, last: Sequence[int], record_every: int,
                 unit: float = 1, message: str = "non-finite scores at k={}", **columns):
        self.last, self.every, self.unit, self.message = last, record_every, unit, message
        top = max(last, default=0)
        self.off_grid = off_grid = sorted({h for h in last if h % record_every})
        samples = top // record_every + 1 + len(off_grid)
        try:
            self.rec = np.empty((samples,) + state0.shape)
            self.columns = {k: np.full((samples, w), fill) for k, (w, fill) in columns.items()}
            grid = np.arange(0, top + 1, record_every, dtype=np.intp)
        except (MemoryError, ValueError, OverflowError) as exc:
            raise DomainError(f"the record cannot be held in memory: {exc}") from None
        self.steps = np.insert(grid, np.searchsorted(grid, off_grid), off_grid)
        self.rec[0] = state0
        self.i, self.rows, self.failed = 1, len(last), {}

    def take(self, state: np.ndarray, previous: np.ndarray | None = None) -> int:
        """Record the next sample from the leading rows still stepping; return
        how many step on: none once each has failed or, given the state a
        step before, sits at an exact fixed point the remaining samples repeat."""
        self.rec[self.i, :len(state)] = state  # rows that left keep their samples
        self.i += 1
        live = None if _all(np.isfinite(state), axis=None) else _all(
            np.isfinite(state.reshape(-1, state.shape[-1])), axis=1)
        step, every = int(self.steps[self.i - 1]), self.every
        for row in [] if live is None else np.flatnonzero(~live).tolist():
            if row not in self.failed:
                seen = min(-(-step // every) * every, self.last[row])
                self.failed[row] = IntegrationDivergedError(
                    self.message.format(seen * self.unit),
                    last_good_time=(step - 1) // every * every * self.unit)
        done = live is not None and not live.any()
        if previous is not None:
            same = np.equal(state.view(np.uint64), previous.view(np.uint64))
            done = _all(same if live is None else same.reshape(len(live), -1)[live], axis=None)
        if done:
            self.rec[self.i:, :len(state)] = state
        while self.rows and self.last[self.rows - 1] <= step:
            self.rows -= 1
        return 0 if done else self.rows

    def result(self, strategies: Callable[[np.ndarray], np.ndarray] | None = None):
        """Per row of a batch its error, or the Trajectory of its samples with
        strategies(states) and the columns; a single row's, or its error raised."""
        steps, times = self.steps, self.steps * self.unit
        rec = self.rec if self.rec.ndim == 3 else self.rec[:, None]
        entries = []
        for row, last in enumerate(self.last):
            # a row keeps a prefix of the plan, taken as views, unless a
            # shorter row's off-grid horizon lies inside it
            if not self.off_grid or self.off_grid[0] >= last:
                keep = slice(int(np.searchsorted(steps, last, side="right")))
            else:
                keep = (steps <= last) & ((steps % self.every == 0) | (steps == last))
            states = rec[keep, row]
            entries.append(self.failed.get(row) or Trajectory(
                times[keep], states, strategies and strategies(states),
                **{name: column[keep] for name, column in self.columns.items()}))
        if self.rec.ndim == 2 and self.failed:
            raise self.failed[0]
        return entries if self.rec.ndim == 3 else entries[0]


def integrate(field: Callable[[np.ndarray], np.ndarray], state0, dt: float,
              t_end: float, record_every: int = 1,
              row_t_end: Sequence[float] | None = None):
    """Classical fixed-step RK4 from a finite state0.

    state0 of shape (d,) yields one Trajectory of times and states, or
    raises its IntegrationDivergedError; a batch (b, d) runs in lockstep and
    yields one entry per row (see _Recorder).  row_t_end gives each row its
    own horizon, longest first, the first equal to t_end: a row leaves the
    batch after its final step, and field then gets the leading rows that
    remain.  The loop steps from sample to sample and checks nothing else:
    a row that overflows stays in the batch, non-finite, and fails there.

    The two state buffers, the stage input and k1..k4 are allocated once,
    and five evaluations of field are bound to them: k1 from either state
    buffer, k2..k4 from the stage input, bound again only when rows leave.
    A bound field (_Field) evaluates straight into its k buffer; any
    other callable is called on the buffer and its result copied in.  The
    stages and their weighted sum run in the order of the plain
    s + dt/6 (k1 + 2 k2 + 2 k3 + k4), with every output passed
    positionally and every constant a 0-d array of the same double, so
    every value is the same bit for bit.

    field must be a pure function of the state, and give each row the same
    result whichever rows share the batch: a recorded step that repeats the
    previous state bit for bit is an exact fixed point of the RK4 map, and
    integration stops once every row still in the batch is at one or failed.
    """
    dt = float(dt)
    t_end = float(t_end)
    record_every = _check_whole(record_every, "record_every", 1)
    n_steps = _horizon_steps(dt, t_end)
    s = np.array(state0, dtype=float)
    if s.ndim not in (1, 2):
        raise DomainError("state0 must be a vector or a batch of vectors")
    _check_finite(s)
    row_steps = [n_steps] * (len(s) if s.ndim == 2 else 1)
    if row_t_end is not None:
        row_steps = [_horizon_steps(dt, float(h)) for h in row_t_end]
        if (s.ndim == 1 or len(row_steps) != len(s) or row_steps[0] != n_steps
                or any(a < b for a, b in zip(row_steps, row_steps[1:]))):
            raise DomainError("row_t_end needs one horizon per batch row, "
                              "longest first, the first equal to t_end")
    rec = _Recorder(s, row_steps, record_every, dt, "non-finite state at t={:.6g}")
    rows = len(row_steps)
    half, full, two, sixth = (np.array(c) for c in (0.5 * dt, dt, 2.0, dt / 6.0))
    # acc holds the weighted stage sum, then the new state; afterwards the
    # previous one
    acc, stage, k1, k2, k3, k4 = (np.empty_like(s) for _ in range(6))

    def bind() -> list:
        return [_evaluation(field, state, k) for state, k in
                ((s, k1), (acc, k1), (stage, k2), (stage, k3), (stage, k4))]

    f1, f1_next, f2, f3, f4 = bind()
    multiply, add = np.multiply, np.add
    with np.errstate(over="ignore", invalid="ignore"):
        for start, stop in pairwise(map(int, rec.steps)):
            for _ in range(start, stop):
                f1()
                multiply(k1, half, stage)
                add(s, stage, stage)
                f2()
                multiply(k2, half, stage)
                add(s, stage, stage)
                f3()
                multiply(k3, full, stage)
                add(s, stage, stage)
                f4()
                multiply(k2, two, acc)
                add(k1, acc, acc)
                multiply(k3, two, stage)
                add(acc, stage, acc)
                add(acc, k4, acc)
                multiply(acc, sixth, acc)
                add(s, acc, acc)
                s, acc = acc, s
                f1, f1_next = f1_next, f1
            stepping = rec.take(s, acc)
            if not stepping:
                break
            if stepping < rows:
                rows = stepping
                s, acc, stage, k1, k2, k3, k4 = (
                    a[:rows] for a in (s, acc, stage, k1, k2, k3, k4))
                f1, f1_next, f2, f3, f4 = bind()
    return rec.result()


def _evaluation(field: Callable[[np.ndarray], np.ndarray], state: np.ndarray,
                out: np.ndarray) -> Callable[[], None]:
    """A zero-argument evaluation of field at whatever state holds, into
    out: the bound evaluation of a _Field, or a call whose result is
    copied into out."""
    if isinstance(field, _Field):
        return field.bind(state, out)

    def evaluate() -> None:
        out[...] = field(state)

    return evaluate


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


def simulate_batch(game: GameSpec, runs: Sequence[SimulationRun], dt: float = 0.01,
                   record_every: int = 10) -> list:
    """Integrate several runs on one game as a single lockstep RK4 batch.

    The runs share the game, the temperature eps and at most one feedback
    block; each has its own gamma and horizon, and is filtered when it
    carries the block.  A z0 of shape (n,) is a one-row run.  All rows
    start together and each leaves the batch after its last sample.
    Returns one entry per run, as simulate_first_order or
    simulate_higher_order returns it for that run alone, with the same
    samples bit for bit.  Here integrate's rows [z, xi] are split into
    states z and filter_state xi (None for a first-order run), views of one
    record, and the strategies are added.  A failed row's entry is the
    IntegrationDivergedError of that row alone.
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
    if any(b != block for b in blocks):
        raise DomainError("runs in one batch must share one feedback block")
    if block is not None:
        block.ensure_valid()
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
    if any(z.ndim > 2 for z in starts):
        raise DomainError("z0 must be a vector or a batch of vectors")
    starts = [np.atleast_2d(z) for z in starts]
    if not any(len(z) for z in starts):
        raise DomainError("simulate_batch needs at least one initial score row")
    order = sorted(range(len(runs)), key=lambda i: (
        -float(runs[i].t_end), runs[i].block is not None, len(starts[i]) == 1))
    groups = [(len(starts[i]), runs[i].block is not None, runs[i].params.gamma)
              for i in order]
    field = _Field(game, eps, block, groups)
    row_t_end = [float(runs[i].t_end) for i in order for _ in range(len(starts[i]))]
    row_trajs = integrate(field, np.concatenate([starts[i] for i in order]), dt,
                          row_t_end[0], record_every, row_t_end=row_t_end)
    out: list = [None] * len(runs)
    for i in order:
        trajs, row_trajs = row_trajs[:len(starts[i])], row_trajs[len(starts[i]):]
        for t in trajs:
            if isinstance(t, IntegrationDivergedError):
                continue
            t.states, xi = t.states[:, :n], t.states[:, n:]
            t.filter_state = xi if runs[i].block is not None else None
            t.strategies = softmax(t.states, eps, game.action_counts)
        out[i] = trajs if np.ndim(runs[i].z0) == 2 else trajs[0]
    return out


def simulate_first_order(game: GameSpec, params: LearningParams, z0,
                         dt: float = 0.01, t_end: float = 500.0,
                         record_every: int = 10):
    """Integrate the first-order score flow from z0 ((n,) or batch (b, n))."""
    return _alone(game, SimulationRun(params, z0, t_end), dt, record_every)


def simulate_higher_order(game: GameSpec, params: LearningParams,
                          block: FeedbackBlock, z0, xi0=None,
                          dt: float = 0.01, t_end: float = 500.0,
                          record_every: int = 10):
    """Integrate the filtered score flow; the filter starts at rest (xi0 = 0)."""
    return _alone(game, SimulationRun(params, z0, t_end, block, xi0), dt, record_every)


def _alone(game: GameSpec, run: SimulationRun, dt: float, record_every: int):
    """The entry of simulate_batch for one run; a z0 of shape (n,) raises
    its IntegrationDivergedError, a batch keeps one per failed row."""
    result = simulate_batch(game, [run], dt, record_every)[0]
    if isinstance(result, IntegrationDivergedError):
        raise result
    return result


# ------------------------------------------------- discrete-time recursions

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
    which the maps read at each call (run_stochastic rewrites x in place
    between calls): returns (draw, estimate, realize), the one
    implementation behind payoff_estimate and run_stochastic.  None of them
    checks x.

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


_PROFILE_TOL = 1e-9  # how far a block of a profile may sum from 1


def payoff_estimate(game: GameSpec, x, rng, mode: str = "full-info",
                    size: int | None = None):
    """Unbiased one-shot payoff estimate from realized pure actions.

    full-info: every entry of the own block is the pure payoff against the
    opponents' realized actions.  bandit: only the realized own action gets
    its realized payoff divided by its probability; all other entries are 0.

    x must be finite and non-negative, each block summing to 1 within
    _PROFILE_TOL.  Returns (u_hat, actions, realized_payoffs); with a whole
    size m >= 0 the first axis of each output enumerates m independent
    draws.  One rng.random((columns, m)) call takes the m uniforms of each
    column in turn: the stream of one call per column.
    """
    bandit = _bandit(mode)
    x = np.asarray(x, dtype=float)
    _check_length(x, game.total_actions, "profile")
    if not (_all(np.isfinite(x), axis=None) and _all(x >= 0.0, axis=None)) or any(
            abs(x[sl].sum() - 1.0) > _PROFILE_TOL for sl in game.block_slices):
        raise DomainError("profile must be finite and non-negative, each block summing to 1")
    m = 1 if size is None else _check_whole(size, "size", 0)
    draw, estimate, realize = _bind_draws(game, x, bandit)
    uniforms = np.random.default_rng(rng).random((len(_column_counts(game)), m))
    acts = draw(uniforms.T)
    draws = estimate(acts), acts, realize(acts)
    return tuple(a[0] for a in draws) if size is None else draws


def run_discrete(game: GameSpec, params: LearningParams, z0, alpha: float,
                 steps: int, record_every: int = 1):
    """Iterate the explicit Euler recursion
    Z_{k+1} = Z_k + alpha gamma (U(sigma(Z_k)) - Z_k), with alpha in [0, 1];
    alpha gamma = 1 gives the best-scored update Z_{k+1} = U(sigma(Z_k)).
    The increment, the first-order field at gamma = 1, is bound once from
    the one score buffer z into one buffer, and each step adds
    rate * increment to z in place.  Each row of a (b, n) batch is its own
    one-row group, so it steps with the bits of its 1-D run.  Returns as
    integrate does, k as time."""
    steps = _check_whole(steps, "steps", 0)
    record_every = _check_whole(record_every, "record_every", 1)
    rate = np.array(_check_alpha(alpha) * params.gamma)
    z = np.array(z0, dtype=float)
    _check_length(z, game.total_actions)
    _check_finite(z)
    if z.ndim > 2:
        raise DomainError("z0 must be a vector or a batch of vectors")
    rows = len(z) if z.ndim == 2 else 1
    inc = np.empty_like(z)
    # an empty batch still binds one group; it has no row to step
    f = _Field(game, params.eps, None, [(1, False, 1.0)] * max(rows, 1)).bind(z, inc)
    rec = _Recorder(z, [steps] * rows, record_every)
    with np.errstate(over="ignore", invalid="ignore"):
        for start, stop in pairwise(map(int, rec.steps)):
            for _ in range(start, stop):
                f()
                np.multiply(inc, rate, inc)
                np.add(z, inc, z)
            if not rec.take(z):
                break
    return rec.result(lambda zs: softmax(zs, params.eps, game.action_counts))


def harmonic_schedule(k: int) -> float:
    """Diminishing step sequence alpha_k = 1 / (k + 1)."""
    return 1.0 / (k + 1.0)


# run_stochastic draws the uniforms of at most this many steps per call
_UNIFORM_BLOCK = 256


def run_stochastic(game: GameSpec, params: LearningParams, z0, steps: int,
                   rng, mode: str = "full-info", record_every: int = 1) -> Trajectory:
    """Iterate the stochastic-approximation recursion
    Z_{k+1} = Z_k + alpha_k gamma (u_hat_k - Z_k), where alpha_k is
    harmonic_schedule(k) and u_hat_k is the payoff estimate (see
    payoff_estimate) at one joint action drawn from sigma(Z_k).  The scores
    sit in one buffer z updated in place, and the soft-max (from z into one
    buffer x) and the sampler and estimator of _bind_draws (which read x)
    are bound once: each step makes one soft-max and one draw.  A full-info
    step gathers its realized payoffs only when it is recorded.

    The uniforms come in blocks of at most _UNIFORM_BLOCK steps from one
    rng.random((m, columns)) call each: the stream of one call per step,
    and, as exactly steps * columns are drawn, the same final state of the
    generator.  A run that diverges part way may leave the generator up to
    a block ahead.

    Returns what run_discrete returns for a z0 (n,), with the joint action
    and payoffs realized in the step that led to each sample.
    """
    steps = _check_whole(steps, "steps", 0)
    record_every = _check_whole(record_every, "record_every", 1)
    rng = np.random.default_rng(rng)
    z = np.array(z0, dtype=float)
    _check_length(z, game.total_actions)
    _check_finite(z)
    bandit = _bandit(mode)
    if z.ndim != 1:
        raise DomainError("z0 must be a single score vector")
    x = np.empty(z.shape)
    sigma = _bind_softmax(params.eps, game.action_counts, z, x)
    diff = np.empty(z.shape)
    draw, estimate, realize = _bind_draws(game, x, bandit)
    columns = len(_column_counts(game))
    rec = _Recorder(z, [steps], record_every, actions=(columns, -1),
                    payoffs=(game.player_count, np.nan))
    actions, payoffs = rec.columns["actions"], rec.columns["payoffs"]
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (start, stop) in enumerate(pairwise(map(int, rec.steps)), 1):
            for k in range(start, stop):
                j = k % _UNIFORM_BLOCK
                if j == 0:
                    uniforms = rng.random((min(_UNIFORM_BLOCK, steps - k), columns))
                rate = harmonic_schedule(k) * params.gamma
                sigma()
                acts = draw(uniforms[j])
                # z + rate * (u_hat - z), updated in place
                np.subtract(estimate(acts), z, diff)
                np.multiply(diff, rate, diff)
                np.add(z, diff, z)
            actions[i], payoffs[i] = acts, realize(acts)
            if not rec.take(z):
                break
    return rec.result(lambda zs: softmax(zs, params.eps, game.action_counts))


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
    whose states or strategies are not n wide, is refused before the file is
    opened."""
    if traj.strategies is None:
        raise DomainError("trajectory has no strategies to write")
    counts = _check_counts(action_counts)
    n = sum(counts)
    _check_length(traj.states, n)
    _check_length(traj.strategies, n, "strategies")
    events = traj.actions is not None
    header = (["k" if events else "t"] + [f"z_{i + 1}" for i in range(n)]
              + [f"x_{i + 1}" for i in range(n)])
    blocks = [traj.times[:, None], traj.states, traj.strategies]
    if traj.filter_state is not None:
        header += [f"xi_{i + 1}" for i in range(n)]
        blocks.append(traj.filter_state)
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
