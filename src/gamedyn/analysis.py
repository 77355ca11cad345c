"""Game classification, rest-point solving, linearization, bifurcation
search, Lyapunov monitoring, and trajectory verdicts."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .choice import (_bind_softmax, _check_eps, _check_finite, _check_length,
                     _check_vector, _jacobian_at, bregman_lse, softmax)
from .dynamics import (FeedbackBlock, LearningParams, Trajectory, _check_dim,
                       _check_whole, _fields_dict)
from .errors import ConfigurationError, DomainError, NumericsError, UsageError
from .games import GameSpec, _bind_payoff, payoff_jacobian, tangent_basis


# --------------------------------------------------------------- classification

@dataclass
class ClassificationReport:
    """Monotonicity analysis of the payoff map.

    tangent_eigenvalues is the spectrum of E^T (Phi + Phi^T) E with E the
    orthonormal tangent basis; mu = max(0, lambda_max / 2) is the
    hypo-monotonicity modulus certified on the whole tangent space.
    aligned_eigenvalues lists eigenvalues of Phi + Phi^T whose computed
    eigenvectors lie inside the tangent space (a diagnostic that can be
    coarser than the compressed spectrum when the two disagree), with
    mu_aligned the corresponding modulus.
    """

    tangent_eigenvalues: np.ndarray
    lambda_max: float
    mu: float
    monotonicity_class: str
    exact: bool
    full_eigenvalues: np.ndarray | None = None
    aligned_eigenvalues: np.ndarray | None = None
    mu_aligned: float | None = None
    sample_argmax: np.ndarray | None = None

    def to_dict(self) -> dict:
        return _fields_dict(self, ("sample_argmax",), tangent_eigenvalues="eigenvalues",
                            monotonicity_class="class")


def _class_of(lambda_max: float) -> str:
    if lambda_max < -1e-9:
        return "strictly-monotone"
    if lambda_max <= 1e-9:
        return "null-monotone"
    return "hypo-monotone"


_CLASSIFY_SAMPLES = 200  # random interior profiles of a game without a linear map
_CLASSIFY_SEED = 0


def classify(game: GameSpec) -> ClassificationReport:
    """Classify the game as strictly-/null-/hypo-monotone.

    With a linear game map the tangent spectrum is exact; otherwise the payoff
    Jacobian is sampled at 200 random interior profiles (seed 0) and the
    worst case over samples is reported as an estimate.  A symmetrized map
    that overflows is a NumericsError.
    """
    e_mat = tangent_basis(game.action_counts)
    phi = game.linear_map
    with np.errstate(over="ignore", invalid="ignore"):
        if phi is not None:
            syms = (phi + phi.T)[None]
        else:
            rng = np.random.default_rng(_CLASSIFY_SEED)
            samples = [np.concatenate([rng.dirichlet(np.ones(c)) for c in game.action_counts])
                       for _ in range(_CLASSIFY_SAMPLES)]
            dus = np.array([payoff_jacobian(game, x) for x in samples])
            syms = dus + dus.transpose(0, 2, 1)
        # checked after the compression: a finite map can still overflow there, and
        # every row of e_mat has a nonzero entry, so a non-finite map never compresses
        # to a finite one
        compressed = e_mat.T @ syms @ e_mat
    if not np.isfinite(compressed).all():
        raise NumericsError("the symmetrized payoff map overflows")
    spectra = np.linalg.eigvalsh(compressed)
    worst = int(np.argmax(spectra[:, -1]))  # the first sample of the largest eigenvalue
    lambda_max = float(spectra[worst, -1])
    report = ClassificationReport(
        tangent_eigenvalues=spectra[worst],
        lambda_max=lambda_max,
        mu=max(0.0, lambda_max / 2.0),
        monotonicity_class=_class_of(lambda_max),
        exact=phi is not None,
        sample_argmax=None if phi is not None else samples[worst],
    )
    if phi is not None:
        full_eigs, vecs = np.linalg.eigh(syms[0])
        in_tangent = np.linalg.norm(vecs - e_mat @ e_mat.T @ vecs, axis=0) <= 1e-8
        aligned = full_eigs[in_tangent]
        report.full_eigenvalues = full_eigs
        if aligned.size:
            report.aligned_eigenvalues = aligned
            report.mu_aligned = float(max(0.0, aligned.max() / 2.0))
    return report


# ------------------------------------------------------------------ rest points

@dataclass
class RestPointResult:
    """Solution of z = U(sigma(z)) with residual in the max norm."""

    z_star: np.ndarray
    x_star: np.ndarray
    residual: float
    iterations: int
    method: str
    status: str
    eps: float

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    def to_dict(self) -> dict:
        return _fields_dict(self, z_star="z", x_star="x")


@np.errstate(over="ignore", invalid="ignore")
def rest_point(game: GameSpec, eps: float, z0=None) -> RestPointResult:
    """Locate a rest point by damped fixed-point iteration with a Newton polish.

    The damped stage z <- (z + U(sigma(z))) / 2 runs until the residual
    falls below 1e-8 or stagnates (it need not contract near unstable rest
    points); Newton on the flow's Jacobian at gamma = 1 (DU Dsigma - I)
    with a halving line search then drives the best iterate to 1e-12.  The
    result is converged when the residual is at most 1e-10; a residual
    that overflows reads not-found, without a warning.

    U(sigma(.)) runs once per iterate and per line-search candidate, on a
    soft-max bound once: that one evaluation u gives the residual
    max|u - z|, the next damped iterate and the Newton right-hand side.
    """
    eps = _check_eps(eps)
    n = game.total_actions
    z = np.zeros(n) if z0 is None else _check_vector(z0, n, "z0").copy()
    _check_finite(z)
    point = np.empty(n)
    sigma = _bind_softmax(eps, game.action_counts, point, np.empty(n))
    payoff = _bind_payoff(game)
    params = LearningParams(1.0, eps)

    def evaluate(v: np.ndarray) -> tuple[np.ndarray, float]:
        point[...] = v
        u = payoff(sigma())
        return u, float(np.abs(u - v).max())

    u, res = evaluate(z)
    best_z, best_u, best_res = z, u, res
    iters = 0
    since_improve = 0
    while iters < 100000 and best_res > 1e-8:
        z = 0.5 * z + 0.5 * u
        iters += 1
        u, res = evaluate(z)
        if res < 0.99 * best_res:
            best_z, best_u, best_res = z, u, res
            since_improve = 0
        else:
            since_improve += 1
            # The damped map does not contract near unstable rest points;
            # hand the best iterate to Newton once progress stalls.
            if since_improve >= 500:
                break
    z, u, res = best_z, best_u, best_res
    method = "damped"
    for _ in range(50):
        if res <= 1e-12:
            break
        method = "damped+newton"
        jac = dynamics_jacobian(z, game, params)
        try:
            step_dir = np.linalg.solve(jac, -(u - z))
        except np.linalg.LinAlgError:
            break
        t = 1.0
        improved = False
        for _ in range(30):
            cand = z + t * step_dir
            cand_u, cand_res = evaluate(cand)
            if cand_res < res:
                z, u, res = cand, cand_u, cand_res
                improved = True
                break
            t *= 0.5
        iters += 1
        if not improved:
            break
    status = "converged" if res <= 1e-10 else "not-found"
    point[...] = z
    return RestPointResult(z_star=z, x_star=sigma(),
                           residual=res, iterations=iters, method=method,
                           status=status, eps=eps)


def multi_start_rest_points(game: GameSpec, eps: float, n_starts: int = 20,
                            seed: int = 0) -> list[RestPointResult]:
    """Solve from zero plus n_starts - 1 seeded random starts on the box
    |z_i| <= max|payoff| + 1, deduplicated; NumericsError if its width overflows."""
    found: list[RestPointResult] = []
    for result in _converged_starts(game, eps, n_starts, seed):
        if not any(np.abs(result.z_star - prev.z_star).max() <= 1e-6 for prev in found):
            found.append(result)
    return found


def _converged_starts(game: GameSpec, eps: float, n_starts: int, seed: int):
    """The converged rest points of multi_start_rest_points' starts, in start
    order and solved one at a time as they are taken; the starts are drawn
    at the first one."""
    n_starts = _check_whole(n_starts, "n_starts", 1)
    rng = np.random.default_rng(seed)
    bound = game.max_abs_payoff() + 1.0
    n = game.total_actions
    starts = [np.zeros(n)]
    try:
        starts += [rng.uniform(-bound, bound, n) for _ in range(n_starts - 1)]
    except OverflowError:
        raise NumericsError(f"no start box can be drawn for payoffs up to {bound:.6g}") from None
    for z0 in starts:
        result = rest_point(game, eps, z0=z0)
        if result.converged:
            yield result


# ---------------------------------------------------------------- linearization

def dynamics_jacobian(z_star: np.ndarray, game: GameSpec, params: LearningParams,
                      block: FeedbackBlock | None = None) -> np.ndarray:
    """Linearization of the score flow at a rest point.

    First order: J = gamma (DU Dsigma - I).  With a feedback block, the
    2n x 2n matrix of the (z, xi) field, which does not depend on xi.
    """
    n = game.total_actions
    z_star = _check_vector(z_star, n, "z_star")
    x = softmax(z_star, params.eps, game.action_counts)
    d_sigma = _jacobian_at(x, params.eps, game.action_counts)
    du = payoff_jacobian(game, x)
    gamma = params.gamma
    eye = np.eye(n)
    if block is None:
        return gamma * (du @ d_sigma - eye)
    _check_dim(block, n)
    block.ensure_valid()
    top = np.hstack([gamma * ((du - block.d_mat) @ d_sigma - eye), -gamma * block.c_mat])
    bottom = np.hstack([block.b_mat @ d_sigma, block.a_mat])
    return np.vstack([top, bottom])


def tangent_mode_abscissa(jac: np.ndarray, action_counts: Sequence[int]) -> float:
    """Largest real part over eigenvalues whose eigenvector has a score
    component of norm above 1e-8 in the tangent space (per-block zero-sum
    directions, the span of tangent_basis); -inf when there is none.

    The soft-max shift invariance pins one structural mode per player along
    the block ones direction; those modes never cross and are excluded.  A
    Jacobian that is not finite is a NumericsError.
    """
    e_t = tangent_basis(action_counts).T
    n = e_t.shape[1]
    if np.shape(jac) not in ((n, n), (2 * n, 2 * n)):
        raise DomainError(f"Jacobian shape {np.shape(jac)} is neither {(n, n)} nor {(2 * n,) * 2}")
    if not np.isfinite(jac).all():
        raise NumericsError("the Jacobian has non-finite entries")
    eigvals, eigvecs = np.linalg.eig(jac)
    scores = eigvecs[:n]
    # real and imaginary parts apart: a complex product (zgemm) touches ~0.25 MB
    # more of the BLAS buffers, which shows in the process's peak memory
    tangential = np.hypot(np.linalg.norm(e_t @ scores.real, axis=0),
                          np.linalg.norm(e_t @ scores.imag, axis=0)) > 1e-8
    return float(eigvals.real[tangential].max(initial=-np.inf))


@dataclass
class BifurcationResult:
    """Outcome of the bisection for the critical temperature."""

    eps_star: float | None
    status: str
    iterations: int
    bracket: tuple[float, float]
    abscissa_low: float
    abscissa_high: float

    def to_dict(self) -> dict:
        return _fields_dict(self)


def bifurcation_epsilon(game: GameSpec, params: LearningParams,
                        block: FeedbackBlock | None = None,
                        eps_range: tuple[float, float] = (0.05, 5.0),
                        tol: float = 1e-4) -> BifurcationResult:
    """Bisect for the temperature where the tangent-mode spectral abscissa
    of the linearization (at the eps-dependent rest point) crosses zero."""
    lo, hi = map(float, _check_vector(eps_range, 2, "eps range"))
    if not (0.0 < lo < hi):
        raise DomainError(f"invalid eps range {eps_range!r}")
    tol = float(tol)
    if not 0.0 < tol < np.inf:
        raise DomainError(f"bisection tolerance must be positive and finite, got {tol!r}")
    warm = {"z": None}

    def abscissa(eps: float) -> float:
        result = rest_point(game, eps, z0=warm["z"])
        if not result.converged:
            result = next(_converged_starts(game, eps, 10, 7), None)
            if result is None:
                raise NumericsError(f"no rest point found at eps={eps:.6g}")
        warm["z"] = result.z_star
        params_eps = LearningParams(gamma=params.gamma, eps=eps)
        with np.errstate(over="ignore", invalid="ignore"):
            jac = dynamics_jacobian(result.z_star, game, params_eps, block=block)
        # tangent_mode_abscissa refuses this Jacobian too; checked here to name eps
        if not np.isfinite(jac).all():
            raise NumericsError(f"the linearization at eps={eps:.6g} overflows")
        return tangent_mode_abscissa(jac, game.action_counts)

    f_lo = abscissa(lo)
    f_hi = abscissa(hi)
    if f_lo == 0.0 or f_hi == 0.0 or (f_lo > 0.0) == (f_hi > 0.0):
        return BifurcationResult(None, "no-bifurcation-in-range", 0, (lo, hi),
                                 f_lo, f_hi)
    iterations = 0
    a, b, f_a = lo, hi, f_lo
    while b - a > tol:
        mid = 0.5 * (a + b)
        if not a < mid < b:
            break  # the bracket is down to adjacent floats
        f_mid = abscissa(mid)
        iterations += 1
        if (f_mid > 0.0) == (f_a > 0.0):
            a, f_a = mid, f_mid
        else:
            b = mid
    return BifurcationResult(0.5 * (a + b), "found", iterations, (a, b), f_lo, f_hi)


# ------------------------------------------------------------ Lyapunov monitors

_INCREASE_TOL = 1e-9  # a rise between samples that still reads as non-increasing


def lyapunov_trace(traj: Trajectory, z_star: np.ndarray, eps: float,
                   action_counts: Sequence[int]) -> tuple[np.ndarray, str]:
    """Bregman storage V of the scores at each sample plus a monotonicity verdict."""
    values = bregman_lse(traj.states, z_star, eps, action_counts)
    return values, _storage_verdict(values)


def _storage_verdict(values: np.ndarray) -> str:
    """Whether a storage trace is non-increasing; a value that overflowed
    to inf reads as increased, without a warning for inf - inf."""
    with np.errstate(invalid="ignore"):
        rises = np.diff(values)
    return "non-increasing" if np.all(rises <= _INCREASE_TOL) else "increased"


_CERTIFY_TOL = 1e-8
_INV_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def storage_matrix(block: FeedbackBlock) -> np.ndarray:
    """Quadratic storage matrix P = s P0 for the feedback block, where
    A^T P0 + P0 A = -I.  A golden-section search over log10 s in [-6, 6]
    minimizes the largest eigenvalue of the passivity matrix
    [[A^T P + P A, P B - C^T], [B^T P - C, -(D + D^T)]]; s = 1 unless that
    eigenvalue is at most 1e-8, when P certifies v_a-to-x passivity.  An
    n^2 x n^2 system for P0 that numpy cannot allocate is a DomainError; a
    P0 that is not finite and positive definite (none is when the Lyapunov
    operator is singular), or a passivity matrix that overflows, is a
    NumericsError."""
    a_t, eye = block.a_mat.T, np.eye(block.dim)
    try:
        with np.errstate(over="ignore"):
            lyap = np.kron(eye, a_t) + np.kron(a_t, eye)
        p0 = np.linalg.solve(lyap, -eye.ravel()).reshape(eye.shape)
    except MemoryError as exc:
        raise DomainError(f"the storage system cannot be held in memory: {exc}") from None
    except np.linalg.LinAlgError:
        p0 = np.nan * eye  # a singular Lyapunov operator has no P0
    p0 = 0.5 * (p0 + p0.T)
    if not (np.isfinite(p0).all() and np.linalg.eigvalsh(p0).min() > 0.0):
        raise NumericsError("the storage matrix P0 of the feedback block is not "
                            "finite and positive definite")

    def worst_eigenvalue(log_s: float) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            p = 10.0 ** log_s * p0
            top = np.hstack([a_t @ p + p @ block.a_mat, p @ block.b_mat - block.c_mat.T])
            bottom = np.hstack([block.b_mat.T @ p - block.c_mat, -(block.d_mat + block.d_mat.T)])
            passivity = np.vstack([top, bottom])
        if not np.isfinite(passivity).all():
            raise NumericsError("the passivity matrix of the feedback block overflows")
        return float(np.linalg.eigvalsh(passivity).max())

    # lo..hi may run either way; best sits at its golden point nearer lo
    lo, hi = -6.0, 6.0
    best = hi - _INV_GOLDEN * (hi - lo)
    f_best = worst_eigenvalue(best)
    while abs(hi - lo) > 1e-10:
        probe = lo + _INV_GOLDEN * (hi - lo)
        f_probe = worst_eigenvalue(probe)
        if f_probe < f_best:
            lo, best, f_best = best, probe, f_probe
        else:
            lo, hi = probe, lo
    return (10.0 ** best if f_best <= _CERTIFY_TOL else 1.0) * p0


def composite_lyapunov_trace(traj: Trajectory, z_star: np.ndarray, eps: float,
                             block: FeedbackBlock, action_counts: Sequence[int],
                             gamma: float = 1.0,
                             p_mat: np.ndarray | None = None) -> tuple[np.ndarray, str]:
    """Composite storage W = V + (gamma/2) (xi - xi*)^T P (xi - xi*) per
    sample, with the rest point's filter state xi* = -A^-1 B sigma(z*)."""
    z_star = np.asarray(z_star, dtype=float)
    _check_dim(block, z_star.size)
    if traj.filter_state is None:
        raise DomainError("trajectory does not carry a filter state")
    p_mat = storage_matrix(block) if p_mat is None else np.asarray(p_mat, dtype=float)
    if p_mat.shape != (block.dim, block.dim):
        raise DomainError(f"storage matrix P has shape {p_mat.shape}, expected {(block.dim,) * 2}")
    if (not np.isfinite(p_mat).all() or np.abs(p_mat - p_mat.T).max() > 1e-12
            or np.linalg.eigvalsh(p_mat).min() <= 0.0):
        raise ConfigurationError("storage matrix P must be symmetric positive definite")
    values, _ = lyapunov_trace(traj, z_star, eps, action_counts)
    xi_star = block.equilibrium_filter_state(softmax(z_star, eps, action_counts))
    xi_dev = traj.filter_state - xi_star
    values = values + 0.5 * gamma * np.einsum("ti,ij,tj->t", xi_dev, p_mat, xi_dev)
    return values, _storage_verdict(values)


# ----------------------------------------------------------- trajectory verdicts

@dataclass
class ConvergenceReport:
    """Verdict over the final window of a trajectory."""

    status: str
    amplitude: float
    amplitude_first_half: float
    amplitude_second_half: float
    terminal_distance: float | None
    window_start_time: float


def _check_samples(traj: Trajectory) -> None:
    if not len(traj.times):
        raise UsageError("trajectory has no samples to analyze")


def _check_analyzable(traj: Trajectory) -> None:
    if traj.strategies is None:
        raise UsageError("trajectory carries no strategies to analyze")
    _check_samples(traj)


def _check_target(traj: Trajectory, x_star) -> np.ndarray:
    """x_star as a finite profile of the trajectory's strategy width."""
    x_star = _check_vector(x_star, traj.strategies.shape[1], "x_star")
    if not np.isfinite(x_star).all():
        raise DomainError("x_star has non-finite entries")
    return x_star


def convergence_report(traj: Trajectory,
                       x_star: np.ndarray | None = None) -> ConvergenceReport:
    """Classify the last 20% of a trajectory as converged, limit-cycle, or
    undetermined from the per-coordinate strategy oscillation amplitude."""
    _check_analyzable(traj)
    if x_star is not None:
        x_star = _check_target(traj, x_star)
    times = traj.times
    t_cut = times[-1] - 0.2 * (times[-1] - times[0])
    idx = np.nonzero(times >= t_cut)[0]
    if idx.size < 4:
        raise UsageError("trajectory is shorter than the analysis window")
    window_x = traj.strategies[idx]

    def amp(samples: np.ndarray) -> float:
        return float((samples.max(axis=0) - samples.min(axis=0)).max())

    half = idx.size // 2
    amplitude = amp(window_x)
    amp_first = amp(window_x[:half])
    amp_second = amp(window_x[half:])
    terminal = None
    if x_star is not None:
        terminal = float(np.abs(traj.strategies[-1] - x_star).max())
    if amplitude < 1e-6 and (terminal is None or terminal < 1e-4):
        status = "converged"
    elif amplitude > 1e-3 and abs(amp_second - amp_first) <= 0.1 * max(amp_first, 1e-300):
        status = "limit-cycle"
    else:
        status = "undetermined"
    return ConvergenceReport(status, amplitude, amp_first, amp_second, terminal,
                             float(t_cut))


_SETTLED_TOL = 1e-3  # the max-norm distance from x_star that counts as settled


def time_to_tolerance(traj: Trajectory, x_star: np.ndarray) -> float | None:
    """First sample time after which the strategy stays within _SETTLED_TOL
    of x_star in the max norm; None when the trajectory never settles."""
    _check_analyzable(traj)
    dist = np.abs(traj.strategies - _check_target(traj, x_star)).max(axis=1)
    inside = dist < _SETTLED_TOL
    if not inside[-1]:
        return None
    outside = np.nonzero(~inside)[0]
    first = 0 if outside.size == 0 else int(outside[-1]) + 1
    return float(traj.times[first])


def score_bound(game: GameSpec, z0: np.ndarray,
                block: FeedbackBlock | None = None) -> np.ndarray:
    """Per-coordinate invariant bound max{|z_i(0)|, M} on simulated scores,
    where M bounds the (filter-adjusted) payoff magnitude.  A block is refused
    unless of the game's dimension, valid (ensure_valid), A Metzler and each
    column of B of one sign."""
    m_payoff = game.max_abs_payoff()
    if block is not None:
        # |v_a| <= ||C||_inf sup|xi| + ||D||_inf with sup|xi| <= ||A^-1 B||_inf
        # for xi(0) = 0 and strategies in [0, 1], which holds when no entry
        # of the impulse response e^{At} B changes sign.
        _check_dim(block, game.total_actions)
        block.ensure_valid()
        b = block.b_mat
        off_diagonal = block.a_mat[~np.eye(block.dim, dtype=bool)]
        if (off_diagonal < 0).any() or not ((b >= 0).all(0) | (b <= 0).all(0)).all():
            raise ConfigurationError("the score bound needs a Metzler A and one "
                                     "sign per column of B")
        gain = float(np.abs(np.linalg.solve(block.a_mat, block.b_mat)).sum(axis=1).max())
        m_payoff += float(np.abs(block.c_mat).sum(axis=1).max()) * gain
        m_payoff += float(np.abs(block.d_mat).sum(axis=1).max())
    z0 = _check_vector(z0, game.total_actions, "z0")
    return np.maximum(np.abs(z0), m_payoff)


def score_bound_excess(traj: Trajectory, game: GameSpec,
                       block: FeedbackBlock | None = None) -> float:
    """Worst violation of the score bound along a trajectory of n scores;
    <= 0 when the bound holds with a slack of 1e-6.  The bound is that of
    the block the run ran with, so a filtered run needs its block and a
    first-order run none.  The bound holds for a filter that starts at
    rest, so a filter state that is not 0 at the first sample is refused,
    and so is a trajectory with no samples."""
    _check_samples(traj)
    _check_length(traj.states, game.total_actions)
    if traj.filter_state is not None and block is None:
        raise DomainError("the score bound of a filtered run needs the block it ran with")
    if traj.filter_state is None and block is not None:
        raise DomainError("a run without a filter state has no block to bound")
    if traj.filter_state is not None and (traj.filter_state[0] != 0.0).any():
        raise DomainError("the score bound needs a filter state of 0 at the first sample")
    bound = score_bound(game, traj.states[0], block=block) + 1e-6
    return float((np.abs(traj.states) - bound).max())
