"""Game classification, rest-point solving, linearization, bifurcation
search, Lyapunov monitoring, and trajectory verdicts."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .choice import (_bind_softmax, _check_eps, _check_finite, block_slices,
                     bregman_lse, profile_jacobian, softmax)
from .dynamics import FeedbackBlock, LearningParams, Trajectory, _bind_field
from .errors import ConfigurationError, DomainError, NumericsError, UsageError
from .games import (GameSpec, _bind_payoff, linear_game_map, payoff_jacobian,
                    tangent_basis)


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
        return {
            "eigenvalues": [float(v) for v in self.tangent_eigenvalues],
            "lambda_max": self.lambda_max,
            "mu": self.mu,
            "class": self.monotonicity_class,
            "exact": self.exact,
            "full_eigenvalues": (None if self.full_eigenvalues is None
                                 else [float(v) for v in self.full_eigenvalues]),
            "aligned_eigenvalues": (None if self.aligned_eigenvalues is None
                                    else [float(v) for v in self.aligned_eigenvalues]),
            "mu_aligned": self.mu_aligned,
        }


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
    worst case over samples is reported as an estimate.
    """
    e_mat = tangent_basis(game.action_counts)
    phi = linear_game_map(game)
    if phi is not None:
        sym = phi + phi.T
        tangent_eigs = np.linalg.eigvalsh(e_mat.T @ sym @ e_mat)
        full_eigs, vecs = np.linalg.eigh(sym)
        proj = e_mat @ e_mat.T
        in_tangent = np.linalg.norm(vecs - proj @ vecs, axis=0) <= 1e-8
        aligned = full_eigs[in_tangent]
        lambda_max = float(tangent_eigs.max())
        mu_aligned = float(max(0.0, aligned.max() / 2.0)) if aligned.size else None
        return ClassificationReport(
            tangent_eigenvalues=tangent_eigs,
            lambda_max=lambda_max,
            mu=max(0.0, lambda_max / 2.0),
            monotonicity_class=_class_of(lambda_max),
            exact=True,
            full_eigenvalues=full_eigs,
            aligned_eigenvalues=aligned if aligned.size else None,
            mu_aligned=mu_aligned,
        )
    rng = np.random.default_rng(_CLASSIFY_SEED)
    best_eigs = None
    best_lambda = -np.inf
    best_x = None
    for _ in range(_CLASSIFY_SAMPLES):
        x = np.concatenate([rng.dirichlet(np.ones(c)) for c in game.action_counts])
        du = payoff_jacobian(game, x)
        eigs = np.linalg.eigvalsh(e_mat.T @ (du + du.T) @ e_mat)
        if eigs[-1] > best_lambda:
            best_lambda = float(eigs[-1])
            best_eigs = eigs
            best_x = x
    return ClassificationReport(
        tangent_eigenvalues=best_eigs,
        lambda_max=best_lambda,
        mu=max(0.0, best_lambda / 2.0),
        monotonicity_class=_class_of(best_lambda),
        exact=False,
        sample_argmax=best_x,
    )


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
        return {
            "z": [float(v) for v in self.z_star],
            "x": [float(v) for v in self.x_star],
            "residual": self.residual,
            "iterations": self.iterations,
            "method": self.method,
            "status": self.status,
            "eps": self.eps,
        }


def rest_point(game: GameSpec, eps: float, z0=None) -> RestPointResult:
    """Locate a rest point by damped fixed-point iteration with a Newton polish.

    The damped stage z <- (z + U(sigma(z))) / 2 runs until the residual
    falls below 1e-8 or stagnates (it need not contract near unstable rest
    points); Newton with a halving line search then drives the best iterate
    to 1e-12.  The result is converged when the residual is at most 1e-10.
    """
    eps = _check_eps(eps)
    n = game.total_actions
    z = np.zeros(n) if z0 is None else np.asarray(z0, dtype=float).copy()
    if z.shape != (n,):
        raise DomainError(f"z0 has shape {z.shape}, expected ({n},)")
    _check_finite(z)
    sigma = _bind_softmax(eps, game.action_counts)
    payoff = _bind_payoff(game)

    def residual_of(v: np.ndarray) -> float:
        return float(np.abs(payoff(sigma(v)) - v).max())

    best_z = z.copy()
    best_res = residual_of(z)
    iters = 0
    since_improve = 0
    while iters < 100000 and best_res > 1e-8:
        z = 0.5 * z + 0.5 * payoff(sigma(z))
        iters += 1
        res = residual_of(z)
        if res < 0.99 * best_res:
            best_res = res
            best_z = z.copy()
            since_improve = 0
        else:
            since_improve += 1
            # The damped map does not contract near unstable rest points;
            # hand the best iterate to Newton once progress stalls.
            if since_improve >= 500:
                break
    z = best_z
    res = best_res
    method = "damped"
    eye = np.eye(n)
    for _ in range(50):
        if res <= 1e-12:
            break
        method = "damped+newton"
        x = sigma(z)
        f_val = payoff(x) - z
        jac = payoff_jacobian(game, x) @ profile_jacobian(z, eps, game.action_counts) - eye
        try:
            step_dir = np.linalg.solve(jac, -f_val)
        except np.linalg.LinAlgError:
            break
        t = 1.0
        improved = False
        for _ in range(30):
            cand = z + t * step_dir
            cand_res = residual_of(cand)
            if cand_res < res:
                z, res = cand, cand_res
                improved = True
                break
            t *= 0.5
        iters += 1
        if not improved:
            break
    status = "converged" if res <= 1e-10 else "not-found"
    return RestPointResult(z_star=z, x_star=sigma(z),
                           residual=res, iterations=iters, method=method,
                           status=status, eps=eps)


def multi_start_rest_points(game: GameSpec, eps: float, n_starts: int = 20,
                            seed: int = 0) -> list[RestPointResult]:
    """Solve from zero plus n_starts - 1 seeded random starts, deduplicated."""
    if n_starts < 1:
        raise DomainError(f"n_starts must be at least 1, got {n_starts!r}")
    rng = np.random.default_rng(seed)
    bound = game.max_abs_payoff() + 1.0
    n = game.total_actions
    found: list[RestPointResult] = []
    starts = [np.zeros(n)]
    starts += [rng.uniform(-bound, bound, n) for _ in range(int(n_starts) - 1)]
    for z0 in starts:
        result = rest_point(game, eps, z0=z0)
        if result.converged and not any(
                np.abs(result.z_star - prev.z_star).max() <= 1e-6 for prev in found):
            found.append(result)
    return found


# ---------------------------------------------------------------- linearization

_FD_STEP = 1e-6  # also the closed form's allowed gap from the differences


def numeric_jacobian(func, x0: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of a vector map."""
    x0 = np.asarray(x0, dtype=float)
    f0 = np.asarray(func(x0), dtype=float)
    jac = np.empty((f0.size, x0.size))
    for j in range(x0.size):
        delta = np.zeros_like(x0)
        delta[j] = _FD_STEP
        jac[:, j] = (np.asarray(func(x0 + delta)) - np.asarray(func(x0 - delta))) / (2.0 * _FD_STEP)
    return jac


def dynamics_jacobian(z_star: np.ndarray, game: GameSpec, params: LearningParams,
                      block: FeedbackBlock | None = None,
                      fd_check: bool = True) -> np.ndarray:
    """Linearization of the score flow at a rest point.

    First order: J = gamma (DU Dsigma - I).  With a feedback block the
    2n x 2n matrix of the (z, xi) field is assembled at
    xi* = -A^-1 B sigma(z*).  Unless fd_check is off, a central-difference
    Jacobian of the actual field must match the closed form to 1e-6.
    """
    z_star = np.asarray(z_star, dtype=float)
    n = game.total_actions
    if z_star.shape != (n,):
        raise DomainError(f"z_star has shape {z_star.shape}, expected ({n},)")
    x = softmax(z_star, params.eps, game.action_counts)
    d_sigma = profile_jacobian(z_star, params.eps, game.action_counts)
    du = payoff_jacobian(game, x)
    gamma = params.gamma
    eye = np.eye(n)
    if block is None:
        jac = gamma * (du @ d_sigma - eye)
        state = z_star
    else:
        block.ensure_valid()
        top = np.hstack([gamma * ((du - block.d_mat) @ d_sigma - eye), -gamma * block.c_mat])
        bottom = np.hstack([block.b_mat @ d_sigma, block.a_mat])
        jac = np.vstack([top, bottom])
        state = np.concatenate([z_star, block.equilibrium_filter_state(x)])
    if fd_check:
        field = _bind_field(game, params.eps, block, [(1, block is not None, params.gamma)])
        err = float(np.abs(jac - numeric_jacobian(field, state)).max())
        if err > _FD_STEP:
            raise NumericsError(
                f"analytic Jacobian differs from finite differences by {err:.3e}")
    return jac


def tangent_mode_abscissa(jac: np.ndarray, action_counts: Sequence[int]) -> float:
    """Largest real part over eigenvalues whose eigenvector has a score
    component of norm above 1e-8 in the tangent space (per-block zero-sum
    directions).

    The soft-max shift invariance pins one structural mode per player along
    the block ones direction; those modes never cross and are excluded.
    """
    slices = block_slices(action_counts)
    n = slices[-1].stop
    eigvals, eigvecs = np.linalg.eig(jac)
    best = -np.inf
    for lam, vec in zip(eigvals, eigvecs.T):
        tangential = vec[:n].copy()
        for sl in slices:
            tangential[sl] -= tangential[sl].mean()
        if np.linalg.norm(tangential) > 1e-8:
            best = max(best, float(lam.real))
    return best


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
        return {
            "eps_star": self.eps_star,
            "status": self.status,
            "iterations": self.iterations,
            "bracket": [self.bracket[0], self.bracket[1]],
            "abscissa_low": self.abscissa_low,
            "abscissa_high": self.abscissa_high,
        }


def bifurcation_epsilon(game: GameSpec, params: LearningParams,
                        block: FeedbackBlock | None = None,
                        eps_range: tuple[float, float] = (0.05, 5.0),
                        tol: float = 1e-4) -> BifurcationResult:
    """Bisect for the temperature where the tangent-mode spectral abscissa
    of the linearization (at the eps-dependent rest point) crosses zero."""
    lo, hi = float(eps_range[0]), float(eps_range[1])
    if not (0.0 < lo < hi):
        raise DomainError(f"invalid eps range {eps_range!r}")
    tol = float(tol)
    if not 0.0 < tol < np.inf:
        raise DomainError(f"bisection tolerance must be positive and finite, got {tol!r}")
    warm = {"z": None}

    def abscissa(eps: float) -> float:
        result = rest_point(game, eps, z0=warm["z"])
        if not result.converged:
            for attempt in multi_start_rest_points(game, eps, n_starts=10, seed=7):
                result = attempt
                break
            if not result.converged:
                raise NumericsError(f"no rest point found at eps={eps:.6g}")
        warm["z"] = result.z_star
        params_eps = LearningParams(gamma=params.gamma, eps=eps)
        jac = dynamics_jacobian(result.z_star, game, params_eps, block=block,
                                fd_check=False)
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
    """Bregman storage V at each sample plus a monotonicity verdict."""
    z_star = np.asarray(z_star, dtype=float)
    n = z_star.size
    scores = traj.states[:, :n]
    values = bregman_lse(scores, z_star, eps, action_counts)
    verdict = "non-increasing" if np.all(np.diff(values) <= _INCREASE_TOL) else "increased"
    return values, verdict


_CERTIFY_TOL = 1e-8
_INV_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def storage_matrix(block: FeedbackBlock) -> np.ndarray:
    """Quadratic storage matrix P = s P0 for the feedback block, where
    A^T P0 + P0 A = -I.  A golden-section search over log10 s in [-6, 6]
    minimizes the largest eigenvalue of the passivity matrix
    [[A^T P + P A, P B - C^T], [B^T P - C, -(D + D^T)]]; s = 1 unless that
    eigenvalue is at most 1e-8, when P certifies v_a-to-x passivity."""
    a_t, eye = block.a_mat.T, np.eye(block.dim)
    p0 = np.linalg.solve(np.kron(eye, a_t) + np.kron(a_t, eye), -eye.ravel()).reshape(eye.shape)
    p0 = 0.5 * (p0 + p0.T)

    def worst_eigenvalue(log_s: float) -> float:
        p = 10.0 ** log_s * p0
        top = np.hstack([a_t @ p + p @ block.a_mat, p @ block.b_mat - block.c_mat.T])
        bottom = np.hstack([block.b_mat.T @ p - block.c_mat, -(block.d_mat + block.d_mat.T)])
        return float(np.linalg.eigvalsh(np.vstack([top, bottom])).max())

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


def composite_lyapunov_trace(traj: Trajectory, z_star: np.ndarray,
                             xi_star: np.ndarray, eps: float,
                             block: FeedbackBlock, action_counts: Sequence[int],
                             gamma: float = 1.0,
                             p_mat: np.ndarray | None = None) -> tuple[np.ndarray, str]:
    """Composite storage W = V + (gamma/2) (xi - xi*)^T P (xi - xi*) per sample."""
    z_star = np.asarray(z_star, dtype=float)
    xi_star = np.asarray(xi_star, dtype=float)
    n = z_star.size
    if traj.states.shape[1] != 2 * n:
        raise DomainError("trajectory does not carry a filter state")
    p_mat = storage_matrix(block) if p_mat is None else np.asarray(p_mat, dtype=float)
    if np.abs(p_mat - p_mat.T).max() > 1e-12 or np.linalg.eigvalsh(p_mat).min() <= 0.0:
        raise ConfigurationError("storage matrix P must be symmetric positive definite")
    scores = traj.states[:, :n]
    xi_dev = traj.states[:, n:] - xi_star
    values = bregman_lse(scores, z_star, eps, action_counts)
    values = values + 0.5 * gamma * np.einsum("ti,ij,tj->t", xi_dev, p_mat, xi_dev)
    verdict = "non-increasing" if np.all(np.diff(values) <= _INCREASE_TOL) else "increased"
    return values, verdict


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

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "amplitude": self.amplitude,
            "amplitude_first_half": self.amplitude_first_half,
            "amplitude_second_half": self.amplitude_second_half,
            "terminal_distance": self.terminal_distance,
            "window_start_time": self.window_start_time,
        }


def convergence_report(traj: Trajectory,
                       x_star: np.ndarray | None = None) -> ConvergenceReport:
    """Classify the last 20% of a trajectory as converged, limit-cycle, or
    undetermined from the per-coordinate strategy oscillation amplitude."""
    if traj.strategies is None:
        raise UsageError("trajectory carries no strategies to analyze")
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
        terminal = float(np.abs(traj.strategies[-1] - np.asarray(x_star, dtype=float)).max())
    if amplitude < 1e-6 and (terminal is None or terminal < 1e-4):
        status = "converged"
    elif amplitude > 1e-3 and abs(amp_second - amp_first) <= 0.1 * max(amp_first, 1e-300):
        status = "limit-cycle"
    else:
        status = "undetermined"
    return ConvergenceReport(status, amplitude, amp_first, amp_second, terminal,
                             float(t_cut))


def time_to_tolerance(traj: Trajectory, x_star: np.ndarray,
                      tol: float = 1e-3) -> float | None:
    """First sample time after which the strategy stays within tol of x_star
    in the max norm; None when the trajectory never settles."""
    if traj.strategies is None:
        raise UsageError("trajectory carries no strategies to analyze")
    dist = np.abs(traj.strategies - np.asarray(x_star, dtype=float)).max(axis=1)
    inside = dist < tol
    if not inside[-1]:
        return None
    outside = np.nonzero(~inside)[0]
    first = 0 if outside.size == 0 else int(outside[-1]) + 1
    return float(traj.times[first])


def score_bound(game: GameSpec, z0: np.ndarray,
                block: FeedbackBlock | None = None) -> np.ndarray:
    """Per-coordinate invariant bound max{|z_i(0)|, M} on simulated scores,
    where M bounds the (filter-adjusted) payoff magnitude.  A block is
    refused unless A is Metzler and each column of B has one sign."""
    m_payoff = game.max_abs_payoff()
    if block is not None:
        # |v_a| <= ||C||_inf sup|xi| + ||D||_inf with sup|xi| <= ||A^-1 B||_inf
        # for xi(0) = 0 and strategies in [0, 1], which holds when no entry
        # of the impulse response e^{At} B changes sign.
        b = block.b_mat
        off_diagonal = block.a_mat[~np.eye(block.dim, dtype=bool)]
        if (off_diagonal < 0).any() or not ((b >= 0).all(0) | (b <= 0).all(0)).all():
            raise ConfigurationError("the score bound needs a Metzler A and one "
                                     "sign per column of B")
        gain = float(np.abs(np.linalg.solve(block.a_mat, block.b_mat)).sum(axis=1).max())
        m_payoff += float(np.abs(block.c_mat).sum(axis=1).max()) * gain
        m_payoff += float(np.abs(block.d_mat).sum(axis=1).max())
    z0 = np.asarray(z0, dtype=float)
    return np.maximum(np.abs(z0), m_payoff)


def score_bound_excess(traj: Trajectory, game: GameSpec,
                       block: FeedbackBlock | None = None) -> float:
    """Worst violation of the score bound along a trajectory; <= 0 when the
    bound holds with a slack of 1e-6."""
    n = game.total_actions
    scores = traj.states[:, :n]
    bound = score_bound(game, scores[0], block=block) + 1e-6
    return float((np.abs(scores) - bound).max())
