"""Acceptance gate: one test per primary correctness criterion.

Every test prints a single [PASS]/[FAIL] line (visible with pytest -s) and
then asserts.  The references for criteria 2 and 3 are derived
independently of the solver under test: rest points against a plain
numpy logit map solved by a scipy root multistart (and, for the
anti-coordination game, a Lambert-W closed form), the RPS spectrum from
the circulant eigenvalues of the payoff matrix.  Criterion 5 reads nine
scenarios of the session's one `reproduce` catalogue run, with its own
expected statuses.
"""

import numpy as np
import pytest
from scipy.optimize import brentq, root
from scipy.special import lambertw
from tensor_reference import numeric_jacobian, revision_protocol_field

from gamedyn import (FeedbackBlock, LearningParams, SimulationRun,
                     bifurcation_epsilon, bregman_lse, classify,
                     composite_lyapunov_trace, convergence_report,
                     dynamics_jacobian, expected_payoff_vector,
                     first_order_field, induced_strategy_field, lyapunov_trace,
                     payoff_estimate, preset,
                     profile_jacobian, rest_point, rps_matrix,
                     score_bound_excess, seeded_initial_scores,
                     simulate_batch, simulate_first_order,
                     simulate_higher_order, softmax,
                     storage_matrix, time_to_tolerance)

SEEDS10 = tuple(range(10))
DT = 0.02
RECORD_EVERY = 5


def _conclude(num: int, desc: str, failures: list[str], note: str = "") -> None:
    if failures:
        line = f"[FAIL] criterion {num} - {desc}: " + "; ".join(failures)
        if note:
            line += f" [{note}]"
        print(line)
        pytest.fail(line, pytrace=False)
    print(f"[PASS] criterion {num} - {desc}")


def _stacked_scores(n: int, seeds) -> np.ndarray:
    return np.stack([seeded_initial_scores(n, s) for s in seeds])


def test_criterion_1_classification():
    failures = []
    for l in (0.5, 1.0, 2.5, 5.0, 8.0):
        rep = classify(preset("rps", {"l": l}))
        if not np.allclose(rep.tangent_eigenvalues, [l - 1.0, l - 1.0],
                           atol=1e-9):
            failures.append(f"rps l={l:g} tangent "
                            f"{rep.tangent_eigenvalues.tolist()}")
    for l in (1.0, 5.0):
        rep = classify(preset("two_player_rps", {"l": l}))
        expected = np.sort([2.0 * (l - 1.0), -2.0 * (l - 1.0),
                            1.0 - l, 1.0 - l, l - 1.0, l - 1.0])
        if not np.allclose(np.sort(rep.full_eigenvalues), expected, atol=1e-9):
            failures.append(f"two_player_rps l={l:g} full spectrum "
                            f"{np.sort(rep.full_eigenvalues).tolist()}")
    rep = classify(preset("jordan_mp"))
    if abs(rep.mu - 1.0) > 1e-9:
        failures.append(f"jordan_mp mu {rep.mu}")
    rep_a = classify(preset("modified_rps_A"))
    if (rep_a.aligned_eigenvalues is None
            or not np.allclose(rep_a.aligned_eigenvalues, [-1.0], atol=1e-3)):
        failures.append(f"modified_rps_A aligned {rep_a.aligned_eigenvalues}")
    if not np.allclose(np.sort(rep_a.full_eigenvalues),
                       [-2.3723, -1.0, 3.3723], atol=1e-3):
        failures.append(f"modified_rps_A full "
                        f"{np.sort(rep_a.full_eigenvalues).tolist()}")
    rep_b = classify(preset("modified_rps_Abar"))
    if (rep_b.aligned_eigenvalues is None
            or not np.allclose(rep_b.aligned_eigenvalues, [1.0], atol=1e-3)
            or abs(rep_b.mu_aligned - 0.5) > 1e-3):
        failures.append(f"modified_rps_Abar aligned "
                        f"{rep_b.aligned_eigenvalues} mu {rep_b.mu_aligned}")
    if not np.allclose(np.sort(rep_b.full_eigenvalues),
                       [-3.3723, 1.0, 2.3723], atol=1e-3):
        failures.append(f"modified_rps_Abar full "
                        f"{np.sort(rep_b.full_eigenvalues).tolist()}")
    _conclude(1, "monotonicity classification tables", failures)


def _logit_map(x: np.ndarray, a_mat: np.ndarray, eps: float) -> np.ndarray:
    u = a_mat @ x / eps
    w = np.exp(u - u.max())
    return w / w.sum()


def _logit_roots(a_mat: np.ndarray, eps: float) -> np.ndarray:
    """Roots of x = softmax(A x / eps) found by scipy from 60 seeded simplex
    starts; only roots with a max-norm residual of at most 1e-12 are kept."""

    def jac(x):
        p = _logit_map(x, a_mat, eps)
        return np.eye(p.size) - (np.diag(p) - np.outer(p, p)) @ a_mat / eps

    starts = np.random.default_rng(0).dirichlet(np.ones(a_mat.shape[0]),
                                                size=60)
    roots = []
    for x0 in starts:
        sol = root(lambda x: x - _logit_map(x, a_mat, eps), x0, jac=jac,
                   method="hybr", tol=1e-13)
        if np.abs(sol.x - _logit_map(sol.x, a_mat, eps)).max() <= 1e-12:
            roots.append(sol.x)
    return np.array(roots)


def _anticoord_lambert(costs, eps: float) -> np.ndarray:
    """Logit fixed point of the matching game A = -diag(c): x_i = exp(-c_i
    x_i / eps) / Z gives x_i = (eps / c_i) W(c_i s / eps) with s = 1 / Z
    fixed by sum(x) = 1."""
    costs = np.asarray(costs, dtype=float)

    def profile(log_s):
        return eps / costs * lambertw(costs * np.exp(log_s) / eps).real

    log_s = brentq(lambda t: profile(t).sum() - 1.0, -50.0, 50.0, xtol=1e-14)
    return profile(log_s)


# Distributions quoted for these rest points, with their bands and the
# max-norm gap to the computed point.  The computed points have solver
# residuals of at most 3.3e-16 and match the references below, so the quoted
# figures are not asserted here; they stay asserted, and failing, in the
# `reproduce` catalogue (scenarios 2, 8-A, 8-A-eps0.2, 8-Abar-eps0.2).
#
#   game               eps  quoted                      band   gap
#   anticoord123       1    [0.40, 0.32, 0.27]          5e-3   7.2e-3  (x* truncated)
#   modified_rps_A     1    [0.379, 0.2997, 0.3213]     1e-3   2.2e-3
#   modified_rps_Abar  1    [0.2741, 0.3647, 0.3612]    1e-3   1.4e-4
#   modified_rps_A     0.2  [0.4025, 0.3024, 0.2951]    1e-3   2.9e-3
#   modified_rps_Abar  0.2  [0.2653, 0.3237, 0.4109]    1e-3   7.5e-3
REST_POINT_CASES = [
    ("anticoord123", 1.0),
    ("modified_rps_A", 1.0),
    ("modified_rps_Abar", 1.0),
    ("modified_rps_A", 0.2),
    ("modified_rps_Abar", 0.2),
]


def test_criterion_2_fixed_points():
    failures = []
    for l in (1.0, 2.5, 5.0):
        res = rest_point(preset("rps", {"l": l}), 1.0)
        if not np.allclose(res.z_star, np.full(3, (1.0 - l) / 3.0), atol=1e-8):
            failures.append(f"rps l={l:g} z* {res.z_star.tolist()}")
    for name, eps in REST_POINT_CASES:
        game = preset(name)
        label = f"{name} eps={eps:g}"
        res = rest_point(game, eps)
        if res.status != "converged" or res.residual > 1e-10:
            failures.append(f"{label}: status {res.status}, residual "
                            f"{res.residual:.1e}")
        # matching game: U(x) = A x with A the stored payoff matrix
        roots = _logit_roots(game.payoff_tensors[0], eps)
        if len(roots) < 30:
            failures.append(f"{label}: only {len(roots)}/60 reference starts "
                            f"converged")
            continue
        spread = float(np.abs(roots - roots[0]).max())
        if spread > 1e-8:
            failures.append(f"{label}: reference starts reach distinct roots "
                            f"(spread {spread:.1e})")
        gap = float(np.abs(res.x_star - roots[0]).max())
        if gap > 1e-8:
            failures.append(f"{label}: computed {res.x_star.tolist()} is "
                            f"{gap:.1e} from the reference root "
                            f"{roots[0].tolist()}")
        if name == "anticoord123":
            lam = _anticoord_lambert((1.0, 2.0, 3.0), eps)
            gap = float(np.abs(res.x_star - lam).max())
            if gap > 1e-8:
                failures.append(f"{label}: computed {res.x_star.tolist()} is "
                                f"{gap:.1e} from the Lambert-W form "
                                f"{lam.tolist()}")
    _conclude(2, "rest-point distributions", failures,
              note="references: numpy logit map solved by scipy from 60 "
                   "seeded simplex starts, all converged starts required to "
                   "agree; Lambert-W closed form for anticoord123")


def test_criterion_3_jacobian_spectrum():
    failures = []
    omega = np.exp(2j * np.pi / 3.0)
    for l, eps in ((8.0, 1.0), (5.0, 0.5), (2.5, 1.0)):
        game = preset("rps", {"l": l})
        z_star = np.full(3, (1.0 - l) / 3.0)
        jac = dynamics_jacobian(z_star, game, LearningParams(gamma=1.0, eps=eps))
        eigs = np.sort_complex(np.linalg.eigvals(jac))
        # At x* = 1/3, J = A (I - 11^T/3) / (3 eps) - I.  The circulant A has
        # eigenvalue A[0] @ [1, w, w^2] (and its conjugate) on the tangent
        # Fourier modes, and J sends the all-ones direction to -1.
        lam = rps_matrix(l)[0] @ np.array([1.0, omega, omega ** 2])
        expected = np.sort_complex(np.array(
            [-1.0, lam / (3.0 * eps) - 1.0, np.conj(lam) / (3.0 * eps) - 1.0]))
        gap = float(np.abs(eigs - expected).max())
        if gap > 1e-9:
            failures.append(f"l={l:g} eps={eps:g}: computed spectrum "
                            f"{eigs.tolist()} differs by {gap:.3e} from "
                            f"{expected.tolist()}")
    _conclude(3, "linearization spectrum at the interior rest point", failures,
              note="expected: -1 and lambda/(3 eps) - 1 for the circulant "
                   "eigenvalues lambda of rps_matrix(l) on the tangent modes")


def _rps_tangent_modes(l: float, two_player: bool) -> list[complex]:
    """Eigenvalues mu of the linear game map on the tangent modes at the
    uniform rest point: lambda_k = -l w^k + w^2k of rps_matrix(l), and
    +-lambda_k for the two-player game, whose B = A^T."""
    omega = np.exp(2j * np.pi / 3.0)
    lam = [rps_matrix(l)[0] @ np.array([1.0, omega ** k, omega ** (2 * k)]) for k in (1, 2)]
    return lam + [-m for m in lam] if two_player else lam


def _closed_form_abscissa(eps, modes, gain, cutoff, gamma=1.0):
    """Largest real part of the roots of the per-mode characteristic
    quadratic of the high-pass loop K s / (s + a) at the uniform rest point,
    3 eps (s + gamma)(s + a) = gamma (mu (s + a) - K s); K = 0 is the
    first-order flow, with the spurious root -a."""
    return max(np.roots([3.0 * eps,
                         3.0 * eps * (gamma + cutoff) - gamma * mu + gamma * gain,
                         3.0 * eps * gamma * cutoff - gamma * mu * cutoff]).real.max()
               for mu in modes)


def _closed_form_eps_star(modes, gain, cutoff, eps_range):
    """The temperature where _closed_form_abscissa crosses zero, by brentq,
    or None when it keeps one sign over eps_range."""
    def abscissa(eps):
        return _closed_form_abscissa(eps, modes, gain, cutoff)
    lo, hi = eps_range
    if (abscissa(lo) > 0.0) == (abscissa(hi) > 0.0):
        return None
    return brentq(abscissa, lo, hi, xtol=1e-14, rtol=1e-15)


def test_criterion_4_bifurcation_thresholds():
    """The quoted critical temperatures within their bands, and the same
    bisection at tol 1e-10 within 1e-8 of the crossing of the closed-form
    characteristic roots (rps l=8 filtered: 0.8694415793510; two-player
    rps l=5 filtered: 0.3472182069310)."""
    cases = [
        ("rps", {"l": 8.0}, False, (0.5, 3.0), 7.0 / 6.0, 1e-3),
        ("rps", {"l": 5.0}, False, (0.2, 2.0), 2.0 / 3.0, 1e-3),
        ("two_player_rps", {"l": 5.0}, True, (0.05, 2.0), 0.347, 5e-3),
        ("rps", {"l": 8.0}, True, (0.1, 3.0), 0.86, 0.02),
    ]
    failures = []
    for name, prm, filtered, eps_range, expected, tol in cases:
        game = preset(name, prm)
        block = (FeedbackBlock.high_pass(1.0, 1.0, game.action_counts)
                 if filtered else None)
        res = bifurcation_epsilon(game, LearningParams(gamma=1.0, eps=1.0),
                                  block=block, eps_range=eps_range, tol=1e-4)
        label = f"{game.name} {'filtered' if filtered else 'first-order'}"
        if res.status != "found":
            failures.append(f"{label}: {res.status}")
        elif abs(res.eps_star - expected) > tol:
            failures.append(f"{label}: eps*={res.eps_star:.6f}, expected "
                            f"{expected:g}+-{tol:g}")
        closed = _closed_form_eps_star(_rps_tangent_modes(prm["l"], name == "two_player_rps"),
                                       1.0 if filtered else 0.0, 1.0, eps_range)
        fine = bifurcation_epsilon(game, LearningParams(gamma=1.0, eps=1.0),
                                   block=block, eps_range=eps_range, tol=1e-10)
        if fine.status != "found" or abs(fine.eps_star - closed) > 1e-8:
            failures.append(f"{label}: eps*={fine.eps_star!r} at tol 1e-10, closed "
                            f"form {closed!r}")
    _conclude(4, "critical temperatures", failures,
              note="closed form: largest real root of 3 eps (s + gamma)(s + a) = "
                   "gamma (mu (s + a) - K s) over the tangent modes mu")


def test_criterion_4_filtered_thresholds_closed_form_grid():
    """The filtered critical temperature of rps against the closed form on
    l in {2.5, 5, 8}, K in {0.5, 1, 2.5} and a in {0.25, 1, 2} over
    [0.01, 5]: the 9 cases with K >= 1 at l = 2.5 or K = 2.5 at l = 5 do
    not cross, and each of the other 18 is within 1e-8 of the closed form
    and below the first-order (l - 1) / 6."""
    failures = []
    for l in (2.5, 5.0, 8.0):
        game = preset("rps", {"l": l})
        for gain in (0.5, 1.0, 2.5):
            for cutoff in (0.25, 1.0, 2.0):
                block = FeedbackBlock.high_pass(gain, cutoff, game.action_counts)
                res = bifurcation_epsilon(game, LearningParams(gamma=1.0, eps=1.0),
                                          block=block, eps_range=(0.01, 5.0), tol=1e-10)
                closed = _closed_form_eps_star(_rps_tangent_modes(l, False), gain, cutoff,
                                               (0.01, 5.0))
                label = f"l={l:g} K={gain:g} a={cutoff:g}"
                if (closed is None) != (l == 2.5 and gain >= 1.0 or l == 5.0 and gain == 2.5):
                    failures.append(f"{label}: closed-form eps* {closed!r}")
                elif closed is None:
                    if res.status != "no-bifurcation-in-range":
                        failures.append(f"{label}: {res.status}, the closed form does not cross")
                elif res.status != "found" or abs(res.eps_star - closed) > 1e-8:
                    failures.append(f"{label}: eps*={res.eps_star!r}, closed form {closed!r}")
                elif not res.eps_star < (l - 1.0) / 6.0:
                    failures.append(f"{label}: eps*={res.eps_star!r} is not below the "
                                    f"first-order {(l - 1.0) / 6.0!r}")
    _conclude(4, "filtered critical temperatures on the closed-form grid", failures)


# (catalogue scenario, first-order status, filtered status or None)
DICHOTOMY = [
    ("1-l1", "converged", "converged"),
    ("1-l2.5", "converged", "converged"),
    ("1-l5", "converged", "converged"),
    ("1-l8", "limit-cycle", "converged"),
    ("4-l5-eps0.5", "limit-cycle", "converged"),
    ("5", "converged", "converged"),
    ("5-eps0.1", "limit-cycle", None),
    ("8-Abar-eps0.2", "limit-cycle", "converged"),
    ("9", "limit-cycle", "converged"),
]


def test_criterion_5_convergence_dichotomy(catalogue):
    """The runs of nine scenarios in the one catalogue run of the session
    (tests/conftest.py): both schemes from the same five seeds in one
    lockstep batch, each to its own horizon.  Every seed reaches the
    expected status, and no trajectory leaves the score bound."""
    failures = []
    for example_id, *expected in DICHOTOMY:
        _, scenario, game, solved, runs = catalogue.plans[example_id]
        statuses_expected = [status for status in expected if status is not None]
        for run, status, trajs in zip(runs, statuses_expected, catalogue.batches[example_id],
                                      strict=True):
            scheme = "first-order" if run.block is None else "higher-order"
            x_star = solved.x_star if status == "converged" else None
            statuses = [convergence_report(t, x_star=x_star).status for t in trajs]
            excess = max(score_bound_excess(t, game, block=run.block) for t in trajs)
            label = f"{game.name} eps={scenario.eps:g} {scheme}"
            if any(s != status for s in statuses):
                failures.append(f"{label}: statuses {statuses}, expected "
                                f"{status} on all seeds")
            if excess > 0.0:
                failures.append(f"{label}: score bound exceeded by {excess:.2e}")
    _conclude(5, "convergence dichotomy, unanimous over five seeds", failures)


MONOTONE_PRESETS = [
    ("matching_pennies", None),
    ("network_zero_sum_mp", None),
    ("two_player_rps", {"l": 1.0}),
    ("anticoord123", None),
    ("modified_rps_A", None),
]


def test_criterion_6_lyapunov_decrease():
    failures = []
    params = LearningParams(gamma=1.0, eps=1.0)
    for name, prm in MONOTONE_PRESETS:
        game = preset(name, prm)
        solved = rest_point(game, 1.0)
        z0 = _stacked_scores(game.total_actions, SEEDS10)
        block = FeedbackBlock.high_pass(1.0, 1.0, game.action_counts)
        trajs_fo, trajs_ho = simulate_batch(
            game, [SimulationRun(params, z0, 100.0),
                   SimulationRun(params, z0, 100.0, block)],
            dt=DT, record_every=RECORD_EVERY)
        for seed, traj in zip(SEEDS10, trajs_fo):
            values, verdict = lyapunov_trace(traj, solved.z_star, 1.0,
                                             game.action_counts)
            if verdict != "non-increasing":
                failures.append(f"{game.name} first-order seed {seed}: V "
                                f"rose by {float(np.diff(values).max()):.2e}")
        p_mat = storage_matrix(block)
        for seed, traj in zip(SEEDS10, trajs_ho):
            values, verdict = composite_lyapunov_trace(
                traj, solved.z_star, 1.0, block, game.action_counts,
                gamma=1.0, p_mat=p_mat)
            if verdict != "non-increasing":
                failures.append(f"{game.name} higher-order seed {seed}: W "
                                f"rose by {float(np.diff(values).max()):.2e}")
    _conclude(6, "Lyapunov decrease on monotone games, ten seeds", failures)


def test_criterion_7_property_suites():
    failures = []
    rng = np.random.default_rng(2024)

    worst = 0.0
    for counts in ((3,), (3, 3), (2, 2, 2)):
        n = sum(counts)
        for _ in range(20):
            z = rng.uniform(-3.0, 3.0, n)
            eps = float(rng.uniform(0.2, 2.0))
            jac = profile_jacobian(z, eps, counts)
            fd = numeric_jacobian(lambda v: softmax(v, eps, counts), z)
            worst = max(worst, float(np.abs(jac - fd).max()))
    if worst > 1e-6:
        failures.append(f"choice-map derivative FD gap {worst:.2e}")

    violations = 0
    for _ in range(1000):
        eps = float(rng.uniform(0.1, 3.0))
        z1 = rng.uniform(-4.0, 4.0, 5)
        z2 = rng.uniform(-4.0, 4.0, 5)
        dx = softmax(z1, eps, (5,)) - softmax(z2, eps, (5,))
        dz = z1 - z2
        inner = float(dz @ dx)
        breg = float(bregman_lse(z1, z2, eps, (5,)))
        ok = (inner >= -1e-12
              and inner >= eps * float(dx @ dx) - 1e-12
              and np.linalg.norm(dx) <= np.linalg.norm(dz) / eps + 1e-12
              and breg >= 0.5 * eps * float(dx @ dx) - 1e-12
              and breg <= 0.5 / eps * float(dz @ dz) + 1e-12)
        violations += not ok
    if violations:
        failures.append(f"{violations}/1000 monotonicity/cocoercivity/"
                        f"Lipschitz/Bregman pairs violated")

    all_presets = [("rps", {"l": 2.5}), ("anticoord123", None),
                   ("matching_pennies", None),
                   ("two_player_rps", {"l": 5.0}), ("shapley", None),
                   ("network_zero_sum_mp", None), ("jordan_mp", None),
                   ("modified_rps_A", None), ("modified_rps_Abar", None),
                   ("modified_jordan", None)]
    worst = 0.0
    lp = LearningParams(gamma=1.3, eps=0.8)
    for name, prm in all_presets:
        game = preset(name, prm)
        for _ in range(100):
            z = rng.uniform(-2.0, 2.0, game.total_actions)
            chained = (profile_jacobian(z, lp.eps, game.action_counts)
                       @ first_order_field(z, game, lp))
            gap = np.abs(induced_strategy_field(z, game, lp) - chained).max()
            worst = max(worst, float(gap))
    if worst > 1e-10:
        failures.append(f"chain-rule gap {worst:.2e}")

    worst = 0.0
    lp1 = LearningParams(gamma=1.0, eps=1.0)
    for name, prm in (("modified_rps_Abar", None), ("rps", {"l": 5.0}),
                      ("shapley", None)):
        game = preset(name, prm)
        for _ in range(50):
            z = rng.uniform(-2.0, 2.0, game.total_actions)
            x = softmax(z, 1.0, game.action_counts)
            gap = np.abs(revision_protocol_field(x, z, game, lp1)
                         - induced_strategy_field(z, game, lp1)).max()
            worst = max(worst, float(gap))
    if worst > 1e-10:
        failures.append(f"revision-protocol gap {worst:.2e}")

    for name, prm in (("matching_pennies", None), ("rps", {"l": 2.5}),
                      ("jordan_mp", None)):
        game = preset(name, prm)
        z = rng.uniform(-1.0, 1.0, game.total_actions)
        x = softmax(z, 1.0, game.action_counts)
        u = expected_payoff_vector(game, x)
        for mode in ("full-info", "bandit"):
            u_hat, _, _ = payoff_estimate(game, x, np.random.default_rng(99),
                                          mode=mode, size=100_000)
            se = u_hat.std(axis=0, ddof=1) / np.sqrt(u_hat.shape[0])
            gap = np.abs(u_hat.mean(axis=0) - u)
            if not np.all(gap <= 3.0 * se + 1e-12):
                failures.append(f"{game.name} {mode} estimator bias "
                                f"{float((gap - 3.0 * se).max()):.2e} past "
                                f"3 SE over 1e5 draws")

    _conclude(7, "structural property suites", failures)


def test_criterion_8_filtered_dynamics_settle_sooner():
    failures = []
    params = LearningParams(gamma=1.0, eps=1.0)
    x_star = np.full(3, 1.0 / 3.0)
    block = FeedbackBlock.high_pass(1.0, 1.0, (3,))
    for l in (2.5, 5.0):
        game = preset("rps", {"l": l})
        z0 = _stacked_scores(3, SEEDS10)
        fo = simulate_first_order(game, params, z0, dt=0.01, t_end=40.0,
                                  record_every=5)
        ho = simulate_higher_order(game, params, block, z0, dt=0.01,
                                   t_end=40.0, record_every=5)
        wins = 0
        for traj_fo, traj_ho in zip(fo, ho):
            t_fo = time_to_tolerance(traj_fo, x_star)
            t_ho = time_to_tolerance(traj_ho, x_star)
            if t_ho is not None and (t_fo is None or t_ho < t_fo):
                wins += 1
        if wins < 6:
            failures.append(f"l={l:g}: filtered dynamics settled first on "
                            f"only {wins}/10 seeds")
    _conclude(8, "filtered dynamics settle sooner on cycling-prone games",
              failures)
