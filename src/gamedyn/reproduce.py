"""Built-in scenario table with expected outcomes and tolerances.

SCENARIOS declares each worked example once: its game, its temperature eps,
its runs (a first-order and, unless it has none, a filtered run from every
seed, for each learning rate gamma) and its checks: classification numbers,
solved rest points, convergence statuses and bifurcation thresholds.  plan,
run and check turn scenarios into reports, a row per check; rows carry a
note saying where the expected number comes from.  Rows whose expectation
is known only to limited precision are recorded without being asserted.
The rest point is solved at eps once for every check, and the speed and
learning-rate rows read the runs behind the status rows.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .analysis import (bifurcation_epsilon, classify, convergence_report,
                       rest_point, time_to_tolerance)
from .dynamics import (FeedbackBlock, LearningParams, SimulationRun,
                       seeded_initial_scores, simulate_batch,
                       write_trajectory_csv)
from .errors import IntegrationDivergedError, UsageError
from .games import GameSpec
from .presets import preset

SEEDS = (0, 1, 2, 3, 4)
DT = 0.02
RECORD_EVERY = 5
T_END_SETTLED = 120.0
T_END_CYCLE = 150.0


@dataclass(frozen=True)
class CheckRow:
    """One expected-versus-observed comparison inside a scenario report."""

    label: str
    expected: str
    observed: str
    tolerance: str
    outcome: str  # "pass" | "fail" | "recorded"
    note: str = ""


@dataclass
class ExampleReport:
    example_id: str
    title: str
    rows: list[CheckRow] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.outcome != "fail" for r in self.rows)

    def check(self, label, expected, observed, tol, note=""):
        expected = np.asarray(expected, dtype=float)
        observed = np.asarray(observed, dtype=float)
        ok = expected.shape == observed.shape and bool(
            np.all(np.abs(expected - observed) <= tol))
        self.rows.append(CheckRow(label, _fmt(expected), _fmt(observed),
                                  f"{tol:g}", "pass" if ok else "fail", note))

    def check_status(self, label, expected, statuses, note=""):
        ok = set(statuses) == {expected}
        self.rows.append(CheckRow(label, expected, _status_text(statuses),
                                  "unanimous", "pass" if ok else "fail", note))

    def check_true(self, label, expected_text, observed_text, ok, note=""):
        self.rows.append(CheckRow(label, expected_text, observed_text, "-",
                                  "pass" if ok else "fail", note))

    def record(self, label, expected, observed, note=""):
        self.rows.append(CheckRow(label, str(expected), str(observed), "-",
                                  "recorded", note))


def _fmt(value) -> str:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.size == 1:
        return f"{arr.item():.6g}"
    return "(" + ", ".join(f"{v:.6g}" for v in arr) + ")"


def _status_text(statuses) -> str:
    return statuses[0] if len(set(statuses)) == 1 else "mixed: " + ", ".join(statuses)


@dataclass(frozen=True)
class Scenario:
    """One catalogue entry: the game (a preset name and its parameters), the
    runs integrated on it at eps, and checks(rep, game, rp, runs, out_dir),
    which add the report's rows; rp is the rest point solved at eps.  For
    each (gamma, seeds) there is a first-order run to t_end_fo and, unless
    t_end_ho is None, a filtered run to t_end_ho."""

    title: str
    game: tuple
    eps: float
    t_end_fo: float
    t_end_ho: float | None
    checks: Callable
    gamma_seeds: tuple = ((1.0, SEEDS),)


def _filter(game: GameSpec) -> FeedbackBlock:
    return FeedbackBlock.high_pass(1.0, 1.0, game.action_counts)


def _statuses(trajs, rp):
    x_star = rp.x_star if rp.converged else None
    return [convergence_report(t, x_star=x_star).status for t in trajs]


def _dichotomy(rep, rp, runs, fo_expected, ho_expected, note_fo="", note_ho=""):
    """Check the statuses at rp.eps of the first-order runs[0] and, unless
    ho_expected is None, of the filtered runs[1]."""
    rep.check_status(f"first-order status, eps={rp.eps:g}", fo_expected,
                     _statuses(runs[0], rp), note_fo)
    if ho_expected is not None:
        rep.check_status(f"higher-order status, eps={rp.eps:g}", ho_expected,
                         _statuses(runs[1], rp), note_ho)


def _speed_rows(rep, trajs_fo, trajs_ho, x_star, label):
    wins = 0
    for traj_fo, traj_ho in zip(trajs_fo, trajs_ho):
        t_fo = time_to_tolerance(traj_fo, x_star)
        t_ho = time_to_tolerance(traj_ho, x_star)
        if t_ho is not None and (t_fo is None or t_ho < t_fo):
            wins += 1
    n = len(trajs_fo)
    rep.check_true(label, f"faster for > {n // 2} of {n} seeds",
                   f"faster for {wins} of {n} seeds", wins > n // 2,
                   "ordinal check: time to reach max-norm strategy error 1e-3")


def _check_terminal(rep, rp, trajs_ho):
    rep.check("terminal strategies match solved fixed point", rp.x_star,
              trajs_ho[0].strategies[-1], 1e-6,
              "internal consistency between solver and integrator")


def _check_bifurcation(rep, game, scheme, expected, tol, eps_range, note):
    block = _filter(game) if scheme == "higher-order" else None
    res = bifurcation_epsilon(game, LearningParams(1.0, 1.0), block=block,
                              eps_range=eps_range)
    rep.check(f"{scheme} bifurcation eps*", expected,
              res.eps_star if res.eps_star is not None else np.nan, tol, note)


def _checks_1(l: float) -> Callable:
    def checks(rep, game, rp, runs, out_dir):
        cls = classify(game)
        rep.check("tangent eigenvalues", [l - 1.0, l - 1.0],
                  np.sort(cls.tangent_eigenvalues), 1e-9,
                  "closed form: both tangent-space eigenvalues of A + A^T equal l-1")
        z_star = np.full(3, (1.0 - l) / 3.0)
        rep.check("rest point scores", z_star, rp.z_star, 1e-8,
                  "closed form (1-l)/3 * ones; the uniform point is fixed for every l")
        if l < 7.0:
            _dichotomy(rep, rp, runs, "converged", "converged")
            if l > 1.0:
                _speed_rows(rep, *runs, rp.x_star,
                            "filtered scheme reaches the rest point first")
        else:
            _dichotomy(rep, rp, runs, "limit-cycle", "converged",
                       note_ho="weakly damped near the threshold, long horizon")
            _check_bifurcation(rep, game, "first-order", 7.0 / 6.0, 1e-3, (0.5, 3.0),
                               "closed form (l-1)/6 from the rest-point Jacobian")
            _check_bifurcation(rep, game, "higher-order", 0.86, 0.02, (0.1, 3.0),
                               "reference value quoted as approximate; computed 0.8695")
    return checks


def _checks_2(rep, game, rp, runs, out_dir):
    cls = classify(game)
    rep.check_true("classification", "strictly-monotone", cls.monotonicity_class,
                   cls.monotonicity_class == "strictly-monotone",
                   "concave-potential game; tangent eigenvalues are negative")
    rep.check("fixed point at eps=1", [0.40, 0.32, 0.27], rp.x_star, 0.005,
              "reference distribution quoted to two decimals; computed fixed "
              "point (0.40720, 0.32160, 0.27121)")
    nash = np.array([6.0, 3.0, 2.0]) / 11.0
    rp01 = rest_point(game, 0.1)
    rep.check("eps=0.1 fixed point near exact equilibrium", nash, rp01.x_star,
              0.01, "computed gap 0.0329 at eps=0.1; the gap falls below 0.01 "
              "only near eps=0.03 (0.0038 at eps=0.01)")
    _dichotomy(rep, rp, runs, "converged", "converged")


def _checks_3(rep, game, rp, runs, out_dir):
    cls = classify(game)
    rep.check("mu", 0.0, cls.mu, 1e-12, "Phi + Phi^T = 0 for zero-sum games")
    rep.check_true("classification", "null-monotone", cls.monotonicity_class,
                   cls.monotonicity_class == "null-monotone", "")
    rep.check("fixed point", np.full(4, 0.5), rp.x_star, 1e-8,
              "uniform equilibrium; scores vanish so the choice map is uniform")
    _dichotomy(rep, rp, runs, "converged", "converged")
    for scheme, trajs, fast in zip(("first-order", "higher-order"), runs[:2], runs[2:]):
        wins = 0
        for traj_1, traj_4 in zip(trajs, fast):
            t1 = time_to_tolerance(traj_1, rp.x_star)
            t4 = time_to_tolerance(traj_4, rp.x_star)
            if t4 is not None and t1 is not None and t4 < t1:
                wins += 1
        rep.check_true(f"gamma=4 reaches tolerance first ({scheme})",
                       "3 of 3 seeds", f"{wins} of 3 seeds", wins == 3,
                       "higher learning rate speeds up convergence")


def _checks_4_l1(rep, game, rp, runs, out_dir):
    cls = classify(game)
    rep.check("full eigenvalues", np.zeros(6), np.sort(cls.full_eigenvalues),
              1e-9, "zero-sum case: Phi + Phi^T = 0")
    _dichotomy(rep, rp, runs, "converged", "converged")


def _checks_4_l5(rep, game, rp, runs, out_dir):
    cls = classify(game)
    expect = np.sort([8.0, -8.0, -4.0, -4.0, 4.0, 4.0])
    rep.check("full eigenvalues", expect, np.sort(cls.full_eigenvalues),
              1e-9, "closed form {+-2(l-1), +-(1-l), +-(1-l)}")
    rep.check("mu", 2.0, cls.mu, 1e-9, "mu = |l-1|/2")
    _dichotomy(rep, rp, runs, "converged", "converged")


def _checks_4_l5_eps05(rep, game, rp, runs, out_dir):
    _dichotomy(rep, rp, runs, "limit-cycle", "converged")
    _check_bifurcation(rep, game, "first-order", 2.0 / 3.0, 1e-3, (0.2, 2.0),
                       "closed form (l-1)/6 per population")
    _check_bifurcation(rep, game, "higher-order", 0.347, 5e-3, (0.05, 2.0),
                       "reference value 0.347; computed 0.34722")


def _checks_5(rep, game, rp, runs, out_dir):
    cls = classify(game)
    rep.check("mu", 0.5, cls.mu, 1e-9,
              "the l=0 analogue of two-player RPS, mu = |l-1|/2 = 0.5")
    _dichotomy(rep, rp, runs, "converged", "converged")


def _checks_5_eps01(rep, game, rp, runs, out_dir):
    _dichotomy(rep, rp, runs, "limit-cycle", None,
               "closed orbit around the uniform point")
    if out_dir is not None:
        # named relative to out_dir, so the report does not depend on it
        name = "shapley_eps0.1_seed0.csv"
        write_trajectory_csv(os.path.join(out_dir, name), runs[0][0],
                             game.action_counts, ternary=True)
        rep.record("orbit trace", "2-simplex projection columns",
                   f"written to {name}",
                   "triangular orbit, plottable from the ternary columns")


def _checks_6(rep, game, rp, runs, out_dir):
    cls = classify(game)
    rep.check("mu", 0.0, cls.mu, 1e-12, "pairwise zero-sum: Phi + Phi^T = 0")
    rep.check("fixed point", np.full(6, 0.5), rp.x_star, 1e-8,
              "uniform equilibrium on every edge game")
    _dichotomy(rep, rp, runs, "converged", "converged")


def _checks_7(rep, game, rp, runs, out_dir):
    cls = classify(game)
    rep.check("full eigenvalues", np.sort([-4.0, 2.0, 2.0, 0.0, 0.0, 0.0]),
              np.sort(cls.full_eigenvalues), 1e-9,
              "spectrum of the symmetrized linear payoff map")
    rep.check("mu", 1.0, cls.mu, 1e-9, "half the largest tangent eigenvalue")
    rep.check("fixed point", np.full(6, 0.5), rp.x_star, 1e-8,
              "uniform equilibrium, unchanged by the temperature")
    rep.record("first-order status, eps=1", "observed status recorded",
               _status_text(_statuses(runs[0], rp)),
               "eps=1 sits on the guarantee boundary (mu=1), so the status is "
               "recorded rather than asserted")
    rep.record("higher-order status, eps=1", "observed status recorded",
               _status_text(_statuses(runs[1], rp)),
               "same boundary note as the first-order run")


def _checks_8_A(rep, game, rp, runs, out_dir):
    cls = classify(game)
    rep.check("full eigenvalues", np.sort([3.3723, -2.3723, -1.0]),
              np.sort(cls.full_eigenvalues), 1e-3, "quoted spectrum of A + A^T")
    rep.check("tangent-aligned eigenvalue", [-1.0], cls.aligned_eigenvalues,
              1e-3, "the eigenvalue whose eigenvector lies in the tangent space")
    rep.check_true("classification", "strictly-monotone", cls.monotonicity_class,
                   cls.monotonicity_class == "strictly-monotone", "")
    rep.check("fixed point at eps=1", [0.379, 0.2997, 0.3213], rp.x_star, 1e-3,
              "reference distribution; computed fixed point "
              "(0.37848, 0.29801, 0.32351)")
    _dichotomy(rep, rp, runs, "converged", "converged")
    _check_terminal(rep, rp, runs[1])


def _checks_8_A_eps02(rep, game, rp, runs, out_dir):
    rep.check("fixed point at eps=0.2", [0.4025, 0.3024, 0.2951], rp.x_star,
              1e-3, "reference distribution; computed fixed point "
              "(0.40393, 0.30391, 0.29217)")
    _dichotomy(rep, rp, runs, "converged", "converged")
    _check_terminal(rep, rp, runs[1])


def _checks_8_Abar(rep, game, rp, runs, out_dir):
    cls = classify(game)
    rep.check("full eigenvalues", np.sort([-3.3723, 2.3723, 1.0]),
              np.sort(cls.full_eigenvalues), 1e-3, "quoted spectrum of A + A^T")
    rep.check("tangent-aligned eigenvalue", [1.0], cls.aligned_eigenvalues,
              1e-3, "")
    rep.check("mu from the aligned eigenvalue", 0.5,
              cls.mu_aligned if cls.mu_aligned is not None else np.nan,
              1e-3, "half the aligned eigenvalue")
    rep.check("fixed point at eps=1", [0.2741, 0.3647, 0.3612], rp.x_star,
              1e-3, "reference distribution")
    _dichotomy(rep, rp, runs, "converged", "converged")


def _checks_8_Abar_eps02(rep, game, rp, runs, out_dir):
    _dichotomy(rep, rp, runs, "limit-cycle", "converged")
    rep.check("higher-order terminal distribution", [0.2653, 0.3237, 0.4109],
              runs[1][0].strategies[-1], 1e-3,
              "reference distribution; computed fixed point "
              "(0.27199, 0.32457, 0.40345), which the run reaches to 1e-9")
    _check_terminal(rep, rp, runs[1])


def _checks_8_Abar_eps01(rep, game, rp, runs, out_dir):
    _dichotomy(rep, rp, runs, "limit-cycle", None)
    rep.record("higher-order status, eps=0.1",
               "reference reports a cycle; observed status recorded",
               _status_text(_statuses(runs[1], rp)),
               "with gain 1 and cutoff 1 the filtered run settles onto the "
               "fixed point, so the quoted cycle does not reproduce")


def _checks_9(rep, game, rp, runs, out_dir):
    _dichotomy(rep, rp, runs, "limit-cycle", "converged")
    _check_terminal(rep, rp, runs[1])
    nash = np.array([0.25, 0.75, 2.0 / 3.0, 1.0 / 3.0, 0.5, 0.5])
    rep.record("distance to exact equilibrium",
               "close to (1/4, 3/4, 2/3, 1/3, 1/2, 1/2)",
               f"{np.abs(rp.x_star - nash).max():.4f}",
               "no tolerance quoted, so the gap is recorded only")


SCENARIOS = {
    "1-l1": Scenario("single-population RPS, l=1, eps=1", ("rps", {"l": 1.0}), 1.0,
                     T_END_SETTLED, T_END_SETTLED, _checks_1(1.0)),
    "1-l2.5": Scenario("single-population RPS, l=2.5, eps=1", ("rps", {"l": 2.5}), 1.0,
                       T_END_SETTLED, T_END_SETTLED, _checks_1(2.5)),
    "1-l5": Scenario("single-population RPS, l=5, eps=1", ("rps", {"l": 5.0}), 1.0,
                     T_END_SETTLED, T_END_SETTLED, _checks_1(5.0)),
    # the filtered run is weakly damped near the threshold: a long horizon
    "1-l8": Scenario("single-population RPS, l=8, eps=1", ("rps", {"l": 8.0}), 1.0,
                     T_END_CYCLE, 450.0, _checks_1(8.0)),
    "2": Scenario("123 anti-coordination, eps=1 and eps=0.1", ("anticoord123", None),
                  1.0, T_END_SETTLED, T_END_SETTLED, _checks_2),
    "3": Scenario("two-player matching pennies, eps=1, gamma 1 vs 4",
                  ("matching_pennies", None), 1.0, T_END_SETTLED, T_END_SETTLED,
                  _checks_3, gamma_seeds=((1.0, SEEDS), (4.0, SEEDS[:3]))),
    "4-l1": Scenario("two-player RPS, l=1, eps=1", ("two_player_rps", {"l": 1.0}), 1.0,
                     T_END_SETTLED, T_END_SETTLED, _checks_4_l1),
    "4-l5": Scenario("two-player RPS, l=5, eps=1", ("two_player_rps", {"l": 5.0}), 1.0,
                     T_END_SETTLED, T_END_SETTLED, _checks_4_l5),
    "4-l5-eps0.5": Scenario("two-player RPS, l=5, eps=0.5", ("two_player_rps", {"l": 5.0}),
                            0.5, T_END_CYCLE, T_END_SETTLED, _checks_4_l5_eps05),
    "5": Scenario("two-player Shapley game, eps=1", ("shapley", None), 1.0,
                  T_END_SETTLED, T_END_SETTLED, _checks_5),
    "5-eps0.1": Scenario("two-player Shapley game, eps=0.1", ("shapley", None), 0.1,
                         T_END_CYCLE, None, _checks_5_eps01),
    "6": Scenario("three-player network zero-sum pennies, eps=1",
                  ("network_zero_sum_mp", None), 1.0, T_END_SETTLED, T_END_SETTLED,
                  _checks_6),
    "7": Scenario("three-player Jordan pennies, eps=1", ("jordan_mp", None), 1.0,
                  T_END_SETTLED, T_END_SETTLED, _checks_7),
    "8-A": Scenario("modified RPS (stable variant), eps=1", ("modified_rps_A", None),
                    1.0, T_END_SETTLED, T_END_SETTLED, _checks_8_A),
    "8-A-eps0.2": Scenario("modified RPS (stable variant), eps=0.2",
                           ("modified_rps_A", None), 0.2, T_END_SETTLED, T_END_SETTLED,
                           _checks_8_A_eps02),
    "8-Abar": Scenario("modified RPS (cyclic variant), eps=1", ("modified_rps_Abar", None),
                       1.0, T_END_SETTLED, T_END_SETTLED, _checks_8_Abar),
    "8-Abar-eps0.2": Scenario("modified RPS (cyclic variant), eps=0.2",
                              ("modified_rps_Abar", None), 0.2, T_END_CYCLE,
                              T_END_SETTLED, _checks_8_Abar_eps02),
    "8-Abar-eps0.1": Scenario("modified RPS (cyclic variant), eps=0.1",
                              ("modified_rps_Abar", None), 0.1, T_END_CYCLE,
                              T_END_CYCLE, _checks_8_Abar_eps01),
    "9": Scenario("modified three-player Jordan game, eps=0.1", ("modified_jordan", None),
                  0.1, T_END_CYCLE, T_END_SETTLED, _checks_9),
}

EXAMPLE_IDS = tuple(SCENARIOS)


def plan(ids) -> list:
    """Check each id, then build its game and runs and solve its rest point
    at eps: one (id, scenario, game, rest point, runs) per id."""
    plans = []
    for example_id in ids:
        if example_id not in SCENARIOS:
            raise UsageError(f"unknown example id {example_id!r}; "
                             f"valid ids: {', '.join(EXAMPLE_IDS)}")
        scenario = SCENARIOS[example_id]
        game = preset(*scenario.game)
        runs = []
        for gamma, seeds in scenario.gamma_seeds:
            params = LearningParams(gamma=gamma, eps=scenario.eps)
            z0 = np.stack([seeded_initial_scores(game.total_actions, s) for s in seeds])
            runs.append(SimulationRun(params, z0, scenario.t_end_fo))
            if scenario.t_end_ho is not None:
                runs.append(SimulationRun(params, z0, scenario.t_end_ho, _filter(game)))
        plans.append((example_id, scenario, game, rest_point(game, scenario.eps), runs))
    return plans


def run(plans) -> list:
    """Integrate each plan's runs as one lockstep batch; the first batch with
    a failed row raises the IntegrationDivergedError of its earliest one."""
    batches = []
    for _, _, game, _, runs in plans:
        trajs = simulate_batch(game, runs, dt=DT, record_every=RECORD_EVERY)
        failed = [t for row in trajs for t in row if isinstance(t, IntegrationDivergedError)]
        if failed:
            raise min(failed, key=lambda err: err.last_good_time)
        batches.append(trajs)
    return batches


def check(plans, batches, out_dir: str | None = None) -> list:
    """Create out_dir, then run each plan's checks on its batch: one report each."""
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    reports = [ExampleReport(example_id, scenario.title) for example_id, scenario, *_ in plans]
    for report, (_, scenario, game, rp, _), trajs in zip(reports, plans, batches, strict=True):
        scenario.checks(report, game, rp, trajs, out_dir)
    return reports


def run_example(example_id: str, out_dir: str | None = None) -> ExampleReport:
    """Plan, run and check one scenario and return its report."""
    plans = plan([example_id])
    return check(plans, run(plans), out_dir)[0]


def format_report(report: ExampleReport) -> str:
    lines = [f"example {report.example_id}: {report.title}"]
    width = max(len(r.label) for r in report.rows)
    for r in report.rows:
        lines.append(f"  [{r.outcome:8s}] {r.label:<{width}s}  expected "
                     f"{r.expected}  observed {r.observed}  tol {r.tolerance}")
        if r.note:
            lines.append(f"             note: {r.note}")
    verdict = "PASS" if report.passed else "FAIL"
    lines.append(f"  result: {verdict}")
    return "\n".join(lines)
