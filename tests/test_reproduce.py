"""The scenario catalogue solves and integrates each piece of work once, and
its rows are the committed ones."""

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from gamedyn import dynamics, reproduce


@pytest.fixture
def work_log(monkeypatch):
    """Record every integrated row and every rest-point solve the catalogue
    asks for, keyed by what determines its result, and count the RK4 loops
    that run them."""
    log = {"rows": [], "solves": [], "integrate_calls": 0}
    simulate_batch = reproduce.simulate_batch

    def logged_batch(game, runs, *args, **kwargs):
        dt = kwargs.get("dt", args[0] if args else None)
        for run in runs:
            scheme = "first-order" if run.block is None else "higher-order"
            for row in np.atleast_2d(np.asarray(run.z0, dtype=float)):
                log["rows"].append((scheme, game.name, run.params.eps,
                                    run.params.gamma, dt, run.t_end, row.tobytes()))
        return simulate_batch(game, runs, *args, **kwargs)

    integrate = dynamics.integrate

    def counted_integrate(*args, **kwargs):
        log["integrate_calls"] += 1
        return integrate(*args, **kwargs)

    solve = reproduce.rest_point

    def rest_point(game, eps, *args, **kwargs):
        log["solves"].append((game.name, eps))
        return solve(game, eps, *args, **kwargs)

    monkeypatch.setattr(reproduce, "simulate_batch", logged_batch)
    monkeypatch.setattr(dynamics, "integrate", counted_integrate)
    monkeypatch.setattr(reproduce, "rest_point", rest_point)
    return log


@pytest.mark.parametrize("example_id, rows, outcomes, timing_rows", [
    ("1-l2.5", 10, {"pass": 5}, {"filtered scheme reaches the rest point first":
                                 "faster for 5 of 5 seeds"}),
    ("3", 16, {"pass": 7}, {"gamma=4 reaches tolerance first (first-order)": "3 of 3 seeds",
                            "gamma=4 reaches tolerance first (higher-order)": "3 of 3 seeds"}),
    ("9", 10, {"pass": 3, "recorded": 1}, {}),
], ids=["1-l2.5", "3", "9"])
def test_scenario_integrates_and_solves_once(work_log, example_id, rows,
                                             outcomes, timing_rows):
    """One lockstep batch per scenario: one RK4 loop, no row integrated
    twice, no (game, eps) solved twice.  Scenario 9 ends its two schemes at
    different horizons."""
    report = reproduce.run_example(example_id)
    assert work_log["integrate_calls"] == 1
    assert len(work_log["rows"]) == rows
    assert len(work_log["rows"]) == len(set(work_log["rows"]))
    assert len(work_log["solves"]) == len(set(work_log["solves"]))
    assert Counter(r.outcome for r in report.rows) == outcomes
    observed = {r.label: r.observed for r in report.rows}
    for label, text in timing_rows.items():
        assert observed[label] == text


def test_report_does_not_depend_on_the_output_directory(tmp_path):
    """A scenario that writes a file names it relative to the output
    directory, so runs into two directories give the same rows and the
    same file."""
    reports = [reproduce.run_example("5-eps0.1", str(tmp_path / d)) for d in "ab"]
    assert reports[0].rows == reports[1].rows
    observed = {r.label: r.observed for r in reports[0].rows}
    assert observed["orbit trace"] == "written to shapley_eps0.1_seed0.csv"
    a, b = ((tmp_path / d / "shapley_eps0.1_seed0.csv").read_bytes() for d in "ab")
    assert a == b


def test_mixed_statuses_read_the_same_checked_or_recorded():
    """A status row that is asserted and one that is only recorded name a
    split over the seeds in one form."""
    statuses = ["converged", "limit-cycle", "converged"]
    report = reproduce.ExampleReport("x", "mixed statuses")
    report.check_status("checked", "converged", statuses)
    report.record("recorded", "observed status recorded",
                  reproduce._status_text(statuses))
    checked, recorded = report.rows
    assert checked.observed == recorded.observed == \
        "mixed: converged, limit-cycle, converged"
    assert (checked.outcome, recorded.outcome) == ("fail", "recorded")


# The scenarios criterion 5 does not integrate; 2, 8-A and 8-A-eps0.2 fail
# against their quoted fixed-point figures by design.
UNINTEGRATED = ["2", "3", "4-l1", "4-l5", "6", "7", "8-A", "8-A-eps0.2", "8-Abar",
                "8-Abar-eps0.1"]
FAILING_BY_DESIGN = {"2", "8-A", "8-A-eps0.2"}


@pytest.mark.parametrize("example_id", UNINTEGRATED)
def test_scenario_rows_are_the_committed_rows(example_id, tmp_path):
    """Each row's label, expected value, tolerance and outcome are those
    committed in reproduce_rows.json, and only the by-design failures fail."""
    pinned = json.loads(Path(__file__).with_name("reproduce_rows.json").read_text())
    report = reproduce.run_example(example_id, out_dir=str(tmp_path))
    rows = [{key: getattr(row, key) for key in ("label", "expected", "tolerance", "outcome")}
            for row in report.rows]
    assert rows == pinned[example_id]
    assert report.passed == (example_id not in FAILING_BY_DESIGN)
