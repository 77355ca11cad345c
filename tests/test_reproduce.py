"""The scenario catalogue solves and integrates each piece of work once, and
its rows are the committed ones.  The tests read the one run of the whole
catalogue that tests/conftest.py makes."""

import json
from collections import Counter
from pathlib import Path

import pytest

from gamedyn import reproduce


# rows integrated, row outcomes, and the observed text of the timing rows and
# of the recorded rows, whose outcome does not pin it
PINNED = {
    "1-l2.5": (10, {"pass": 5}, {"filtered scheme reaches the rest point first":
                                 "faster for 5 of 5 seeds"}),
    "1-l5": (10, {"pass": 5}, {"filtered scheme reaches the rest point first":
                               "faster for 5 of 5 seeds"}),
    "3": (16, {"pass": 7}, {"gamma=4 reaches tolerance first (first-order)": "3 of 3 seeds",
                            "gamma=4 reaches tolerance first (higher-order)": "3 of 3 seeds"}),
    "7": (10, {"pass": 3, "recorded": 2}, {"first-order status, eps=1": "converged",
                                           "higher-order status, eps=1": "converged"}),
    "8-Abar-eps0.1": (10, {"pass": 1, "recorded": 1}, {"higher-order status, eps=0.1":
                                                       "converged"}),
    "9": (10, {"pass": 3, "recorded": 1}, {"distance to exact equilibrium": "0.0426"}),
}


@pytest.mark.parametrize("example_id", reproduce.EXAMPLE_IDS)
def test_scenario_integrates_and_solves_once(catalogue, example_id):
    """One lockstep batch per scenario: one RK4 loop, at most one classify
    call, and no row integrated twice nor (game, eps) solved twice anywhere
    in the catalogue, which does no work outside its scenarios.  Scenario 9
    ends its two schemes at different horizons."""
    log = catalogue.log
    assert set(log) == set(reproduce.EXAMPLE_IDS)
    assert len(log[example_id]["integrate"]) == 1
    assert len(log[example_id]["classify"]) <= 1
    for kind in ("rows", "solves"):
        done = Counter(key for work in log.values() for key in work[kind])
        assert all(done[key] == 1 for key in log[example_id][kind])
    if example_id in PINNED:
        rows, outcomes, observed_text = PINNED[example_id]
        report = catalogue.reports[example_id]
        assert len(log[example_id]["rows"]) == rows
        assert Counter(r.outcome for r in report.rows) == outcomes
        observed = {r.label: r.observed for r in report.rows}
        for label, text in observed_text.items():
            assert observed[label] == text


def test_report_does_not_depend_on_the_output_directory(catalogue, tmp_path):
    """A scenario that writes a file names it relative to the output
    directory, so runs into two directories give the same rows and the
    same file."""
    name = "shapley_eps0.1_seed0.csv"
    report = reproduce.run_example("5-eps0.1", str(tmp_path / "b"))
    assert report.rows == catalogue.reports["5-eps0.1"].rows
    observed = {r.label: r.observed for r in report.rows}
    assert observed["orbit trace"] == f"written to {name}"
    assert (tmp_path / "b" / name).read_bytes() == (catalogue.out_dir / name).read_bytes()


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


# 2, 8-A, 8-A-eps0.2 and 8-Abar-eps0.2 fail against their quoted
# fixed-point figures by design.
FAILING_BY_DESIGN = {"2", "8-A", "8-A-eps0.2", "8-Abar-eps0.2"}


@pytest.mark.parametrize("example_id", reproduce.EXAMPLE_IDS)
def test_scenario_rows_are_the_committed_rows(catalogue, example_id):
    """Each row's label, expected value, tolerance and outcome are those
    committed in reproduce_rows.json, and only the by-design failures fail."""
    pinned = json.loads(Path(__file__).with_name("reproduce_rows.json").read_text())
    report = catalogue.reports[example_id]
    rows = [{key: getattr(row, key) for key in ("label", "expected", "tolerance", "outcome")}
            for row in report.rows]
    assert rows == pinned[example_id]
    assert report.passed == (example_id not in FAILING_BY_DESIGN)
