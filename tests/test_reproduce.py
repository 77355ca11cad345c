"""The scenario catalogue solves and integrates each piece of work once."""

import inspect

import numpy as np
import pytest

from gamedyn import reproduce


@pytest.fixture
def work_log(monkeypatch):
    """Record every integrated row and every rest-point solve the catalogue
    asks for, keyed by what determines its result."""
    log = {"rows": [], "solves": [], "simulate_calls": 0}

    def logged(scheme, fn):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            a = sig.bind(*args, **kwargs)
            a.apply_defaults()
            a = a.arguments
            log["simulate_calls"] += 1
            for row in np.atleast_2d(np.asarray(a["z0"], dtype=float)):
                log["rows"].append((scheme, a["game"].name, a["params"].eps,
                                    a["params"].gamma, a["dt"], a["t_end"],
                                    row.tobytes()))
            return fn(*args, **kwargs)
        return wrapper

    solve = reproduce.rest_point

    def rest_point(game, eps, *args, **kwargs):
        log["solves"].append((game.name, eps))
        return solve(game, eps, *args, **kwargs)

    monkeypatch.setattr(reproduce, "simulate_first_order",
                        logged("first-order", reproduce.simulate_first_order))
    monkeypatch.setattr(reproduce, "simulate_higher_order",
                        logged("higher-order", reproduce.simulate_higher_order))
    monkeypatch.setattr(reproduce, "rest_point", rest_point)
    return log


@pytest.mark.parametrize("example_id, simulate_calls, timing_rows", [
    ("1-l2.5", 2, {"filtered scheme reaches the rest point first":
                   "faster for 5 of 5 seeds"}),
    ("3", 4, {"gamma=4 reaches tolerance first (first-order)": "3 of 3 seeds",
              "gamma=4 reaches tolerance first (higher-order)": "3 of 3 seeds"}),
])
def test_scenario_integrates_and_solves_once(work_log, example_id,
                                             simulate_calls, timing_rows):
    report = reproduce.run_example(example_id)
    assert len(work_log["rows"]) == len(set(work_log["rows"]))
    assert len(work_log["solves"]) == len(set(work_log["solves"]))
    assert work_log["simulate_calls"] == simulate_calls
    assert all(r.outcome == "pass" for r in report.rows)
    observed = {r.label: r.observed for r in report.rows}
    for label, text in timing_rows.items():
        assert observed[label] == text
