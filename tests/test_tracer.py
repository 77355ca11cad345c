"""The benchmark's tracer still finds and counts what the package runs.

perfbench/tracer.py wraps package functions by rebinding their names, so a
renamed function, or a dispatch table that holds a function captured at
import time, silently drops out of its counts.  This test installs the full
tracer (reading perfbench/, changing nothing there) around one two-seed
simulate command per scheme.
"""

import csv
import importlib
import importlib.util
from pathlib import Path

import pytest

from gamedyn.cli import main

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
SCHEMES = ("first-order", "higher-order", "discrete", "stochastic")
STEPS = 50
SEEDS = (0, 1)


@pytest.fixture
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rows_written(out: Path) -> int:
    total = 0
    for path in out.glob("*.csv"):
        with open(path, newline="") as fh:
            total += sum(1 for _ in csv.reader(fh)) - 1
    return total


def test_tracer_counts_every_scheme(tracer_module, tmp_path, capsys):
    modules = [importlib.import_module(m) for m in tracer_module.MODULES]
    names = [dict(vars(m)) for m in modules]
    tracer = tracer_module.Tracer()
    tracer.install()
    rows = 0
    try:
        for scheme in SCHEMES:
            out = tmp_path / scheme
            code = main(["simulate", "--preset", "jordan_mp", "--scheme", scheme,
                         "--t-end", "1", "--steps", str(STEPS),
                         "--seeds", ",".join(map(str, SEEDS)), "--out", str(out)])
            assert code == 0
            rows += _rows_written(out)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert rows > 0 and tracer.counts["csv.rows"] == rows
    assert tracer.counts["discrete.traj_steps"] == STEPS * len(SEEDS)
    assert tracer.counts["stochastic.traj_steps"] == STEPS * len(SEEDS)
    for module, before in zip(modules, names):
        after = vars(module)
        assert all(after[name] is value for name, value in before.items()), module
