"""The package runs on numpy alone: every CLI verb works in an interpreter
where importing scipy fails."""

import json
import os
import subprocess
import sys
from pathlib import Path

import gamedyn

BLOCKED_SCIPY_RUN = r"""
import importlib.abc
import json
import sys


class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())
try:
    import scipy  # noqa: F401
except ImportError:
    pass
else:
    raise SystemExit("the scipy block did not take effect")

import gamedyn
import gamedyn.cli

out, commands = sys.argv[1], json.loads(sys.argv[2])
codes = [gamedyn.cli.main(argv + ["--out", out]) for argv in commands]
print(json.dumps({"codes": codes, "scipy_loaded": "scipy" in sys.modules}))
"""

RPS8 = ["--preset", "rps", "--param", "l=8"]
COMMANDS = [
    ["classify", *RPS8],
    ["solve", *RPS8],
    ["simulate", *RPS8, "--scheme", "first-order", "--t-end", "5"],
    ["simulate", *RPS8, "--scheme", "higher-order", "--t-end", "5"],
    ["simulate", *RPS8, "--scheme", "discrete", "--steps", "200"],
    ["simulate", *RPS8, "--scheme", "stochastic", "--steps", "200"],
    ["bifurcation", *RPS8, "--scheme", "higher-order"],
    ["reproduce", "1-l2.5"],
]


def test_cli_runs_without_scipy(tmp_path):
    env = dict(os.environ)
    env.pop("GAMEDYN_OUT", None)
    env["PYTHONPATH"] = str(Path(gamedyn.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", BLOCKED_SCIPY_RUN, str(tmp_path), json.dumps(COMMANDS)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"codes": [0] * len(COMMANDS), "scipy_loaded": False}
    for name in ("classify.json", "solve.json", "summary.json", "reproduce.json"):
        assert (tmp_path / name).is_file()
