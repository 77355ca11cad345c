"""Write perfbench/golden.json from the current tree.

    python3 perfbench/make_golden.py [WORKLOAD ...]

Runs every operation over the whole input pools of the named workloads
(default: all) once and records its digest.  Run it only on a tree whose
outputs are accepted as the reference; later trees are checked against the
file, within the tolerances it states.  Naming workloads rewrites only their
sections.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden.json"

# Tolerances per quantity: |actual - expected| <= atol + rtol * |expected|.
TOLERANCES = {
    "strategy": {"atol": 1e-6, "rtol": 0.0,
                 "note": "strategy profiles: terminal x, rest points x*"},
    "score": {"atol": 1e-6, "rtol": 1e-6, "note": "rest-point scores z*"},
    "lyapunov": {"atol": 1e-6, "rtol": 1e-6, "note": "terminal Lyapunov value V"},
    "csv": {"atol": 1e-6, "rtol": 1e-6,
            "note": "sampled CSV rows and CSV column sums"},
    "eigenvalue": {"atol": 1e-6, "rtol": 1e-6,
                   "note": "classification lambda_max (sampled central-difference "
                           "Jacobians for tensor games)"},
    "eps_star": {"atol": 2e-4, "rtol": 0.0,
                 "note": "bifurcation eps*, twice the bisection tolerance 1e-4"},
    "observed": {"atol": 1e-9, "rtol": 2e-5,
                 "note": "numbers inside reproduce row strings, printed to 6 digits"},
}


def _round(value):
    """Floats to 10 significant digits, far inside every tolerance."""
    if isinstance(value, float):
        return float(f"{value:.10g}")
    if isinstance(value, list):
        return [_round(v) for v in value]
    if isinstance(value, dict):
        return {k: _round(v) for k, v in value.items()}
    return value


def main(argv: list[str]) -> int:
    os.environ.pop("GAMEDYN_OUT", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads

    names = argv or list(workloads.WORKLOADS)
    doc = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    doc["about"] = ("Reference outputs of every pool input of every workload, "
                    "written by perfbench/make_golden.py; see golden.py for the "
                    "comparison rule.  Sweep statuses are one letter per pool row: "
                    "c converged, l limit-cycle, u undetermined.")
    doc["tolerances"] = TOLERANCES
    with tempfile.TemporaryDirectory(prefix="golden-", dir=ROOT) as tmp, \
            open(os.devnull, "w") as devnull:
        for name in names:
            section = {}
            for op in workloads.pool_plan(name, tmp)():
                print(f"{name}: {op.key}", file=sys.stderr, flush=True)
                with contextlib.redirect_stdout(devnull):
                    out = op.run()
                section[op.key] = _round(op.digest(out))
            doc[name] = section
    GOLDEN.write_text(json.dumps(doc, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
