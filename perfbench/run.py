"""gamedyn benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (cli_simulate, sweep_batch500, catalogue, solve_sweep; see
workloads.py for why each exists) from the root of a checkout, in a fresh
single-threaded worker process with ``src`` on the import path.  Every
operation's output is checked against perfbench/golden.json.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The line before it (``detail:``) holds
metrics that are not gated because they are not defined on every workload
or are 0 on a correct tree, plus the first failures; the line before that
holds the provenance of the run.  Both are also written to ``.bench_runs/``.

End-to-end metrics (``--trace 0``):
  setup_s      median over four fresh interpreters of the time from process
               start to the first timed operation: import gamedyn, build the
               CLI parser, generate the workload inputs
  wall_s       median over passes of the summed wall time of a pass's
               operations (a pass is the workload's whole operation list)
  cpu_s        the same for the worker's user+sys CPU time
  op_p50_ms    median latency of one operation, taken as the median over
               the workload's operations of each one's median over passes
               (every pass runs each operation once; this keeps the median
               from landing on the gap between two unlike operations)
  peak_rss_mb  the worker's peak resident memory

BENCHMARK.json gates cli_simulate and catalogue only.  On a shared 2-vCPU
VM (Intel Xeon, 2.1 GHz) the CPU speed moved by up to 1.5x over tens of
seconds; in two sets of ten 20 s runs, sweep_batch500 and solve_sweep broke the 0.25 bound on
run-to-run spread or on the shift between sets, so they are measured on
demand, not gated.  Together the two gated workloads still reach every
package module (choice, games, dynamics, analysis, reproduce, cli).

Detail metrics (``--trace 0``):
  traj_steps_per_s  trajectory steps per wall second of operations: each RK4
                    step of each batch row, each discrete or stochastic
                    iteration (workloads that integrate)
  solves_per_s      analysis calls per wall second (solve_sweep)
  op_tail_ms        the highest whole percentile with at least ten
                    operations beyond it, with that count; omitted below 40
                    operations
  failed_op_ratio   failed over attempted operations; a failure is an
                    exception, an unexpected exit code or an output outside
                    its golden tolerance
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("cli_simulate", "sweep_batch500", "catalogue", "solve_sweep")
SETUP_PROBES = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("GAMEDYN_OUT", None)  # it would override every --out
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(worker_args: list[str], deadline: float) -> float:
    """Run one worker to completion; return its start time (epoch seconds)."""
    cmd = [sys.executable, str(BENCH / "worker.py")] + worker_args
    started = time.time()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(),
                            stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker exceeded the time limit")
    if code != 0:
        raise BenchError(f"worker exited with code {code}")
    return started


def _git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _tail(latencies: list[float]) -> dict | None:
    """The highest whole percentile with at least ten samples beyond it;
    None below 40 samples, where that percentile is no tail."""
    n = len(latencies)
    pct = math.floor(100.0 * (1.0 - 10.0 / n)) if n else 0
    if pct < 75:
        return None
    ordered = sorted(latencies)
    value = statistics.quantiles(ordered, n=100, method="inclusive")[pct - 1]
    return {"value": 1e3 * value, "unit": "ms", "percentile": pct,
            "beyond": sum(1 for v in ordered if v > value), "samples": n}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gamedyn benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few operations per workload, for selfcheck.py")
    parser.add_argument("--golden", default=str(BENCH / "golden.json"),
                        help="golden file (selfcheck.py passes a perturbed copy)")
    args = parser.parse_args(argv)
    try:
        provenance, detail, result = _run(args)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


def _run(args):
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "gamedyn" / "__init__.py").is_file():
        raise BenchError(f"no gamedyn package under {ROOT / 'src'}")
    if not Path(args.golden).is_file():
        raise BenchError(f"golden file {args.golden} is missing")
    run_dir = ROOT / ".bench_runs" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--size", args.size, "--golden", str(Path(args.golden).resolve()),
              "--run-dir", str(run_dir)]

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            started = _spawn(common + ["--setup-only"], deadline)
            probe = run_dir / "setup.json"
            setups.append(json.loads(probe.read_text())["ready"] - started)
            probe.unlink()
    started = _spawn(common, deadline)
    res = json.loads((run_dir / "result.json").read_text())
    setups.append(res["ready"] - started)

    records = res["records"]
    failures = [r for r in records if r["failure"]]
    attempted, failed = len(records), len(failures)
    passes = res["passes"]
    wall_total = sum(p["wall"] for p in passes)
    provenance = {"git_revision": _git_revision(), "cpu_model": _cpu_model(),
                  "nproc": os.cpu_count(),
                  "affinity": len(os.sched_getaffinity(0)),
                  "threads": {v: "1" for v in THREAD_VARS},
                  **res["versions"],
                  "workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace, "size": args.size}
    extra = {"failed_op_ratio": {"value": failed / attempted, "unit": "ratio"}}
    detail = {"passes": len(passes), "metrics": extra,
              "failures": [f"{r['key']}: {r['failure']}" for r in failures[:5]]}
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in res["layers"].items()}
        metrics["setup.import_s"] = {"value": res["import_s"], "unit": "s"}
        metrics["trace.overhead_s"] = {"value": res["trace_overhead_s"], "unit": "s"}
        detail["traced_passes"] = len(res["traced_passes"])
    else:
        latencies = [r["wall"] for r in records]
        by_op = defaultdict(list)
        for r in records:
            by_op[r["key"]].append(r["wall"])
        op_p50 = statistics.median(statistics.median(v) for v in by_op.values())
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(p["wall"] for p in passes), "unit": "s"},
            "cpu_s": {"value": statistics.median(p["cpu"] for p in passes), "unit": "s"},
            "op_p50_ms": {"value": 1e3 * op_p50, "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        detail["setup_samples_s"] = setups
        tail = _tail(latencies)
        if tail is not None:
            extra["op_tail_ms"] = tail
        if res["traj_steps"]:
            extra["traj_steps_per_s"] = {"value": res["traj_steps"] / wall_total, "unit": "1/s"}
        solves = sum(r["solves"] for r in records)
        if solves:
            extra["solves_per_s"] = {"value": solves / wall_total, "unit": "1/s"}
    for name, doc in (("provenance", provenance), ("detail", detail)):
        (run_dir / f"{name}.json").write_text(json.dumps(doc, indent=2, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return provenance, detail, result


if __name__ == "__main__":
    sys.exit(main())
