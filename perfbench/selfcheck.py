"""Self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs every workload at tiny size, untraced and traced (the ungated ones
too), and asserts that the result line has exactly the contract's keys, that
every metric named in BENCHMARK.json is printed with its declared unit and a
finite value, that every name matches [A-Za-z0-9_.-]+, and that no operation
failed.  Then it
shows that the golden gate bites: with one golden value moved outside its
tolerance, the operation that reads it must count as failed.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SEED = 1


def run(workload: str, trace: int, golden: Path | None = None) -> tuple[dict, dict]:
    """Run one tiny workload; return its result line and its detail line."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    if golden is not None:
        cmd += ["--golden", str(golden)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2].removeprefix("detail: "))


DETAIL = {"failed_op_ratio": "ratio", "traj_steps_per_s": "1/s", "solves_per_s": "1/s"}
DETAIL_ON = {"cli_simulate": {"traj_steps_per_s"}, "sweep_batch500": {"traj_steps_per_s"},
             "catalogue": {"traj_steps_per_s"}, "solve_sweep": {"solves_per_s"}}


def check_metric(name: str, doc: dict, unit: str, label: str) -> None:
    assert NAME.fullmatch(name), (label, name)
    assert doc["unit"] == unit, (label, name, doc["unit"])
    assert isinstance(doc["value"], (int, float)) and math.isfinite(doc["value"]), (
        label, name, doc)


def check_detail(workload: str, detail: dict) -> None:
    """The detail line's metrics: the ones defined on this workload, with
    units; op_tail_ms only where there are enough operations."""
    metrics = detail["metrics"]
    expected = {"failed_op_ratio"} | DETAIL_ON[workload]
    assert expected <= set(metrics) <= expected | {"op_tail_ms"}, (workload, sorted(metrics))
    for name in expected:
        check_metric(name, metrics[name], DETAIL[name], workload)
    assert metrics["failed_op_ratio"]["value"] == 0.0, (workload, detail)


def check_result(result: dict, declared: list[dict], label: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True and result["failed"] == 0, (label, result)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared}, (
        label, sorted(set(metrics) ^ {m["name"] for m in declared}))
    for m in declared:
        check_metric(m["name"], metrics[m["name"]], m["unit"], label)


def check_gate_bites() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads

    golden = json.loads((BENCH / "golden.json").read_text())
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        op = workloads.plan("cli_simulate", SEED, tmp, "tiny")()[0]
        seed = next(iter(op.expected(golden)["runs"]))
        golden["cli_simulate"][op.key]["runs"][seed]["terminal_x"][0] += 1e-3
        perturbed = Path(tmp) / "golden.json"
        perturbed.write_text(json.dumps(golden))
        result, detail = run("cli_simulate", 0, perturbed)
    # one failure per pass, each on the operation that reads the moved value
    assert result["correct"] is False and result["failed"] == detail["passes"], result
    assert all(f.startswith(f"{op.key}: golden mismatch") for f in detail["failures"]), detail


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = {entry["name"] for entry in bench["workloads"]}
    assert gated <= set(DETAIL_ON), gated
    for workload in DETAIL_ON:
        assert NAME.fullmatch(workload), workload
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result, detail = run(workload, trace)
            check_result(result, declared, f"{workload} trace {trace}")
            if not trace:
                check_detail(workload, detail)
            print(f"ok: {workload} trace {trace}")
    check_gate_bites()
    print("ok: a perturbed golden value fails its operation")
    return 0


if __name__ == "__main__":
    sys.exit(main())
