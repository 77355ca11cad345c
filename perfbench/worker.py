"""Benchmark worker: runs one workload in a fresh interpreter.

run.py starts this script once per set-up probe and once for the measured
run, with BLAS/OpenMP threads pinned to 1, ``GAMEDYN_OUT`` removed and
``src`` on the import path.  The worker times its own set-up (import,
CLI parser, input generation), then runs closed-loop passes over the
workload's operations, checks every output against the golden file and
writes ``result.json`` into its run directory.

A pass is the workload's whole operation list.  Passes repeat until the next
one would end after ``--seconds``; there is always at least one.  With
``--trace 1`` one untraced pass runs first, for the tracing overhead, and
the traced passes get their own ``--seconds``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time


def _run_pass(ops, golden_doc, compare, tracer=None) -> tuple[dict, list[dict]]:
    records = []
    start = time.perf_counter()
    with open(os.devnull, "w") as devnull:
        for op in ops:
            error = None
            out = None
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(devnull):
                    if tracer is None:
                        out = op.run()
                    else:
                        with tracer.span(f"op:{op.key}"):
                            out = op.run()
            except SystemExit as exc:  # argparse rejects argv this way
                out = exc.code
            except Exception as exc:  # one failed operation must not end the run
                error = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            c1 = time.process_time()
            if error is None:
                try:
                    mismatches = compare(op.digest(out), op.expected(golden_doc),
                                         golden_doc["tolerances"])
                except Exception as exc:  # a missing or malformed output file
                    mismatches = [f"digest: {type(exc).__name__}: {exc}"]
                if mismatches:
                    error = "golden mismatch: " + "; ".join(mismatches[:3])
            records.append({"key": op.key, "wall": t1 - t0, "cpu": c1 - c0,
                            "solves": op.solves, "failure": error})
    summary = {"wall": sum(r["wall"] for r in records),
               "cpu": sum(r["cpu"] for r in records),
               "elapsed": time.perf_counter() - start}
    return summary, records


def _run_passes(make_ops, golden_doc, compare, seconds, tracer=None):
    passes, records = [], []
    while True:
        summary, recs = _run_pass(make_ops(), golden_doc, compare, tracer)
        passes.append(summary)
        records += recs
        used = sum(p["elapsed"] for p in passes)
        if used + summary["elapsed"] > seconds:
            return passes, records


def _versions() -> dict:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--golden", required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # ---- set-up: everything up to the first timed operation
    t0 = time.perf_counter()
    import gamedyn
    import gamedyn.cli
    import_s = time.perf_counter() - t0
    gamedyn.cli.build_parser()
    import workloads
    tmp = tempfile.mkdtemp(prefix="out-", dir=args.run_dir)
    try:
        make_ops = workloads.plan(args.workload, args.seed, tmp, args.size)
        ready = time.time()
        result = {"ready": ready, "import_s": import_s}
        if not args.setup_only:
            result.update(_measure(args, make_ops))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = _versions()
    name = "setup.json" if args.setup_only else "result.json"
    with open(os.path.join(args.run_dir, name), "w") as fh:
        json.dump(result, fh)
    return 0


def _measure(args, make_ops) -> dict:
    import golden
    from tracer import COUNTED, Tracer

    golden_doc = golden.load(args.golden)
    counter = Tracer(only=COUNTED)
    counter.install()
    try:
        # a traced run measures one untraced pass, as the overhead baseline
        seconds = 0.0 if args.trace else args.seconds
        passes, records = _run_passes(make_ops, golden_doc, golden.compare, seconds)
    finally:
        counter.uninstall()
    out = {"passes": passes, "records": records, "traj_steps": counter.traj_steps()}
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_records = _run_passes(make_ops, golden_doc, golden.compare,
                                                 args.seconds, tracer)
        finally:
            tracer.uninstall()
        tracer.write_spans(os.path.join(args.run_dir, "spans.jsonl"))
        out["records"] += traced_records
        out["traced_passes"] = traced
        out["layers"] = tracer.layer_metrics(len(traced))
        out["trace_overhead_s"] = (statistics.median(p["wall"] for p in traced)
                                   - passes[0]["wall"])
    return out


if __name__ == "__main__":
    sys.exit(main())
