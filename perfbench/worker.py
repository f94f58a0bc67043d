"""One workload in one fresh process: set up, run the closed loop, report.

    python3 -m perfbench.worker --workload NAME --seed N --seconds S \
        --mode setup|timed|traced --result PATH

Run from the repository root.  `setup` only measures set-up time: importing
`jackvar` from ./src and generating the inputs.  `timed` then runs whole
passes of the workload with one client, each op starting when the previous
one has finished, until `--seconds` have passed and at least MIN_OPS ops
are done.  `traced` runs one op of each kind to measure peak allocations,
then alternates untraced and traced passes for `--seconds`.  The result is
written as JSON to `--result`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Enough ops that at least 10 latency samples lie beyond the 90th percentile.
MIN_OPS = 110


def import_library():
    """Import jackvar from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "jackvar" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'jackvar'} not found; run from a jackvar checkout")
    sys.path.insert(0, str(src))
    import jackvar

    if Path(jackvar.__file__).resolve().parent != (src / "jackvar").resolve():
        raise SystemExit(f"error: imported jackvar from {jackvar.__file__}, not {src}")
    return jackvar


def run_loop(ops, seconds: float, min_ops: int, tracer=None) -> dict:
    """Whole passes over `ops` until `seconds` and `min_ops` are both reached."""
    latencies = []
    failures = []
    passes = 0
    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    while True:
        for op in ops:
            if tracer is not None:
                tracer.op_id += 1
            start = time.perf_counter()
            try:
                output = op.run(passes)
                problem = None
            except Exception as e:  # a raising op counts as failed; the run goes on
                problem = f"raised {type(e).__name__}: {e}"
            latencies.append(time.perf_counter() - start)
            if problem is None:
                try:
                    problem = op.check(output)
                except Exception as e:
                    problem = f"check raised {type(e).__name__}: {e}"
            if problem is not None:
                failures.append({"op": len(latencies) - 1, "kind": op.kind, "problem": problem})
        passes += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds and len(latencies) >= min_ops:
            break
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime)
    return {
        "elapsed_s": elapsed,
        "cpu_s": cpu,
        "passes": passes,
        "ops_per_pass": len(ops),
        "latencies": latencies,
        "failures": failures,
    }


def merge(runs: list[dict]) -> dict:
    """One run_loop result made of several, with op indices running on."""
    merged = {"elapsed_s": 0.0, "cpu_s": 0.0, "passes": 0,
              "ops_per_pass": runs[0]["ops_per_pass"], "latencies": [], "failures": []}
    for r in runs:
        merged["failures"] += [dict(f, op=f["op"] + len(merged["latencies"]))
                               for f in r["failures"]]
        merged["latencies"] += r["latencies"]
        for key in ("elapsed_s", "cpu_s", "passes"):
            merged[key] += r[key]
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    jackvar = import_library()
    from perfbench import workloads

    build = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".bench_out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = build(args.seed, workdir)
        result = {"setup_s": time.perf_counter() - t0, "ops_per_pass": len(ops)}
        if args.mode == "timed":
            result["run"] = run_loop(ops, args.seconds, MIN_OPS)
        elif args.mode == "traced":
            from perfbench import trace

            # One op of each kind under tracemalloc, which also warms up
            # every code path before the two timed phases are compared.
            kinds = {}
            for op in ops:
                kinds.setdefault(op.kind, op)
            peaks = trace.PeakAlloc()
            with peaks.installed():
                result["peak_pass"] = run_loop(list(kinds.values()), 0.0, 1)
            # Alternate whole passes, so that the host's drift in speed falls
            # on both sides of trace.overhead_share alike.
            untraced, traced = [], []
            tracer = trace.Tracer()
            end = time.perf_counter() + args.seconds
            while not traced or time.perf_counter() < end:
                untraced.append(run_loop(ops, 0.0, 1))
                with tracer.installed():
                    traced.append(run_loop(ops, 0.0, 1, tracer))
            result["untraced"] = merge(untraced)
            result["traced"] = merge(traced)
            result["layers"] = trace.layer_metrics(
                tracer, len(result["traced"]["latencies"]), peaks)
            result["spans"] = len(tracer)
            result["nesting_violations"] = len(trace.nesting_violations(tracer))
            spans_path = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json.gz"
            tracer.write(spans_path)
            result["spans_file"] = str(spans_path.relative_to(ROOT))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import numpy

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["numpy"] = numpy.__version__
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        result["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        result["blas"] = None
    result["jackvar"] = jackvar.__version__
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
