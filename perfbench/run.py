"""The jackvar benchmark: one workload, one run, every metric by name and unit.

    python3 perfbench/run.py --workload exact_report|mc_estimate|battery \
        --seed N --seconds S --trace 0|1

Run it from the root of a jackvar checkout; it benchmarks ./src/jackvar.
With --trace 0 it measures set-up time in SETUP_SAMPLES fresh processes (the
last of which goes on to the timed run) and prints the end-to-end metrics.
With --trace 1 it prints the per-layer metrics of a traced run instead.
Every op's output is checked; a failed check counts its op as failed.
The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
A full record, with the environment, goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # the whole command must end within 180 s

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def git_commit() -> str | None:
    """HEAD of the checkout, when it is a git work tree of its own."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(worker: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": worker.get("numpy"),
        "blas": worker.get("blas"),
        "jackvar": worker.get("jackvar"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
        "commit": git_commit(),
    }


def run_worker(args, mode: str, deadline: float) -> dict:
    result = OUT / f"worker-{os.getpid()}-{mode}.json"
    cmd = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--result", str(result),
    ]
    # subprocess.run kills the worker and waits for it if the deadline passes
    proc = subprocess.run(cmd, cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()),
                          stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        raise SystemExit(f"error: {mode} worker exited with code {proc.returncode}")
    with open(result) as fh:
        doc = json.load(fh)
    result.unlink()
    return doc


def end_to_end(setups: list[float], worker: dict) -> tuple[dict, dict]:
    run = worker["run"]
    lat = run["latencies"]
    ops = len(lat)
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": ops / run["elapsed_s"],
        "op_p50_s": statistics.median(lat),
        "op_p90_s": p90,
        "cpu_s_per_op": run["cpu_s"] / ops,
        "peak_rss_mb": worker["peak_rss_mb"],
    }
    detail = {
        "ops": ops,
        "passes": run["passes"],
        "ops_per_pass": run["ops_per_pass"],
        "elapsed_s": run["elapsed_s"],
        "samples_beyond_p90": sum(1 for x in lat if x > p90),
        "setup_samples_s": setups,
    }
    return values, detail


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in bench["workloads"]],
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 bits")
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be 1..60")
    if not (ROOT / "src" / "jackvar" / "__init__.py").is_file():
        print(f"error: no jackvar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    # the metrics a run reports, and their units, are the ones BENCHMARK.json lists
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    OUT.mkdir(exist_ok=True)

    if args.trace == 0:
        setups = [run_worker(args, "setup", deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        worker = run_worker(args, "timed", deadline)
        setups.append(worker["setup_s"])
        values, detail = end_to_end(setups, worker)
        phases = [worker["run"]]
    else:
        worker = run_worker(args, "traced", deadline)
        untraced, traced = worker["untraced"], worker["traced"]
        values = dict(worker["layers"])
        values["trace.overhead_share"] = 1.0 - (
            (len(traced["latencies"]) / traced["elapsed_s"])
            / (len(untraced["latencies"]) / untraced["elapsed_s"]))
        detail = {
            "ops_traced": len(traced["latencies"]),
            "spans": worker["spans"],
            "spans_file": worker["spans_file"],
            "nesting_violations": worker["nesting_violations"],
        }
        phases = [untraced, traced, worker["peak_pass"]]

    attempted = sum(len(p["latencies"]) for p in phases)
    failures = [f for p in phases for f in p["failures"]]
    correct = not failures and detail.get("nesting_violations", 0) == 0
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "failed_share": len(failures) / attempted,
        "failures": failures[:20],
        "metrics": metrics,
        "detail": detail,
        "environment": environment(worker),
    }
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          + ", ".join(f"{k} {v}" for k, v in detail.items() if k != "setup_samples_s"))
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(f"failed_share {record['failed_share']!r} share "
          f"({len(failures)} failed of {attempted} attempted)")
    for f in failures[:5]:
        print(f"  failed op {f['op']} ({f['kind']}): {f['problem']}")
    env = record["environment"]
    print(f"environment: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"threads {env['threads']}, commit {env['commit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
