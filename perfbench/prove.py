"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/prove.py [--workloads W ...] [--seeds 10] [--first-seed 1]
        [--traced] [--out perfbench/results/NAME.json]

Run from the repository root.  For every workload it runs
`perfbench/run.py --trace 0` once per seed, with BENCHMARK.json's
run_seconds, and reports each end-to-end metric's median, quartiles
(`statistics.quantiles(values, n=4)`) and spread = (q3 - q1) / median,
next to the metric's bound.  With --traced it adds one traced run per
workload on the first seed.  --out writes the summary, with the
environment of the last run, as a trajectory point.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(prog="perfbench/prove.py")
    parser.add_argument("--workloads", nargs="+", choices=workloads, default=workloads)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))

    doc = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {m['value']:.4g}" for k, m in runs[-1]["metrics"].items()), flush=True)
        entry = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "end_to_end": {},
        }
        for name, bound in bounds.items():
            s = summary([r["metrics"][name]["value"] for r in runs])
            s.update(unit=runs[0]["metrics"][name]["unit"], bound=bound)
            entry["end_to_end"][name] = s
            print(f"  {name:<14} median {s['median']:.5g} q1 {s['q1']:.5g} q3 {s['q3']:.5g} "
                  f"spread {s['spread']:.4f} (bound {bound}, bound/3 {bound / 3:.4f})")
        if args.traced:
            traced = run_once(workload, seeds[0], seconds, 1)
            entry["per_layer_seed"] = seeds[0]
            entry["per_layer"] = {k: m["value"] for k, m in traced["metrics"].items()}
            entry["per_layer_units"] = {k: m["unit"] for k, m in traced["metrics"].items()}
        doc["workloads"][workload] = entry

    record = ROOT / ".bench_out" / f"result-{args.workloads[-1]}-seed{seeds[-1]}-trace0.json"
    doc["environment"] = json.loads(record.read_text())["environment"]
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
