#!/usr/bin/env python3
"""Runs perfbench/run.py over several seeds and summarizes the spread.

    python3 perfbench/collect.py --workloads paper-grid city-lossy \\
        --seeds 1 2 3 4 5 [--seconds 30] [--out runs.json] [--write-baseline]

For each workload and end-to-end metric it prints the median, the
quartiles (statistics.quantiles(values, n=4)), n, and the spread
(q3 - q1) / median next to the metric's bound in BENCHMARK.json.
--write-baseline stores median/q1/q3/n per workload x metric in
perfbench/baseline.json, the history run.py prints its deltas against.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, help="also save every run's result here")
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {}
    for workload in args.workloads:
        runs[workload] = []
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False)
            if done.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed:\n{done.stderr}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed} failed a check:\n{done.stderr}")
            runs[workload].append(result)
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: {values}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1))

    baseline = {}
    worst = 0.0
    for workload, results in runs.items():
        baseline[workload] = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            baseline[workload][name] = {"median": med, "q1": q1, "q3": q3,
                                        "n": len(values)}
            print(f"{workload:15s} {name:14s} median {med:14.6g} "
                  f"q1 {q1:14.6g} q3 {q3:14.6g} spread {spread:6.2%} "
                  f"bound {bounds[name]:.0%}")
    print(f"worst spread / bound (setup_s excluded): {worst:.2f}")
    if args.write_baseline:
        (HERE / "baseline.json").write_text(json.dumps(
            {"seconds": args.seconds, "seeds": args.seeds, "workloads": baseline},
            indent=1) + "\n")


if __name__ == "__main__":
    main()
