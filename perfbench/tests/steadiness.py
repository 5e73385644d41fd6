#!/usr/bin/env python3
"""Steadiness self-check of the benchmark.

    python3 perfbench/tests/steadiness.py [--runs 10] [--workloads a,b] [--first-seed 1]
                                          [--seconds S]

Runs every workload --runs times, each time with another seed, and reports
for each end-to-end metric the median, the quartiles (statistics.quantiles,
n=4) and the spread (Q3 - Q1) / median against the metric's bound in
BENCHMARK.json. A metric whose spread exceeds a tenth is flagged.

It also checks the simulated statistics each run prints on the line before
its result: statistics marked pinned must be identical across all runs and
seeds, and a traced run of the first seed must report exactly the statistics
of the untraced run of that seed. Exits nonzero when anything is flagged or
a run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
FLAG_SPREAD = 0.10


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    sim = json.loads(lines[-2])["sim"]
    return json.loads(lines[-1]), {name: entry["value"] for name, entry in sim.items()}, {
        name for name, entry in sim.items() if entry["pinned"]}


def main():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    flagged = []
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        pinned_seen = {}
        first_sim = None
        for i in range(args.runs):
            seed = args.first_seed + i
            try:
                result, sim, pinned = run_once(workload, seed, args.seconds, 0)
            except RuntimeError as error:
                flagged.append(str(error))
                continue
            if i == 0:
                first_sim = sim
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            for name in pinned:
                pinned_seen.setdefault(name, set()).add(sim[name])
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{name}={result['metrics'][name]['value']:.6g}" for name in bounds), flush=True)
        print(f"{workload}: {len(values['setup_s'])} runs")
        if len(values["setup_s"]) < 2:
            continue
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            mark = ""
            if spread > FLAG_SPREAD or spread > bounds[name]:
                mark = "  <-- FLAGGED"
                flagged.append(f"{workload} {name} spread {spread:.3f}")
            print(f"  {name:14s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:6.3f}  bound {bounds[name]:.2f}{mark}")
        for name, seen in sorted(pinned_seen.items()):
            if len(seen) != 1:
                flagged.append(f"{workload} pinned {name} varies: {sorted(seen)}")
        try:
            _, traced_sim, _ = run_once(workload, args.first_seed, args.seconds, 1)
        except RuntimeError as error:
            flagged.append(str(error))
            continue
        if traced_sim != first_sim:
            flagged.append(f"{workload} traced simulated statistics differ: "
                           f"{traced_sim} vs {first_sim}")
        else:
            print(f"  traced run: simulated statistics identical ({len(traced_sim)})")
    for line in flagged:
        print("FLAGGED:", line)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
