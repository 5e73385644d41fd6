#!/usr/bin/env python3
"""Builds and runs the simulator's host-time benchmark (see README.md).

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root. --seconds defaults to run_seconds in
BENCHMARK.json, the run length its bounds were measured at. The first run
configures and builds the benchmark (and the simulator library it links)
under .bench_build/perfbench, or under $CARGO_TARGET_DIR/perfbench when that
is set; later runs only check that the build is current. The last line of
standard output is the result object: {"correct", "attempted", "failed",
"metrics"}. The exit code is 0 only when every correctness check passed.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("guests", "fault_campaign", "native_loops", "metal_guests", "checkpoint_resume")
DEFAULT_SEED = 1
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def default_seconds():
    try:
        return float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    except (OSError, ValueError, KeyError, TypeError):
        return None


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def run(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build():
    """Returns the benchmark binary, or None when it cannot be built."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print("perfbench: the simulator sources are missing next to perfbench/",
              file=sys.stderr)
        return None
    out = build_dir()
    cache = out / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in cache.read_text():
        shutil.rmtree(out)  # configured for another checkout
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not cache.is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out)])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs])
    for step in steps:
        try:
            code, _ = run(step, BUILD_TIMEOUT_S, stdout=sys.stderr, stderr=sys.stderr)
        except (OSError, subprocess.TimeoutExpired) as error:
            print(f"perfbench: {' '.join(step)}: {error}", file=sys.stderr)
            return None
        if code != 0:
            print(f"perfbench: {' '.join(step)} failed with exit code {code}", file=sys.stderr)
            return None
    return out / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    seconds = default_seconds()
    parser.add_argument("--seconds", type=float, default=seconds, required=seconds is None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", str(build_dir() / f"spans-{args.workload}-{args.seed}.jsonl")]
    try:
        code, out = run(cmd, RUN_TIMEOUT_S, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print(f"perfbench: timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        print("perfbench: the benchmark printed no result", file=sys.stderr)
        return 3
    print("\n".join(lines), flush=True)
    if code == 0 and not result["correct"]:
        code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
