#!/usr/bin/env python3
"""Build and run the manroute benchmark from the root of a checkout.

    python3 perfbench/run.py --workload campaign|serve|pareto|all \\
        --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune into .bench_build, times the
workload's set-up (process start through input generation) over several
fresh processes, then runs the workload and relays its report. The last
stdout line is the JSON result; see perfbench/METRICS.md for the
metrics. Exits non-zero when the build fails or an output check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
OUT_DIR = os.path.join(BUILD_DIR, "perfbench-out")
WORKLOADS = ("campaign", "serve", "pareto")
SETUP_REPS = 11


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def child_env():
    # The library reads MANROUTE_* knobs (jobs, trials, backends); the
    # benchmark fixes its own, so inherited ones must not leak in.
    return {k: v for k, v in os.environ.items() if not k.startswith("MANROUTE_")}


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("not at the root of a manroute checkout (no dune-project or lib/)")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/main.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           env=child_env(), timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}")
    if r.returncode != 0 or not os.path.isfile(EXE):
        die("build failed")
    os.makedirs(OUT_DIR, exist_ok=True)


def setup_seconds(workload, seed):
    """Median wall time of fresh processes that only build the inputs.

    Parent and children share one CPU while timing: a child started on
    the other CPU pays a migration that doubled some medians."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--out", OUT_DIR,
           "--setup-only"]
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    times = []
    try:
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            r = subprocess.run(cmd, env=child_env(), timeout=60)
            times.append(time.perf_counter() - t0)
            if r.returncode != 0:
                die(f"set-up of {workload} failed")
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.median(times)


def run(workload, seed, seconds, trace):
    setup = setup_seconds(workload, seed) if not trace else None
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out", OUT_DIR]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, env=child_env(),
                       text=True, timeout=170)
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(r.stdout, end="")
        die(f"{workload}: no result (exit {r.returncode})")
    for line in lines[:-1]:
        print(line)
    if setup is not None:
        print(f"set-up (median of {SETUP_REPS} fresh processes): {setup:.6f} s")
        result["metrics"] = {"setup_s": {"value": setup, "unit": "s"},
                             **result["metrics"]}
    return result, r.returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()
    if a.seconds <= 0:
        die("--seconds must be positive")
    build()
    workloads = WORKLOADS if a.workload == "all" else (a.workload,)
    code = 0
    for w in workloads:
        result, rc = run(w, a.seed, a.seconds, a.trace == 1)
        code = code or rc
        print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
