#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/bench.exe with dune,
times the workload's set-up over several separate launches, runs the
workload and prints its result: human-readable lines, then one JSON
object as the last line of standard output.  See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
SETUP_LAUNCHES = 5
# A run must end within 180 s of its start once the build is done.
RUN_LIMIT_S = 170


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            die("run from the root of a complete checkout: %s is missing" % needed)

    # The shared dune cache lives outside the checkout; keep the build in it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        die("build failed")
    deadline = time.monotonic() + RUN_LIMIT_S

    workload = ["--workload", args.workload, "--seed", str(args.seed)]
    setup = []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        launch = subprocess.run([EXE] + workload + ["--setup-only"],
                                stdout=subprocess.DEVNULL,
                                timeout=deadline - time.monotonic())
        setup.append(time.perf_counter() - start)
        if launch.returncode != 0:
            die("set-up failed")

    run = subprocess.run(
        [EXE] + workload
        + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True,
        timeout=deadline - time.monotonic())
    lines = run.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        die("the benchmark printed no result (exit %d)" % run.returncode)
    if args.trace == 0:
        value = statistics.median(setup)
        print("setup_s = %r s (median of %d launches)" % (value, SETUP_LAUNCHES))
        result["metrics"]["setup_s"] = {"value": value, "unit": "s"}
    print(json.dumps(result))
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
