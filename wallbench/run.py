#!/usr/bin/env python3
"""Build and run the IronSafe wall-clock benchmark.

Run from the root of a source checkout:

    python3 wallbench/run.py --workload tpch_scs --seed 1 --seconds 20 --trace 0

It builds wallbench/wallbench.exe with dune (inside the checkout, with
dune's shared cache off), runs it, and passes its output through. The
last line of the output is the benchmark's JSON result; this script
checks its metric names against BENCHMARK.json before exiting 0.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["tpch_scs", "tpch_vcs", "oltp_wal", "sched_replay"]
EXE = os.path.join("_build", "default", "wallbench", "wallbench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def die(msg):
    print("wallbench: " + msg, file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("run me from the root of an IronSafe source checkout")

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--cache=disabled",
             "./wallbench/wallbench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if build.returncode != 0:
        die("build failed")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stdout.write("\n".join(l for l in lines if l.startswith("#")) + "\n")
        die("benchmark exited with %d" % run.returncode)

    result = json.loads(lines[-1])
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    kind = "per_layer" if args.trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[kind]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        die("metrics differ from BENCHMARK.json %s: %s" % (
            kind, sorted(set(want.items()) ^ set(got.items()))))
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
