#!/usr/bin/env python3
"""Build and run the deconvolution benchmark.

    python3 perfbench/run.py --workload {deconvolve,batch,bootstrap} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout. Builds perfbench/bench.exe from source
into .bench_build/ (dune, release profile, no shared cache), runs one
workload and passes on its output: a human-readable report on stderr and,
as the last line of stdout, one JSON object with the keys correct,
attempted, failed and metrics. Exits non-zero, without a result line, when
the build fails, and with a result line whose "correct" is false when any
output check fails. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
WORKLOADS = ("deconvolve", "batch", "bootstrap")
# A run must end within 180 s; the benchmark stops measuring well before.
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="input shape; tiny is for the benchmark's own test")
    ap.add_argument("--corrupt", action="store_true",
                    help="poison one estimate; the checker must reject the run")
    ap.add_argument("--max-nrmse", type=float,
                    help="override the recovery bound of baseline.json")
    args = ap.parse_args()

    # The bounds of baseline.json hold for the full shape only.
    bound = float("inf")
    if args.size == "full":
        with open(os.path.join(HERE, "baseline.json")) as f:
            baseline = json.load(f)
        bound = baseline["recovery_nrmse_bound"][args.workload]
    if args.max_nrmse is not None:
        bound = args.max_nrmse

    build = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
             "--profile", "release", "--cache=disabled", "./perfbench/bench.exe"]
    try:
        built = subprocess.run(build, cwd=ROOT, stdout=sys.stderr)
    except OSError as e:
        sys.exit(f"run.py: cannot run dune: {e}")
    if built.returncode != 0:
        sys.exit(f"run.py: build failed (exit {built.returncode})")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--max-nrmse", repr(bound)]
    if args.corrupt:
        cmd.append("--corrupt")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
