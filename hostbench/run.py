#!/usr/bin/env python3
"""Builds and runs the host-time benchmark.

    python3 hostbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first call configures and builds
hostbench/ (and the simulator sources it compiles) under
$CARGO_TARGET_DIR/hostbench, default .bench_build/hostbench; later calls
only rebuild what changed.  Build output goes to stderr; the benchmark's
stdout is passed through, so its last line is the result JSON.  Exits
non-zero, without a result, when the build or the run fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", build_dir, "--target", "hostbench",
                    "-j", str(min(4, os.cpu_count() or 1))],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "hostbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["spe_pingpong", "rank_pingpong", "mixed_load"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "hostbench")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"hostbench: build failed: {e}", file=sys.stderr)
        return 1

    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", out_dir]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"hostbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if run.returncode != 0:
        print(f"hostbench: run failed with code {run.returncode}",
              file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
