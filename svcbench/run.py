#!/usr/bin/env python3
"""Build the service benchmark from source and run one workload.

    python3 svcbench/run.py --workload eco_loop --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The first call configures and builds
svcbench/ (and the mintc libraries under src/) into the build directory,
$CARGO_TARGET_DIR when set, else .bench_build; later calls only rebuild what
changed. Build output goes to standard error, so the last line of standard
output is the benchmark's JSON result. Exits non-zero, without a result,
when the sources are missing or the build or the run fails.
"""
import argparse
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = ROOT / "svcbench"
WORKLOADS = ("eco_loop", "dashboard_read", "schedule_design")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir() -> pathlib.Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(out: pathlib.Path) -> pathlib.Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"svcbench: no mintc sources under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "svcbench", "-j", jobs])
    for cmd in steps:
        try:
            subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
            sys.exit(f"svcbench: build step failed: {e}")
    return out / "svcbench"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    out = build_dir()
    exe = build(out)
    results = out / "svcbench-out"
    results.mkdir(parents=True, exist_ok=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(results)]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"svcbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
