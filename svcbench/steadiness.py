#!/usr/bin/env python3
"""Run each workload on several seeds and print every end-to-end metric's
spread against its bound in BENCHMARK.json.

    python3 svcbench/steadiness.py [--seeds 10] [--out round1.json]
                                   [--baseline round0.json]

Run from the root of a checkout. Every workload of BENCHMARK.json runs at its
run_seconds on seeds 1..N. The spread of a metric is the distance between the
first and third quartile of its values (statistics.quantiles(values, n=4)) as
a share of their median; a metric is steady when that spread is below a
third of its bound. --baseline compares each median with a round saved
earlier by --out and flags one that got worse by more than the bound. Host
facts are printed before and after the runs, and each run's host-speed probe
median and regime are collected, so a noisy host shows up as such rather
than as a code change.
"""
import argparse
import json
import os
import pathlib
import re
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PROBE = re.compile(r"^host speed: probe median (\S+) ms")
REGIME = re.compile(r"^host regime: (\S+)")


def host_facts() -> str:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    load = "/".join(f"{x:.2f}" for x in os.getloadavg())
    return f"nproc={os.cpu_count()} loadavg={load} cpu=\"{model}\""


def run_once(workload: str, seed: int, seconds: int) -> tuple:
    """The run's JSON result, its probe median in ms and its host regime."""
    cmd = [sys.executable, str(ROOT / "svcbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed (exit {proc.returncode}):\n{proc.stderr}")
    probe, regime = float("nan"), "unknown"
    for line in lines:
        if m := PROBE.match(line):
            probe = float(m.group(1))
        elif m := REGIME.match(line):
            regime = m.group(1)
    return json.loads(lines[-1]), probe, regime


def spread(values: list) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--out", help="save this round's values as JSON")
    ap.add_argument("--baseline", help="compare medians with a round saved by --out")
    args = ap.parse_args()

    print(f"host before: {host_facts()}")
    values = {}
    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs, probes, off = [], [], 0
        for seed in range(1, args.seeds + 1):
            result, probe, regime = run_once(workload, seed, bench["run_seconds"])
            if not result["correct"] or result["failed"]:
                steady = False
                print(f"  {workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} requests failed")
            runs.append(result["metrics"])
            probes.append(probe)
            off += regime != "reference"
        values[workload] = {m["name"]: [r[m["name"]]["value"] for r in runs]
                            for m in bench["end_to_end"]}
        print(f"\n{workload}: {len(runs)} runs, seeds 1..{args.seeds}; probe medians "
              f"{min(probes):.4g}..{max(probes):.4g} ms, {off} run(s) off the reference regime")
        print(f"  {'metric':20} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} "
              f"{'bound':>6}  verdict")
        for m in bench["end_to_end"]:
            q1, med, q3, s = spread(values[workload][m["name"]])
            if s < m["bound"] / 3:
                verdict = "steady"
            else:
                verdict = "TOO NOISY" if s > m["bound"] else "within bound, above a third"
                steady = False
            print(f"  {m['name']:20} {q1:12.6g} {med:12.6g} {q3:12.6g} {s:8.4f} "
                  f"{m['bound']:6.3f}  {verdict}")
    print(f"\nhost after: {host_facts()}")

    if args.baseline:
        base = json.loads(pathlib.Path(args.baseline).read_text())
        print(f"\nmedians against {args.baseline}:")
        for workload, metrics in values.items():
            for m in bench["end_to_end"]:
                if workload not in base or m["name"] not in base[workload]:
                    continue
                old = statistics.median(base[workload][m["name"]])
                new = statistics.median(metrics[m["name"]])
                worse = (new - old) / old if m["better"] == "lower" else (old - new) / old
                ok = worse <= m["bound"]
                steady = steady and ok
                print(f"  {workload:16} {m['name']:20} {old:12.6g} -> {new:12.6g} "
                      f"worse by {100 * worse:+7.2f}%  {'ok' if ok else 'REGRESSED'}")
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(values, indent=1) + "\n")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
