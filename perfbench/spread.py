#!/usr/bin/env python3
"""Run one workload with several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload smoke-j1 --runs 10 [--first-seed 1]

For every metric of the runs' JSON results it prints the median and the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of the median: the steadiness figure the benchmark's bounds are
judged against. Each run gets its own seed (first-seed, first-seed+1, ...).
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

RUN = pathlib.Path(__file__).resolve().parent / "run.py"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    args = ap.parse_args()

    values = {}
    for k in range(args.runs):
        seed = str(args.first_seed + k)
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload,
             "--seed", seed, "--seconds", args.seconds,
             "--trace", args.trace],
            capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect result\n{proc.stdout}")
        line = [f"seed {seed}:"]
        for out_line in proc.stdout.splitlines():
            if "host.llc_probe_ms" in out_line:
                line.append("probe_ms=" + "/".join(
                    f"{float(x):.0f}" for x in out_line.split()[2:5:2]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            line.append(f"{name}={m['value']:.6g}")
        print(" ".join(line), flush=True)

    print(f"{'metric':32} {'median':>14} {'iqr/median':>11}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:32} {med:14.6g} {spread:11.4f}")


if __name__ == "__main__":
    main()
