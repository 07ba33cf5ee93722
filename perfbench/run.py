#!/usr/bin/env python3
"""Build the simulator's benchmark binary from source and run one workload.

    python3 perfbench/run.py --workload smoke-j1 --seed 42 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The build goes to $CARGO_TARGET_DIR when set
(relative paths are taken from the repository root), else .bench_build/.
Build output goes to stderr; the binary's stdout is passed through, so the
last line of stdout is the run's JSON result. Exits non-zero, printing no
result, when the build or the run fails.
"""

import argparse
import json
import os
import pathlib
import re
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BINARY = "smartref_perfbench"
RUN_TIMEOUT_S = 175
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def build_dir():
    d = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    out = build_dir()
    jobs = str(min(3, os.cpu_count() or 1))
    steps = []
    if not any((out / f).exists() for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return out / BINARY


def check_benchmark_json(binary):
    """BENCHMARK.json must name exactly the binary's metrics and only
    workloads it knows, within the limits of the BENCHMARK.json format."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = subprocess.run([str(binary), "--list-metrics"], cwd=ROOT,
                            capture_output=True, text=True, check=True)
    listed_by = {"end_to_end": {}, "per_layer": {}, "workload": []}
    for line in listed.stdout.splitlines():
        kind, name, *unit = line.split()
        if kind == "workload":
            listed_by["workload"].append(name)
        else:
            listed_by[kind][name] = unit[0]
    problems = []
    for kind in ("end_to_end", "per_layer"):
        declared = {m["name"]: m["unit"] for m in spec[kind]}
        if declared != listed_by[kind]:
            problems.append(f"{kind} differs from the binary's metrics")
        for m in spec[kind]:
            if not NAME_RE.match(m["name"]):
                problems.append(f"bad metric name {m['name']}")
            if m["better"] not in ("lower", "higher"):
                problems.append(f"{m['name']}: better must be lower|higher")
    if any(w["name"] not in listed_by["workload"] for w in spec["workloads"]):
        problems.append("a workload the binary does not know")
    for w in spec["workloads"]:
        if len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"{w['name']}: why must be one line <= 200")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if any(not 0 < b <= 0.25 for b in bounds.values()):
        problems.append("end-to-end bounds must lie in (0, 0.25]")
    if bounds.get("setup_s") != max(bounds.values()):
        problems.append("setup_s must have the largest bound")
    for p in problems:
        print("FAIL BENCHMARK.json: " + p)
    if not problems:
        print("PASS BENCHMARK.json matches the binary")
    return not problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", default="42")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    binary = build()
    if args.self_test:
        ok = check_benchmark_json(binary)
        rc = subprocess.run([str(binary), "--self-test"], cwd=ROOT).returncode
        return 0 if ok and rc == 0 else 1
    if not args.workload:
        ap.error("--workload is required")
    cmd = [str(binary), "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
