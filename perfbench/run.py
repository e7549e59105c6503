#!/usr/bin/env python3
"""Build and run the repository benchmark (see BENCHMARK.md).

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selfcheck [--seed N]

Builds perfbench/ (and the simulator sources it links) into
.bench_build/perfbench on first use, runs the harness binary, and
checks that the metrics it printed are exactly the ones BENCHMARK.json
declares for the mode, with the declared units.  The harness's last
stdout line, the result JSON, is passed through unchanged.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "rmbbench"
# One run must end within 180 s; leave room for process start-up.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found at {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "rmbbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    log_path = BUILD / "build.log"
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log,
                              stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                sys.stderr.write(log_path.read_text()[-4000:])
                fail("build failed: " + " ".join(cmd))


def declared():
    """(workload names, {trace mode: {metric name: unit}})."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found")
    spec = json.loads(path.read_text())
    units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    return [w["name"] for w in spec["workloads"]], units


def run(workload, seed, seconds, trace, units):
    """Run the harness once; return (exit code, stdout lines, problem)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans = BUILD / "spans"
        spans.mkdir(exist_ok=True)
        # One file per workload: the latest traced run's spans.
        cmd += ["--spans", str(spans / f"{workload}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return 1, [], f"harness exceeded {RUN_TIMEOUT_S} s"
    lines = proc.stdout.splitlines()
    try:
        metrics = json.loads(lines[-1])["metrics"]
    except (IndexError, ValueError, KeyError, TypeError):
        return proc.returncode or 1, lines, "no result line"
    printed = {name: m.get("unit") for name, m in metrics.items()}
    if printed != units[trace]:
        missing = sorted(set(units[trace]) - set(printed))
        extra = sorted(set(printed) - set(units[trace]))
        wrong = sorted(n for n in printed
                       if n in units[trace] and printed[n] != units[trace][n])
        return 1, lines, (f"metrics differ from BENCHMARK.json: missing "
                          f"{missing}, undeclared {extra}, wrong unit {wrong}")
    return proc.returncode, lines, None


def self_check(seed, workloads, units):
    ok = subprocess.run([str(BINARY), "--selfcheck", "--seed",
                         str(seed)]).returncode == 0
    for workload in workloads:
        for trace in (0, 1):
            code, _, problem = run(workload, seed, 1, trace, units)
            passed = code == 0 and problem is None
            print(f"{'ok  ' if passed else 'FAIL'} {workload} --trace {trace}:"
                  f" {problem or 'metric names and units match BENCHMARK.json'}")
            ok = ok and passed
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()

    build()
    workloads, units = declared()
    if args.selfcheck:
        sys.exit(0 if self_check(args.seed, workloads, units) else 1)
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; choose from {workloads}")

    code, lines, problem = run(args.workload, args.seed, args.seconds,
                               args.trace, units)
    if problem:
        print("\n".join(lines[:-1]))
        fail(problem)
    print("\n".join(lines), flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
