#!/usr/bin/env python3
"""Measure a trajectory point: ten seeds per workload (see BENCHMARK.md).

  python3 perfbench/record.py [--seeds 6001-6010] [--workloads a,b]
                              [--commit SHA] [--write]

Runs every workload once per seed through run.py with the
BENCHMARK.json run length, then reports for each end-to-end metric the
median, the quartiles (statistics.quantiles, n=4) and the spread,
(q3 - q1) / median, against the metric's bound.  One traced hier_local
run adds the hier layer numbers.  With --write the point is appended
to trajectory.json, which is refused unless the host fingerprint says
"recordable": true.  Exits 1 if a run fails or a spread other than
setup_s exceeds its bound.
"""

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "trajectory.json"
LAYER_METRICS = ("hier.self_speedup_j4", "hier.windows",
                 "hier.ticks_per_window")


def run(workload, seed, seconds, trace):
    """One run: (host fingerprint, facts, metrics)."""
    cmd = ["python3", str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT)
    lines = proc.stdout.splitlines()
    tagged = {line.split(" ", 1)[0]: json.loads(line.split(" ", 1)[1])
              for line in lines[:-1] if line.startswith(("host ", "facts "))}
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.exit(f"record.py: {' '.join(cmd)} failed "
                 f"(exit {proc.returncode})")
    return (tagged.get("host"), tagged.get("facts"),
            {name: m["value"] for name, m in result["metrics"].items()})


def parse_seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="6001-6010")
    parser.add_argument("--workloads")
    parser.add_argument("--commit", default="unknown")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)

    host = None
    point = {"program_commit": args.commit,
             "date": datetime.date.today().isoformat(),
             "command": "python3 perfbench/run.py --workload <name> "
                        f"--seed <seed> --seconds {seconds} --trace 0",
             "host": None, "workloads": {}}
    steady = True
    for workload in names:
        values = {name: [] for name in metrics}
        digests = {}
        for seed in seeds:
            host, facts, got = run(workload, seed, seconds, 0)
            digests[str(seed)] = facts["digest_fnv"]
            for name in metrics:
                values[name].append(got[name])
            print(f"{workload} {seed} " + " ".join(
                f"{name}={got[name]:.6g}" for name in metrics), flush=True)
        summary = {}
        for name, v in values.items():
            q1, median, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = metrics[name]["bound"]
            summary[name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": round(spread, 4),
                             "unit": metrics[name]["unit"]}
            ok = name == "setup_s" or spread <= bound
            steady = steady and ok
            print(f"  {workload} {name}: median {median:.6g} spread "
                  f"{spread:.3f} (bound {bound}, a third "
                  f"{bound / 3:.3f}){'' if ok else '  OVER BOUND'}",
                  flush=True)
        point["workloads"][workload] = {"seeds": seeds,
                                        "metrics": summary,
                                        "digest_fnv_by_seed": digests}
    point["host"] = host

    if "hier_local" in names:
        _, _, got = run("hier_local", seeds[0], seconds, 1)
        layer = {name: got[name] for name in LAYER_METRICS}
        layer["command"] = (f"python3 perfbench/run.py --workload "
                            f"hier_local --seed {seeds[0]} --seconds "
                            f"{seconds} --trace 1")
        point["layer"] = {"hier_local": layer}
        print(f"  hier_local layer: {layer}", flush=True)

    if args.write:
        if not (host or {}).get("recordable"):
            sys.exit("record.py: host fingerprint is not recordable; "
                     "not writing trajectory.json")
        trajectory = json.loads(TRAJECTORY.read_text())
        trajectory["points"].append(point)
        TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n")
        print(f"appended a point to {TRAJECTORY}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
