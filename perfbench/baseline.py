"""Run the benchmark over several seeds and record the result.

    python3 perfbench/baseline.py --seeds 10 --out perfbench/baseline.json

Run from the repository root.  Each workload runs once per seed untraced
and once traced; the file records every run, the median and quartiles of
each metric, the spread (quartile distance over median), each layer's
share of the table's time, and the environment.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Layer spans whose share of experiments.run_experiment.s is recorded.
SHARES = ("simulate.run_simulation", "power.stop_rate",
          "solver.evaluate_threshold", "solver.optimize_threshold",
          "solver.solve_markov", "simulate.run_best_effort",
          "simulate.run_conventional", "power.solve_water_level",
          "models", "tables.emit_csv")


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)], capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    env = None
    for line in lines[:-1]:
        name, sep, rest = line.partition(" = ")
        if name == "env":
            env = json.loads(rest)
        elif sep and name not in values and len(rest.split()) == 2:
            values[name] = float(rest.split()[0])
    return result, values, env


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    ap.add_argument("--out", default=str(HERE / "baseline.json"))
    args = ap.parse_args()

    seconds = spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    out = {"commit": commit(), "date": time.strftime("%Y-%m-%d %H:%M UTC",
                                                     time.gmtime()),
           "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result, values, env = run_once(workload, seed, seconds, 0)
            runs.append({"seed": seed, "attempted": result["attempted"],
                         "failed": result["failed"], "metrics": values})
            out["env"] = env
            print(workload, seed, result["failed"], json.dumps(values),
                  flush=True)
        names = runs[0]["metrics"]
        result, layers, _ = run_once(workload, seeds[0], seconds, 1)
        total = layers["experiments.run_experiment.s"]
        out["workloads"][workload] = {
            "runs": runs,
            "summary": {n: summary([r["metrics"][n] for r in runs])
                        for n in names},
            "traced": {"seed": seeds[0], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": layers,
                       "share_of_run_experiment": {
                           n: (layers[f"{n}.s"] / total if total else 0.0)
                           for n in SHARES}},
        }
        for n, s in out["workloads"][workload]["summary"].items():
            print(f"  {workload} {n}: median {s['median']:.6g} "
                  f"spread {s['spread']}", flush=True)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
