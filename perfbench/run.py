"""savetx benchmark: one workload, one run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the repository root.  With ``--trace 0`` the run measures the
end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` it measures
the per-layer metrics from a traced process and, for ``trace.overhead_s``,
an untraced one.  Both check every table row and solve against the
references in ``references.json`` and count failed operations.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SETUP_REPS = 5
MIN_REPS = 3
CHILD_TIMEOUT_S = 150
# The worker's calibration kernel takes this long when the machine is not
# slowed by other load (2-core x86-64, Python 3.11, numpy 2.4);
# ``wall_cal_s`` is the table's time at that speed.
CAL_REF_S = 0.0085

SETUP_CODE = """\
import json, sys, time
t0 = time.perf_counter()
import savetx.cli
savetx.validate_config(json.loads(sys.stdin.read()))
print(time.perf_counter() - t0)
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _child(args, stdin: str, root: Path) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, *args], input=stdin, cwd=root,
                          env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} exited with {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def measure_setup(raw: dict, root: Path, reps: int) -> float:
    """Median seconds to import savetx and validate the config, each in a
    fresh process."""
    text = json.dumps(raw)
    return statistics.median(
        float(_child(["-c", SETUP_CODE], text, root)) for _ in range(reps))


def run_worker(job: dict, root: Path) -> dict:
    return json.loads(_child([str(HERE / "worker.py")], json.dumps(job),
                             root))


def _exact_fn(root: Path):
    """Exact renewal throughput of a threshold rule, memoized."""
    sys.path.insert(0, str(root / "tests"))
    import oracles
    cache = {}

    def exact(gamma, p_s):
        if (gamma, p_s) not in cache:
            cache[gamma, p_s] = oracles.exact_threshold_metrics(gamma,
                                                                p_s)[0]
        return cache[gamma, p_s]

    return exact


def check_reps(workload, raw, reps, refs, exact):
    """Operations, failures and search regrets over every repetition."""
    ops, regrets = [], []
    for rep in reps:
        if "error" in rep:
            n = workloads.expected_ops(workload, raw)
            ops += [{"op": "run", "ok": False, "detail": rep["error"]}] * n
            continue
        rep_ops, regret = workloads.check_table(
            workload, raw, workloads.parse_csv(rep["csv"]), rep["stats"],
            refs, exact)
        ops += rep_ops
        if regret:
            regrets.append(statistics.mean(regret.values()))
    return ops, regrets


def measure(workload: str, seed: int, seconds: float, trace: bool,
            root: Path, tiny: bool = False,
            setup_reps: int = SETUP_REPS) -> dict:
    """Run the workload; return metrics, operation counts and a record."""
    raw = workloads.make_config(workload, seed, tiny)
    refs = workloads.load_references()
    exact = _exact_fn(root) if workload == "search" else None
    out = HERE / "_out" / f"{workload}-{seed}-{os.getpid()}"
    base = {"config": raw, "src": str(root / "src"),
            "run": f"{workload}:{seed}"}
    record = {"workload": workload, "seed": seed, "trace": trace,
              "config": raw}
    extra = {}
    try:
        if trace:
            plain = run_worker({**base, "out": str(out / "plain"),
                                "seconds": seconds / 2, "min_reps": 1,
                                "calibrate": False, "trace": False}, root)
            traced = run_worker({**base, "out": str(out / "traced"),
                                 "seconds": seconds / 2, "min_reps": 1,
                                 "calibrate": False, "trace": True,
                                 "spans_file": str(out.parent /
                                                   f"spans-{workload}.json")},
                                root)
            reps = plain["reps"] + traced["reps"]
            layers = [r["layers"] for r in traced["reps"]]
            metrics = {k: statistics.median(x[k] for x in layers)
                       for k in layers[0]}
            metrics["trace.overhead_s"] = (_median_wall(traced["reps"])
                                           - _median_wall(plain["reps"]))
            record["env"] = traced["env"]
        else:
            setup_s = measure_setup(raw, root, setup_reps)
            res = run_worker({**base, "out": str(out), "seconds": seconds,
                              "min_reps": MIN_REPS, "calibrate": True,
                              "trace": False}, root)
            reps = res["reps"]
            extra["wall_s"] = (_median_wall(reps), "s")
            metrics = {
                "setup_s": setup_s,
                "wall_cal_s": statistics.median(
                    r["wall_s"] / r["cal_s"] * CAL_REF_S
                    for r in reps if "wall_s" in r),
                "peak_rss_mb": res["peak_rss_mb"],
            }
            extra["se_rel_mean"] = (statistics.median(
                workloads.se_rel_mean(workloads.parse_csv(r["csv"]))
                for r in reps if "csv" in r), "1")
            record["env"] = res["env"]
    finally:
        shutil.rmtree(out, ignore_errors=True)
    ops, regrets = check_reps(workload, raw, reps, refs, exact)
    failed = sum(not o["ok"] for o in ops)
    extra["fail_frac"] = (failed / len(ops), "1")
    if regrets:
        extra["regret_rel"] = (statistics.median(regrets), "1")
    record.update(reps=[{k: v for k, v in r.items() if k != "csv"}
                        for r in reps], ops=ops)
    return {"metrics": metrics, "extra": extra, "attempted": len(ops),
            "failed": failed, "record": record}


def _median_wall(reps):
    walls = [r["wall_s"] for r in reps if "wall_s" in r]
    if not walls:
        raise BenchError("every repetition raised: "
                         + "; ".join(r["error"] for r in reps))
    return statistics.median(walls)


def _declared(root: Path, trace: bool) -> list[dict]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None, tiny: bool = False, setup_reps: int = SETUP_REPS):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    for need in ("BENCHMARK.json", "src/savetx/__init__.py",
                 "tests/oracles.py"):
        if not (root / need).is_file():
            raise BenchError(f"{need} not found under {root}; run from the "
                             "root of a savetx checkout")
    declared = _declared(root, bool(args.trace))
    res = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                  root, tiny, setup_reps)

    out = {}
    for m in declared:
        value = res["metrics"][m["name"]]
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} = {value:.6g} {m['unit']}")
    for name, (value, unit) in res["extra"].items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"attempted = {res['attempted']}, failed = {res['failed']}")
    print("env =", json.dumps(res["record"]["env"]))
    for op in res["record"]["ops"]:
        if not op["ok"]:
            print("FAILED", json.dumps(op))
    res["record"]["metrics"] = {**res["metrics"], **{
        k: v for k, (v, _) in res["extra"].items()}}
    rec_path = HERE / "_out" / (f"{args.workload}-seed{args.seed}-"
                                f"trace{args.trace}.json")
    rec_path.parent.mkdir(exist_ok=True)
    rec_path.write_text(json.dumps(res["record"], indent=1) + "\n")
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": out}))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
