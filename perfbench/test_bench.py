"""Tests of the benchmark itself, at tiny Monte Carlo sizes.

    python3 -m pytest perfbench

They are outside the package's ``testpaths``, so the package's own test run
does not collect them.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@lru_cache(maxsize=None)
def tiny_run(workload: str, trace: int):
    """(printed lines, final JSON) of one tiny run from the repo root."""
    buf = io.StringIO()
    cwd = Path.cwd()
    try:
        os.chdir(ROOT)
        with contextlib.redirect_stdout(buf):
            run.main(["--workload", workload, "--seed", "3", "--seconds",
                      "0", "--trace", str(trace)], tiny=True, setup_reps=1)
    finally:
        os.chdir(cwd)
    lines = buf.getvalue().strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_prints_with_unit(workload, trace):
    lines, result = tiny_run(workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert math.isfinite(got["value"])
        assert any(line.startswith(f"{m['name']} = ")
                   and line.endswith(f" {m['unit']}") for line in lines)
    assert result["attempted"] >= workloads.expected_ops(
        workload, workloads.make_config(workload, 3))
    assert 0 <= result["failed"] <= result["attempted"]
    assert result["correct"] == (result["failed"] == 0)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_regret_only_for_search(workload):
    lines, _ = tiny_run(workload, 0)
    printed = any(line.startswith("regret_rel = ") for line in lines)
    assert printed == (workload == "search")


def _perfect_table(workload, refs):
    """Rows and sidecar stats that match the references exactly."""
    raw = workloads.make_config(workload, 0)
    ref = refs[workload]
    rows, stats = [], {}
    for p in map(workloads.key, raw["p_s_grid"]):
        if workload == "sweep":
            rows += [{"p_s": p, "gamma": g, "throughput": str(v),
                      "se": "0.01"} for g, v in ref["threshold"][p].items()]
            continue
        for scheme in ("best_effort", "conventional"):
            rows.append({"p_s": p, "scheme": scheme,
                         "throughput": str(ref[scheme][p]), "se": "0.01"})
        if workload == "search":
            best = ref["lambda_opt"][p]
            stats.setdefault("gamma_star", {})[p] = ref["gamma_opt"][p]
        else:
            best = ref["lambda_star"][p]
            stats.setdefault("lambda_star", {})[p] = best
        rows.append({"p_s": p, "scheme": "opportunistic",
                     "throughput": str(best), "se": "0.01"})
    return raw, rows, stats


def _exact_stub(refs):
    opt = refs["search"]
    by_gamma = {opt["gamma_opt"][p]: opt["lambda_opt"][p]
                for p in opt["gamma_opt"]}
    return lambda gamma, p_s: by_gamma[gamma]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_wrong_reference_counts_as_failed_operation(workload):
    refs = workloads.load_references()
    raw, rows, stats = _perfect_table(workload, refs)
    exact = _exact_stub(refs)
    ops, _ = workloads.check_table(workload, raw, rows, stats, refs, exact)
    assert len(ops) == workloads.expected_ops(workload, raw)
    assert all(o["ok"] for o in ops)

    wrong = json.loads(json.dumps(refs))
    table = wrong[workload]["threshold"]["0"] if workload == "sweep" \
        else wrong[workload]["conventional"]
    first = next(iter(table))
    table[first] += 1.0
    ops, _ = workloads.check_table(workload, raw, rows, stats, wrong, exact)
    assert sum(not o["ok"] for o in ops) == 1


def test_missing_duplicate_and_unknown_rows_fail():
    refs = workloads.load_references()
    raw, rows, stats = _perfect_table("sweep", refs)
    unknown = {**rows[0], "gamma": "9"}
    ops, _ = workloads.check_table("sweep", raw,
                                   rows[1:] + rows[-1:] + [unknown],
                                   stats, refs)
    assert [o["op"] for o in ops if not o["ok"]] == [
        "row p_s=0 gamma=0", "row p_s=0.5 gamma=4", "unexpected rows"]


def test_raising_run_fails_every_operation():
    raw = workloads.make_config("markov", 0)
    ops, _ = run.check_reps("markov", raw, [{"error": "boom"}],
                            workloads.load_references(), None)
    assert len(ops) == workloads.expected_ops("markov", raw)
    assert not any(o["ok"] for o in ops)


def test_search_regret_is_relative_to_oracle_best():
    refs = workloads.load_references()
    raw, rows, stats = _perfect_table("search", refs)
    _, regret = workloads.check_table("search", raw, rows, stats, refs,
                                      lambda gamma, p_s: 0.99 * refs[
                                          "search"]["lambda_opt"][
                                          workloads.key(p_s)])
    assert regret == pytest.approx({p: 0.01 for p in regret})
    _, none = workloads.check_table("markov",
                                    *_perfect_table("markov", refs), refs)
    assert none is None


def test_refuses_to_run_without_sources():
    bare = HERE / "_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
