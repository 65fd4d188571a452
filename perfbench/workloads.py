"""Workload configs and the reference checks of the savetx benchmark.

Each workload is one savetx experiment table.  The benchmark seed only
selects the Monte Carlo random streams (the config's ``seed``); the grids
are fixed so that the reference values can be computed once by
``make_references.py`` and committed in ``references.json``.

An *operation* is one table row or one solve.  It fails when the run
raised, when the row is missing, or when it misses its reference check.
"""
from __future__ import annotations

import json
import math
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

# A row passes when it lies within 4 standard errors of its reference.
# The program's SE is a batch-means estimate from 20 batches, so the row's
# z-score follows a t law with 19 degrees of freedom; Z_MAX is the t(19)
# quantile with the two-sided tail of a 4-sigma normal test (6.3e-5).
Z_MAX = 5.102
# The DP gain is pinned to the commit that generated the references.
LAMBDA_STAR_RTOL = 1e-9
# A threshold search passes when its relative regret, measured with the
# exact renewal oracle, is at most this share of the best throughput.
REGRET_MAX = 0.01

GAMMA_GRID = [round(0.2 * k, 10) for k in range(21)]

# 4-state birth-death private chain, stay probability 0.7.
MARKOV_PRIVATE = {
    "kind": "markov",
    "states": [0.25, 0.75, 1.5, 3.0],
    "transition": [[0.7, 0.3, 0.0, 0.0],
                   [0.15, 0.7, 0.15, 0.0],
                   [0.0, 0.15, 0.7, 0.15],
                   [0.0, 0.0, 0.3, 0.7]],
}

# Raw configs, minus the seed.  "tiny" shrinks only the Monte Carlo sizes,
# for the benchmark's own tests.
_CONFIGS = {
    "sweep": {
        "experiment": "fig4",
        "p_s_grid": [0.0, 0.5],
        "gamma_grid": GAMMA_GRID,
        "private": {"kind": "exponential", "mean": 1.0},
        "common": {"kind": "exponential", "mean": 1.0},
        "eh": {"preset": "a"},
        "delta": 1.0,
        "b_max_units": "large",
        "mc": {"periods": 50_000},
    },
    "search": {
        "experiment": "fig8",
        "p_s_grid": [0.0, 0.5],
        "private": {"kind": "exponential", "mean": 1.0},
        "common": {"kind": "exponential", "mean": 1.0},
        "eh": {"preset": "a"},
        "delta": 1.0,
        "b_max_units": "large",
        "p_bar": 2.0,
        "mc": {"periods": 20_000, "slots": 1_000_000},
    },
    "markov": {
        "experiment": "fig3",
        "p_s_grid": [0.25, 0.75],
        "private": MARKOV_PRIVATE,
        "common": {"kind": "exponential", "mean": 1.0},
        "eh": {"preset": "c"},
        "delta": 1.0,
        "b_max_units": 20,
        "p_bar": 2.0,
        "solver": {"common_bins": 8},
        "mc": {"periods": 50_000, "slots": 1_000_000},
    },
}
_TINY_MC = {"periods": 2_000, "slots": 50_000}

WORKLOADS = tuple(_CONFIGS)


def make_config(workload: str, seed: int, tiny: bool = False) -> dict:
    """Raw savetx config of ``workload`` for benchmark seed ``seed``."""
    raw = json.loads(json.dumps(_CONFIGS[workload]))
    raw["seed"] = random.Random(seed).randrange(2 ** 31)
    if tiny:
        raw["mc"] = {k: min(v, _TINY_MC[k]) for k, v in raw["mc"].items()}
    return raw


def key(v) -> str:
    """Grid value as the CSV writes it (12 significant digits)."""
    return f"{float(v):.12g}"


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


# ---------------------------------------------------------------------------
# checks


def parse_csv(text: str) -> list[dict]:
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _z_op(name, row, ref):
    """One row checked against a reference value, within Z_MAX SEs."""
    if row is None:
        return {"op": name, "ok": False, "detail": "row missing"}
    thr, se = float(row["throughput"]), float(row["se"])
    err = thr - ref
    ok = math.isfinite(thr) and math.isfinite(se) and abs(err) <= Z_MAX * se
    z = err / se if se > 0 else (0.0 if err == 0 else math.inf)
    return {"op": name, "ok": ok, "z": z, "value": thr, "ref": ref}


def _index(rows, *cols):
    out = {}
    for r in rows:
        out.setdefault(tuple(r[c] for c in cols), []).append(r)
    return out


def _single(idx, k):
    found = idx.get(k, [])
    return found[0] if len(found) == 1 else None


def check_table(workload, raw, rows, stats, refs, exact=None):
    """Reference checks of one table.

    Returns ``(ops, regret)``: one dict per operation, and for ``search``
    the relative regret of each threshold search keyed by p_s (``None``
    for the other workloads).  ``exact(gamma, p_s)`` is the exact renewal
    throughput, needed only for ``search``.
    """
    ops = []
    regret = None
    ref = refs[workload]
    grid = [key(p) for p in raw["p_s_grid"]]
    if workload == "sweep":
        idx = _index(rows, "p_s", "gamma")
        expected = {(p, key(g)) for p in grid for g in raw["gamma_grid"]}
        for p, g in sorted(expected):
            ops.append(_z_op(f"row p_s={p} gamma={g}", _single(idx, (p, g)),
                             ref["threshold"][p][g]))
    else:
        idx = _index(rows, "p_s", "scheme")
        expected = {(p, s) for p in grid
                    for s in ("opportunistic", "best_effort", "conventional")}
        for p in grid:
            for scheme in ("best_effort", "conventional"):
                ops.append(_z_op(f"row p_s={p} {scheme}",
                                 _single(idx, (p, scheme)), ref[scheme][p]))
        solved = {key(k): v for k, v in stats.get(
            "gamma_star" if workload == "search" else "lambda_star",
            {}).items()}
        if workload == "search":
            regret = {}
            for p in grid:
                row = _single(idx, (p, "opportunistic"))
                if p not in solved:
                    ops.append({"op": f"search p_s={p}", "ok": False,
                                "detail": "gamma_star missing"})
                    ops.append(_z_op(f"row p_s={p} opportunistic", None, 0))
                    continue
                gamma = solved[p]
                lam = exact(gamma, float(p))
                best = ref["lambda_opt"][p]
                regret[p] = (best - lam) / best
                ops.append({"op": f"search p_s={p}",
                            "ok": regret[p] <= REGRET_MAX,
                            "gamma_star": gamma, "regret_rel": regret[p]})
                ops.append(_z_op(f"row p_s={p} opportunistic", row, lam))
        else:
            for p in grid:
                want = ref["lambda_star"][p]
                got = solved.get(p)
                ok = got is not None and \
                    abs(got - want) <= LAMBDA_STAR_RTOL * abs(want)
                ops.append({"op": f"solve p_s={p}", "ok": ok,
                            "value": got, "ref": want})
                ops.append(_z_op(f"row p_s={p} opportunistic",
                                 _single(idx, (p, "opportunistic")), want))
    cols = ("p_s", "gamma") if workload == "sweep" else ("p_s", "scheme")
    extra = sum(len(v) for k, v in _index(rows, *cols).items()
                if k not in expected)
    if extra:
        ops.append({"op": "unexpected rows", "ok": False, "count": extra})
    return ops, regret


def expected_ops(workload: str, raw: dict) -> int:
    """Operation count of one table, charged in full when a run raises."""
    n = len(raw["p_s_grid"])
    return n * len(raw["gamma_grid"]) if workload == "sweep" else 4 * n


def se_rel_mean(rows) -> float:
    """Mean of se/throughput over the table's Monte Carlo rows."""
    vals = [float(r["se"]) / float(r["throughput"]) for r in rows
            if float(r["throughput"]) > 0]
    return sum(vals) / len(vals)
