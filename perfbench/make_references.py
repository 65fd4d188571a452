"""Compute the benchmark's reference values and write references.json.

Run from the repository root:

    python3 perfbench/make_references.py

Sources, all independent of the Monte Carlo code under test:

* threshold rows (``sweep``) and the best threshold (``search``): the
  exact renewal oracle ``tests/oracles.py::exact_threshold_metrics``;
* best-effort and conventional rows: closed forms and quadrature over
  the stationary laws of the gain and harvest chains, with the water
  level solved here from closed-form power means;
* the DP gain ``lambda_star`` (``markov``): this commit's
  ``solve_markov``, recorded so later changes to the solver must keep it.
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
from scipy import integrate, optimize, special

from workloads import REFERENCES, WORKLOADS, key, make_config

ROOT = Path(__file__).resolve().parent.parent
LN2 = math.log(2.0)
EH_PRESET_STATES = (0.0, 4.0)   # presets a and c, delta = 1
EH_PRESET_PI = (0.5, 0.5)       # both are symmetric two-state chains


def load_oracles():
    sys.path.insert(0, str(ROOT / "tests"))
    import oracles
    return oracles


# ---------------------------------------------------------------------------
# slot rate and the stationary laws


def rate(b, h, hc, phi):
    """Slot rate (bits) of spending budget b, by the water-level form."""
    if b <= 0:
        return 0.0
    if phi == 0:
        return math.log2(1.0 + h * b)
    if abs(1.0 / hc - 1.0 / h) < b:
        w = 0.5 * (b + 1.0 / h + 1.0 / hc)
        return math.log2(h * hc * w * w)
    return math.log2(1.0 + max(h, hc) * b)


def stationary(P):
    P = np.asarray(P, float)
    w, v = np.linalg.eig(P.T)
    pi = np.real(v[:, np.argmin(np.abs(w - 1.0))])
    return pi / pi.sum()


def private_law(raw):
    """(values, probabilities) of a discrete private gain, or None for
    exp(1)."""
    if raw["private"]["kind"] == "exponential":
        return None
    chain = raw["private"]
    return np.asarray(chain["states"]), stationary(chain["transition"])


# ---------------------------------------------------------------------------
# best-effort supply: budget = last slot's harvest, no battery


def _mean_over_exp(f, kinks):
    """E[f(X)] for X ~ exp(1), splitting the range at kinks of f."""
    edges = [0.0] + sorted(k for k in kinks if 0.0 < k < math.inf)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        total += integrate.quad(lambda x: f(x) * math.exp(-x), a, b,
                                epsabs=1e-13, epsrel=1e-12, limit=200)[0]
    total += integrate.quad(lambda x: f(x) * math.exp(-x), edges[-1],
                            math.inf, epsabs=1e-13, epsrel=1e-12,
                            limit=200)[0]
    return total


def _kinks(b, g):
    """Gains x where |1/x - 1/g| = b, the edges of the interior split."""
    out = [g / (1.0 + b * g)]
    if b * g < 1.0:
        out.append(g / (1.0 - b * g))
    return out


def best_effort_ref(raw, p_s):
    law = private_law(raw)
    total = 0.0
    for e, pe in zip(EH_PRESET_STATES, EH_PRESET_PI):
        if e <= 0:
            continue
        if law is None:
            # E[log2(1 + bH)] = e^{1/b} E1(1/b) / ln 2 for H ~ exp(1)
            no_access = math.exp(1.0 / e) * special.exp1(1.0 / e) / LN2
            access = _mean_over_exp(
                lambda hc: _mean_over_exp(
                    lambda h: rate(e, h, hc, 1), _kinks(e, hc)),
                [1.0 / e])
        else:
            vals, probs = law
            no_access = sum(p * math.log2(1.0 + h * e)
                            for h, p in zip(vals, probs))
            access = sum(p * _mean_over_exp(lambda hc: rate(e, h, hc, 1),
                                            _kinks(e, h))
                         for h, p in zip(vals, probs))
        total += pe * ((1.0 - p_s) * no_access + p_s * access)
    return total


# ---------------------------------------------------------------------------
# conventional supply: water filling under an average power constraint


def _power_mean(law, xi):
    """E[(1/xi - 1/H)^+]; exp(1) gives e^{-xi}/xi - E1(xi)."""
    if law is None:
        return math.exp(-xi) / xi - special.exp1(xi)
    vals, probs = law
    return float(probs @ np.maximum(1.0 / xi - 1.0 / vals, 0.0))


def _rate_mean(law, xi):
    """E[log2 max(H/xi, 1)]; exp(1) gives E1(xi) / ln 2."""
    if law is None:
        return special.exp1(xi) / LN2
    vals, probs = law
    return float(probs @ np.log2(np.maximum(vals / xi, 1.0)))


def conventional_ref(raw, p_s):
    law = private_law(raw)
    p_bar = raw["p_bar"]
    xi = optimize.brentq(
        lambda x: _power_mean(law, x) + p_s * _power_mean(None, x) - p_bar,
        1e-9, 1e3, xtol=1e-15, rtol=1e-15)
    return _rate_mean(law, xi) + p_s * _rate_mean(None, xi)


# ---------------------------------------------------------------------------
# threshold rules: exact renewal oracle


def best_threshold(exact, p_s, hi=4.0):
    """(gamma_opt, lambda_opt) by a grid scan refined by golden section."""
    grid = np.linspace(0.0, hi, 41)
    vals = [exact(g, p_s) for g in grid]
    k = int(np.argmax(vals))
    a, b = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
    res = optimize.minimize_scalar(lambda g: -exact(g, p_s),
                                   bounds=(a, b), method="bounded",
                                   options={"xatol": 1e-6})
    if -res.fun >= vals[k]:
        return float(res.x), float(-res.fun)
    return float(grid[k]), float(vals[k])


def main():
    oracles = load_oracles()

    def exact(gamma, p_s):
        return oracles.exact_threshold_metrics(gamma, p_s)[0]

    sys.path.insert(0, str(ROOT / "src"))
    import savetx

    refs = {}
    for name in WORKLOADS:
        raw = make_config(name, 0)
        grid = raw["p_s_grid"]
        out = {}
        if name == "sweep":
            out["threshold"] = {
                key(p): {key(g): exact(g, p) for g in raw["gamma_grid"]}
                for p in grid}
        else:
            out["best_effort"] = {key(p): best_effort_ref(raw, p)
                                  for p in grid}
            out["conventional"] = {key(p): conventional_ref(raw, p)
                                   for p in grid}
        if name == "search":
            best = {key(p): best_threshold(exact, p) for p in grid}
            out["gamma_opt"] = {p: g for p, (g, _) in best.items()}
            out["lambda_opt"] = {p: v for p, (_, v) in best.items()}
        if name == "markov":
            cfg = savetx.validate_config(raw)
            out["lambda_star"] = {
                key(p): savetx.solve_markov(cfg.build_model(p),
                                            cfg.solver).lambda_star
                for p in grid}
        refs[name] = out
        print(name, json.dumps(out)[:200], flush=True)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
