"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.
"""
import sys
from contextlib import contextmanager

import numpy as np
import pytest

import savetx as sx

from oracles import enumerate_best_policy, fresh_carry, \
    random_small_config, run_period, water_fill_two_channel

SEED = 20240501
PS_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
GAMMA_GRID = np.linspace(0.0, 4.0, 21)
MC_PERIODS = 200_000
MC_SLOTS = 1_000_000


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL  {desc}", file=sys.stderr)
        raise
    print(f"[criterion {num:02d}] PASS  {desc}", file=sys.stderr)


def solver_cfg(**kw):
    base = dict(b_max_units=10_000, delta=1.0, mc_periods=MC_PERIODS,
                mc_warmup_periods=1000, mc_replications=16, mc_streams=512,
                mc_seed=SEED)
    base.update(kw)
    return sx.SolverConfig(**base)


def iid_model(p_s, eh_preset="a"):
    return sx.validate_config(
        {"experiment": "fig4", "eh": {"preset": eh_preset}}
    ).build_model(p_s)


def fig3_model(p_s):
    return sx.validate_config({"experiment": "fig3"}).build_model(p_s)


# cached heavyweight artifacts shared across criteria ----------------------

_gamma_curves: dict = {}
_optimals: dict = {}


def gamma_curve(p_s):
    """(throughputs, ses, mean_times, time_ses) over GAMMA_GRID."""
    if p_s not in _gamma_curves:
        cfg = solver_cfg()
        model = iid_model(p_s)
        mets = [sx.evaluate_threshold(model, g, cfg) for g in GAMMA_GRID]
        _gamma_curves[p_s] = (
            np.array([m.throughput for m in mets]),
            np.array([m.se_throughput for m in mets]),
            np.array([m.mean_saving_time for m in mets]),
            np.array([m.se_saving_time for m in mets]),
        )
    return _gamma_curves[p_s]


def optimal_policy(p_s, eh_preset="a"):
    key = (p_s, eh_preset)
    if key not in _optimals:
        _optimals[key] = sx.optimize_threshold(
            iid_model(p_s, eh_preset), solver_cfg())
    return _optimals[key]


@pytest.fixture(scope="module")
def fig3_tables():
    return {p: sx.solve_markov(fig3_model(p)) for p in PS_GRID}


@pytest.fixture(scope="module")
def fig3_sims(fig3_tables):
    out = {}
    for p, table in fig3_tables.items():
        model = fig3_model(p)
        out[p] = {
            "opportunistic": sx.run_simulation(
                sx.Policy.dp(table), model, MC_PERIODS, SEED,
                warmup_periods=1000, replications=16, streams=512),
            "best_effort": sx.run_best_effort(
                model, MC_SLOTS, SEED + 1, replications=16, streams=512),
            "conventional": sx.run_conventional(
                model, 1e-3, MC_SLOTS, SEED + 2, replications=16,
                streams=512),
        }
    return out


def test_criterion_01_water_filling_oracle():
    with criterion(1, "two-channel split beats a 10^4-point grid search "
                      "and equalizes water levels on 1000 random triples; "
                      "stop_rate spends exactly that split"):
        rng = np.random.default_rng(99)
        worst_gap = np.inf
        worst_eq = 0.0
        for _ in range(1000):
            b = float(rng.uniform(0.01, 50.0))
            h = float(2.0 ** rng.uniform(-6, 7))
            hc = float(2.0 ** rng.uniform(-6, 7))
            split = water_fill_two_channel(b, h, hc)
            ours = float(np.log2(1 + h * split.p_private)
                         + np.log2(1 + hc * split.p_common))
            assert sx.stop_rate(b, h, hc, 1) == ours
            p = np.linspace(0.0, b, 10_001)
            grid_best = float(np.max(np.log2(1 + h * p)
                                     + np.log2(1 + hc * (b - p))))
            worst_gap = min(worst_gap, ours - grid_best)
            if split.p_private > 0 and split.p_common > 0:
                eq = abs((1 / h + split.p_private)
                         - (1 / hc + split.p_common))
                worst_eq = max(worst_eq, eq)
        assert worst_gap >= -1e-9
        assert worst_eq < 1e-9


def test_criterion_02_brute_force_equivalence():
    with criterion(2, "Markov solver matches exhaustive stationary-policy "
                      "enumeration on 20 random small configurations"):
        rng = np.random.default_rng(4242)
        for _ in range(20):
            config = random_small_config(rng)
            best, _ = enumerate_best_policy(config)
            model = config.system_model()
            table = sx.solve_markov(model, sx.SolverConfig(lambda_tol=1e-9))
            assert abs(table.lambda_star - best) <= 1e-6


def test_criterion_03_throughput_increases_with_access(fig3_tables):
    with criterion(3, "optimal throughput strictly increases over the "
                      "securing-probability grid (exact solver values)"):
        lams = [fig3_tables[p].lambda_star for p in PS_GRID]
        assert all(b - a > 1e-9 for a, b in zip(lams, lams[1:]))


def test_criterion_04_scheme_ordering(fig3_sims):
    with criterion(4, "opportunistic >= best-effort below full access, "
                      "equal at full access, conventional on top"):
        for p in PS_GRID:
            opp = fig3_sims[p]["opportunistic"]
            be = fig3_sims[p]["best_effort"]
            cv = fig3_sims[p]["conventional"]
            band_ob = 2 * (opp.se_throughput + be.se_throughput)
            if p < 1.0:
                assert opp.throughput >= be.throughput - band_ob
            else:
                assert abs(opp.throughput - be.throughput) <= band_ob
            top = max(opp.throughput, be.throughput)
            band_c = 2 * (cv.se_throughput
                          + max(opp.se_throughput, be.se_throughput))
            assert cv.throughput >= top - band_c


def test_criterion_05_threshold_curve_calibration():
    with criterion(5, "throughput-vs-threshold curves unimodal on a "
                      "21-point grid; optima in the calibrated intervals"):
        for p_s in PS_GRID:
            lam, se, _, _ = gamma_curve(p_s)
            k = int(np.argmax(lam))
            assert 0 < k < len(lam) - 1  # interior maximizer
            for i in range(k):
                assert lam[i + 1] >= lam[i] - 2 * (se[i] + se[i + 1])
            for i in range(k, len(lam) - 1):
                assert lam[i + 1] <= lam[i] + 2 * (se[i] + se[i + 1])
        assert 1.25 <= optimal_policy(0.0).gamma <= 1.75
        for p_s in (0.5, 0.75, 1.0):
            assert 1.75 <= optimal_policy(p_s).gamma <= 2.25


def test_criterion_06_saving_time_curves():
    with criterion(6, "mean saving time falls with access probability at "
                      "fixed thresholds; re-optimized curve sits between"):
        cfg = solver_cfg()
        fixed = {}
        for gamma in (1.5, 2.0):
            mets = [sx.evaluate_threshold(iid_model(p), gamma, cfg)
                    for p in PS_GRID]
            times = [m.mean_saving_time for m in mets]
            ses = [m.se_saving_time for m in mets]
            # strictly decreasing with non-overlapping 95% intervals
            for (t1, s1), (t2, s2) in zip(zip(times, ses),
                                          zip(times[1:], ses[1:])):
                assert t1 - 1.96 * s1 > t2 + 1.96 * s2
            fixed[gamma] = (np.array(times), np.array(ses))
        lo_t, lo_se = fixed[1.5]
        hi_t, hi_se = fixed[2.0]
        # half-step allowance: the reference optima are quoted on a
        # half-unit threshold grid
        slope = (hi_t - lo_t) / 0.5
        for i, p_s in enumerate(PS_GRID):
            met = sx.evaluate_threshold(
                iid_model(p_s), optimal_policy(p_s).gamma, cfg)
            tol_lo = 2 * (met.se_saving_time + lo_se[i]) + slope[i] * 0.25
            tol_hi = 2 * (met.se_saving_time + hi_se[i]) + slope[i] * 0.25
            assert met.mean_saving_time >= lo_t[i] - tol_lo
            assert met.mean_saving_time <= hi_t[i] + tol_hi


def test_criterion_07_harvesting_diversity():
    with criterion(7, "throughput at each model's best threshold orders "
                      "d > b > a > c; same-stationary models tie at zero "
                      "threshold (model d sits above by design)"):
        cfg = solver_cfg()
        best = {}
        at_zero = {}
        for name in ("a", "b", "c", "d"):
            pol = optimal_policy(0.5, name)
            met = sx.evaluate_threshold(iid_model(0.5, name), pol.gamma, cfg)
            best[name] = (met.throughput, met.se_throughput)
            met0 = sx.evaluate_threshold(iid_model(0.5, name), 0.0, cfg)
            at_zero[name] = (met0.throughput, met0.se_throughput)
        assert best["d"][0] - best["b"][0] > 2 * (best["d"][1]
                                                  + best["b"][1])
        assert best["b"][0] - best["a"][0] > 1 * (best["b"][1]
                                                  + best["a"][1])
        assert best["a"][0] - best["c"][0] > 1 * (best["a"][1]
                                                  + best["c"][1])
        for x, y in (("a", "b"), ("a", "c"), ("b", "c")):
            assert abs(at_zero[x][0] - at_zero[y][0]) <= \
                2 * (at_zero[x][1] + at_zero[y][1])
        # model d has more stationary energy, so it cannot tie at zero
        for other in ("a", "b", "c"):
            assert at_zero["d"][0] - at_zero[other][0] > \
                2 * (at_zero["d"][1] + at_zero[other][1])


def test_criterion_08_fraction_of_conventional():
    with criterion(8, "re-optimized harvesting throughput averages about "
                      "70% of the conventional-supply optimum"):
        ratios = []
        for p_s in PS_GRID:
            model = iid_model(p_s)
            opp = optimal_policy(p_s).lambda_star
            cv = sx.run_conventional(model, 2.0, MC_SLOTS, SEED + 2,
                                     replications=16, streams=512)
            ratios.append(opp / cv.throughput)
        mean_ratio = float(np.mean(ratios))
        assert 0.60 <= mean_ratio <= 0.80


def test_criterion_09_invariant_suite(fig3_tables):
    with criterion(9, "value-table slack/monotonicity, battery and energy "
                      "ledgers, immediate stop at zero threshold, and "
                      "bitwise reproducibility"):
        for table in fig3_tables.values():
            assert (table.slack() >= -1e-9).all()
            assert (np.diff(table.values, axis=1) >= -1e-9).all()

        model = sx.SystemModel(
            private=sx.GainDistribution.exponential(1.0),
            common=sx.GainDistribution.exponential(1.0),
            access=sx.AccessModel(0.5),
            eh=sx.MarkovChainSpec([0.0, 4.0], [[0.1, 0.9], [0.9, 0.1]]),
            b_max_units=6, delta=1.0)
        rng = np.random.default_rng(5)
        carry = fresh_carry(model, rng)
        harvested = carry.b
        spent = 0.0
        for _ in range(5000):
            b0 = carry.b
            out = run_period(sx.Policy.threshold(3.0), model, rng,
                             carry=carry)
            assert 0.0 <= out.energy_spent <= model.b_cap + 1e-12
            assert out.energy_spent == pytest.approx(
                b0 + out.harvested - out.clipped, abs=1e-9)
            harvested += out.harvested + carry.b
            spent += out.energy_spent
            assert spent <= harvested + 1e-9

        cfg = solver_cfg(mc_periods=50_000)
        met0 = sx.evaluate_threshold(iid_model(0.5), 0.0, cfg)
        assert met0.mean_saving_time == 1.0

        m1 = sx.evaluate_threshold(iid_model(0.5), 2.0, cfg)
        m2 = sx.evaluate_threshold(iid_model(0.5), 2.0, cfg)
        assert m1 == m2


def test_criterion_10_average_power_constraint():
    with criterion(10, "realized conventional-supply power within 1% of "
                       "target on three channel/access configurations"):
        cases = [
            (iid_model(0.5), 2.0, SEED),
            (iid_model(1.0), 2.0, SEED + 7),
            (fig3_model(0.25), 1e-3, SEED + 13),
        ]
        for model, p_bar, seed in cases:
            met = sx.run_conventional(model, p_bar, MC_SLOTS, seed,
                                      replications=16, streams=512)
            assert abs(met.realized_avg_power - p_bar) / p_bar < 0.01
