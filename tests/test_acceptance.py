"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.
"""
import sys
from contextlib import contextmanager

import numpy as np
import pytest

import savetx as sx

from oracles import best_effort_exact, enumerate_best_policy, \
    fig3_oracle_config, fresh_carry, grid_rule, policy_gains, \
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


def evaluate(model, gammas, periods=MC_PERIODS):
    """Monte Carlo metrics of threshold rules at the default engine sizes
    (1000 warm-up periods, 512 streams), one pass."""
    return sx.run_policies([sx.Policy.threshold(g) for g in gammas], model,
                           periods, SEED)


def iid_model(p_s, eh_preset="a"):
    return sx.validate_config(
        {"experiment": "fig4", "eh": {"preset": eh_preset}}
    ).build_model(p_s)


def fig3_model(p_s, **changes):
    return sx.validate_config({"experiment": "fig3", **changes}
                              ).build_model(p_s)


# cached heavyweight artifacts shared across criteria ----------------------

_gamma_curves: dict = {}
_optimals: dict = {}


def gamma_curve(p_s):
    """(throughputs, ses, mean_times, time_ses) over GAMMA_GRID."""
    if p_s not in _gamma_curves:
        mets = evaluate(iid_model(p_s), GAMMA_GRID)
        _gamma_curves[p_s] = (
            np.array([m.throughput for m in mets]),
            np.array([m.se_throughput for m in mets]),
            np.array([m.mean_saving_time for m in mets]),
            np.array([m.se_saving_time for m in mets]),
        )
    return _gamma_curves[p_s]


def optimal_gamma(p_s, eh_preset="a"):
    return optimal_policy(p_s, eh_preset)[0]


def optimal_policy(p_s, eh_preset="a"):
    """``(gamma, (throughput, mean saving time))`` of the best threshold."""
    key = (p_s, eh_preset)
    if key not in _optimals:
        _optimals[key] = sx.optimize_threshold(iid_model(p_s, eh_preset))
    return _optimals[key]


@pytest.fixture(scope="module")
def fig3_tables():
    return {p: sx.solve_markov(fig3_model(p)) for p in PS_GRID}


def scheme_sims(model, table):
    """The fig3 table's three schemes on ``model`` with the DP rule
    ``table``: best-effort is the gamma = 0 rule, in the opportunistic
    rule's pass, as the table runs it."""
    opp, be = sx.run_policies(
        [sx.Policy.dp(table), sx.Policy.threshold(0.0)], model,
        MC_PERIODS, SEED, warmup_periods=1000, streams=512)
    return {"opportunistic": opp, "best_effort": be,
            "conventional": sx.run_conventional_supply(
                model, 1e-3, MC_SLOTS, SEED + 1, streams=512)}


@pytest.fixture(scope="module")
def fig3_sims(fig3_tables):
    return {p: scheme_sims(fig3_model(p), table)
            for p, table in fig3_tables.items()}


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
            table = sx.solve_markov(model)
            assert abs(table.lambda_star - best) <= 1e-6


def test_criterion_03_throughput_increases_with_access(fig3_tables):
    with criterion(3, "optimal throughput strictly increases over the "
                      "securing-probability grid (exact solver values)"):
        lams = [fig3_tables[p].lambda_star for p in PS_GRID]
        assert all(b - a > 1e-9 for a, b in zip(lams, lams[1:]))


def assert_scheme_order(p, sims, rounding=0.0):
    """The criterion's bands; ``rounding`` widens the conventional band by
    that share of the top row where the rows are equal in theory."""
    opp = sims["opportunistic"]
    be = sims["best_effort"]
    cv = sims["conventional"]
    band_ob = 2 * (opp.se_throughput + be.se_throughput)
    if p < 1.0:
        assert opp.throughput >= be.throughput - band_ob
    else:
        assert abs(opp.throughput - be.throughput) <= band_ob
    top = max(opp.throughput, be.throughput)
    band_c = 2 * (cv.se_throughput
                  + max(opp.se_throughput, be.se_throughput)) + rounding * top
    assert cv.throughput >= top - band_c


def test_criterion_04_scheme_ordering(fig3_sims):
    with criterion(4, "opportunistic >= best-effort below full access, "
                      "equal at full access, conventional on top; "
                      "opportunistic > best-effort, exactly, on a "
                      "20-unit battery"):
        for p in PS_GRID[:-1]:
            assert_scheme_order(p, fig3_sims[p])
        # at full access both supplies spend p_bar on fig3's one common
        # gain every slot (SEs 0), so the rows are equal in theory.  The
        # water level xi is the smallest float whose spend does not exceed
        # p_bar: one float step of xi moves 1/xi by at most 2 ulps, and the
        # spend's arithmetic rounds by about 1 more, so the spend, and with
        # it the rate (concave in it), falls short by at most 3 ulp(1/xi) /
        # p_bar relative (about 2e-14; 7e-15 seen)
        full = fig3_sims[1.0]
        assert full["conventional"].se_throughput == 0.0
        model = fig3_model(1.0)
        xi = sx.solve_water_level(model.private, model.common, model.access,
                                  1e-3)
        assert_scheme_order(1.0, full, 3 * np.spacing(1 / xi) / 1e-3)
        # fig3's one-unit battery stops every charged slot under both
        # rules, so its rows are one row; a 20-unit battery lets the DP
        # wait for the good private state (exact 0.022781 and 0.044131
        # against best-effort's 0.015315 and 0.030379)
        for p in (0.0, 0.5):
            model = fig3_model(p, b_max_units=20)
            table = sx.solve_markov(model)
            assert table.lambda_star - best_effort_exact(model) > 1e-3
            assert_scheme_order(p, scheme_sims(model, table))


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
        assert 1.25 <= optimal_gamma(0.0) <= 1.75
        for p_s in (0.5, 0.75, 1.0):
            assert 1.75 <= optimal_gamma(p_s) <= 2.25


def test_criterion_06_saving_time_curves():
    with criterion(6, "mean saving time falls with access probability at "
                      "fixed thresholds; re-optimized curve sits between"):
        fixed = {}
        for gamma in (1.5, 2.0):
            mets = [evaluate(iid_model(p), [gamma])[0] for p in PS_GRID]
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
            met, = evaluate(iid_model(p_s), [optimal_gamma(p_s)])
            tol_lo = 2 * (met.se_saving_time + lo_se[i]) + slope[i] * 0.25
            tol_hi = 2 * (met.se_saving_time + hi_se[i]) + slope[i] * 0.25
            assert met.mean_saving_time >= lo_t[i] - tol_lo
            assert met.mean_saving_time <= hi_t[i] + tol_hi


def test_criterion_07_harvesting_diversity():
    with criterion(7, "throughput at each model's best threshold orders "
                      "d > b > a > c; same-stationary models tie at zero "
                      "threshold (model d sits above by design)"):
        best = {}
        at_zero = {}
        for name in ("a", "b", "c", "d"):
            met, met0 = evaluate(iid_model(0.5, name),
                                 [optimal_gamma(0.5, name), 0.0])
            best[name] = (met.throughput, met.se_throughput)
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
            _, (opp, _) = optimal_policy(p_s)
            cv = sx.run_conventional_supply(model, 2.0, MC_SLOTS, SEED + 2,
                                            streams=512)
            ratios.append(opp / cv.throughput)
        mean_ratio = float(np.mean(ratios))
        assert 0.60 <= mean_ratio <= 0.80


def test_criterion_09_invariant_suite(fig3_tables):
    with criterion(9, "value-table slack/monotonicity, battery and energy "
                      "ledgers, immediate stop at zero threshold, and "
                      "bitwise reproducibility"):
        for p, table in fig3_tables.items():
            # the value of a state is max(rates, gamma) - lambda_star; its
            # slack over the stop value is >= 0 by construction, so the
            # stored rule must be worth lambda_star on an independent chain
            # (the rule on the oracle's grid: stop iff b > 0 and the rate
            # meets gamma)
            config = fig3_oracle_config(p)
            gain, = policy_gains(config, grid_rule(config, table.gamma)[None])
            assert abs(gain - table.lambda_star) <= 1e-9
            rates = config.rates().reshape(2, config.nb, config.ne,
                                           config.nh)
            values = np.maximum(rates, table.gamma[None])
            assert (np.diff(values, axis=1) >= -1e-9).all()

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

        met0, = evaluate(iid_model(0.5), [0.0], periods=50_000)
        assert met0.mean_saving_time == 1.0

        m1, = evaluate(iid_model(0.5), [2.0], periods=50_000)
        m2, = evaluate(iid_model(0.5), [2.0], periods=50_000)
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
            met = sx.run_conventional_supply(model, p_bar, MC_SLOTS, seed,
                                             streams=512)
            assert abs(met.realized_avg_power - p_bar) / p_bar < 0.01
