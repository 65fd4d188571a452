import functools
import json
import math
import time
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import savetx as sx
import savetx.simulate
import savetx.solver
from savetx.errors import NoConvergence, PeriodOverflow, ReducibleChain
from savetx.tables import format_value
from savetx.solver import _grid_moments, _level_gains, _level_moments, \
    _rule_chain, _stop_moments, _tail_rate, _threshold_gain

from oracles import SmallConfig, chain_gains, enumerate_best_policy, \
    exact_threshold_metrics, fig3_oracle_config, full_array_tail_rate, \
    grid_rule, markov_workload_config, policy_gains, random_small_config, \
    reference_threshold_search, slot_kernel


def fig3_model(p_s):
    return sx.validate_config({"experiment": "fig3"}).build_model(p_s)


def iid_model(p_s):
    return sx.validate_config({"experiment": "fig4"}).build_model(p_s)


def thresholds(gammas):
    return [sx.Policy.threshold(g) for g in gammas]


def fig7_model(preset):
    return sx.validate_config(
        {"experiment": "fig7", "eh": {"preset": preset}}).build_model(0.5)


def degenerate_model(delta=1e-3):
    """Constant unit gain, constant harvest of one unit, one-unit battery."""
    return sx.SystemModel(
        private=sx.GainDistribution.constant(1.0),
        common=sx.GainDistribution.constant(1.0),
        access=sx.AccessModel(0.0),
        eh=sx.MarkovChainSpec([delta], [[1.0]]),
        b_max_units=1, delta=delta)


def on_grid(config: SmallConfig, table):
    """The oracle's stop rates, the table's gamma and its rule's stop mask
    on the oracle's grid, each with axes (phi, b, e, h)."""
    shape = (2, config.nb, config.ne, config.nh)
    gamma = np.broadcast_to(table.gamma[None], shape)
    return (config.rates().reshape(shape), gamma,
            grid_rule(config, table.gamma).reshape(shape))


def grid_levels(model):
    """Battery units of the driver's levels: multiples of the gcd of the
    positive harvest units, topped by the cap."""
    units = model.eh_units()
    step = int(np.gcd.reduce(units[units > 0]))
    return np.minimum(np.arange(-(-model.b_max_units // step) + 1) * step,
                      model.b_max_units)


def cell_gain(model, gamma):
    """Throughput of the rule 'stop iff b > 0 and R >= gamma[u, e, h]', a
    table on battery units, through the solver's driver, which reads the
    table at its levels: the rule's stop moments per carried cell and the
    level-by-level solve of its slot chain."""
    return _rule_chain(model, gamma[grid_levels(model)])[0][0, 0]


def unit_grid_metrics(model, gamma):
    """(throughput, stops per slot) of the threshold ``gamma`` on a Markov
    private gain, from its slot chain on every battery unit up to the cap,
    with no cut, solved by the oracle's sparse route: a second route to
    the driver's numbers."""
    states = np.asarray(model.private.chain.states)
    nb = model.b_max_units + 1
    u, h = np.indices((nb, len(states))).reshape(2, -1)
    moments = _stop_moments(model, u * model.delta, gamma, states[h])
    shape = (nb, len(model.eh.states), len(states))
    p, r = (np.broadcast_to(m.reshape(nb, 1, -1), shape) for m in moments)
    next_b = np.minimum(np.arange(nb)[:, None] + model.eh_units(), nb - 1)
    K = slot_kernel(p, next_b, model.eh.transition,
                    model.private.chain.transition)
    return chain_gains(K, np.column_stack([r.ravel(), p.ravel()]))[0]


class TestSolveMarkov:
    def test_degenerate_fixed_point(self):
        table = sx.solve_markov(degenerate_model())
        oracle = SmallConfig(0.0, 1, [1], [[1.0]], [1.0], [[1.0]], 1.0,
                             delta=1e-3)
        full = oracle.index(0, 1, 0, 0)  # (phi, b, e, h): the charged state
        assert grid_rule(oracle, table.gamma)[full]
        assert oracle.rates()[full] - table.lambda_star == \
            pytest.approx(0.0, abs=1e-9)
        # the charged cell stops every slot: its stop reward is its rate
        assert table.rates[1, 0, 0] - table.lambda_star == \
            pytest.approx(0.0, abs=1e-9)

    def test_degenerate_lambda(self):
        table = sx.solve_markov(degenerate_model())
        expect = float(np.log2(1 + 1e-3))
        assert table.lambda_star == pytest.approx(expect, abs=1e-9)
        assert table.lambda_star == pytest.approx(1.4427e-3, rel=1e-3)
        # enumerate fixed stop times on the deterministic path: battery is
        # always one unit, so T=1 maximizes log2(1.001)/T
        ratios = [np.log2(1 + 1e-3) / t for t in range(1, 21)]
        assert max(ratios) == ratios[0]

    def test_fig3_matches_enumeration(self):
        for p_s in (0.0, 0.5):
            best, _ = enumerate_best_policy(fig3_oracle_config(p_s))
            table = sx.solve_markov(fig3_model(p_s))
            assert table.lambda_star == pytest.approx(best, abs=1e-6)

    def test_fig3_ps0_value(self):
        # stationary mix of the stop-everywhere rule over the gain chain
        table = sx.solve_markov(fig3_model(0.0))
        expect = (np.log2(1 + 0.1e-3) / 3 + 2 * np.log2(1 + 16e-3) / 3)
        assert table.lambda_star == pytest.approx(expect, abs=1e-9)

    def test_common_access_helps(self):
        lam0 = sx.solve_markov(fig3_model(0.0)).lambda_star
        lam1 = sx.solve_markov(fig3_model(1.0)).lambda_star
        assert lam1 > lam0

    def test_random_small_configs(self):
        rng = np.random.default_rng(2024)
        for _ in range(5):
            nh = int(rng.integers(1, 4))
            ne = int(rng.integers(1, 3))
            bmax = int(rng.integers(1, 4))
            while 2 * bmax * ne * nh > 12:
                bmax = max(1, bmax - 1)
                nh = max(1, nh - 1)
            h_vals = np.sort(2.0 ** rng.uniform(-4, 5, nh))
            Ph = rng.dirichlet(np.ones(nh), size=nh)
            e_units = sorted(set(rng.integers(0, 5, ne).tolist()))
            if not any(e_units):
                e_units = [0, 1][-ne:]
            Pe = rng.dirichlet(np.ones(len(e_units)), size=len(e_units))
            p_s = float(rng.uniform())
            hc = float(2.0 ** rng.uniform(-2, 6))
            oracle = SmallConfig(p_s, bmax, e_units, Pe, h_vals, Ph, hc)
            best, _ = enumerate_best_policy(oracle)
            model = sx.SystemModel(
                private=sx.GainDistribution.markov(
                    sx.MarkovChainSpec(h_vals, Ph)),
                common=sx.GainDistribution.constant(hc),
                access=sx.AccessModel(p_s),
                eh=sx.MarkovChainSpec([float(u) for u in e_units], Pe),
                b_max_units=bmax, delta=1.0)
            table = sx.solve_markov(model)
            assert table.lambda_star == pytest.approx(best, abs=1e-6)

    def test_reducible_harvest_chain_refused(self):
        # the harvest stays at 0 or at 1 unit forever, so the rule's slot
        # chain has one recurrent class per harvest state and no single gain
        model = sx.SystemModel(
            private=sx.GainDistribution.markov(
                sx.MarkovChainSpec([0.1, 16.0], [[0.0, 1.0], [0.5, 0.5]])),
            common=sx.GainDistribution.constant(32.0),
            access=sx.AccessModel(0.5),
            eh=sx.MarkovChainSpec([0.0, 1.0], [[1.0, 0.0], [0.0, 1.0]]),
            b_max_units=2, delta=1.0)
        with pytest.raises(ReducibleChain):
            sx.solve_markov(model)

    def test_markov_workload_with_16_common_bins(self):
        cfg = markov_workload_config(common_bins=16)
        table = sx.solve_markov(cfg.build_model(0.75), cfg.solver)
        # one cell per (battery, harvest state, private-gain state); the
        # access flag and the 16 common-gain bins are summed in each
        assert table.rates.size == 21 * 2 * 4
        # the table read with the engine's comparison, which has no tie
        # margin, is worth lambda_star
        model = cfg.build_model(0.75)
        binned = replace(model, common=sx.discretize_gain(model.common, 16))
        assert abs(cell_gain(binned, table.gamma) - table.lambda_star) <= 1e-9
        coarse = markov_workload_config(common_bins=8)
        lam8 = sx.solve_markov(coarse.build_model(0.75),
                               coarse.solver).lambda_star
        assert table.lambda_star == pytest.approx(lam8, rel=1e-2)

    @pytest.mark.parametrize("p_s, expect", [(0.25, 1.2881497166934794),
                                             (0.75, 1.4845204029145533)])
    def test_markov_workload_lambda_pinned(self, p_s, expect):
        cfg = markov_workload_config()
        table = sx.solve_markov(cfg.build_model(p_s), cfg.solver)
        assert table.lambda_star == pytest.approx(expect, rel=1e-9, abs=0)

    def test_markov_workload_on_the_reachable_grid(self, monkeypatch):
        # harvest units {0, 4} and a 20-unit cap: the DP's chain holds the
        # levels 0, 4, ..., 20 x 2 harvest x 4 private-gain states, and the
        # engine's table has a row per unit, each level's row repeated
        seen = []

        def spy(p, *args, **kwargs):
            seen.append(p.size)
            return _level_gains(p, *args, **kwargs)

        monkeypatch.setattr(savetx.solver, "_level_gains", spy)
        cfg = markov_workload_config()
        table = sx.solve_markov(cfg.build_model(0.75), cfg.solver)
        assert seen == [48] * table.outer_iters
        assert table.gamma.shape == table.rates.shape == (21, 2, 4)
        for u in range(21):
            assert np.array_equal(table.gamma[u], table.gamma[-(-u // 4) * 4])

    def test_state_space_too_large_refused(self, monkeypatch):
        # fig4's defaults ("large" battery, 64 common bins) were refused
        # when the DP ran on every battery unit; on the driver's cut they
        # solve on 32 levels, as a 400-unit battery does
        cfg = sx.validate_config({"experiment": "fig4"})
        model = cfg.build_model(0.5)
        sx.solve_markov(replace(model, b_max_units=40), cfg.solver)  # warm
        tracemalloc.start()
        start = time.perf_counter()
        try:
            table = sx.solve_markov(model, cfg.solver)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 10.0
        assert peak < 5e6
        lam400 = sx.solve_markov(replace(model, b_max_units=400),
                                 cfg.solver).lambda_star
        assert table.lambda_star == pytest.approx(lam400, rel=1e-12, abs=0)
        # under a lowered bound the first cut past it is refused before
        # its moments are computed: 16 levels x 2 harvest states fit in 32
        # cells, and the 64-cell cut that the solve grows to does not
        tops = []

        def spy(model, levels, gamma):
            tops.append(levels.max(initial=0))
            return level_moments(model, levels, gamma)

        level_moments = savetx.solver._level_moments
        monkeypatch.setattr(savetx.solver, "_level_moments", spy)
        monkeypatch.setattr(savetx.solver, "MAX_DP_STATES", 32)
        with pytest.raises(sx.StateSpaceTooLarge,
                           match="64 cells.*b_max_units 10000") as err:
            sx.solve_markov(model, cfg.solver)
        assert not isinstance(err.value, NoConvergence)
        # the top of the 16-level cut holds 60 units
        assert max(tops) == 60

    def test_no_convergence(self, monkeypatch):
        cfg = markov_workload_config()
        monkeypatch.setattr(savetx.solver, "OUTER_MAX_ITERS", 2)
        with pytest.raises(NoConvergence, match="did not settle in 2 "):
            sx.solve_markov(cfg.build_model(0.75), cfg.solver)

    def test_dp_beats_every_threshold(self):
        """On atom-gain models with an i.i.d. private gain the DP's
        optimum is at least every threshold rule's exact throughput: both
        sides are exact, and a threshold rule is one constant table."""
        rng = np.random.default_rng(13)
        models = [iid_model_of(with_iid_private(random_small_config(rng),
                                                rng)) for _ in range(8)]
        # fig3's model, its private chain replaced by the chain's
        # stationary law as an i.i.d. gain
        models += [sx.SystemModel(
            private=sx.GainDistribution.discrete([0.1, 16.0],
                                                 [1 / 3, 2 / 3]),
            common=sx.GainDistribution.constant(32.0),
            access=sx.AccessModel(p_s),
            eh=sx.MarkovChainSpec([1e-3], [[1.0]]),
            b_max_units=1, delta=1e-3) for p_s in (0.0, 0.5, 1.0)]
        gammas = np.r_[0.0, np.geomspace(1e-3, 10.0, 40)]
        for model in models:
            lam = sx.solve_markov(model).lambda_star
            lams = [sx.threshold_metrics(model, g)[0] for g in gammas]
            assert lam >= max(lams) - 1e-9


class TestGainAndBias:
    def test_matches_oracle_on_random_rules(self):
        """Gains of random threshold tables gamma[b, e, h] through the
        solver's evaluator, against the oracle's dense chain of the same
        rule on its grid; half the configurations take an i.i.d. private
        gain, whose table has one h state.  A rule is refused exactly when
        its slot chain has more than one recurrent class."""
        rng = np.random.default_rng(7)
        accepted = 0
        for k in range(30):
            config = random_small_config(rng)
            if k % 2:
                model = iid_model_of(with_iid_private(config, rng))
                shape = (config.nb, config.ne, 1)
            else:
                model = config.system_model()
                shape = (config.nb, config.ne, config.nh)
            top = config.rates().max()
            # each cell stops always (gamma 0), never (above every rate) or
            # at a threshold between
            gammas = np.where(rng.random((5,) + shape) < 0.2, 0.0,
                              rng.uniform(0.0, 1.2 * top, (5,) + shape))
            masks = np.array([grid_rule(config, g) for g in gammas])
            Kc, Kr = config.kernels()
            for gamma, mask, gain in zip(gammas, masks,
                                         policy_gains(config, masks)):
                # one recurrent class per null direction of P - I
                P = np.where(mask[:, None], Kr, Kc)
                sv = np.linalg.svd(P - np.eye(config.n), compute_uv=False)
                if sv[-2] < 1e-9:
                    with pytest.raises(ReducibleChain,
                                       match="recurrent classes"):
                        cell_gain(model, gamma)
                else:
                    assert abs(cell_gain(model, gamma) - gain) <= 1e-10
                    accepted += 1
        assert accepted >= 140


@pytest.fixture(scope="module")
def table():
    return sx.solve_markov(fig3_model(0.5))


class TestValueTableInvariants:
    """The solved fig3 table at p_s 0.5, read through its threshold table
    on the oracle's grid: the value of a state is max(rates, gamma) -
    lambda_star."""

    config = fig3_oracle_config(0.5)

    def test_fixed_point_identity(self, table):
        rates, cont, stop = on_grid(self.config, table)
        chosen = np.where(stop, rates, cont)
        assert np.abs(chosen - np.maximum(rates, cont)).max() < 1e-9

    def test_slack_nonnegative(self, table):
        # the slack max(rates, gamma) - rates is >= 0 by construction, so
        # what is left to check is that the stored rule is worth
        # lambda_star, evaluated on the enumeration oracle's dense chain
        gain, = policy_gains(self.config,
                             grid_rule(self.config, table.gamma)[None])
        assert abs(gain - table.lambda_star) <= 1e-9

    def test_values_monotone_in_battery(self, table):
        rates, cont, _ = on_grid(self.config, table)
        values = np.maximum(rates, cont)
        assert (np.diff(values, axis=1) >= -1e-9).all()

    def test_decision_argmax_consistent(self, table):
        # the rule is the rate/gamma comparison wherever there is energy to
        # send; an empty battery always waits
        rates, cont, stop = on_grid(self.config, table)
        cmp = rates >= cont
        assert (stop[:, 1:] == cmp[:, 1:]).all()
        assert not stop[:, 0].any()
        # the table's stop reward per cell is that rule's, over the access
        # flag (the common gain is constant)
        p_phi = np.array([0.5, 0.5])[:, None, None, None]
        np.testing.assert_allclose(
            table.rates, (p_phi * np.where(stop, rates, 0.0)).sum(axis=0),
            rtol=1e-12, atol=0)

    def test_decisions_scale_invariant(self, table):
        rates, cont, stop = on_grid(self.config, table)
        scaled = rates * 3.0 >= cont * 3.0
        assert (scaled[:, 1:] == stop[:, 1:]).all()


class TestDpDecide:
    """The rule 'stop iff b > 0 and R >= gamma' at (phi, b, e, h) states
    of the oracle's grid."""

    def test_empty_battery_continues(self):
        model = sx.SystemModel(
            private=sx.GainDistribution.markov(
                sx.MarkovChainSpec([0.1, 16.0],
                                   [[0.0, 1.0], [0.5, 0.5]])),
            common=sx.GainDistribution.constant(32.0),
            access=sx.AccessModel(0.5),
            eh=sx.MarkovChainSpec([0.0, 1e-3], [[0.5, 0.5], [0.5, 0.5]]),
            b_max_units=3, delta=1e-3)
        oracle = SmallConfig(0.5, 3, [0, 1], [[0.5, 0.5], [0.5, 0.5]],
                             [0.1, 16.0], [[0.0, 1.0], [0.5, 0.5]], 32.0,
                             delta=1e-3)
        table = sx.solve_markov(model)
        _, _, stop = on_grid(oracle, table)
        # rate 0 meets gamma[0] = 0, and the rule resolves that value tie
        # toward skipping
        assert table.gamma[0, 1, 1] == 0.0
        assert not stop[0, 0, 1, 1]
        assert not stop[:, 0].any()

    def test_peak_rate_state_stops(self):
        oracle = fig3_oracle_config(0.5)
        rates, _, stop = on_grid(oracle, sx.solve_markov(fig3_model(0.5)))
        # access, one unit of energy, private gain 16, common gain 32
        assert stop[1, 1, 0, 1]
        assert rates[1, 1, 0, 1] == rates.max()

    def test_matches_enumerated_policy(self):
        # spot-check the rule at the weak-gain state against the best
        # exhaustively enumerated stationary map
        p_s = 0.0
        oracle = fig3_oracle_config(p_s)
        best, mask = enumerate_best_policy(oracle)
        table = sx.solve_markov(fig3_model(p_s))
        # no access, one unit of energy, private gain 0.1
        at = oracle.index(0, 1, 0, 0)
        assert bool(grid_rule(oracle, table.gamma)[at]) == bool(mask[at])
        # the rule's throughput also matches the enumerated optimum
        assert table.lambda_star == pytest.approx(best, abs=1e-6)


class TestEvaluateThreshold:
    """Monte Carlo metrics of one threshold rule (``run_simulation``)."""

    @staticmethod
    def run(model, gamma, periods=20_000):
        return sx.run_simulation(sx.Policy.threshold(gamma), model, periods,
                                 0, warmup_periods=200,
                                 streams=256)

    def test_zero_threshold_stops_immediately(self):
        m = iid_model(0.5)
        met = self.run(m, 0.0)
        assert met.mean_saving_time == 1.0
        lam0, _ = exact_threshold_metrics(0.0, 0.5)
        assert abs(met.throughput - lam0) < 4 * max(met.se_throughput, 1e-4)

    def test_mean_saving_time_decreases_with_access(self):
        times = [self.run(iid_model(p), 2.0, periods=40_000)
                 .mean_saving_time for p in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert all(a > b for a, b in zip(times, times[1:]))

    def test_matches_renewal_oracle(self):
        m = iid_model(0.5)
        met = self.run(m, 1.5, periods=100_000)
        lam, eT = exact_threshold_metrics(1.5, 0.5)
        assert abs(met.throughput - lam) < 3 * met.se_throughput
        assert abs(met.mean_saving_time - eT) < 3 * met.se_saving_time

    def test_unreachable_threshold_overflows(self, monkeypatch):
        monkeypatch.setattr(savetx.simulate, "SLOT_CAP", 200)
        with pytest.raises(PeriodOverflow, match="200 slots"):
            sx.run_simulation(sx.Policy.threshold(10.0), fig3_model(0.0),
                              100, 0, streams=16)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            self.run(iid_model(0.5), -1.0)


class TestEvaluateThresholds:
    """Monte Carlo metrics of a table of threshold rules in one engine
    pass (``run_policies``)."""

    SIZES = dict(warmup_periods=100, streams=64)
    # gamma = 0, a long-period gamma (4), unsorted, and a duplicate
    GAMMAS = [2.0, 0.0, 4.0, 1.0, 2.0]

    @pytest.mark.parametrize("model", [
        iid_model(0.5),
        sx.SystemModel(
            private=sx.GainDistribution.discrete([0.0, 0.5, 2.0],
                                                 [0.2, 0.5, 0.3]),
            common=sx.GainDistribution.discrete([0.25, 4.0], [0.5, 0.5]),
            access=sx.AccessModel(0.5), eh=sx.make_eh_preset("b"),
            b_max_units=10_000),
        markov_workload_config().build_model(0.75),
    ], ids=["exp-exp", "discrete", "markov-private-preset-c"])
    def test_matches_one_rule_at_a_time(self, model):
        mets = sx.run_policies(thresholds(self.GAMMAS), model, 4000, 7,
                               **self.SIZES)
        assert len(mets) == len(self.GAMMAS)
        for gamma, met in zip(self.GAMMAS, mets):
            one = sx.run_simulation(sx.Policy.threshold(gamma), model, 4000,
                                    7, **self.SIZES)
            for name in ("throughput", "se_throughput", "mean_saving_time",
                         "se_saving_time"):
                got, want = getattr(met, name), getattr(one, name)
                assert got == pytest.approx(want, rel=1e-12, abs=0), name
                assert format_value(got) == format_value(want), name
            assert met.periods == one.periods
            assert met.cap_hit_fraction == one.cap_hit_fraction
        assert mets[0] == mets[4]
        assert mets[2].mean_saving_time > mets[0].mean_saving_time > \
            mets[1].mean_saving_time
        assert sx.run_policies([], model, 4000, 7, **self.SIZES) == []

    def test_one_unreachable_threshold_overflows(self, monkeypatch):
        monkeypatch.setattr(savetx.simulate, "SLOT_CAP", 200)
        with pytest.raises(PeriodOverflow, match="200 slots"):
            sx.run_policies(thresholds([0.0, 10.0]), fig3_model(0.0), 100, 0,
                            streams=16)


def with_iid_private(config: SmallConfig, rng) -> SmallConfig:
    """``config`` with an i.i.d. private gain: every row of its private
    chain becomes one random distribution."""
    config.Ph = np.tile(rng.dirichlet(np.ones(config.nh)), (config.nh, 1))
    return config


def iid_model_of(config: SmallConfig):
    """The same environment with a discrete i.i.d. private gain."""
    return sx.SystemModel(
        private=sx.GainDistribution.discrete(config.h_vals, config.Ph[0]),
        common=sx.GainDistribution.constant(config.hc),
        access=sx.AccessModel(config.ps),
        eh=sx.MarkovChainSpec([float(u) for u in config.e_units],
                              config.Pe),
        b_max_units=config.bmax, delta=config.delta)


class TestStopMoments:
    """One threshold per level, and one private gain per level, give what
    one call per value gives, bit for bit."""

    @pytest.mark.parametrize("private, common", [
        (sx.GainDistribution.discrete([0.0, 0.5, 2.0], [0.2, 0.5, 0.3]),
         sx.GainDistribution.discrete([0.25, 4.0], [0.5, 0.5])),
        (sx.GainDistribution.discrete([0.0, 0.5, 2.0], [0.2, 0.5, 0.3]),
         sx.GainDistribution.exponential(1.5)),
        (sx.GainDistribution.exponential(1.0),
         sx.GainDistribution.exponential(1.0))],
        ids=["atoms", "one-exponential", "two-exponential"])
    def test_thresholds_per_level(self, private, common):
        model = sx.SystemModel(
            private=private, common=common, access=sx.AccessModel(0.5),
            eh=sx.make_eh_preset("b"), b_max_units=10_000)
        rng = np.random.default_rng(5)
        b = np.r_[0.0, rng.uniform(0.1, 40.0, 11)]
        gamma = rng.uniform(0.0, 4.0, len(b))
        gamma[3] = 0.0
        p, r = _stop_moments(model, b, gamma)
        for i, g in enumerate(gamma):
            p1, r1 = _stop_moments(model, b, float(g))
            assert p[i] == p1[i] and r[i] == r1[i]

    @pytest.mark.parametrize("common", [
        sx.GainDistribution.discrete([0.25, 4.0], [0.5, 0.5]),
        sx.GainDistribution.exponential(1.5)], ids=["atoms", "exponential"])
    def test_private_gain_per_level(self, common):
        model = markov_workload_config().build_model(0.5)
        model = replace(model, common=common)
        rng = np.random.default_rng(6)
        b = rng.uniform(0.0, 20.0, 9)
        h = rng.choice(model.private.chain.states, len(b))
        gamma = rng.uniform(0.0, 4.0, len(b))
        p, r = _stop_moments(model, b, gamma, h)
        for i in range(len(b)):
            one = replace(model,
                          private=sx.GainDistribution.constant(h[i]))
            p1, r1 = _stop_moments(one, b, gamma)
            assert p[i] == p1[i] and r[i] == r1[i]


def tail_regimes(b, y, t):
    """Masks of the regimes of ``_tail_rate``'s pieces: one channel (y =
    0), an infinite h_b (y b >= 1), t < h_a, h_a <= t < h_b and t >= h_b."""
    with np.errstate(divide="ignore"):
        yb = y * b
        h_a = y / (1.0 + yb)
        h_b = np.where(yb < 1.0, y / (1.0 - yb), np.inf)
    pair = (y > 0) & (yb < 1.0)
    return [y == 0, (y > 0) & (yb >= 1.0), pair & (t < h_a),
            pair & (h_a <= t) & (t < h_b), pair & (t >= h_b)]


class TestTailRate:
    def test_equals_full_array_form(self):
        """Evaluating each piece only where it applies changes no bit of
        the full-array form, which evaluates every piece everywhere."""
        rng = np.random.default_rng(20)
        # battery levels as a column, as _stop_moments passes them
        b = 10.0 ** rng.uniform(-2.0, 2.0, (120, 1))
        kind = rng.integers(5, size=(120, 100))
        u = rng.uniform(0.01, 0.99, kind.shape)
        y = np.select([kind == 0, kind == 1],
                      [0.0, (1.0 + rng.exponential(1.0, kind.shape)) / b],
                      u / b)
        h_a, h_b = y / (1.0 + u), y / (1.0 - u)
        t = np.select(
            [kind == 0, kind == 1, kind == 2, kind == 3],
            [rng.exponential(2.0, kind.shape),
             2.0 * h_a * rng.exponential(1.0, kind.shape),
             h_a * rng.random(kind.shape),
             h_a + (h_b - h_a) * rng.random(kind.shape)],
            h_b * (1.0 + rng.exponential(0.5, kind.shape)))
        regimes = tail_regimes(np.broadcast_to(b, y.shape), y, t)
        assert min(mask.sum() for mask in regimes) >= 1500
        assert sum(mask.sum() for mask in regimes) == y.size
        for m in (0.5, 1.0, 2.5):
            r = _tail_rate(b, y, t, m)
            assert np.isfinite(r).all()
            assert np.array_equal(r, full_array_tail_rate(b, y, t, m))
            # flat, with one battery level per element
            flat = [a.ravel() for a in np.broadcast_arrays(b, y, t)]
            assert np.array_equal(_tail_rate(*flat, m), r.ravel())

    @pytest.mark.parametrize("b, y, t", [
        (3.0, 0.0, 0.7), (2.0, 0.8, 0.1), (0.5, 1.0, 0.3), (0.5, 1.0, 1.2),
        (0.5, 1.0, 3.0)],
        ids=["one-channel", "no-h_b", "below-h_a", "two-channel", "above-h_b"])
    def test_matches_adaptive_quadrature(self, b, y, t):
        """Against scipy's adaptive quadrature of the rate in nats times
        the exponential density, over g >= t, split at h_a and h_b."""
        from scipy import integrate

        m = 1.5
        assert sum(mask for mask in tail_regimes(b, y, t)).item() == 1
        h_a = y / (1.0 + y * b)
        h_b = y / (1.0 - y * b) if y * b < 1.0 else math.inf
        edges = [t] + [x for x in (h_a, h_b) if t < x < math.inf] \
            + [math.inf]
        ref = sum(integrate.quad(
            lambda g: sx.stop_rate(b, g, y, 1) * math.log(2.0)
            * math.exp(-g / m) / m, lo, hi, epsabs=1e-14, epsrel=1e-12)[0]
            for lo, hi in zip(edges, edges[1:]))
        assert _tail_rate(b, y, t, m) == pytest.approx(ref, rel=1e-10, abs=0)


def solved_chains(monkeypatch, run):
    """The arguments of every slot chain that ``_level_gains`` solves, or
    refuses, while ``run()`` runs, and the error ``run`` raised."""
    seen = []

    def spy(*args, **kwargs):
        seen.append(args)
        return _level_gains(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(savetx.solver, "_level_gains", spy)
        try:
            run()
        except ReducibleChain as err:
            return seen, err
    return seen, None


def oracle_verdict(p, next_b, Pe, Ph, r):
    """The sparse oracle's x, or its ReducibleChain message."""
    try:
        return chain_gains(slot_kernel(p, next_b, Pe, Ph), r)
    except ReducibleChain as err:
        return str(err)


class TestChainGains:
    @staticmethod
    def threshold_chains(monkeypatch, b_max_units, gamma):
        """Every chain that ``_rule_chain`` solves for a threshold on
        fig4's model (harvest units {0, 4}) at p_s 0.5, up to the full
        cap, as the arguments of ``_level_gains``."""
        model = replace(iid_model(0.5), b_max_units=b_max_units)
        seen, _ = solved_chains(monkeypatch, lambda: _rule_chain(
            model, sx.Policy.threshold(gamma).gamma, mass_tol=-1.0))
        return seen

    @staticmethod
    def check(p, next_b, Pe, Ph, r):
        """``_level_gains`` against the sparse oracle, and the oracle
        against a dense solve of [1 | (I - K)[:, 1:]] and, bit for bit,
        against the same matrix built by sparse algebra."""
        from scipy import sparse
        from scipy.sparse.linalg import spsolve

        K = slot_kernel(p, next_b, Pe, Ph)
        x = chain_gains(K, r)
        assert np.abs(_level_gains(p, next_b, Pe, Ph, r) - x).max() <= 1e-13
        m = K.shape[0]
        A = np.eye(m) - K.toarray()
        A[:, 0] = 1.0
        assert np.abs(x - np.linalg.solve(A, r)).max() <= 1e-13
        A = sparse.hstack(
            [np.ones((m, 1)), (sparse.eye_array(m) - K).tocsc()[:, 1:]],
            "csc")
        assert np.array_equal(x, spsolve(A, r))

    @pytest.mark.parametrize("b_max_units", [10, 200])
    @pytest.mark.parametrize("gamma", [0.0, 1.5, 4.0])
    def test_matches_dense_solve(self, monkeypatch, b_max_units, gamma):
        solves = self.threshold_chains(monkeypatch, b_max_units, gamma)
        assert len(solves) == (1 if b_max_units == 10 else 3)
        for args in solves:
            self.check(*args)

    def test_entries_meeting_at_the_cap(self, monkeypatch):
        # at a 4-unit cap a skip and a stop from the top level land on the
        # same cell, the top itself included, and the oracle's K holds
        # both entries
        for gamma in np.linspace(0.0, 4.0, 41):
            (args,) = self.threshold_chains(monkeypatch, 4, gamma)
            K = slot_kernel(*args[:4])
            top = (K.row == K.col) & (K.row == K.shape[0] - 1)
            assert top.sum() == 2
            self.check(*args)

    def test_random_kernels_with_meeting_entries(self):
        """Slot chains on (b, e, h) whose largest harvest fills the
        battery from empty, so that every skip and stop with that harvest
        meet at the cap, with random stop probabilities and chains.  I - K
        sums the two entries before subtracting them from 1, and summing in
        the other order moves the solution in the last bits."""
        rng = np.random.default_rng(21)
        nb, ne, nh = 6, 3, 2
        next_b = np.minimum(np.arange(nb)[:, None] + [0, 2, nb], nb - 1)
        for _ in range(40):
            p = rng.random((nb, ne, nh))
            p[0] = 0.0
            Pe, Ph = rng.dirichlet(np.ones(ne), ne), \
                rng.dirichlet(np.ones(nh), nh)
            self.check(p, next_b, Pe, Ph, rng.random((p.size, 2)))

    def test_two_closed_classes_refused(self):
        from scipy import sparse

        # the oracle: {0, 1} and {2} are closed, and 3 leaks into both
        K = sparse.coo_array(([0.5, 0.5, 1.0, 1.0, 0.3, 0.7],
                              ([0, 0, 1, 2, 3, 3], [0, 1, 0, 2, 0, 2])),
                             shape=(4, 4))
        with pytest.raises(ReducibleChain, match="2 recurrent classes"):
            chain_gains(K, np.ones(4))
        # a harvest chain that never leaves its state: the empty battery
        # without harvest is closed, and so are the harvesting levels
        model = replace(iid_model(0.5), eh=sx.MarkovChainSpec(
            [0.0, 4.0], [[1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(ReducibleChain, match="2 recurrent classes"):
            sx.threshold_metrics(model, 1.5)


class TestThresholdMetrics:
    @pytest.mark.parametrize("p_s", [0.0, 0.5])
    def test_matches_renewal_oracle(self, p_s):
        # at gamma = 0 the oracle stops on an empty battery and the
        # evaluator does not, which moves the mean saving time only
        model = iid_model(p_s)
        for gamma in np.linspace(0.0, 4.0, 21):
            lam, mean_T = sx.threshold_metrics(model, gamma)
            lam_o, mean_T_o = exact_threshold_metrics(gamma, p_s)
            assert abs(lam - lam_o) <= 1e-9
            if gamma > 0:
                assert mean_T == pytest.approx(mean_T_o, rel=1e-9, abs=0)

    def test_matches_enumerated_chain(self):
        """Discrete i.i.d. private gains, a constant common gain and a
        Markov harvest chain, against the dense slot chain of the mask
        'rates >= gamma and b > 0', with gamma between distinct rates."""
        rng = np.random.default_rng(11)
        configs = [random_small_config(rng) for _ in range(12)]
        # a cap that is not a multiple of the harvest unit
        configs.append(SmallConfig(
            0.5, 10, [0, 4], [[0.3, 0.7], [0.6, 0.4]], [0.2, 1.0, 3.0],
            np.eye(3), 2.0))
        checked = 0
        for config in configs:
            model = iid_model_of(with_iid_private(config, rng))
            rates = config.rates()
            charged = np.array([b > 0 for _, b, _, _ in config.states()])
            levels = np.unique(rates[charged])
            for gamma in np.r_[0.0, 0.5 * (levels[1:] + levels[:-1]),
                               levels[-1] + 1.0]:
                mask = (rates >= gamma) & charged
                gain, = policy_gains(config, mask[None, :])
                lam, mean_T = sx.threshold_metrics(model, gamma)
                assert abs(lam - gain) <= 1e-10
                if not mask.any():
                    assert lam == 0.0 and mean_T == math.inf
                checked += 1
        assert checked >= 50

    @pytest.mark.parametrize("preset", ["a", "b", "c", "d"])
    def test_monte_carlo_agrees_on_harvest_presets(self, preset):
        model = fig7_model(preset)
        for gamma in (1.5, 2.0):
            lam, mean_T = sx.threshold_metrics(model, gamma)
            met = sx.run_simulation(sx.Policy.threshold(gamma), model,
                                    100_000, 5, streams=256)
            assert abs(met.throughput - lam) <= 3 * met.se_throughput
            assert abs(met.mean_saving_time - mean_T) <= \
                3 * met.se_saving_time

    def test_monte_carlo_agrees_under_full_access(self):
        # the stop probability jumps where the common gain alone reaches
        # gamma, which a single Gauss-Laguerre rule over the common gain
        # misses by up to 2% per level; the mean saving time shows it most
        model = iid_model(1.0)
        lam, mean_T = sx.threshold_metrics(model, 2.17)
        met = sx.run_simulation(sx.Policy.threshold(2.17), model, 200_000, 1)
        assert abs(met.throughput - lam) <= 3 * met.se_throughput
        assert abs(met.mean_saving_time - mean_T) <= 3 * met.se_saving_time

    def test_stop_moments_match_adaptive_quadrature(self):
        """Both gains exponential, with access, at one battery level:
        scipy's adaptive quadrature of the rate over (h, hc), split where
        the rate changes regime."""
        from scipy import integrate

        b, gamma = 12.0, 2.17
        G = 2.0 ** gamma
        c0 = (G - 1) / b

        @functools.cache  # both references' quadratures meet each hc
        def h_star(hc):  # bisection, not the closed-form inverse
            lo, hi = 0.0, 64.0
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                if not lo < mid < hi:  # adjacent ends: no step moves them
                    break
                lo, hi = (lo, mid) if sx.stop_rate(b, mid, hc, 1) >= gamma \
                    else (mid, hi)
            return hi if hc < c0 else 0.0

        def tail(hc):
            t = h_star(hc)
            edges = [t] + [x for x in (1 / (b + 1 / hc), 1 / (1 / hc - b))
                           if t < x] + [np.inf]
            return sum(integrate.quad(
                lambda h: np.exp(-h) * sx.stop_rate(b, h, hc, 1), lo, hi,
                epsabs=1e-13, epsrel=1e-12)[0]
                for lo, hi in zip(edges, edges[1:]))

        cuts = [0.0, c0 / G, 1 / b, c0, np.inf]
        p_ref = r_ref = 0.0
        for lo, hi in zip(cuts, cuts[1:]):
            p_ref += integrate.quad(lambda c: np.exp(-c - h_star(c)), lo, hi,
                                    epsabs=1e-13, epsrel=1e-12)[0]
            r_ref += integrate.quad(lambda c: np.exp(-c) * tail(c), lo, hi,
                                    epsabs=1e-12, epsrel=1e-11)[0]
        p, r = _stop_moments(iid_model(1.0), np.array([b]), gamma)
        assert p[0] == pytest.approx(p_ref, rel=1e-10, abs=0)
        assert r[0] == pytest.approx(r_ref, rel=1e-9, abs=0)

    # thresholds 1 and 2.5 in log-``base`` units: the base-e cases run as
    # bits at gamma / ln 2, the same stopping rules
    @pytest.mark.parametrize("private, common, base", [
        (sx.GainDistribution.discrete([0.0, 0.5, 2.0], [0.2, 0.5, 0.3]),
         sx.GainDistribution.exponential(1.5), np.e),
        (sx.GainDistribution.exponential(2.0),
         sx.GainDistribution.constant(0.5), 2.0),
        (sx.GainDistribution.constant(1.0),
         sx.GainDistribution.discrete([0.25, 4.0], [0.5, 0.5]), 2.0),
        (sx.GainDistribution.exponential(2.0),
         sx.GainDistribution.exponential(0.5), np.e)])
    def test_monte_carlo_agrees_on_gain_kinds(self, private, common, base):
        model = sx.SystemModel(
            private=private, common=common, access=sx.AccessModel(0.5),
            eh=sx.make_eh_preset("b"), b_max_units=10_000)
        for gamma in (1.0 * math.log2(base), 2.5 * math.log2(base)):
            lam, mean_T = sx.threshold_metrics(model, gamma)
            met = sx.run_simulation(sx.Policy.threshold(gamma), model,
                                    100_000, 9, streams=256)
            assert abs(met.throughput - lam) <= 3 * met.se_throughput
            assert abs(met.mean_saving_time - mean_T) <= \
                3 * met.se_saving_time

    def test_gains_swap_under_full_access(self):
        # with access every slot the rate is symmetric in the two gains,
        # so swapping them inverts the other one and must agree
        discrete = sx.GainDistribution.discrete([0.0, 0.5, 2.0],
                                                [0.2, 0.5, 0.3])
        exponential = sx.GainDistribution.exponential(1.5)
        lams = [sx.threshold_metrics(sx.SystemModel(
            private=pri, common=com, access=sx.AccessModel(1.0),
            eh=sx.make_eh_preset("a"), b_max_units=10_000), 2.0)[0]
            for pri, com in ((discrete, exponential),
                             (exponential, discrete))]
        assert lams[0] == pytest.approx(lams[1], rel=1e-12, abs=0)

    def test_truncation_grows_with_gamma(self):
        model = iid_model(0.0)
        low, high = (_rule_chain(model, sx.Policy.threshold(g).gamma)[1]
                     for g in (1.0, 4.0))
        assert len(low) < len(high) < model.b_max_units // 4

    @pytest.mark.parametrize("gamma", [1.0, 4.0])
    def test_truncation_matches_full_chain(self, gamma):
        # harvest units {0, 4}: a cap of 200 units gives 51 levels
        model = replace(iid_model(0.5), b_max_units=200)
        rule = sx.Policy.threshold(gamma).gamma
        x, levels, _, _ = _rule_chain(model, rule)
        # a negative tolerance never truncates
        x_f, levels_f, _, _ = _rule_chain(model, rule, mass_tol=-1.0)
        assert len(levels) < len(levels_f) == 51
        assert x[0, 0] == pytest.approx(x_f[0, 0], rel=1e-12, abs=0)
        assert x[0, 1] == pytest.approx(x_f[0, 1], rel=1e-12, abs=0)

    @pytest.mark.parametrize("p_s, gamma, expect", [
        (0.0, 1.5, (1.082054143798886, 2.5045534526687834)),
        (0.5, 2.0, (1.3083624179550177, 2.528841652689324)),
        (1.0, 3.1, (1.4267671749348196, 2.9950917707501095))])
    def test_pinned_values(self, p_s, gamma, expect):
        # the level-by-level solve's values, bit for bit, on fig4's model
        # and on atom gains.  The sparse solve gave values within 4e-16
        # relative, each of the two routes off the correctly rounded value
        # by an ulp or two in some of them
        assert sx.threshold_metrics(iid_model(p_s), gamma) == expect
        atoms = sx.SystemModel(
            private=sx.GainDistribution.discrete([0.0, 0.5, 2.0],
                                                 [0.2, 0.5, 0.3]),
            common=sx.GainDistribution.discrete([0.25, 4.0], [0.5, 0.5]),
            access=sx.AccessModel(0.5), eh=sx.make_eh_preset("b"),
            b_max_units=10_000)
        assert sx.threshold_metrics(atoms, 1.0) == \
            (1.3825557737197043, 2.0370370370370368)

    def test_threshold_gain_inverts_rate(self):
        rng = np.random.default_rng(3)
        b = 10.0 ** rng.uniform(-2, 2, 2000)
        c = np.where(rng.random(2000) < 0.1, 0.0,
                     10.0 ** rng.uniform(-3, 2, 2000))
        G = 1.0 + 10.0 ** rng.uniform(-3, 3, 2000)
        h = _threshold_gain(b, c, G)
        at = sx.stop_rate(b, h, c, 1)
        below = sx.stop_rate(b, h * (1 - 1e-9), c, 1)
        reached = h > 0
        assert np.allclose(at[reached], np.log2(G[reached]), rtol=1e-11,
                           atol=0)
        assert (below[reached] < np.log2(G[reached])).all()
        # h = 0 exactly when the other channel alone reaches the target
        assert (np.log2(1 + c * b)[~reached] >=
                np.log2(G[~reached]) - 1e-12).all()

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"), -1.0])
    def test_bad_gamma_rejected(self, gamma):
        model = iid_model(0.5)
        with pytest.raises(ValueError, match="finite"):
            sx.threshold_metrics(model, gamma)
        with pytest.raises(ValueError, match="finite"):
            sx.Policy.threshold(gamma)

    def test_markov_private_gain_matches_enumerated_chain(self):
        """A constant threshold on a Markov private gain, whose chain the
        rule's slot chain carries, against the oracle's dense chain of the
        same rule on its grid."""
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(12):
            config = random_small_config(rng)
            model = config.system_model()
            rates = config.rates()
            charged = np.array([b > 0 for _, b, _, _ in config.states()])
            levels = np.unique(rates[charged])
            for gamma in np.r_[0.0, 0.5 * (levels[1:] + levels[:-1]),
                               levels[-1] + 1.0]:
                rule = sx.Policy.threshold(gamma).gamma
                gain, = policy_gains(config, grid_rule(config, rule)[None])
                lam, _ = sx.threshold_metrics(model, gamma)
                assert abs(lam - gain) <= 1e-12
                checked += 1
        assert checked >= 50

    @pytest.mark.parametrize("p_s", [0.25, 0.75])
    def test_markov_private_gain_matches_unit_grid(self, p_s):
        # the markov workload's model: harvest units {0, 4}, so the driver
        # solves 6 of the 21 battery units, and an exponential common gain
        model = markov_workload_config().build_model(p_s)
        for gamma in (0.5, 1.5, 2.5):
            lam, mean_T = sx.threshold_metrics(model, gamma)
            lam_u, stops_u = unit_grid_metrics(model, gamma)
            assert lam == pytest.approx(lam_u, rel=1e-12, abs=0)
            assert mean_T == pytest.approx(1.0 / stops_u, rel=1e-12, abs=0)


class TestOptimizeThreshold:
    def test_iid_low_access_optimum_near_calibrated_value(self):
        gamma, (lam, _) = sx.optimize_threshold(iid_model(0.0))
        assert 1.25 <= gamma <= 1.75
        assert lam > 1.0

    def test_iid_high_access_optimum_near_two(self):
        gamma, _ = sx.optimize_threshold(iid_model(0.75))
        assert 1.75 <= gamma <= 2.35

    def test_scan_is_unimodal_in_constant_world(self):
        model = sx.SystemModel(
            private=sx.GainDistribution.constant(1.0),
            common=sx.GainDistribution.constant(1.0),
            access=sx.AccessModel(0.0),
            eh=sx.MarkovChainSpec([1.0], [[1.0]]),
            b_max_units=100_000, delta=1.0)
        lams = [m.throughput for m in sx.run_policies(
            thresholds(np.linspace(0.0, 8.0, 21)), model, 2000, 0,
            streams=128)]
        k = int(np.argmax(lams))
        assert all(x <= y + 1e-12 for x, y in zip(lams[:k], lams[1:k + 1]))
        assert all(x >= y - 1e-12 for x, y in zip(lams[k:], lams[k + 1:]))

    def test_markov_private_gain_searched(self):
        # fig3's model: its best threshold is worth the best of a scan
        model = fig3_model(0.5)
        gamma, pair = sx.optimize_threshold(model)
        assert pair == sx.threshold_metrics(model, gamma)
        # the mean saving time, 1 / stops, is a float, not a numpy scalar
        assert [type(v) for v in pair] == [float, float]
        scan = [sx.threshold_metrics(model, g)[0]
                for g in np.linspace(0.0, 4.0, 81)]
        assert pair[0] >= max(scan) - 1e-9

    def test_search_is_exact(self, monkeypatch):
        """The search simulates nothing, and its optimum has exact regret
        at most 1e-4 against the benchmark's reference optimum."""
        def no_mc(*args, **kwargs):
            raise AssertionError("the threshold search ran Monte Carlo")

        monkeypatch.setattr(savetx.simulate, "run_simulation", no_mc)
        # the period engine, which run_policies reaches directly
        monkeypatch.setattr(savetx.simulate, "_run_block", no_mc)
        refs = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                           / "references.json").read_text())
        for p_s, key in ((0.0, "0"), (0.5, "0.5")):
            gamma, pair = sx.optimize_threshold(iid_model(p_s))
            best = refs["search"]["lambda_opt"][key]
            lam, _ = exact_threshold_metrics(gamma, p_s)
            assert (best - lam) / best <= 1e-4
            assert pair[0] == pytest.approx(lam, abs=1e-9)
            # the pair is the exact evaluator's, not a second estimate
            assert pair == sx.threshold_metrics(iid_model(p_s), gamma)


class TestSolverConfig:
    def test_fields_are_the_solver_knobs(self):
        # Monte Carlo sizes and the seed live in the mc block and the seed;
        # the iteration cap and the threshold search are constants
        assert [f.name for f in fields(sx.SolverConfig)] == ["common_bins"]

    def test_validation(self):
        for bins in (1, 8.0, True):
            with pytest.raises(ValueError, match="^common_bins: "):
                sx.SolverConfig(common_bins=bins)


# harvest state 0 is transient: the chain leaves it for 4 and never returns
TRANSIENT_EH = sx.MarkovChainSpec([0.0, 4.0], [[0.5, 0.5], [0.0, 1.0]])
# each harvest state is closed
TWO_CLASSES = sx.MarkovChainSpec([0.0, 4.0], [[1.0, 0.0], [0.0, 1.0]])


class TestOneClosedClass:
    """Every layer accepts a chain with one closed class, transient states
    allowed, and refuses one with several closed classes with
    ReducibleChain."""

    @pytest.mark.parametrize("p_s", [0.0, 0.5])
    def test_transient_harvest_state_runs_on_every_layer(self, p_s):
        model = replace(iid_model(p_s), eh=TRANSIENT_EH)
        lam, _ = sx.threshold_metrics(model, 1.5)
        _, (best, _) = sx.optimize_threshold(model)
        assert best >= lam
        met = sx.run_simulation(sx.Policy.threshold(1.5), model, 50_000,
                                seed=3)
        assert abs(met.throughput - lam) <= 5.102 * met.se_throughput
        be = sx.run_simulation(sx.Policy.threshold(0.0), model, 20_000,
                               seed=3)
        cv = sx.run_conventional_supply(model, 2.0, 20_000, seed=3)
        assert be.throughput > 0 and cv.throughput > 0
        cfg = markov_workload_config()
        dp_model = replace(cfg.build_model(p_s), eh=TRANSIENT_EH)
        table = sx.solve_markov(dp_model, cfg.solver)
        dp = sx.run_simulation(sx.Policy.dp(table), dp_model, 2_000, seed=3)
        assert table.lambda_star > 0 and dp.throughput > 0

    def test_transient_private_state_is_left_for_good(self):
        # the gain leaves 0.5 for 2 and stays there, so the long-run
        # throughput is that of a constant gain of 2
        cfg = markov_workload_config()
        model = cfg.build_model(0.5)
        chain = sx.MarkovChainSpec([0.5, 2.0], [[0.5, 0.5], [0.0, 1.0]])
        got = sx.solve_markov(
            replace(model, private=sx.GainDistribution.markov(chain)),
            cfg.solver).lambda_star
        want = sx.solve_markov(
            replace(model, private=sx.GainDistribution.constant(2.0)),
            cfg.solver).lambda_star
        assert got == pytest.approx(want, rel=1e-12)

    @staticmethod
    def assert_oracle_verdicts(chains):
        """Each chain is solved as the sparse oracle solves it, or refused
        with the oracle's count of closed classes; returns the number of
        chains solved."""
        solved = 0
        for args in chains:
            want = oracle_verdict(*args)
            if isinstance(want, str):
                with pytest.raises(ReducibleChain) as err:
                    _level_gains(*args)
                assert str(err.value) == want
            else:
                got = _level_gains(*args)
                assert np.abs(got - want).max() <= \
                    1e-13 * max(1.0, np.abs(want).max())
                solved += 1
        return solved

    def test_closed_classes_counted_as_the_oracle_counts(self, monkeypatch):
        """The level-by-level solve counts closed classes structurally;
        the oracle counts them by strongly connected components."""
        cfg = markov_workload_config()
        markov = cfg.build_model(0.5)
        private = sx.GainDistribution.markov(
            sx.MarkovChainSpec([0.5, 2.0], [[0.5, 0.5], [0.0, 1.0]]))
        runs = {
            "transient eh": lambda: sx.threshold_metrics(
                replace(iid_model(0.5), eh=TRANSIENT_EH), 1.5),
            "transient eh, DP": lambda: sx.solve_markov(
                replace(markov, eh=TRANSIENT_EH), cfg.solver),
            "two classes": lambda: sx.threshold_metrics(
                replace(iid_model(0.5), eh=TWO_CLASSES), 1.5),
            "two classes, DP": lambda: sx.solve_markov(
                replace(markov, eh=TWO_CLASSES), cfg.solver),
            "transient private state": lambda: sx.solve_markov(
                replace(markov, private=private), cfg.solver),
        }
        for name, run in runs.items():
            chains, err = solved_chains(monkeypatch, run)
            assert (err is None) == ("two classes" not in name), name
            assert chains, name
            self.assert_oracle_verdicts(chains)

    def test_random_level_chains_counted_as_the_oracle_counts(self):
        """Random level-structured chains with stop probabilities of 0 and
        1, absorbing harvest and gain states and harvests that reach the
        cap, against the oracle's verdict and count."""
        rng = np.random.default_rng(28)

        def chain(k):  # a random chain, some entries 0, some rows absorbing
            P = rng.dirichlet(np.ones(k), k) * (rng.random((k, k)) >= 0.4)
            P[P.sum(axis=1) == 0, 0] = 1.0
            absorbing = rng.random(k) < 0.3
            P[absorbing] = np.eye(k)[absorbing]
            return P / P.sum(axis=1, keepdims=True)

        chains = []
        for _ in range(40):
            nb, ne, nh = (int(v) for v in rng.integers(1, [7, 4, 3]))
            next_b = np.minimum(np.arange(nb)[:, None]
                                + rng.integers(0, nb + 1, ne), nb - 1)
            p = rng.random((nb, ne, nh))
            p[0] = 0.0
            p[rng.random(p.shape) < 0.3] = 0.0
            p[rng.random(p.shape) < 0.1] = 1.0
            chains.append((p, next_b, chain(ne), chain(nh),
                           rng.random((p.size, 2))))
        solved = self.assert_oracle_verdicts(chains)
        assert 10 <= solved <= 30

    def test_classes_split_by_parity_of_the_levels(self):
        # the harvest alternates between two states of one unit each and
        # every cell stops at level 10 and above: a stop from (10, e)
        # restarts at (1, e'), e' the other state, and each parity of the
        # levels below is its own class, which levels 2 to 9 of equal data
        # hand down one level at a time
        p = np.zeros((12, 2, 1))
        p[10:] = 1.0
        next_b = np.minimum(np.arange(12)[:, None] + [1, 1], 11)
        chain = (p, next_b, np.array([[0.0, 1.0], [1.0, 0.0]]),
                 np.ones((1, 1)), np.ones((24, 1)))
        assert oracle_verdict(*chain) == \
            "the rule's chain has 2 recurrent classes"
        self.assert_oracle_verdicts([chain])

    def test_empty_battery_closed(self):
        # a harvest state that harvests nothing and is never left: the
        # empty battery is the one closed class, and it never stops
        eh = sx.MarkovChainSpec([0.0, 4.0], [[1.0, 0.0], [0.5, 0.5]])
        assert sx.threshold_metrics(replace(iid_model(0.5), eh=eh), 1.5) \
            == (0.0, math.inf)
        cfg = markov_workload_config()
        table = sx.solve_markov(replace(cfg.build_model(0.5), eh=eh),
                                cfg.solver)
        assert abs(table.lambda_star) <= 1e-15

    def test_rule_that_never_stops(self):
        # fig3's model under a threshold above every rate: the chain climbs
        # to the top level and stays there
        model = fig3_model(0.5)
        assert sx.threshold_metrics(model, 100.0) == (0.0, math.inf)
        x = _rule_chain(model, np.full((1, 1, 1), 100.0))[0]
        assert x[0, 2] == 1.0

    def test_two_closed_classes_refused_by_every_layer(self):
        model = replace(iid_model(0.5), eh=TWO_CLASSES)
        cfg = markov_workload_config()
        two_class_gain = sx.GainDistribution.markov(TWO_CLASSES)
        for run in (
                lambda: sx.stationary_distribution(TWO_CLASSES),
                lambda: sx.threshold_metrics(model, 1.5),
                lambda: sx.solve_markov(
                    replace(cfg.build_model(0.5), eh=TWO_CLASSES),
                    cfg.solver),
                lambda: sx.run_simulation(sx.Policy.threshold(1.5), model,
                                          1_000, seed=1),
                lambda: sx.run_conventional_supply(model, 2.0, 1_000,
                                                   seed=1),
                lambda: sx.solve_water_level(two_class_gain, model.common,
                                             model.access, 2.0)):
            with pytest.raises(ReducibleChain):
                run()


# the model of the benchmark's search workload, a fig8 table
SEARCH_MODEL = {"private": {"kind": "exponential", "mean": 1.0},
                "common": {"kind": "exponential", "mean": 1.0},
                "eh": {"preset": "a"}, "delta": 1.0, "b_max_units": "large"}


def search_model(p_s):
    return sx.validate_config(
        {"experiment": "fig8", **SEARCH_MODEL}).build_model(p_s)


def plan_models():
    """Models of every stop-moment route: fig8's exponential gains with
    and without access, fig3's Markov private gain, i.i.d. atoms, and a
    transient harvest state."""
    rng = np.random.default_rng(32)
    fig8 = sx.validate_config({"experiment": "fig8"})
    return {
        **{f"fig8 p_s {p_s}": fig8.build_model(p_s)
           for p_s in (0.0, 0.5, 1.0)},
        "fig3 Markov private": fig3_model(0.5),
        "atoms": iid_model_of(with_iid_private(random_small_config(rng),
                                               rng)),
        "transient harvest": replace(iid_model(0.5), eh=TRANSIENT_EH),
    }


class TestChainPlans:
    """The search shares its grid's stop moments and, with the DP, each
    chain's structure; neither moves a bit of any result."""

    def test_grid_moments_are_single_calls(self):
        grid = np.linspace(0.0, savetx.solver.GAMMA_HI,
                           savetx.solver.GRID_POINTS)
        for name, model in plan_models().items():
            levels = grid_levels(model)[:16]
            batched = _grid_moments(model, grid)
            assert len(batched) == len(grid), name
            for g, got in zip(grid, batched):
                want = _level_moments(model, levels,
                                      np.full((len(levels), 1, 1), g))
                for a, b in zip(got, want):
                    assert a.shape == b.shape, name
                    assert a.tobytes() == b.tobytes(), (name, g)

    def test_search_equals_per_threshold_search(self):
        for name, model in plan_models().items():
            assert sx.optimize_threshold(model) == \
                reference_threshold_search(model), name

    def test_three_plans_per_search(self, monkeypatch):
        """On the search workload's model each search solves 43 (p_s 0)
        and 39 (p_s 0.5) chains of 3 structures, and its grid's 21 first
        cuts take one ``_level_moments`` call; every later solve computes
        the levels its cut adds."""
        calls = {"plans": 0, "solves": 0, "moments": []}

        def chain_plan(*args):
            calls["plans"] += 1
            return plan(*args)

        def level_gains(*args, **kwargs):
            calls["solves"] += 1
            return gains(*args, **kwargs)

        def level_moments(model, levels, gamma):
            calls["moments"].append(len(levels))
            return moments(model, levels, gamma)

        plan, gains, moments = (savetx.solver._chain_plan, _level_gains,
                                _level_moments)
        monkeypatch.setattr(savetx.solver, "_chain_plan", chain_plan)
        monkeypatch.setattr(savetx.solver, "_level_gains", level_gains)
        monkeypatch.setattr(savetx.solver, "_level_moments", level_moments)
        for p_s, solves in ((0.0, 43), (0.5, 39)):
            calls.update(plans=0, solves=0, moments=[])
            sx.optimize_threshold(search_model(p_s))
            assert calls["plans"] == 3
            assert calls["solves"] == solves
            assert calls["moments"][0] == 21 * 16
            assert len(calls["moments"]) == 1 + solves - 21

    def test_refused_on_every_evaluation(self, monkeypatch):
        """Chains with two closed classes share one plan, and each
        evaluation is refused with the oracle's count."""
        model = replace(iid_model(0.5), eh=TWO_CLASSES)
        plans = {}
        for gamma in np.linspace(0.0, 4.0, 9):
            chains, err = solved_chains(monkeypatch, lambda: _rule_chain(
                model, np.full((1, 1, 1), gamma), plans=plans))
            assert err is not None
            assert str(err) == oracle_verdict(*chains[-1])
            with pytest.raises(ReducibleChain) as again:
                _level_gains(*chains[-1], plans=plans)
            assert str(again.value) == str(err)
        assert len(plans) < 9
        with pytest.raises(ReducibleChain):
            sx.optimize_threshold(model)
