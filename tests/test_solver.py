import numpy as np
import pytest

import savetx as sx
from savetx.errors import NoConvergence, PeriodOverflow
from savetx.solver import _DPSpace, _gain_and_bias

from oracles import SmallConfig, enumerate_best_policy, \
    exact_threshold_metrics, markov_workload_config, policy_gains, \
    random_small_config


def fig3_model(p_s):
    return sx.validate_config({"experiment": "fig3"}).build_model(p_s)


def iid_model(p_s):
    return sx.validate_config({"experiment": "fig4"}).build_model(p_s)


def degenerate_model(delta=1e-3):
    """Constant unit gain, constant harvest of one unit, one-unit battery."""
    return sx.SystemModel(
        private=sx.GainDistribution.constant(1.0),
        common=sx.GainDistribution.constant(1.0),
        access=sx.AccessModel(0.0),
        eh=sx.MarkovChainSpec([delta], [[1.0]]),
        b_max_units=1, delta=delta)


def fig3_oracle_config(p_s):
    return SmallConfig(
        ps=p_s, bmax=1, e_units=[1], Pe=[[1.0]],
        h_vals=[0.1, 16.0], Ph=[[0.0, 1.0], [0.5, 0.5]],
        hc=32.0, delta=1e-3)


class TestValueIteration:
    def test_degenerate_fixed_point(self):
        model = degenerate_model()
        lam = float(np.log2(1 + 1e-3))
        table = sx.value_iteration(model, lam)
        full = sx.SystemState(phi=0, b=1e-3, e_prev=1e-3, h=1.0,
                              h_common=1.0)
        idx = table.state_indices(full)
        assert table.values[idx] == pytest.approx(0.0, abs=1e-9)
        assert sx.dp_decide(table, full) == "stop"

    def test_zero_cost_dominates_rates(self):
        model = fig3_model(0.5)
        table = sx.value_iteration(model, 0.0)
        assert (table.values >= table.rates - 1e-9).all()
        best = np.unravel_index(np.argmax(table.rates), table.rates.shape)
        assert bool(table.stop_table[best])

    def test_slack_nonnegative_at_trial_lambda(self):
        model = fig3_model(0.5)
        table = sx.value_iteration(model, 0.0153)
        assert (table.slack() >= -1e-9).all()

    def test_no_convergence(self):
        cfg = sx.SolverConfig(value_iter_max_sweeps=1, value_iter_tol=1e-14)
        with pytest.raises(NoConvergence):
            sx.value_iteration(fig3_model(0.5), 0.01, cfg)


class TestSolveMarkov:
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
        with pytest.raises(NoConvergence):
            sx.solve_markov(model)

    def test_markov_workload_with_16_common_bins(self):
        cfg = markov_workload_config(common_bins=16)
        table = sx.solve_markov(cfg.build_model(0.75), cfg.solver)
        assert table.rates.size == 2 * 21 * 2 * 4 * 16
        assert (table.slack() >= -1e-9).all()
        coarse = markov_workload_config(common_bins=8)
        lam8 = sx.solve_markov(coarse.build_model(0.75),
                               coarse.solver).lambda_star
        assert table.lambda_star == pytest.approx(lam8, rel=1e-2)


class TestGainAndBias:
    def test_matches_oracle_on_random_rules(self):
        """Gains of arbitrary rules, including rules that read the access
        flag and rules that stop at an empty battery; a rule is refused
        exactly when its slot chain has more than one recurrent class."""
        rng = np.random.default_rng(7)
        accepted = 0
        for _ in range(30):
            config = random_small_config(rng)
            space = _DPSpace(config.system_model(), sx.SolverConfig())
            masks = rng.random((5, config.n)) < rng.uniform(0, 1, (5, 1))
            Kc, Kr = config.kernels()
            for mask, gain in zip(masks, policy_gains(config, masks)):
                # one recurrent class per null direction of P - I
                P = np.where(mask[:, None], Kr, Kc)
                sv = np.linalg.svd(P - np.eye(config.n), compute_uv=False)
                stop = mask.reshape(space.shape)
                if sv[-2] < 1e-9:
                    with pytest.raises(NoConvergence,
                                       match="recurrent classes"):
                        _gain_and_bias(space, stop)
                else:
                    lam, _ = _gain_and_bias(space, stop)
                    assert abs(lam - gain) <= 1e-10
                    accepted += 1
        assert accepted >= 140


@pytest.fixture(scope="module")
def table():
    return sx.solve_markov(fig3_model(0.5))


class TestValueTableInvariants:

    def test_fixed_point_identity(self, table):
        recon = np.maximum(table.rates, table.continuation) \
            - table.lambda_star
        assert np.abs(table.values - recon).max() < 1e-9

    def test_slack_nonnegative(self, table):
        assert (table.slack() >= -1e-9).all()

    def test_values_monotone_in_battery(self, table):
        assert (np.diff(table.values, axis=1) >= -1e-9).all()

    def test_decision_argmax_consistent(self, table):
        # the rule is the rate/continuation comparison wherever there is
        # energy to send; an empty battery always waits
        stop = table.stop_table
        cmp = table.rates >= table.continuation
        charged = table.b_values > 0
        assert (stop == (cmp & charged[None, :, None, None, None])).all()
        assert not stop[:, 0].any()

    def test_decisions_scale_invariant(self, table):
        charged = (table.b_values > 0)[None, :, None, None, None]
        scaled = (table.rates * 3.0 >= table.continuation * 3.0) & charged
        assert (scaled == table.stop_table).all()


class TestDpDecide:
    def test_empty_battery_continues(self):
        model = sx.SystemModel(
            private=sx.GainDistribution.markov(
                sx.MarkovChainSpec([0.1, 16.0],
                                   [[0.0, 1.0], [0.5, 0.5]])),
            common=sx.GainDistribution.constant(32.0),
            access=sx.AccessModel(0.5),
            eh=sx.MarkovChainSpec([0.0, 1e-3], [[0.5, 0.5], [0.5, 0.5]]),
            b_max_units=3, delta=1e-3)
        st0 = sx.SystemState(phi=0, b=0.0, e_prev=1e-3, h=16.0,
                             h_common=32.0)
        # a trial table at zero waiting cost has strictly positive
        # continuation at the empty battery; the solved table resolves the
        # value tie there toward skipping
        trial = sx.value_iteration(model, 0.0)
        idx = trial.state_indices(st0)
        assert trial.continuation[idx] > 0
        assert sx.dp_decide(trial, st0) == "continue"
        table = sx.solve_markov(model)
        assert sx.dp_decide(table, st0) == "continue"

    def test_peak_rate_state_stops(self):
        table = sx.solve_markov(fig3_model(0.5))
        st1 = sx.SystemState(phi=1, b=1e-3, e_prev=1e-3, h=16.0,
                             h_common=32.0)
        assert sx.dp_decide(table, st1) == "stop"

    def test_matches_enumerated_policy(self):
        # spot-check the rule at the weak-gain state against the best
        # exhaustively enumerated stationary map
        p_s = 0.0
        oracle = fig3_oracle_config(p_s)
        best, mask = enumerate_best_policy(oracle)
        table = sx.solve_markov(fig3_model(p_s))
        st_bad = sx.SystemState(phi=0, b=1e-3, e_prev=1e-3, h=0.1,
                                h_common=32.0)
        oracle_stops = bool(mask[oracle.index(0, 1, 0, 0)])
        assert (sx.dp_decide(table, st_bad) == "stop") == oracle_stops
        # the rule's throughput also matches the enumerated optimum
        assert table.lambda_star == pytest.approx(best, abs=1e-6)


class TestEvaluateThreshold:
    def make_cfg(self, periods=20_000, seed=0):
        return sx.SolverConfig(b_max_units=10_000, delta=1.0,
                               mc_periods=periods, mc_warmup_periods=200,
                               mc_replications=4, mc_streams=256,
                               mc_seed=seed)

    def test_zero_threshold_stops_immediately(self):
        m = iid_model(0.5)
        met = sx.evaluate_threshold(m, 0.0, self.make_cfg())
        assert met.mean_saving_time == 1.0
        lam0, _ = exact_threshold_metrics(0.0, 0.5)
        assert abs(met.throughput - lam0) < 4 * max(met.se_throughput, 1e-4)

    def test_mean_saving_time_decreases_with_access(self):
        cfg = self.make_cfg(periods=40_000)
        times = [sx.evaluate_threshold(iid_model(p), 2.0, cfg)
                 .mean_saving_time for p in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert all(a > b for a, b in zip(times, times[1:]))

    def test_matches_renewal_oracle(self):
        m = iid_model(0.5)
        met = sx.evaluate_threshold(m, 1.5, self.make_cfg(periods=100_000))
        lam, eT = exact_threshold_metrics(1.5, 0.5)
        assert abs(met.throughput - lam) < 3 * met.se_throughput
        assert abs(met.mean_saving_time - eT) < 3 * met.se_saving_time

    def test_unreachable_threshold_overflows(self):
        cfg = sx.SolverConfig(mc_periods=100, mc_replications=1,
                              mc_streams=16, slot_cap=200)
        with pytest.raises(PeriodOverflow):
            sx.evaluate_threshold(fig3_model(0.0), 10.0, cfg)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            sx.evaluate_threshold(iid_model(0.5), -1.0)


class TestOptimizeThreshold:
    def test_iid_low_access_optimum_near_calibrated_value(self):
        cfg = sx.SolverConfig(b_max_units=10_000, delta=1.0,
                              mc_periods=50_000, mc_warmup_periods=200,
                              mc_replications=4, mc_streams=512, mc_seed=3)
        policy = sx.optimize_threshold(iid_model(0.0), cfg)
        assert 1.25 <= policy.gamma <= 1.75
        assert policy.lambda_star > 1.0

    def test_iid_high_access_optimum_near_two(self):
        cfg = sx.SolverConfig(b_max_units=10_000, delta=1.0,
                              mc_periods=50_000, mc_warmup_periods=200,
                              mc_replications=4, mc_streams=512, mc_seed=3)
        policy = sx.optimize_threshold(iid_model(0.75), cfg)
        assert 1.75 <= policy.gamma <= 2.35

    def test_scan_is_unimodal_in_constant_world(self):
        model = sx.SystemModel(
            private=sx.GainDistribution.constant(1.0),
            common=sx.GainDistribution.constant(1.0),
            access=sx.AccessModel(0.0),
            eh=sx.MarkovChainSpec([1.0], [[1.0]]),
            b_max_units=100_000, delta=1.0)
        cfg = sx.SolverConfig(mc_periods=2000, mc_replications=2,
                              mc_streams=128, mc_seed=0, gamma_hi=8.0)
        lams = [sx.evaluate_threshold(model, g, cfg).throughput
                for g in np.linspace(0.0, 8.0, 21)]
        k = int(np.argmax(lams))
        assert all(x <= y + 1e-12 for x, y in zip(lams[:k], lams[1:k + 1]))
        assert all(x >= y - 1e-12 for x, y in zip(lams[k:], lams[k + 1:]))

    def test_markov_gains_rejected(self):
        with pytest.raises(ValueError):
            sx.optimize_threshold(fig3_model(0.5))


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            sx.SolverConfig(lambda_tol=0.0)
        with pytest.raises(ValueError):
            sx.SolverConfig(b_max_units=0)
