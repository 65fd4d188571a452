import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import savetx as sx
from savetx.simulate import _run_block

from oracles import advance_battery, exact_threshold_metrics, fresh_carry, \
    markov_workload_config, run_period


def constant_world(delta=1e-3, h=1.0, p_s=0.0):
    return sx.SystemModel(
        private=sx.GainDistribution.constant(h),
        common=sx.GainDistribution.constant(h),
        access=sx.AccessModel(p_s),
        eh=sx.MarkovChainSpec([delta], [[1.0]]),
        b_max_units=1, delta=delta)


def iid_model(p_s):
    return sx.validate_config({"experiment": "fig4"}).build_model(p_s)


def fig3_model(p_s):
    return sx.validate_config({"experiment": "fig3"}).build_model(p_s)


class TestAdvanceBattery:
    def test_clipping(self):
        assert advance_battery(5e-3, 2e-3, 6, 1e-3) == pytest.approx(6e-3)

    def test_from_empty(self):
        assert advance_battery(0.0, 1e-3, 6, 1e-3) == pytest.approx(1e-3)

    def test_saturated(self):
        cap = 6 * 1e-3
        assert advance_battery(cap, 4e-3, 6, 1e-3) == cap

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            advance_battery(-1.0, 0.0, 1, 1.0)

    @given(st.floats(0, 100), st.floats(0, 100), st.integers(1, 1000),
           st.floats(0.001, 10))
    @settings(max_examples=200, deadline=None)
    def test_bounds(self, b, e, units, delta):
        out = advance_battery(b, e, units, delta)
        assert 0 <= out <= units * delta or out == b  # b may start over cap
        assert out <= max(b, units * delta)


class TestRunPeriod:
    def test_zero_threshold_one_slot(self):
        rng = np.random.default_rng(0)
        model = iid_model(0.5)
        carry = fresh_carry(model, rng)
        for _ in range(50):
            out = run_period(sx.Policy.threshold(0.0), model, rng,
                             carry=carry)
            assert out.saving_slots == 1

    def test_one_state_world_stops_immediately(self):
        model = constant_world()
        table = sx.solve_markov(model)
        rng = np.random.default_rng(1)
        carry = fresh_carry(model, rng)
        for _ in range(20):
            out = run_period(sx.Policy.dp(table), model, rng, carry=carry)
            assert out.saving_slots == 1
            assert out.rate_at_stop == pytest.approx(np.log2(1 + 1e-3))

    def test_energy_accounting(self):
        model = sx.SystemModel(
            private=sx.GainDistribution.exponential(1.0),
            common=sx.GainDistribution.exponential(1.0),
            access=sx.AccessModel(0.5),
            eh=sx.MarkovChainSpec([0.0, 4.0], [[0.1, 0.9], [0.9, 0.1]]),
            b_max_units=6, delta=1.0)  # small cap so clipping happens
        rng = np.random.default_rng(7)
        carry = fresh_carry(model, rng)
        cap = model.b_cap
        total_harvest = carry.b
        total_spent = 0.0
        saw_clip = False
        for _ in range(2000):
            b_start = carry.b
            out = run_period(sx.Policy.threshold(3.0), model, rng,
                             carry=carry)
            # battery bookkeeping closes exactly over the saving phase
            assert out.energy_spent == pytest.approx(
                b_start + out.harvested - out.clipped, abs=1e-9)
            assert 0.0 <= out.energy_spent <= cap
            saw_clip = saw_clip or out.clipped > 0
            total_harvest += out.harvested + (carry.b - 0.0)
            total_spent += out.energy_spent
            assert total_spent <= total_harvest + 1e-9
        assert saw_clip

    def test_overflow_guard(self):
        model = fig3_model(0.0)
        rng = np.random.default_rng(0)
        with pytest.raises(sx.PeriodOverflow):
            run_period(sx.Policy.threshold(10.0), model, rng, slot_cap=50)


class TestRunSimulation:
    def test_constant_world_exact(self):
        model = constant_world()
        met = sx.run_simulation(sx.Policy.threshold(0.0), model, 500,
                                seed=3, warmup_periods=0, replications=2,
                                streams=25)
        assert met.throughput == pytest.approx(np.log2(1 + 1e-3), rel=1e-14)
        assert met.se_throughput == 0.0
        assert met.mean_saving_time == 1.0
        assert met.periods == 500

    def test_short_run_se_unknown(self):
        # fewer than two records per batch: the SE is unknown, not zero
        met = sx.run_simulation(sx.Policy.threshold(2.0), iid_model(0.5), 30,
                                seed=1)
        assert met.throughput > 0
        assert np.isnan(met.se_throughput) and np.isnan(met.se_saving_time)
        # 10,000 slots on 512 streams leave 32 per-slot means
        cv = sx.run_conventional(iid_model(0.5), 2.0, 10_000, seed=3)
        assert cv.throughput > 0 and np.isnan(cv.se_throughput)

    def test_bitwise_determinism(self):
        model = iid_model(0.5)
        kw = dict(warmup_periods=50, replications=3, streams=64)
        a = sx.run_simulation(sx.Policy.threshold(2.0), model, 3000, 11, **kw)
        b = sx.run_simulation(sx.Policy.threshold(2.0), model, 3000, 11, **kw)
        assert a == b

    def test_matches_exact_oracle(self):
        model = iid_model(0.5)
        met = sx.run_simulation(sx.Policy.threshold(2.0), model, 100_000,
                                seed=5, warmup_periods=500, replications=8,
                                streams=256)
        lam, eT = exact_threshold_metrics(2.0, 0.5)
        assert abs(met.throughput - lam) < 3 * met.se_throughput
        assert abs(met.mean_saving_time - eT) < 3 * met.se_saving_time

    def test_single_stream_matches_scalar_path(self):
        """A one-stream engine run is the scalar oracle, draw for draw:
        every trace column of every period agrees exactly.  The oracle's
        energy ledger (criterion 09) thereby holds for the engine too."""
        model = iid_model(0.5)
        pol = sx.Policy.threshold(2.0)
        met = sx.run_simulation(pol, model, 200, seed=42, warmup_periods=0,
                                replications=1, streams=1)
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(42).spawn(1)[0]))
        carry = fresh_carry(model, rng)
        outs = [run_period(pol, model, rng, carry=carry)
                for _ in range(200)]
        assert met.mean_saving_time == np.mean(
            [o.saving_slots for o in outs])
        got = sum(o.rate_at_stop for o in outs) \
            / sum(o.saving_slots for o in outs)
        assert met.throughput == pytest.approx(got, rel=1e-12)

        markov_cfg = markov_workload_config()
        markov_model = markov_cfg.build_model(0.75)
        cases = [
            (model, pol),
            (fig3_model(0.5), sx.Policy.dp(sx.solve_markov(fig3_model(0.5)))),
            (markov_model, sx.Policy.dp(sx.solve_markov(markov_model,
                                                        markov_cfg.solver))),
        ]
        n = 300
        for case_model, case_pol in cases:
            rng = np.random.Generator(np.random.PCG64(7))
            rec, _, _ = _run_block(case_pol, case_model, 0, n, rng, 1,
                                   1_000_000)
            rng = np.random.Generator(np.random.PCG64(7))
            carry = fresh_carry(case_model, rng)
            outs = [run_period(case_pol, case_model, rng, carry=carry)
                    for _ in range(n)]
            columns = {
                "T": [o.saving_slots for o in outs],
                "b": [o.stop_state.b for o in outs],
                "phi": [o.stop_state.phi for o in outs],
                "h": [o.stop_state.h for o in outs],
                "hc": [o.stop_state.h_common for o in outs],
                "rate": [o.rate_at_stop for o in outs],
            }
            assert set(rec) == set(columns)
            for name, want in columns.items():
                assert rec[name].tolist() == want, name

    def test_records_held_once(self):
        """Peak traced memory of one 50k-period evaluation: the engine keeps
        only the trace columns, and the per-replication records are freed
        once concatenated.  The bound sits between two measurements with
        numpy 2.4: 4.73 MB for this engine, 7.36 MB for one that also
        recorded per-period harvest and clipping and kept the records
        beside their concatenation."""
        model = iid_model(0.5)
        cfg = sx.SolverConfig(mc_periods=50_000, mc_seed=20240501)
        sx.evaluate_threshold(model, 2.0, cfg)
        tracemalloc.start()
        try:
            sx.evaluate_threshold(model, 2.0, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6.0e6

    def test_trace_roundtrip(self, tmp_path):
        model = iid_model(0.5)
        path = tmp_path / "trace.csv"
        met = sx.run_simulation(sx.Policy.threshold(1.0), model, 200,
                                seed=9, warmup_periods=0, replications=1,
                                streams=16, trace_path=path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == met.periods
        assert set(rows[0]) == {"period", "saving_slots", "b_stop", "phi",
                                "h", "h_common", "rate"}
        # the reported throughput is exactly the trace's renewal ratio
        num = sum(float(r["rate"]) for r in rows)
        den = sum(int(r["saving_slots"]) for r in rows)
        assert met.throughput == pytest.approx(num / den, rel=1e-9)

    def test_battery_respects_cap_in_trace(self, tmp_path):
        model = sx.SystemModel(
            private=sx.GainDistribution.exponential(1.0),
            common=sx.GainDistribution.exponential(1.0),
            access=sx.AccessModel(0.5),
            eh=sx.MarkovChainSpec([0.0, 4.0], [[0.5, 0.5], [0.5, 0.5]]),
            b_max_units=8, delta=1.0)
        path = tmp_path / "trace.csv"
        met = sx.run_simulation(sx.Policy.threshold(4.0), model, 2000,
                                seed=2, warmup_periods=0, replications=2,
                                streams=64, trace_path=path)
        with open(path, newline="") as fh:
            b_stops = [float(r["b_stop"]) for r in csv.DictReader(fh)]
        assert max(b_stops) <= model.b_cap + 1e-12
        assert min(b_stops) >= 0.0
        assert met.cap_hit_fraction > 0.0


class TestBestEffort:
    def test_constant_world_exact(self):
        met = sx.run_best_effort(constant_world(), 2000, seed=1,
                                 warmup_slots=0, replications=2, streams=20)
        assert met.throughput == pytest.approx(np.log2(1 + 1e-3), rel=1e-14)
        assert met.mean_saving_time == 1.0

    def test_half_zero_energy_slots(self):
        model = sx.SystemModel(
            private=sx.GainDistribution.exponential(1.0),
            common=sx.GainDistribution.exponential(1.0),
            access=sx.AccessModel(0.0),
            eh=sx.MarkovChainSpec([0.0, 4.0], [[0.5, 0.5], [0.5, 0.5]]),
            b_max_units=10, delta=1.0)
        met = sx.run_best_effort(model, 200_000, seed=4, warmup_slots=0)
        # exp(1) private gain, budget 4 on half the slots
        expect = 0.5 * np.sum(
            np.polynomial.laguerre.laggauss(64)[1]
            * np.log2(1 + 4 * np.polynomial.laguerre.laggauss(64)[0]))
        assert met.throughput == pytest.approx(expect, rel=0.02)

    @pytest.mark.parametrize("p_s", [0.5, 1.0])
    def test_matches_stop_always_rule_on_fig3(self, p_s):
        model = fig3_model(p_s)
        table = sx.solve_markov(model)
        assert table.stop_table[:, 1:].all()  # stop everywhere charged
        streams, slots, reps = 64, 400, 2
        n = streams * slots * reps
        met_dp = sx.run_simulation(sx.Policy.dp(table), model, n, seed=7,
                                   warmup_periods=0, replications=reps,
                                   streams=streams)
        met_be = sx.run_best_effort(model, n, seed=7, warmup_slots=0,
                                    replications=reps, streams=streams)
        assert met_dp.throughput == pytest.approx(met_be.throughput,
                                                  rel=1e-12)
        assert abs(met_dp.throughput - met_be.throughput) <= \
            2 * (met_dp.se_throughput + met_be.se_throughput) + 1e-12


class TestConventional:
    def test_constant_world(self):
        model = constant_world(delta=1.0, h=1.0)
        met = sx.run_conventional(model, 2.0, 2000, seed=1, replications=2,
                                  streams=20)
        assert met.throughput == pytest.approx(np.log2(3.0), rel=1e-9)
        assert met.realized_avg_power == pytest.approx(2.0, rel=1e-9)

    def test_realized_power_near_target(self):
        model = iid_model(0.5)
        met = sx.run_conventional(model, 2.0, 1_000_000, seed=3)
        assert abs(met.realized_avg_power - 2.0) / 2.0 < 0.01

    def test_water_level_reused(self):
        model = iid_model(0.5)
        level = sx.solve_water_level(model.private, model.common,
                                     model.access, 2.0)
        met = sx.run_conventional(model, 2.0, 10_000, seed=3,
                                  water_level=level)
        assert met.throughput > 0


class TestConstantRateExact:
    """A constant per-slot rate c is reported as exactly c.

    Plain floating-point means of n copies of c miss c by an ulp for many n,
    which breaks the zero-SE equalities of acceptance criterion 04.
    """

    SIZES = [(2000, 20, 2), (100_000, 512, 4), (50_000, 64, 3),
             (62_976, 512, 16)]

    @pytest.mark.parametrize("p_s", [0.0, 1.0])
    @pytest.mark.parametrize("n, streams, reps", SIZES)
    def test_best_effort_and_zero_threshold(self, p_s, n, streams, reps):
        model = constant_world(p_s=p_s)
        c = float(sx.stop_rate(1e-3, 1.0, 1.0, int(p_s), model.log_base))
        be = sx.run_best_effort(model, n, seed=1, replications=reps,
                                streams=streams)
        opp = sx.run_simulation(sx.Policy.threshold(0.0), model, n, seed=1,
                                replications=reps, streams=streams)
        assert be.throughput == c
        assert opp.throughput == c

    @pytest.mark.parametrize("p_s", [0.0, 1.0])
    @pytest.mark.parametrize("n, streams, reps", SIZES)
    def test_conventional(self, p_s, n, streams, reps):
        model = constant_world(delta=1.0, h=1.0, p_s=p_s)
        level = sx.solve_water_level(model.private, model.common,
                                     model.access, 2.0)
        p = sx.conventional_power(1.0, level)
        c = float(np.log2(1.0 + p) + p_s * np.log2(1.0 + p))
        met = sx.run_conventional(model, 2.0, n, seed=1, water_level=level,
                                  replications=reps, streams=streams)
        assert met.throughput == c
        assert met.realized_avg_power == p + p_s * p


class TestMetricsValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            sx.Metrics(throughput=-1.0, mean_saving_time=1.0,
                       se_throughput=0.0, se_saving_time=0.0, periods=1,
                       cap_hit_fraction=0.0)
        with pytest.raises(ValueError):
            sx.Metrics(throughput=1.0, mean_saving_time=1.0,
                       se_throughput=-0.1, se_saving_time=0.0, periods=1,
                       cap_hit_fraction=0.0)
