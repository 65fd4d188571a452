import csv
import tracemalloc
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import savetx as sx
import savetx.simulate
from savetx.simulate import _refill, _run_block

from oracles import advance_battery, conventional_power, \
    exact_threshold_metrics, fig3_oracle_config, fresh_carry, grid_rule, \
    markov_workload_config, refill_indices, run_period, run_supplies_per_slot


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
            out = run_period(sx.Policy(table.gamma), model, rng, carry=carry)
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


class TestPolicy:
    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"), -1.0])
    def test_bad_threshold_rejected(self, gamma):
        # a NaN threshold never stops, so it would run to the slot cap
        with pytest.raises(ValueError, match="finite"):
            sx.Policy.threshold(gamma)

    def test_one_read_only_table(self):
        table = sx.solve_markov(fig3_model(0.5))
        for rule, want in ((sx.Policy.threshold(2.0), np.full((1, 1, 1), 2.0)),
                           (sx.Policy(table.gamma), table.gamma)):
            np.testing.assert_array_equal(rule.gamma, want)
            assert not rule.gamma.flags.writeable
        with pytest.raises(ValueError, match="3 axes"):
            sx.Policy(np.zeros((2, 2)))

    def test_nan_entry_refused(self):
        # a NaN entry never stops (rate >= nan is False), so its lanes ran
        # to the slot cap before PeriodOverflow
        table = np.zeros((3, 1, 1))
        table[1] = np.nan
        with pytest.raises(ValueError, match="^gamma: "):
            sx.Policy(table)
        # a DP table's Cg - Cg[0] may lie below 0, and inf never stops
        for entry in (-1.0, np.inf):
            rule = sx.Policy(np.full((1, 1, 1), entry))
            assert rule.gamma[0, 0, 0] == entry


class TestRunSimulation:
    def test_constant_world_exact(self):
        model = constant_world()
        met = sx.run_policies([sx.Policy.threshold(0.0)], model, 500,
                              seed=3, warmup_periods=0, streams=25)[0]
        assert met.throughput == pytest.approx(np.log2(1 + 1e-3), rel=1e-14)
        assert met.se_throughput == 0.0
        assert met.mean_saving_time == 1.0
        assert met.periods == 500

    @pytest.mark.parametrize("key, value", [
        ("n_periods", 0), ("warmup_periods", -1), ("streams", 0),
        ("replications", 0), ("slot_cap", 0), ("n_periods", float("nan")),
        ("n_periods", 2.5), ("warmup_periods", True), ("slot_cap", 10.0)])
    def test_bad_sizes_rejected(self, key, value):
        # streams=0 divided by zero and n_periods=2.5 recorded 3 periods;
        # the period engine takes no replications at all, and its slot cap
        # is the constant SLOT_CAP
        args = {"n_periods": 100, "warmup_periods": 0, key: value}
        error = TypeError if key in ("replications", "slot_cap") \
            else ValueError
        with pytest.raises(error, match=key):
            sx.run_policies([sx.Policy.threshold(0.0)], constant_world(),
                            seed=1, **args)

    @pytest.mark.parametrize("key, value", [
        ("n_slots", 0), ("streams", 0), ("replications", 0),
        ("n_slots", 100.5), ("streams", 4.5), ("streams", True)])
    def test_bad_supply_sizes_rejected(self, key, value):
        # the supply runs the engine's lanes and takes no replications
        args = {"n_slots": 100, "seed": 1, key: value}
        error = TypeError if key == "replications" else ValueError
        with pytest.raises(error, match=key):
            sx.run_conventional_supply(constant_world(), 2.0, **args)

    def test_mixed_rules_match_solo_runs(self):
        # a DP rule and threshold rules share one engine pass, and each
        # row gets exactly what a run of its rule alone would
        cfg = markov_workload_config()
        model = cfg.build_model(0.75)
        rules = [sx.Policy.threshold(1.0),
                 sx.Policy(sx.solve_markov(model, cfg.solver).gamma),
                 sx.Policy.threshold(2.5)]
        kw = dict(warmup_periods=100, streams=64)
        got = sx.run_policies(rules, model, 4000, 3, **kw)
        assert got == [sx.run_policies([r], model, 4000, 3, **kw)[0]
                       for r in rules]

    def test_mixed_access_rows_match_solo_runs(self, tmp_path):
        # the rows of one pass may hold different p_s: each compares the
        # slot's one access uniform with its own p_s, and gets what a run
        # of its rule alone on its model would, trace included
        cfg = markov_workload_config()
        dp_model = cfg.build_model(0.75)
        cases = [(sx.Policy.threshold(1.0), cfg.build_model(0.0)),
                 (sx.Policy(sx.solve_markov(dp_model, cfg.solver).gamma),
                  dp_model),
                 (sx.Policy.threshold(1.5), cfg.build_model(0.25)),
                 (sx.Policy.threshold(2.5), dp_model)]
        kw = dict(warmup_periods=100, streams=64)
        grid, solo = tmp_path / "grid.csv", tmp_path / "solo.csv"
        for first in (0, 2):  # trace the p_s 0 row, then the p_s 0.25 row
            rules, models = map(list, zip(*cases[first:], *cases[:first]))
            got = sx.run_policies(rules, models, 4000, 3, trace_path=grid,
                                  **kw)
            assert got == [sx.run_policies([r], m, 4000, 3, **kw)[0]
                           for r, m in zip(rules, models)]
            sx.run_policies([rules[0]], models[0], 4000, 3, trace_path=solo,
                            **kw)
            assert grid.read_bytes() == solo.read_bytes()

    @pytest.mark.parametrize("field, value", [
        ("eh", sx.MarkovChainSpec([0.0, 4.0], [[0.9, 0.1], [0.1, 0.9]])),
        ("private", sx.GainDistribution.exponential(2.0)),
        ("b_max_units", 30)])
    def test_pass_refuses_models_differing_beyond_access(self, field,
                                                         value):
        # one pass draws one slot stream, which serves every p_s but one
        # model of everything else
        model = iid_model(0.5)
        other = replace(iid_model(0.25), **{field: value})
        with pytest.raises(ValueError, match=f"differ in {field},"):
            sx.run_conventional_supply([model, other], 2.0, 1000, seed=1,
                                       streams=20)
        with pytest.raises(ValueError, match=f"differ in {field},"):
            sx.run_policies([sx.Policy.threshold(1.0)] * 2, [model, other],
                            100, seed=1)

    def test_pass_needs_one_model_or_one_per_rule(self):
        models = [iid_model(0.0), iid_model(0.5)]
        with pytest.raises(ValueError, match="2 models for 3 rules"):
            sx.run_policies([sx.Policy.threshold(1.0)] * 3, models, 100, 1)
        assert sx.run_conventional_supply([], 2.0, 1000, seed=1) == []

    @pytest.mark.parametrize("b_max_units, eh, axis", [
        (30, None, "battery axis has length 21"),
        (10, None, "battery axis has length 21"),
        (20, sx.MarkovChainSpec([0.0, 2.0, 4.0], np.full((3, 3), 1 / 3)),
         "harvest axis has length 2")])
    def test_rule_table_must_fit_model(self, b_max_units, eh, axis):
        # a b_max 30 model raised a bare IndexError, and a b_max 10 model
        # ran the b_max 20 table silently
        cfg = markov_workload_config()
        model = cfg.build_model(0.75)
        rule = sx.Policy(sx.solve_markov(model, cfg.solver).gamma)
        other = sx.SystemModel(
            private=model.private, common=model.common, access=model.access,
            eh=eh or model.eh, b_max_units=b_max_units, delta=model.delta)
        with pytest.raises(ValueError, match=axis):
            sx.run_policies([rule], other, 100, seed=1)

    def test_short_run_se_unknown(self):
        # fewer than two records per batch: the SE is unknown, not zero
        met = sx.run_policies([sx.Policy.threshold(2.0)], iid_model(0.5), 30,
                              seed=1)[0]
        assert met.throughput > 0
        assert np.isnan(met.se_throughput) and np.isnan(met.se_saving_time)
        # 16 lanes leave 4 of the N_BATCHES lane groups empty
        cv, = sx.run_conventional_supply(iid_model(0.5), 2.0, 10_000, seed=3,
                                         streams=16)
        assert cv.throughput > 0 and np.isnan(cv.se_throughput)
        # the supply's period is one slot, so its mean length and that
        # length's SE are exact, however few the lanes
        assert cv.se_saving_time == 0.0 and cv.mean_saving_time == 1.0
        # best-effort, the gamma = 0 rule, also ends every period in one
        # slot, but the engine batches its lengths as it does any rule's
        be = sx.run_policies([sx.Policy.threshold(0.0)], iid_model(0.5),
                             10_000, seed=3, streams=16)[0]
        assert np.isnan(be.se_throughput)
        assert np.isnan(be.se_saving_time) and be.mean_saving_time == 1.0

    def test_bitwise_determinism(self):
        model = iid_model(0.5)
        kw = dict(warmup_periods=50, streams=64)
        rules = [sx.Policy.threshold(2.0)]
        a = sx.run_policies(rules, model, 3000, 11, **kw)
        b = sx.run_policies(rules, model, 3000, 11, **kw)
        assert a == b

    def test_matches_exact_oracle(self):
        model = iid_model(0.5)
        met = sx.run_policies([sx.Policy.threshold(2.0)], model, 100_000,
                              seed=5, warmup_periods=500, streams=256)[0]
        lam, eT = exact_threshold_metrics(2.0, 0.5)
        assert abs(met.throughput - lam) < 3 * met.se_throughput
        assert abs(met.mean_saving_time - eT) < 3 * met.se_saving_time

    def test_single_stream_matches_scalar_path(self):
        """A one-stream engine run is the scalar oracle, draw for draw:
        every trace column of every period agrees exactly.  The oracle's
        energy ledger (criterion 09) thereby holds for the engine too."""
        model = iid_model(0.5)
        pol = sx.Policy.threshold(2.0)
        met = sx.run_policies([pol], model, 200, seed=42, warmup_periods=0,
                              streams=1)[0]
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
        # i.i.d. exponential gains: the DP's private axis is read at 0
        iid_dp_model = sx.SystemModel(
            private=sx.GainDistribution.exponential(1.0),
            common=sx.GainDistribution.exponential(1.0),
            access=sx.AccessModel(0.5),
            eh=sx.MarkovChainSpec([0.0, 2.0], [[0.6, 0.4], [0.3, 0.7]]),
            b_max_units=6, delta=1.0)
        iid_dp_table = sx.solve_markov(iid_dp_model,
                                       sx.SolverConfig(common_bins=4))
        # each cell integrates the i.i.d. private gain: one h state
        assert iid_dp_table.gamma.shape == (7, 2, 1)
        cases = [
            (model, pol),
            (fig3_model(0.5),
             sx.Policy(sx.solve_markov(fig3_model(0.5)).gamma)),
            (markov_model, sx.Policy(sx.solve_markov(
                markov_model, markov_cfg.solver).gamma)),
            (iid_dp_model, sx.Policy(iid_dp_table.gamma)),
        ]
        n = 300
        for case_model, case_pol in cases:
            rng = np.random.Generator(np.random.PCG64(7))
            _, rec = _run_block([case_pol], case_model, 0, n, rng, 1,
                                trace=True)
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
                assert rec[name].ravel().tolist() == want, name

    def test_records_held_once(self):
        """Peak traced memory of one 50k-period evaluation: each record is
        held once.  The bound sits between two measurements with numpy 2.4:
        4.73 MB for an engine that kept every record's trace columns until
        the end, 7.36 MB for one that also recorded per-period harvest and
        clipping and kept the records beside their concatenation.  An
        engine that reduced the records into per-lane-group sums as they
        arrived peaked at 0.09 MB, and one adding them into per-lane sums,
        folded into the lane groups once, at 0.11 MB.  This one reads its
        draws from the slot stream's 32-slot block (0.52 MB) and peaks at
        0.89 MB."""
        model = iid_model(0.5)
        rule = sx.Policy.threshold(2.0)
        sx.run_policies([rule], model, 50_000, 20240501)
        tracemalloc.start()
        try:
            sx.run_policies([rule], model, 50_000, 20240501)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6.0e6

    def test_threshold_table_records_reduced(self):
        """Peak traced memory of a 21-threshold, 50k-period evaluation in
        one pass.  The bound sits between two measurements with numpy 2.4:
        4.09 MB for an engine that reduced each of 16 replications' records
        into batch sums, and 41.1 MB for the same pass keeping every row's
        records until the end.  An engine that reduced the records into
        per-lane-group sums as they arrived peaked at 1.18 MB (1.24 MB
        with a ``stop_rate`` that gathered and scattered by mask), and one
        adding them into (rules, lanes) sums, folded into the lane groups
        once after the pass, at 1.67 MB.  This one also reads its draws
        from the slot stream's 32-slot block and peaks at 2.09 MB."""
        model = iid_model(0.5)
        rules = [sx.Policy.threshold(g) for g in np.linspace(0.0, 4.0, 21)]
        sx.run_policies(rules, model, 50_000, 20240501)
        tracemalloc.start()
        try:
            sx.run_policies(rules, model, 50_000, 20240501)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6.0e6

    def test_sweep_pass_memory(self):
        """Peak traced memory of one pass of the sweep benchmark's p_s = 0
        half: 21 thresholds on 512 lanes, 50k periods.  The bound sits
        between two measurements with numpy 2.4: 2.09 MB for this engine,
        which reads its draws from one 32-slot block of the slot stream
        (0.52 MB) and keeps a row's sums apart only once the row leaves,
        and 2.33 MB for the same engine holding every row's final sums in
        an array from the start.  An engine that drew each slot's values
        as it ran them peaked at 1.78 MB."""
        model = iid_model(0.0)
        rules = [sx.Policy.threshold(g) for g in np.linspace(0.0, 4.0, 21)]
        sx.run_policies(rules, model, 50_000, 20240501)
        tracemalloc.start()
        try:
            sx.run_policies(rules, model, 50_000, 20240501)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.3e6

    @pytest.mark.parametrize("p_s", [0.0, 0.5])
    def test_lanes_do_useful_work(self, p_s, monkeypatch):
        """At least 90% of the lane evaluations of a 21-threshold,
        50k-period pass on the sweep's models belong to recorded periods:
        0.95 with refill, against 0.42-0.44 for lockstep replications, whose
        every stream ran until the slowest had its quota."""
        evals = []

        def counted(b, *args):
            evals.append(np.size(b))
            return sx.stop_rate(b, *args)

        monkeypatch.setattr(sx.simulate, "stop_rate", counted)
        rules = [sx.Policy.threshold(g) for g in np.linspace(0.0, 4.0, 21)]
        mets = sx.run_policies(rules, iid_model(p_s), 50_000, 20240501)
        recorded = sum(m.periods * m.mean_saving_time for m in mets)
        assert recorded >= 0.9 * sum(evals)

    @pytest.mark.parametrize("case", ["markov-dp", "fig4-threshold",
                                      "best-effort", "conventional"])
    def test_lane_group_se_calibrated(self, case):
        """Over 40 seeds, the sd of z = (MC - exact) / SE lies between 0.68
        and 1.5, the 0.001 and 0.999 quantiles of the sd of 40 t(19)
        draws.  The sd is taken about the mean, so the offset of the binned
        DP's lambda* from its rule's throughput on the drawn gains does not
        count.  Batches of consecutive period indices, time slices of every
        lane, gave 2.26 on the markov workload's DP rule, whose harvest and
        private-gain chains carry over from one period to the next.

        Best-effort is the gamma = 0 rule on an i.i.d. model with
        preset-c harvesting, centred on its exact throughput.  The
        conventional supply batches the same lane groups; it runs the
        markov workload's model and, with no exact value in the library,
        is centred on the mean of its 40 runs."""
        if case == "markov-dp":
            cfg = markov_workload_config()
            model = cfg.build_model(0.75)
            table = sx.solve_markov(model, cfg.solver)
            rule, exact = sx.Policy(table.gamma), table.lambda_star
        elif case == "fig4-threshold":
            model = iid_model(0.5)
            rule = sx.Policy.threshold(2.0)
            exact, _ = sx.threshold_metrics(model, 2.0)
        if case in ("markov-dp", "fig4-threshold"):
            mets = [sx.run_policies([rule], model, 4000, seed,
                                    warmup_periods=100, streams=64)[0]
                    for seed in range(1, 41)]
        elif case == "best-effort":
            model = sx.validate_config({"experiment": "fig4",
                                        "eh": {"preset": "c"}}
                                       ).build_model(0.5)
            exact, _ = sx.threshold_metrics(model, 0.0)
            mets = [sx.run_policies([sx.Policy.threshold(0.0)], model,
                                    32_000, seed, warmup_periods=100,
                                    streams=64)[0]
                    for seed in range(1, 41)]
        else:
            model = markov_workload_config().build_model(0.75)
            mets = [sx.run_conventional_supply(model, 2.0, 32_000, seed,
                                               streams=64)[0]
                    for seed in range(1, 41)]
            exact = np.mean([m.throughput for m in mets])
        z = [(m.throughput - exact) / m.se_throughput for m in mets]
        assert 0.68 <= np.std(z, ddof=1) <= 1.5

    def test_trace_roundtrip(self, tmp_path):
        model = iid_model(0.5)
        path = tmp_path / "trace.csv"
        met = sx.run_policies([sx.Policy.threshold(1.0)], model, 200,
                              seed=9, warmup_periods=0, streams=16,
                              trace_path=path)[0]
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
        met = sx.run_policies([sx.Policy.threshold(4.0)], model, 2000,
                              seed=2, warmup_periods=0, streams=64,
                              trace_path=path)[0]
        with open(path, newline="") as fh:
            b_stops = [float(r["b_stop"]) for r in csv.DictReader(fh)]
        assert max(b_stops) <= model.b_cap + 1e-12
        assert min(b_stops) >= 0.0
        assert met.cap_hit_fraction > 0.0


class TestRefill:
    @given(st.integers(1, 4), st.integers(1, 12), st.integers(1, 40),
           st.lists(st.integers(0, 3), min_size=4, max_size=4),
           st.booleans(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_index_queue(self, rows, lanes, n_periods, room, start,
                                 seed):
        """``_refill``'s recording mask is the oracle's ``cur >= 0`` and
        its ``taken`` the oracle's, slot after slot: from the all-lanes
        call of a pass with no warm-up, or from queues within 3 indices of
        their end, so that they run out mid-slot."""
        rng = np.random.default_rng(seed)
        if start:
            taken = np.zeros(rows, dtype=np.int64)
            cur = np.full((rows, lanes), -1)
            take = np.ones((rows, lanes), dtype=bool)
        else:
            taken = np.maximum(n_periods - np.array(room[:rows]), 0)
            cur = np.where(rng.random((rows, lanes)) < 0.5, -1,
                           rng.integers(0, n_periods, (rows, lanes)))
            take = rng.random((rows, lanes)) < rng.random()
        recording = cur >= 0
        for _ in range(6):
            recording, counted = _refill(take, recording, taken, n_periods)
            cur, taken = refill_indices(take, cur, taken, n_periods)
            np.testing.assert_array_equal(recording, cur >= 0)
            np.testing.assert_array_equal(counted, taken)
            take = rng.random((rows, lanes)) < rng.random()


class TestPeriodOverflow:
    @pytest.mark.parametrize("k", [2, 5, 9])
    @pytest.mark.parametrize("warmup, n", [(0, 8), (0, 50), (40, 50)])
    def test_guard_at_the_longest_period(self, k, warmup, n, monkeypatch):
        """One unit of harvest per slot, constant gains and no access: the
        battery after t slots holds t units, so a rule with gamma the rate
        at k units ends every period in exactly k slots.  The pass runs at
        ``SLOT_CAP = k`` and overflows at ``k - 1``, also when it lasts k
        slots in all (8 lanes, 8 periods, no warm-up); a rule that stops
        every slot shares the pass and does not change that."""
        model = sx.SystemModel(
            private=sx.GainDistribution.constant(1.0),
            common=sx.GainDistribution.constant(1.0),
            access=sx.AccessModel(0.0),
            eh=sx.MarkovChainSpec([1.0], [[1.0]]),
            b_max_units=k, delta=1.0)
        rules = [sx.Policy.threshold(0.0),
                 sx.Policy.threshold(float(sx.stop_rate(k, 1.0, 1.0, 0)))]
        kw = dict(warmup_periods=warmup, streams=8)
        monkeypatch.setattr(savetx.simulate, "SLOT_CAP", k)
        quick, slow = sx.run_policies(rules, model, n, 1, **kw)
        assert quick.mean_saving_time == 1.0
        assert slow.mean_saving_time == k and slow.periods == n
        monkeypatch.setattr(savetx.simulate, "SLOT_CAP", k - 1)
        with pytest.raises(sx.PeriodOverflow, match=f"{k - 1} slots"):
            sx.run_policies(rules, model, n, 1, **kw)


class TestBestEffort:
    """Best-effort is the engine's gamma = 0 rule: every slot stops and
    spends the harvest of the slot before, held in the battery."""

    def test_constant_world_exact(self):
        met = sx.run_policies([sx.Policy.threshold(0.0)], constant_world(),
                              2000, seed=1, streams=20)[0]
        assert met.throughput == pytest.approx(np.log2(1 + 1e-3), rel=1e-14)
        assert met.mean_saving_time == 1.0

    def test_half_zero_energy_slots(self):
        model = sx.SystemModel(
            private=sx.GainDistribution.exponential(1.0),
            common=sx.GainDistribution.exponential(1.0),
            access=sx.AccessModel(0.0),
            eh=sx.MarkovChainSpec([0.0, 4.0], [[0.5, 0.5], [0.5, 0.5]]),
            b_max_units=10, delta=1.0)
        met = sx.run_policies([sx.Policy.threshold(0.0)], model, 200_000,
                              seed=4)[0]
        # exp(1) private gain, budget 4 on half the slots
        expect = 0.5 * np.sum(
            np.polynomial.laguerre.laggauss(64)[1]
            * np.log2(1 + 4 * np.polynomial.laguerre.laggauss(64)[0]))
        assert met.throughput == pytest.approx(expect, rel=0.02)

    @pytest.mark.parametrize("p_s", [0.5, 1.0])
    def test_matches_stop_always_rule_on_fig3(self, p_s):
        model = fig3_model(p_s)
        table = sx.solve_markov(model)
        oracle = fig3_oracle_config(p_s)
        stop = grid_rule(oracle, table.gamma).reshape(2, oracle.nb, -1)
        assert stop[:, 1:].all()  # stop everywhere charged
        # the DP rule and best-effort share one pass, as in the fig3 table
        streams, slots = 64, 800
        n = streams * slots
        met_dp, met_be = sx.run_policies(
            [sx.Policy(table.gamma), sx.Policy.threshold(0.0)], model, n,
            seed=7, warmup_periods=0, streams=streams)
        assert met_dp.throughput == pytest.approx(met_be.throughput,
                                                  rel=1e-12)
        assert abs(met_dp.throughput - met_be.throughput) <= \
            2 * (met_dp.se_throughput + met_be.se_throughput) + 1e-12

    @pytest.mark.parametrize("workload", ["search", "markov"])
    def test_is_zero_threshold_rule(self, workload):
        # gamma 0 stops every slot on the previous slot's harvest, which
        # is the per-slot oracle's best-effort budget (no harvest of these
        # models exceeds the cap); both batch the same lane groups
        model = (iid_model(0.5) if workload == "search" else
                 markov_workload_config().build_model(0.75))
        level = sx.solve_water_level(model.private, model.common,
                                     model.access, 2.0)
        streams, slots = 64, 800
        n = streams * slots
        met_opp = sx.run_policies([sx.Policy.threshold(0.0)], model, n,
                                  seed=7, warmup_periods=0,
                                  streams=streams)[0]
        met_be, _ = run_supplies_per_slot(model, level, n, 7,
                                          streams=streams)
        assert met_be.throughput == pytest.approx(met_opp.throughput,
                                                  rel=1e-12)
        assert met_be.se_throughput == pytest.approx(met_opp.se_throughput,
                                                     rel=1e-12)
        assert met_be.periods == met_opp.periods == n


class TestConventional:
    def test_constant_world(self):
        model = constant_world(delta=1.0, h=1.0)
        met, = sx.run_conventional_supply(model, 2.0, 2000, seed=1,
                                          streams=20)
        assert met.throughput == pytest.approx(np.log2(3.0), rel=1e-9)
        assert met.realized_avg_power == pytest.approx(2.0, rel=1e-9)

    def test_realized_power_near_target(self):
        model = iid_model(0.5)
        met, = sx.run_conventional_supply(model, 2.0, 1_000_000, seed=3)
        assert abs(met.realized_avg_power - 2.0) / 2.0 < 0.01

    @pytest.mark.parametrize("p_bar", [0.0, float("nan"), float("inf"),
                                       True, "2", -1.0])
    def test_bad_p_bar(self, p_bar):
        # True ran as p_bar 1, "2" raised a bare TypeError and inf raised
        # NoBracket; each is now refused by name
        with pytest.raises(ValueError, match="^p_bar: must be a finite "):
            sx.run_conventional_supply(iid_model(0.5), p_bar, 10_000, seed=3)


def discrete_model(p_s=0.5):
    return sx.SystemModel(
        private=sx.GainDistribution.discrete([0.0, 0.5, 2.0], [0.2, 0.5, 0.3]),
        common=sx.GainDistribution.discrete([0.25, 4.0], [0.6, 0.4]),
        access=sx.AccessModel(p_s),
        eh=sx.MarkovChainSpec([0.0, 4.0], [[0.7, 0.3], [0.4, 0.6]]),
        b_max_units=10, delta=1.0)


class TestSupplyBlocks:
    """The conventional supply draws per slot and spends per block of
    slots; the per-slot loop of ``tests/oracles.py`` makes the same draws,
    so both give the same metrics bit for bit.  The engine's gamma = 0
    rule reads the same draws, and gives the oracle's best-effort."""

    MODELS = {"exponential": lambda: iid_model(0.5),
              "discrete": discrete_model,
              "markov_c": lambda: markov_workload_config().build_model(0.5)}
    # slots short of a whole last slot on every lane (the run rounds
    # n_slots = streams * slots - short up), streams, slots per lane: one
    # slot, one block plus one slot, two blocks plus one slot, and many
    # full blocks
    SIZES = [(2, 16, 1), (2, 16, 33), (3, 8, 65), (2, 64, 96)]

    @staticmethod
    def assert_same(got, want):
        np.testing.assert_equal(astuple(got), astuple(want))

    def run_both(self, name, short, streams, slots, seed):
        """The conventional supply's metrics from
        ``run_conventional_supply``, and both supplies' from the per-slot
        oracle."""
        model = self.MODELS[name]()
        level = sx.solve_water_level(model.private, model.common,
                                     model.access, 2.0)
        n = streams * slots - short
        got, = sx.run_conventional_supply(model, 2.0, n, seed=seed,
                                          streams=streams)
        return got, run_supplies_per_slot(model, level, n, seed,
                                          streams=streams)

    @pytest.mark.parametrize("name", MODELS)
    @pytest.mark.parametrize("short, streams, slots", SIZES)
    def test_best_effort_matches_per_slot(self, name, short, streams, slots):
        # the gamma = 0 rule records one period per lane and slot, so a
        # pass of streams * slots periods spends the oracle's slots, which
        # it rounds up to whole slots per lane; no harvest of these models
        # exceeds the cap.  The two shift their sums by different first
        # values, so they agree to rounding, not bit for bit
        (_, (want, _)) = self.run_both(name, short, streams, slots, 3)
        got = sx.run_policies([sx.Policy.threshold(0.0)],
                              self.MODELS[name](), streams * slots, 3,
                              warmup_periods=0, streams=streams)[0]
        np.testing.assert_allclose(
            [got.throughput, got.se_throughput],
            [want.throughput, want.se_throughput], rtol=1e-12)
        assert got.mean_saving_time == want.mean_saving_time == 1.0
        assert got.cap_hit_fraction == want.cap_hit_fraction == 0.0
        assert got.periods == want.periods == streams * slots

    @pytest.mark.parametrize("name", MODELS)
    @pytest.mark.parametrize("short, streams, slots", SIZES)
    def test_grid_matches_one_call_per_model(self, name, short, streams,
                                             slots):
        # one pass over a p_s grid draws each slot once for all of it,
        # and each pair is what a call with that model alone returns
        base = self.MODELS[name]()
        models = [replace(base, access=sx.AccessModel(p))
                  for p in (0.0, base.access.p_s, 1.0)]
        n = streams * slots - short
        got = sx.run_conventional_supply(models, 2.0, n, seed=7,
                                         streams=streams)
        assert len(got) == len(models)
        for model, met in zip(models, got):
            self.assert_same(met, sx.run_conventional_supply(
                model, 2.0, n, seed=7, streams=streams)[0])

    @pytest.mark.parametrize("name", MODELS)
    def test_unsorted_repeated_grid_matches_solo_calls(self, name):
        # the models share each block's reciprocals; a model at p_s 0
        # after one at 1 and before another one at 0 must neither change
        # them nor see what the model before it spent
        base = self.MODELS[name]()
        models = [replace(base, access=sx.AccessModel(p))
                  for p in (1.0, 0.0, 0.5, 0.0)]
        n = 16 * 33 - 2
        got = sx.run_conventional_supply(models, 2.0, n, seed=7, streams=16)
        for model, met in zip(models, got):
            self.assert_same(met, sx.run_conventional_supply(
                model, 2.0, n, seed=7, streams=16)[0])
        self.assert_same(got[1], got[3])

    @pytest.mark.parametrize("name", MODELS)
    @pytest.mark.parametrize("short, streams, slots", SIZES)
    def test_conventional_matches_per_slot(self, name, short, streams, slots):
        got, (_, want) = self.run_both(name, short, streams, slots, 5)
        self.assert_same(got, want)
        assert got.periods == streams * slots

    def test_best_effort_memory(self):
        """Peak traced memory of a 1M-slot supply pass.  The bound sits
        between two measurements with numpy 2.4: 2.08 MB with 32-slot
        blocks spent by both supplies (1.54 MB for best-effort alone, 1.06
        MB with a ``stop_rate`` that gathered and scattered by mask, whose
        temporaries covered only the entries with access), and 4.00 MB
        when each of 16 replications' 123 slots was spent as one
        best-effort block (the temporaries of ``stop_rate`` grow with the
        block).  Drawn by the slot stream, whose blocks the pass lays out
        through its own work buffers, both supplies peaked at 2.23 MB; the
        conventional supply alone, now that best-effort is the engine's
        gamma = 0 rule, peaks at 1.39 MB."""
        model = iid_model(0.5)
        sx.run_conventional_supply(model, 2.0, 1_000_000, seed=1)
        tracemalloc.start()
        try:
            sx.run_conventional_supply(model, 2.0, 1_000_000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6


class TestConstantRateExact:
    """A constant per-slot rate c is reported as exactly c.

    Plain floating-point means of n copies of c miss c by an ulp for many n,
    which breaks the zero-SE equalities of acceptance criterion 04.
    """

    # slots, streams, seed
    SIZES = [(2000, 20, 2), (100_000, 512, 4), (50_000, 64, 3),
             (62_976, 512, 16)]

    @pytest.mark.parametrize("p_s", [0.0, 1.0])
    @pytest.mark.parametrize("n, streams, seed", SIZES)
    def test_best_effort_and_zero_threshold(self, p_s, n, streams, seed):
        model = constant_world(p_s=p_s)
        c = float(sx.stop_rate(1e-3, 1.0, 1.0, int(p_s)))
        # best-effort as a scheme table runs it: the gamma = 0 row of a
        # pass of models + models, beside an opportunistic rule
        _, be = sx.run_policies([sx.Policy.threshold(0.0)] * 2,
                                [model, model], n, seed=seed,
                                streams=streams)
        opp = sx.run_policies([sx.Policy.threshold(0.0)], model, n,
                              seed=seed, streams=streams)[0]
        assert be.throughput == c
        assert opp.throughput == c

    @pytest.mark.parametrize("p_s", [0.0, 1.0])
    @pytest.mark.parametrize("n, streams, seed", SIZES)
    def test_conventional(self, p_s, n, streams, seed):
        model = constant_world(delta=1.0, h=1.0, p_s=p_s)
        level = sx.solve_water_level(model.private, model.common,
                                     model.access, 2.0)
        p = conventional_power(1.0, level)
        c = float(np.log2(1.0 + p) + p_s * np.log2(1.0 + p))
        met, = sx.run_conventional_supply(model, 2.0, n, seed=seed,
                                          streams=streams)
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
