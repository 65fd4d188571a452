import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize, special

import savetx as sx
from savetx.errors import NoBracket

from oracles import Split, best_grid_split, split_rate, water_fill_two_channel


class TestWaterFill:
    """The scalar split oracle, pinned to the split inside stop_rate."""

    def test_symmetric_split(self):
        split = water_fill_two_channel(1.0, 4.0, 4.0)
        assert split.p_private == pytest.approx(0.5, abs=1e-15)
        assert split.p_common == pytest.approx(0.5, abs=1e-15)

    def test_interior_example(self):
        split = water_fill_two_channel(1.0, 2.0 ** 4, 2.0 ** 5)
        assert split.p_private == pytest.approx(31 / 64, abs=1e-12)
        assert split.p_common == pytest.approx(33 / 64, abs=1e-12)
        _, p_best = best_grid_split(1.0, 16.0, 32.0, n=1_000_000)
        assert abs(split.p_private - p_best) < 2e-6

    def test_corner_case(self):
        split = water_fill_two_channel(0.01, 100.0, 0.5)
        assert (split.p_private, split.p_common) == (0.01, 0.0)

    def test_nonpositive_budget(self):
        with pytest.raises(ValueError):
            water_fill_two_channel(0.0, 1.0, 1.0)

    def test_zero_gain_channels(self):
        assert water_fill_two_channel(1.0, 0.0, 2.0).p_common == 1.0
        assert water_fill_two_channel(1.0, 2.0, 0.0).p_private == 1.0
        assert water_fill_two_channel(1.0, 0.0, 0.0).p_private == 1.0
        for h, hc in ((0.0, 2.0), (2.0, 0.0), (0.0, 0.0)):
            split = water_fill_two_channel(1.0, h, hc)
            assert sx.stop_rate(1.0, h, hc, 1) == split_rate(1, h, hc, split)

    @given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
    @settings(max_examples=200, deadline=None)
    def test_budget_conserved(self, b, h, hc):
        split = water_fill_two_channel(b, h, hc)
        assert split.p_private >= 0 and split.p_common >= 0
        assert abs(split.total - b) < 1e-12 * max(1.0, b)

    @given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
    @settings(max_examples=100, deadline=None)
    def test_interior_water_level_equality(self, b, h, hc):
        split = water_fill_two_channel(b, h, hc)
        if split.p_private > 0 and split.p_common > 0:
            lhs = 1 / h + split.p_private
            rhs = 1 / hc + split.p_common
            assert abs(lhs - rhs) < 1e-9 * max(1.0, lhs)
        assert sx.stop_rate(b, h, hc, 1) == split_rate(1, h, hc, split)

    def test_beats_grid_search(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            b = float(rng.uniform(0.01, 20))
            h = float(2.0 ** rng.uniform(-5, 6))
            hc = float(2.0 ** rng.uniform(-5, 6))
            ours = sx.stop_rate(b, h, hc, 1)
            best, _ = best_grid_split(b, h, hc, n=10_000)
            assert ours >= best - 1e-9


class TestInstantRate:
    def test_private_only(self):
        assert sx.stop_rate(1.0, 1.0, 1.0, 0) == pytest.approx(1.0,
                                                              abs=1e-15)

    def test_zero_power(self):
        assert split_rate(1, 1.0, 1.0, Split(0.0, 0.0)) == 0.0
        for phi in (0, 1):
            assert sx.stop_rate(0.0, 1.0, 1.0, phi) == 0.0

    def test_waterfilled_example(self):
        r = sx.stop_rate(1.0, 16.0, 32.0, 1)
        assert r == pytest.approx(np.log2(8.75) + np.log2(17.5), abs=1e-12)
        assert r == pytest.approx(7.2586, abs=2e-4)

    def test_inconsistent_split(self):
        with pytest.raises(ValueError):
            split_rate(0, 1.0, 1.0, Split(0.5, 0.5))


class TestRateAtStop:
    def test_private_only_example(self):
        r = sx.stop_rate(0.001, 0.1, 1.0, 0)
        assert r == pytest.approx(np.log2(1 + 1e-4), rel=1e-12)
        assert r == pytest.approx(1.4426e-4, rel=1e-3)

    def test_equal_gains_split_in_half(self):
        for h in (0.5, 2.0, 16.0):
            for b in (0.1, 1.0, 7.0):
                r = sx.stop_rate(b, h, h, 1)
                assert r == pytest.approx(2 * np.log2(1 + h * b / 2),
                                          rel=1e-12)

    def test_empty_battery(self):
        assert sx.stop_rate(0.0, 1.0, 1.0, 1) == 0.0

    def test_natural_log_base(self):
        assert sx.stop_rate(2.0, 1.0, 1.0, 0, base=np.e) == pytest.approx(
            np.log(3.0), rel=1e-12)

    def test_vector_matches_scalar(self):
        rng = np.random.default_rng(3)
        b = rng.uniform(0, 5, 200)
        h = rng.uniform(0, 8, 200)
        hc = rng.uniform(0, 8, 200)
        phi = rng.integers(0, 2, 200)
        vec = sx.stop_rate(b, h, hc, phi)
        for i in range(200):
            got = sx.stop_rate(b[i], h[i], hc[i], int(phi[i]))
            assert isinstance(got, float)
            assert vec[i] == pytest.approx(got, abs=1e-14)


class TestConventionalPower:
    def test_boundary(self):
        assert sx.conventional_power(2.0, sx.WaterLevel(2.0)) == 0.0

    def test_high_gain_limit(self):
        p = sx.conventional_power(1e12, sx.WaterLevel(0.5))
        assert abs(p - 2.0) < 1e-9

    def test_simple_value(self):
        assert sx.conventional_power(1.0, sx.WaterLevel(1 / 3)) == \
            pytest.approx(2.0, rel=1e-12)

    def test_monotone_grids(self):
        hs = np.linspace(0.01, 50, 500)
        p_h = sx.conventional_power(hs, sx.WaterLevel(0.7))
        assert (np.diff(p_h) >= -1e-15).all()
        for h in (0.5, 3.0, 40.0):
            xis = np.linspace(0.05, 5, 200)
            p_xi = np.array([sx.conventional_power(h, sx.WaterLevel(x))
                             for x in xis])
            assert (np.diff(p_xi) <= 1e-15).all()

    def test_level_validation(self):
        with pytest.raises(ValueError):
            sx.WaterLevel(0.0)


class TestSolveWaterLevel:
    def test_deterministic_channel(self):
        level = sx.solve_water_level(
            sx.GainDistribution.constant(1.0),
            sx.GainDistribution.constant(1.0),
            sx.AccessModel(0.0), 2.0)
        assert level.xi == pytest.approx(1 / 3, rel=1e-9)
        assert sx.conventional_power(1.0, level) == pytest.approx(2.0,
                                                                  rel=1e-9)

    def test_exponential_against_closed_form(self):
        # E[(1/xi - 1/h)^+] over exp(1) equals e^{-xi}/xi - E1(xi)
        target = optimize.brentq(
            lambda xi: np.exp(-xi) / xi - special.exp1(xi) - 2.0,
            1e-9, 10.0, rtol=1e-14)
        level = sx.solve_water_level(
            sx.GainDistribution.exponential(1.0),
            sx.GainDistribution.constant(1.0),
            sx.AccessModel(0.0), 2.0)
        assert level.xi == pytest.approx(target, rel=1e-6)

    def test_two_constant_channels(self):
        level = sx.solve_water_level(
            sx.GainDistribution.constant(16.0),
            sx.GainDistribution.constant(32.0),
            sx.AccessModel(1.0), 2.0)
        assert level.xi == pytest.approx(2.0 / (2.0 + 3.0 / 32.0), rel=1e-9)

    @pytest.mark.parametrize("p_s,p_bar", [(0.0, 0.5), (0.5, 2.0),
                                           (1.0, 7.0)])
    def test_constraint_met(self, p_s, p_bar):
        private = sx.GainDistribution.exponential(1.0)
        common = sx.GainDistribution.discrete([0.5, 4.0], [0.3, 0.7])
        level = sx.solve_water_level(private, common, sx.AccessModel(p_s),
                                     p_bar)
        from savetx.power import _mean_power

        got = _mean_power(private, level.xi) \
            + p_s * _mean_power(common, level.xi)
        assert got == pytest.approx(p_bar, rel=1e-6)

    def test_no_bracket(self):
        with pytest.raises(NoBracket):
            sx.solve_water_level(sx.GainDistribution.constant(0.0),
                                 sx.GainDistribution.constant(0.0),
                                 sx.AccessModel(0.5), 1.0)

    def test_bad_p_bar(self):
        with pytest.raises(ValueError):
            sx.solve_water_level(sx.GainDistribution.constant(1.0),
                                 sx.GainDistribution.constant(1.0),
                                 sx.AccessModel(0.0), 0.0)
