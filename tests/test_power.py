import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, optimize, special

import savetx as sx
from savetx.errors import NoBracket

from oracles import Split, best_grid_split, conventional_power, \
    split_rate, water_fill_two_channel, where_stop_rate

# gains from (negative) zero through the subnormals, whose reciprocals
# overflow, to ordinary values; batteries from NaN and negative up to 1e300,
# whose products with the subnormal gains still count
GAINS = [0.0, -0.0, 5e-324, 1e-310, 1e-300, 0.3, 1.0, 7.0]
BATTERIES = [np.nan, -1.0, 0.0, 1e-3, 1.0, 40.0, 1e300]


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
            for b in (0.0, -0.0, -1.0):
                assert sx.stop_rate(b, 1.0, 1.0, phi) == 0.0

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

    def test_scalars_give_float(self):
        for phi in (0, 1):
            assert type(sx.stop_rate(1.0, 2.0, 3.0, phi)) is float
            assert type(sx.stop_rate(0.0, 2.0, 3.0, phi)) is float

    def test_broadcast_shape(self):
        """The result has the broadcast shape of all four arguments, also
        when no entry holds the common channel."""
        for phi in (np.zeros(3, int), np.ones(3, int)):
            r = sx.stop_rate(1.0, 1.0, np.ones(3), phi)
            assert r.shape == (3,)
        r = sx.stop_rate(np.ones((2, 1)), 1.0, 1.0, np.zeros(4, np.int8))
        assert r.shape == (2, 4) and (r == 1.0).all()

    @pytest.mark.parametrize("p_s", [0.0, 0.5, 1.0])
    def test_rows_by_lanes_match_scalar(self, p_s):
        """The engine's call: a (rows, lanes) battery against (lanes,)
        gains, with empty batteries and zero-gain corners, equal to the
        scalar call on every element."""
        rng = np.random.default_rng(11)
        lanes = 64
        b = rng.integers(0, 6, (5, lanes)) * 0.5
        h, hc = rng.exponential(1.0, (2, lanes))
        h[:8], hc[4:12] = 0.0, 0.0
        phi = (rng.random(lanes) < p_s).astype(np.int8)
        vec = sx.stop_rate(b, h, hc, phi)
        assert vec.shape == b.shape
        for (i, j), got in np.ndenumerate(vec):
            assert got == sx.stop_rate(b[i, j], h[j], hc[j], phi[j])

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


class TestStopRateOracle:
    """``stop_rate`` clips the interior split; ``where_stop_rate`` selects
    each case with ``np.where``.  They agree bit for bit, also where a
    gain's reciprocal overflows."""

    @pytest.mark.parametrize("base", [2.0, np.e])
    def test_rows_by_lanes_equal_oracle(self, base):
        h, hc, phi = (a.ravel() for a in np.meshgrid(GAINS, GAINS, [0, 1],
                                                      indexing="ij"))
        b = np.array(BATTERIES)[:, None]
        for p in (phi, phi.astype(np.int8), 0, 1):
            got = sx.stop_rate(b, h, hc, p, base)
            want = where_stop_rate(b, h, hc, p, base)
            assert got.shape == want.shape == (len(BATTERIES), len(h))
            assert not np.isnan(got).any()
            assert (got == want).all()

    @pytest.mark.parametrize("base", [2.0, np.e])
    def test_scalars_equal_oracle(self, base):
        for b, h, hc, phi in itertools.product(BATTERIES, GAINS, GAINS,
                                               [0, 1]):
            assert sx.stop_rate(b, h, hc, phi, base) \
                == where_stop_rate(b, h, hc, phi, base)

    def test_tiny_gains_raise_no_warning(self):
        # 1/h overflows to inf below 1/DBL_MAX; the values are still right
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sx.stop_rate(1.0, 1e-310, 2.0, 1) == np.log2(3.0)
            assert sx.stop_rate(1.0, 2.0, 1e-310, 1) == np.log2(3.0)
            assert conventional_power(np.array([1e-310]),
                                      sx.WaterLevel(0.5)).tolist() == [0.0]
            sx.solve_water_level(
                sx.GainDistribution.discrete([1e-310, 1.0], [0.5, 0.5]),
                sx.GainDistribution.constant(1.0), sx.AccessModel(0.5), 1.0)
            tiny = sx.GainDistribution.constant(1e-310)
            model = sx.SystemModel(private=tiny, common=tiny,
                                   access=sx.AccessModel(0.5),
                                   eh=sx.MarkovChainSpec([1.0], [[1.0]]),
                                   b_max_units=1)
            _, met = sx.run_supplies(model, 2.0, 2000, seed=1, streams=20,
                                     water_level=sx.WaterLevel(0.5))
            assert met.realized_avg_power == 0.0


class TestConventionalPower:
    def test_boundary(self):
        assert conventional_power(2.0, sx.WaterLevel(2.0)) == 0.0

    def test_high_gain_limit(self):
        p = conventional_power(1e12, sx.WaterLevel(0.5))
        assert abs(p - 2.0) < 1e-9

    def test_simple_value(self):
        assert conventional_power(1.0, sx.WaterLevel(1 / 3)) == \
            pytest.approx(2.0, rel=1e-12)

    def test_monotone_grids(self):
        hs = np.linspace(0.01, 50, 500)
        p_h = conventional_power(hs, sx.WaterLevel(0.7))
        assert (np.diff(p_h) >= -1e-15).all()
        for h in (0.5, 3.0, 40.0):
            xis = np.linspace(0.05, 5, 200)
            p_xi = np.array([conventional_power(h, sx.WaterLevel(x))
                             for x in xis])
            assert (np.diff(p_xi) <= 1e-15).all()

    def test_level_validation(self):
        for xi in (0.0, -1.0, float("nan"), float("inf"), True):
            with pytest.raises(ValueError, match="^xi: "):
                sx.WaterLevel(xi)


class TestSolveWaterLevel:
    def test_deterministic_channel(self):
        level = sx.solve_water_level(
            sx.GainDistribution.constant(1.0),
            sx.GainDistribution.constant(1.0),
            sx.AccessModel(0.0), 2.0)
        assert level.xi == pytest.approx(1 / 3, rel=1e-9)
        assert conventional_power(1.0, level) == pytest.approx(2.0,
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

    @pytest.mark.parametrize("m", [0.3, 1.0, 5.0])
    def test_exponential_mean_power_exact(self, m):
        # the closed form e^-z / xi - E1(z) / m, z = xi / m, against tight
        # quadrature; the default quad missed it by 3.4e-6 at m 5, xi 50
        from savetx.power import _power_curve

        dist = sx.GainDistribution.exponential(m)
        for xi in np.geomspace(1e-6, 50.0, 25):
            want, _ = integrate.quad(
                lambda g: (1.0 / xi - 1.0 / g) * np.exp(-g / m) / m,
                xi, np.inf, epsabs=0, epsrel=1e-12, limit=200)
            assert _power_curve(dist)(xi) == pytest.approx(want, rel=1e-12)

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
        from savetx.power import _power_curve

        got = _power_curve(private)(level.xi) \
            + p_s * _power_curve(common)(level.xi)
        assert got == pytest.approx(p_bar, rel=1e-6)

    def test_stationary_law_once_per_solve(self, monkeypatch):
        # the root search evaluates the mean power many times; a Markov
        # gain's stationary law is solved once, for all of them
        from savetx import models

        calls = []
        real = models.stationary_distribution
        monkeypatch.setattr(models, "stationary_distribution",
                            lambda chain: calls.append(chain) or real(chain))
        chain = sx.MarkovChainSpec([0.25, 3.0], [[0.7, 0.3], [0.4, 0.6]])
        level = sx.solve_water_level(sx.GainDistribution.markov(chain),
                                     sx.GainDistribution.exponential(1.0),
                                     sx.AccessModel(0.5), 2.0)
        assert calls == [chain]
        from savetx.power import _power_curve

        got = _power_curve(sx.GainDistribution.markov(chain))(level.xi) \
            + 0.5 * _power_curve(sx.GainDistribution.exponential(1.0))(
                level.xi)
        assert got == pytest.approx(2.0, rel=1e-9)

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

    def test_nan_p_bar(self):
        # a NaN passed "p_bar <= 0" and reached scipy's brentq
        with pytest.raises(ValueError, match="p_bar must be > 0"):
            sx.solve_water_level(sx.GainDistribution.constant(1.0),
                                 sx.GainDistribution.constant(1.0),
                                 sx.AccessModel(0.0), float("nan"))
