import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, optimize, special

import savetx as sx
from savetx import power
from savetx.errors import NoBracket, NoConvergence
from savetx.power import _power_curve, check_gamma

from oracles import BRENTQ_RTOL, BRENTQ_XTOL, MARKOV_MODEL, Split, \
    best_grid_split, brentq_water_level, conventional_power, split_rate, \
    water_fill_two_channel, where_stop_rate

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
            # the private channel's tiny gain is spent nothing, every
            # slot, and the common channel all of the level's power
            model = sx.SystemModel(
                private=sx.GainDistribution.constant(1e-310),
                common=sx.GainDistribution.constant(1.0),
                access=sx.AccessModel(1.0),
                eh=sx.MarkovChainSpec([1.0], [[1.0]]), b_max_units=1)
            level = sx.solve_water_level(model.private, model.common,
                                         model.access, 2.0)
            met = sx.run_conventional_supply(model, 2.0, 2000, seed=1,
                                             streams=20)
            assert met.realized_avg_power == 1.0 / level.xi - 1.0
            assert met.realized_avg_power == pytest.approx(2.0, rel=1e-15)


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
        with pytest.raises(ValueError, match="^p_bar: must be a finite "):
            sx.solve_water_level(sx.GainDistribution.constant(1.0),
                                 sx.GainDistribution.constant(1.0),
                                 sx.AccessModel(0.0), float("nan"))

    @pytest.mark.parametrize("p_bar", [True, "1", float("inf"), -1.0, 0.0])
    def test_p_bar_refused_by_name(self, p_bar):
        # True solved the level of p_bar 1, "1" raised a bare TypeError
        # and inf raised NoBracket
        with pytest.raises(ValueError, match="^p_bar: must be a finite "):
            sx.solve_water_level(sx.GainDistribution.exponential(1.0),
                                 sx.GainDistribution.exponential(1.0),
                                 sx.AccessModel(0.5), p_bar)


class TestCheckGamma:
    @pytest.mark.parametrize("gamma", [True, "1", float("nan"),
                                       float("inf"), -1.0])
    def test_refused_by_name(self, gamma):
        # True ran as gamma 1 and "1" raised a bare TypeError, in the
        # engine's rules and in the exact evaluator alike
        model = sx.validate_config({"experiment": "fig4"}).build_model(0.5)
        for check in (check_gamma, sx.Policy.threshold,
                      lambda g: sx.threshold_metrics(model, g)):
            with pytest.raises(ValueError, match="^gamma: must be a finite"):
                check(gamma)


# the water-level configs: every experiment's defaults and the models of the
# benchmark's search (fig8, p_bar 2) and markov (fig3, p_bar 2) workloads
WATER_CONFIGS = {
    **{exp: {"experiment": exp}
       for exp in ("fig3", "fig4", "fig6", "fig7", "fig8", "custom")},
    "search": {"experiment": "fig8", "p_s_grid": [0.0, 0.5], "p_bar": 2.0},
    "markov": {"experiment": "fig3", **MARKOV_MODEL,
               "p_s_grid": [0.25, 0.75], "p_bar": 2.0},
}


def mean_power(m):
    """The mean power xi -> E[P(H)] + p_s E[Pc(Hc)] of a model, with
    ``solve_water_level``'s arithmetic."""
    private, common = _power_curve(m.private), _power_curve(m.common)
    return lambda xi: private(xi) + m.access.p_s * common(xi)


def assert_water_level(m, p_bar):
    """The level is the smallest float at which the mean power does not
    exceed p_bar; returns it."""
    xi = sx.solve_water_level(m.private, m.common, m.access, p_bar).xi
    total = mean_power(m)
    assert total(xi) <= p_bar < total(math.nextafter(xi, 0.0))
    return xi


class TestBrentRoot:
    """Water levels against scipy's Brent root
    (``tests/oracles.py::brentq_water_level``), the oracle these tests are
    named for: the bisected level is the smallest float that meets the
    power constraint, and lies within brentq's own tolerance of brentq's
    root.  The two ways a search fails, a NaN curve and a target outside
    the bracket, are errors by name."""

    @pytest.mark.parametrize("name", list(WATER_CONFIGS))
    def test_water_levels_equal_brentq(self, name):
        raw = WATER_CONFIGS[name]
        cfg = sx.validate_config({**sx.default_config(raw["experiment"]),
                                  **raw})
        for p_s in cfg.p_s_grid + [0.1, 0.3, 0.9]:
            m = cfg.build_model(p_s)
            for p_bar in (cfg.p_bar, 0.1, 1.0, 5.0, 37.0):
                xi = assert_water_level(m, p_bar)
                want = brentq_water_level(m.private, m.common, m.access,
                                          p_bar)
                assert abs(xi - want) <= BRENTQ_XTOL + BRENTQ_RTOL * xi

    def test_nan_curve_is_no_convergence(self, monkeypatch):
        # finite at both ends of the bracket, NaN at the first midpoint
        ends = (1e-12, 1e12)
        monkeypatch.setattr(power, "_power_curve", lambda dist: (
            lambda xi: 1.0 / xi if xi in ends else math.nan))
        one = sx.GainDistribution.constant(1.0)
        with pytest.raises(NoConvergence, match="^water level: power curve "
                           "is NaN at xi=1.0$"):
            sx.solve_water_level(one, one, sx.AccessModel(0.0), 2.0)
        monkeypatch.setattr(power, "_power_curve",
                            lambda dist: lambda xi: math.nan)
        with pytest.raises(NoConvergence, match="NaN at xi=1e-12$"):
            sx.solve_water_level(one, one, sx.AccessModel(0.0), 2.0)

    def test_one_sign_is_no_bracket(self):
        # a dead channel spends nothing at any level; a strong one spends
        # more than 1e-13 at the top of the bracket, 1e-12 - 1e-20
        for gain, p_bar in ((0.0, 1.0), (1e20, 1e-13)):
            g = sx.GainDistribution.constant(gain)
            with pytest.raises(NoBracket, match="^average power target "
                               "cannot be bracketed$"):
                sx.solve_water_level(g, g, sx.AccessModel(0.5), p_bar)


def discrete_laws():
    """Discrete gain laws of one to four atoms, 0 and a gain whose
    reciprocal overflows among them."""
    value = st.one_of(st.sampled_from([0.0, 1e-310]),
                      st.floats(1e-6, 1e6))
    return st.lists(st.tuples(value, st.floats(0.01, 1.0)), min_size=1,
                    max_size=4).map(lambda atoms: sx.GainDistribution.discrete(
                        [v for v, _ in atoms],
                        np.array([w for _, w in atoms])
                        / sum(w for _, w in atoms)))


class TestWaterLevelProperty:
    @settings(max_examples=200, deadline=None)
    @given(private=discrete_laws(), common=discrete_laws(),
           p_s=st.floats(0.0, 1.0), p_bar=st.floats(1e-9, 1e9))
    def test_smallest_level_meeting_the_target(self, private, common, p_s,
                                               p_bar):
        m = sx.SystemModel(private=private, common=common,
                           access=sx.AccessModel(p_s),
                           eh=sx.MarkovChainSpec([1.0], [[1.0]]),
                           b_max_units=1)
        try:
            assert_water_level(m, p_bar)
        except NoBracket:
            pass
