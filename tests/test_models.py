import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

import savetx as sx
from savetx.errors import BadName, ReducibleChain, UnsupportedKind
from savetx.simulate import _GainSampler, _PrivateSampler, _access, \
    _cum_table, _draw_slot, _step_chain

from oracles import step_chain

PAPER_CHAIN = sx.MarkovChainSpec([0.1, 2.0 ** 4],
                                 [[0.0, 1.0], [0.5, 0.5]])


def power_iteration_pi(P, iters=20_000):
    pi = np.full(P.shape[0], 1.0 / P.shape[0])
    for _ in range(iters):
        nxt = pi @ P
        if np.abs(nxt - pi).max() < 1e-14:
            return nxt
        pi = nxt
    return pi


class TestMarkovChainSpec:
    def test_row_sum_enforced(self):
        with pytest.raises(ValueError, match="sum to 1"):
            sx.MarkovChainSpec([1.0, 2.0], [[0.6, 0.6], [0.5, 0.5]])

    def test_entries_in_unit_interval(self):
        with pytest.raises(ValueError):
            sx.MarkovChainSpec([1.0, 2.0], [[1.5, -0.5], [0.5, 0.5]])

    def test_negative_state_rejected(self):
        with pytest.raises(ValueError):
            sx.MarkovChainSpec([-1.0], [[1.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sx.MarkovChainSpec([1.0, 2.0], [[1.0]])

    def test_transition_is_frozen(self):
        with pytest.raises(ValueError):
            PAPER_CHAIN.transition[0, 0] = 0.3

    @given(st.integers(2, 5), st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_random_rows_accepted(self, n, seed):
        rng = np.random.default_rng(seed)
        P = rng.dirichlet(np.ones(n), size=n)
        chain = sx.MarkovChainSpec(rng.uniform(0, 10, n), P)
        assert np.abs(chain.transition.sum(axis=1) - 1).max() <= 1e-12


NAN = float("nan")
INF = float("inf")


class TestNonFiniteRefused:
    """Model constructors refuse NaN, infinities, booleans and
    non-numbers, naming the argument; NaN used to pass every range
    check, and True ran as 1.0."""

    @pytest.mark.parametrize("name, make", [
        ("value", lambda: sx.GainDistribution.constant(NAN)),
        ("value", lambda: sx.GainDistribution.constant(None)),
        ("value", lambda: sx.GainDistribution.constant(True)),
        ("mean", lambda: sx.GainDistribution.exponential(INF)),
        ("mean", lambda: sx.GainDistribution.exponential("abc")),
        ("mean", lambda: sx.GainDistribution.exponential(True)),
        ("values", lambda: sx.GainDistribution.discrete([1.0, INF],
                                                        [0.5, 0.5])),
        ("values", lambda: sx.GainDistribution.discrete([1.0, False],
                                                        [0.5, 0.5])),
        ("probabilities", lambda: sx.GainDistribution.discrete(
            [1.0, 2.0], [0.5, NAN])),
        ("states", lambda: sx.MarkovChainSpec([1.0, NAN],
                                              [[0.5, 0.5], [0.5, 0.5]])),
        ("transition", lambda: sx.MarkovChainSpec(
            [1.0, 2.0], [[0.5, NAN], [0.5, 0.5]])),
        ("transition", lambda: sx.MarkovChainSpec([1.0], [[True]])),
        ("switch", lambda: sx.make_eh_preset("a", switch=NAN)),
        ("switch", lambda: sx.make_eh_preset("a", switch="x")),
        ("p_good", lambda: sx.make_eh_preset("d", p_good=NAN))],
        ids=lambda v: v if isinstance(v, str) else "")
    def test_refused(self, name, make):
        with pytest.raises(ValueError, match=f"^{name}: "):
            make()

    def test_numpy_scalars_accepted(self):
        gain = sx.GainDistribution.discrete(np.array([0.5, 2.0]),
                                            [np.float64(0.25), 0.75])
        assert gain.values == (0.5, 2.0)
        assert sx.GainDistribution.exponential(np.int64(2)).mean == 2.0


class TestStationaryDistribution:
    def test_paper_chain(self):
        pi = sx.stationary_distribution(PAPER_CHAIN)
        assert np.allclose(pi, [1 / 3, 2 / 3], atol=1e-12)
        assert np.allclose(pi, power_iteration_pi(PAPER_CHAIN.transition),
                           atol=1e-10)

    def test_single_state(self):
        chain = sx.MarkovChainSpec([5.0], [[1.0]])
        assert sx.stationary_distribution(chain).tolist() == [1.0]

    def test_symmetric_switch(self):
        chain = sx.MarkovChainSpec([0.0, 1.0], [[0.5, 0.5], [0.5, 0.5]])
        assert np.allclose(sx.stationary_distribution(chain), [0.5, 0.5])

    def test_balance_residual(self):
        rng = np.random.default_rng(3)
        P = rng.dirichlet(np.ones(4), size=4)
        chain = sx.MarkovChainSpec(np.arange(4.0), P)
        pi = sx.stationary_distribution(chain)
        assert np.abs(pi @ P - pi).max() < 1e-10
        assert abs(pi.sum() - 1) < 1e-12

    def test_reducible_raises(self):
        chain = sx.MarkovChainSpec([0.0, 1.0], [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ReducibleChain):
            sx.stationary_distribution(chain)

    def test_periodic_chain_ok(self):
        chain = sx.MarkovChainSpec([0.0, 1.0], [[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(sx.stationary_distribution(chain), [0.5, 0.5])


def cum_rows(chain):
    return np.cumsum(chain.transition, axis=1)


def one_state_model(private=None, p_s=0.5):
    return sx.SystemModel(
        private=private or sx.GainDistribution.constant(1.0),
        common=sx.GainDistribution.constant(1.0),
        access=sx.AccessModel(p_s),
        eh=sx.MarkovChainSpec([1.0], [[1.0]]),
        b_max_units=1, delta=1.0)


def access_draws(p_s, rng, n):
    model = one_state_model(p_s=p_s)
    u, *_ = _draw_slot(_PrivateSampler(model), _GainSampler(model.common),
                       np.zeros(n, int), rng, n)
    return _access(u, model.access.p_s)


class TestSampling:
    """The engine's vectorized samplers, one block of draws per call."""

    def test_forced_transition(self):
        rng = np.random.default_rng(0)
        nxt = _step_chain(cum_rows(PAPER_CHAIN), np.zeros(100, int), rng, 100)
        assert (nxt == 1).all()

    def test_single_state_loops(self):
        chain = sx.MarkovChainSpec([2.0], [[1.0]])
        rng = np.random.default_rng(0)
        assert _step_chain(cum_rows(chain), np.zeros(5, int), rng,
                           5).tolist() == [0] * 5

    def test_bad_index(self):
        with pytest.raises(IndexError):
            _step_chain(cum_rows(PAPER_CHAIN), np.array([5]),
                        np.random.default_rng(0), 1)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_matches_broadcast_step(self, k):
        rng = np.random.default_rng(k)
        cum = np.cumsum(rng.dirichlet(np.ones(k), size=k), axis=1)
        idx = rng.integers(0, k, 1000)
        for rows, at in ((cum, idx), (cum[-1], None)):
            got = _step_chain(rows, at, np.random.default_rng(5), 1000)
            want = step_chain(rows, at, np.random.default_rng(5), 1000)
            assert got.dtype == want.dtype
            assert (got == want).all()

    @pytest.mark.parametrize("P, kept", [
        # the last column is 1.0 in every row and is dropped
        ([[0.9, 0.1], [0.3, 0.7]], 1),
        # both cumsums end at 0.9999999999999999: no column of ones
        ([[0.2, 0.7, 0.1], [0.3, 0.6, 0.1]], 3),
        # only row 1 ends at 0.9999999999999999, so the last column stays:
        # a uniform in [that, 1) counts it
        ([[0.5, 0.5, 0.0], [0.2, 0.7, 0.1]], 3),
    ])
    def test_cum_table_skips_columns_of_ones(self, P, kept):
        full = np.cumsum(P, axis=1)
        cum = _cum_table(np.asarray(P))
        assert cum.shape == (len(P), kept)
        assert (full[:, kept:] >= 1.0).all()
        idx = np.random.default_rng(3).integers(0, len(P), 10_000)
        for rows, at in ((cum, idx), (_cum_table(np.asarray(P[1])), None)):
            got = _step_chain(rows, at, np.random.default_rng(5), 10_000)
            want = step_chain(full if at is not None else full[1], at,
                              np.random.default_rng(5), 10_000)
            assert (got == want).all()

    def test_switch_fraction_lln(self):
        chain = sx.MarkovChainSpec([0.0, 1.0], [[0.5, 0.5], [0.5, 0.5]])
        private = _PrivateSampler(
            one_state_model(private=sx.GainDistribution.markov(chain)))
        rng = np.random.default_rng(42)
        n = 1_000_000
        cur = private.init(rng, n)
        vals, nxt = private.step(cur, rng, n)
        assert (vals == np.asarray(chain.states)[nxt]).all()
        assert abs((nxt != cur).mean() - 0.5) < 0.002

    def test_sample_next_chi_square(self):
        rng_p = np.random.default_rng(9)
        P = rng_p.dirichlet(np.ones(3), size=3)
        chain = sx.MarkovChainSpec([1.0, 2.0, 3.0], P)
        rng = np.random.default_rng(7)
        n = 1_000_000
        nxt = _step_chain(cum_rows(chain), np.ones(n, int), rng, n)
        counts = np.bincount(nxt, minlength=3)
        _, p = stats.chisquare(counts, P[1] * n)
        assert p > 0.001

    def test_constant_gain(self):
        sampler = _GainSampler(sx.GainDistribution.constant(2.0 ** 5))
        rng = np.random.default_rng(0)
        vals = sampler.draw(rng, 10)
        assert vals.shape == (10,) and (vals == 32.0).all()

    def test_exponential_mean_lln(self):
        sampler = _GainSampler(sx.GainDistribution.exponential(1.0))
        rng = np.random.default_rng(11)
        draws = sampler.draw(rng, 1_000_000)
        assert abs(draws.mean() - 1.0) < 0.005

    def test_degenerate_discrete(self):
        sampler = _GainSampler(sx.GainDistribution.discrete([0.0], [1.0]))
        vals = sampler.draw(np.random.default_rng(0), 3)
        assert vals.tolist() == [0.0] * 3

    def test_discrete_chi_square(self):
        probs = [0.2, 0.5, 0.3]
        sampler = _GainSampler(
            sx.GainDistribution.discrete([1.0, 2.0, 4.0], probs))
        rng = np.random.default_rng(5)
        draws = sampler.draw(rng, 1_000_000)
        assert np.isin(draws, [1.0, 2.0, 4.0]).all()
        counts = [(draws == v).sum() for v in (1.0, 2.0, 4.0)]
        _, p = stats.chisquare(counts, np.array(probs) * 1_000_000)
        assert p > 0.001

    def test_access_endpoints(self):
        rng = np.random.default_rng(0)
        assert not access_draws(0.0, rng, 1000).any()
        assert access_draws(1.0, rng, 1000).all()

    def test_access_fraction_lln(self):
        rng = np.random.default_rng(21)
        draws = access_draws(0.5, rng, 1_000_000)
        assert abs(draws.mean() - 0.5) < 0.002

    def test_access_validation(self):
        with pytest.raises(ValueError):
            sx.AccessModel(1.5)


class TestEHPresets:
    def test_preset_a_rows(self):
        chain = sx.make_eh_preset("a")
        assert np.allclose(chain.transition, 0.5)
        assert chain.states == (0.0, 4.0)

    @pytest.mark.parametrize("name,switch", [("a", None), ("b", 0.9),
                                             ("c", 0.1)])
    def test_symmetric_presets_share_stationary(self, name, switch):
        chain = sx.make_eh_preset(name, switch=switch)
        pi = sx.stationary_distribution(chain)
        assert np.abs(pi - 0.5).max() < 1e-12

    def test_preset_d_favors_good(self):
        chain = sx.make_eh_preset("d")
        pi = sx.stationary_distribution(chain)
        assert pi[1] > 0.5

    def test_delta_scales_states(self):
        chain = sx.make_eh_preset("a", delta=1e-3)
        assert chain.states == (0.0, 4e-3)

    def test_bad_name(self):
        with pytest.raises(BadName):
            sx.make_eh_preset("z")


class TestDiscretizeGain:
    def quad_conditional_means(self, mean, n_bins):
        edges = [-mean * np.log(1 - k / n_bins) for k in range(n_bins)]
        edges.append(np.inf)
        reps = []
        for a, b in zip(edges[:-1], edges[1:]):
            num, _ = integrate.quad(
                lambda x: x * np.exp(-x / mean) / mean, a, b)
            den, _ = integrate.quad(
                lambda x: np.exp(-x / mean) / mean, a, b)
            reps.append(num / den)
        return np.array(reps)

    def test_two_bins_match_quadrature(self):
        d = sx.discretize_gain(sx.GainDistribution.exponential(1.0), 2)
        assert np.allclose(d.probabilities, [0.5, 0.5])
        assert np.allclose(d.values, self.quad_conditional_means(1.0, 2),
                           atol=1e-9)
        assert abs(np.dot(d.values, d.probabilities) - 1.0) < 1e-6

    def test_64_bins_moments(self):
        d = sx.discretize_gain(sx.GainDistribution.exponential(1.0), 64)
        vals = np.asarray(d.values)
        probs = np.asarray(d.probabilities)
        mean = vals @ probs
        var = (vals - mean) ** 2 @ probs
        assert abs(mean - 1.0) < 1e-6
        assert abs(var - 1.0) < 0.02

    def test_constant_rejected(self):
        with pytest.raises(UnsupportedKind):
            sx.discretize_gain(sx.GainDistribution.constant(1.0), 4)

    def test_too_few_bins(self):
        with pytest.raises(ValueError):
            sx.discretize_gain(sx.GainDistribution.exponential(1.0), 1)

    @given(st.floats(0.1, 50.0), st.integers(2, 128))
    @settings(max_examples=60, deadline=None)
    def test_mean_preserved(self, mean, n_bins):
        d = sx.discretize_gain(sx.GainDistribution.exponential(mean), n_bins)
        got = float(np.dot(d.values, d.probabilities))
        assert abs(got - mean) < 1e-6 * max(1.0, mean)


class TestSystemTypes:
    def test_common_must_be_iid(self):
        with pytest.raises(ValueError, match="i.i.d."):
            sx.SystemModel(
                private=sx.GainDistribution.constant(1.0),
                common=sx.GainDistribution.markov(PAPER_CHAIN),
                access=sx.AccessModel(0.5),
                eh=sx.MarkovChainSpec([1.0], [[1.0]]),
                b_max_units=1, delta=1.0)

    @pytest.mark.parametrize("field, value", [
        ("delta", float("nan")), ("delta", float("inf")), ("delta", 0.0),
        ("delta", True), ("b_max_units", 2.5), ("b_max_units", True),
        ("b_max_units", 0)])
    def test_bad_battery_fields(self, field, value):
        # a NaN delta built a model whose b_cap was NaN
        with pytest.raises(ValueError, match=rf"^{field}: must be"):
            sx.SystemModel(
                private=sx.GainDistribution.constant(1.0),
                common=sx.GainDistribution.constant(1.0),
                access=sx.AccessModel(0.5),
                eh=sx.MarkovChainSpec([0.0], [[1.0]]),
                **{"b_max_units": 2, "delta": 1.0, field: value})

    def test_harvest_must_fit_grid(self):
        with pytest.raises(ValueError, match="multiples"):
            sx.SystemModel(
                private=sx.GainDistribution.constant(1.0),
                common=sx.GainDistribution.constant(1.0),
                access=sx.AccessModel(0.5),
                eh=sx.MarkovChainSpec([0.5], [[1.0]]),
                b_max_units=2, delta=1.0)
