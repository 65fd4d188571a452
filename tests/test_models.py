import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

import savetx as sx
from savetx.errors import BadName, ReducibleChain, UnsupportedKind
from savetx.simulate import _GainSampler, _PrivateSampler, _draw_slot, \
    _step_chain

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
    phi, *_ = _draw_slot(model, _PrivateSampler(model),
                         _GainSampler(model.common), np.zeros(n, int), rng, n)
    return phi


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
        vals, idx = sampler.draw(rng, 10)
        assert (vals == 32.0).all() and (idx == 0).all()

    def test_exponential_mean_lln(self):
        sampler = _GainSampler(sx.GainDistribution.exponential(1.0))
        rng = np.random.default_rng(11)
        draws, _ = sampler.draw(rng, 1_000_000)
        assert abs(draws.mean() - 1.0) < 0.005

    def test_degenerate_discrete(self):
        sampler = _GainSampler(sx.GainDistribution.discrete([0.0], [1.0]))
        vals, _ = sampler.draw(np.random.default_rng(0), 3)
        assert vals.tolist() == [0.0] * 3

    def test_discrete_chi_square(self):
        probs = [0.2, 0.5, 0.3]
        sampler = _GainSampler(
            sx.GainDistribution.discrete([1.0, 2.0, 4.0], probs))
        rng = np.random.default_rng(5)
        draws, idx = sampler.draw(rng, 1_000_000)
        assert (draws == np.array([1.0, 2.0, 4.0])[idx]).all()
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
        preset = sx.make_eh_preset("a")
        assert np.allclose(preset.chain.transition, 0.5)
        assert preset.chain.states == (0.0, 4.0)

    @pytest.mark.parametrize("name,switch", [("a", None), ("b", 0.9),
                                             ("c", 0.1)])
    def test_symmetric_presets_share_stationary(self, name, switch):
        preset = sx.make_eh_preset(name, switch=switch)
        pi = sx.stationary_distribution(preset.chain)
        assert np.abs(pi - 0.5).max() < 1e-12

    def test_preset_d_favors_good(self):
        preset = sx.make_eh_preset("d")
        pi = sx.stationary_distribution(preset.chain)
        assert pi[1] > 0.5

    def test_delta_scales_states(self):
        preset = sx.make_eh_preset("a", delta=1e-3)
        assert preset.chain.states == (0.0, 4e-3)

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
    def test_state_validation(self):
        with pytest.raises(ValueError):
            sx.SystemState(phi=2, b=0.0, e_prev=0.0, h=1.0, h_common=1.0)
        with pytest.raises(ValueError):
            sx.SystemState(phi=0, b=-1.0, e_prev=0.0, h=1.0, h_common=1.0)

    def test_common_must_be_iid(self):
        with pytest.raises(ValueError, match="i.i.d."):
            sx.SystemModel(
                private=sx.GainDistribution.constant(1.0),
                common=sx.GainDistribution.markov(PAPER_CHAIN),
                access=sx.AccessModel(0.5),
                eh=sx.MarkovChainSpec([1.0], [[1.0]]),
                b_max_units=1, delta=1.0)

    def test_harvest_must_fit_grid(self):
        with pytest.raises(ValueError, match="multiples"):
            sx.SystemModel(
                private=sx.GainDistribution.constant(1.0),
                common=sx.GainDistribution.constant(1.0),
                access=sx.AccessModel(0.5),
                eh=sx.MarkovChainSpec([0.5], [[1.0]]),
                b_max_units=2, delta=1.0)
