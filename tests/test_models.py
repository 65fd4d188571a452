from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate, stats

import savetx as sx
from savetx.errors import BadName, ReducibleChain
from savetx.simulate import _BLOCK, _Chain, _SlotStream, _access, \
    _cum_table, _inverse_cdf
from savetx.solver import _bins

from oracles import MARKOV_MODEL, SlotDraws, step_chain

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
        ("p_good", lambda: sx.make_eh_preset("d", p_good=NAN)),
        ("p_s", lambda: sx.AccessModel(True)),
        ("p_s", lambda: sx.AccessModel("0.5")),
        ("p_s", lambda: sx.AccessModel(NAN))],
        ids=lambda v: v if isinstance(v, str) else "")
    def test_refused(self, name, make):
        with pytest.raises(ValueError, match=f"^{name}: "):
            make()

    def test_numpy_scalars_accepted(self):
        gain = sx.GainDistribution.discrete(np.array([0.5, 2.0]),
                                            [np.float64(0.25), 0.75])
        assert gain.values == (0.5, 2.0)
        assert sx.GainDistribution.exponential(np.int64(2)).mean == 2.0
        assert type(sx.AccessModel(np.int64(1)).p_s) is float


def whole_matrix_law(P):
    """Least-squares pi (P - I) = 0, sum(pi) = 1 on the whole matrix,
    clipped at 0 and normalized."""
    n = len(P)
    A = np.vstack([P.T - np.eye(n), np.ones(n)])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi = np.clip(np.linalg.lstsq(A, b, rcond=None)[0], 0.0, None)
    return pi / pi.sum()


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

    @pytest.mark.parametrize("P, law", [
        ([[1.0, 0.0], [0.5, 0.5]], [1.0, 0.0]),
        ([[0.5, 0.5], [0.0, 1.0]], [0.0, 1.0]),
        ([[0.2, 0.4, 0.4], [0.0, 0.3, 0.7], [0.0, 0.6, 0.4]],
         [0.0, 6 / 13, 7 / 13])])
    def test_transient_states_get_exact_zeros(self, P, law):
        pi = sx.stationary_distribution(sx.MarkovChainSpec(range(len(P)), P))
        assert pi[np.equal(law, 0.0)].tolist() == [0.0]
        assert pi == pytest.approx(law, abs=1e-15)

    @pytest.mark.parametrize("chain", [
        *(sx.make_eh_preset(name) for name in "abcd"),
        PAPER_CHAIN,  # fig3's private gain
        sx.MarkovChainSpec(MARKOV_MODEL["private"]["states"],
                           MARKOV_MODEL["private"]["transition"])])
    def test_irreducible_law_is_the_whole_matrix_solve(self, chain):
        # the solve on the closed class's block is, for an irreducible
        # chain, the solve on the whole matrix, bit for bit
        assert np.array_equal(sx.stationary_distribution(chain),
                              whole_matrix_law(chain.transition))

    def test_reducible_raises(self):
        chain = sx.MarkovChainSpec([0.0, 1.0], [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ReducibleChain):
            sx.stationary_distribution(chain)

    def test_periodic_chain_ok(self):
        chain = sx.MarkovChainSpec([0.0, 1.0], [[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(sx.stationary_distribution(chain), [0.5, 0.5])


def cum_rows(chain):
    return np.cumsum(chain.transition, axis=1)


def one_state_model(private=None, p_s=0.5, common=None):
    return sx.SystemModel(
        private=private or sx.GainDistribution.constant(1.0),
        common=common or sx.GainDistribution.constant(1.0),
        access=sx.AccessModel(p_s),
        eh=sx.MarkovChainSpec([1.0], [[1.0]]),
        b_max_units=1, delta=1.0)


def stream_of(lanes, seed, **gains):
    """A slot stream of ``lanes`` lanes on a one-state harvest chain."""
    return _SlotStream(one_state_model(**gains),
                       np.random.default_rng(seed), lanes)


def block_draws(row, n, seed, **gains):
    """``n`` draws of the stream's row ``row`` (0 access uniform, 1 private
    gain, 2 common gain), one full block of ``n / _BLOCK`` lanes."""
    return stream_of(n // _BLOCK, seed, **gains).fill()[row].ravel()


def chain_step(P, state, u):
    """The states that one step of the walk takes lanes in ``state`` to
    under the uniforms ``u``, on the transition rows ``P`` (rows of the
    states a lane may be in, a column per state it may step to)."""
    P = np.asarray(P)
    chain = _Chain(SimpleNamespace(states=np.arange(P.shape[1]),
                                   transition=P), len(u))
    chain.state = state
    chain.walk(u[None], np.empty((1, len(u))))
    return chain.states(1, after=True)[0]


def access_draws(p_s, rng, n):
    model = one_state_model(p_s=p_s)
    u = _SlotStream(model, rng, n // _BLOCK).fill()[0]
    return _access(u, model.access.p_s)


def random_chain(rng, n, states=None):
    """An irreducible chain of ``n`` states: random rows with about a third
    of their entries zeroed, and a cycle through every state kept."""
    P = rng.dirichlet(np.ones(n), size=n)
    P[rng.random((n, n)) < 0.3] = 0.0
    P[np.arange(n), (np.arange(n) + 1) % n] += 0.1
    if states is None:
        states = rng.uniform(0.0, 4.0, n).round(3)
    return sx.MarkovChainSpec(states, P / P.sum(axis=1, keepdims=True))


def random_gain(rng, kind):
    if kind == "constant":
        return sx.GainDistribution.constant(rng.uniform(0.0, 4.0))
    if kind == "exponential":
        return sx.GainDistribution.exponential(rng.uniform(0.2, 3.0))
    if kind == "discrete":
        n = int(rng.integers(1, 5))
        return sx.GainDistribution.discrete(rng.uniform(0.0, 4.0, n),
                                            rng.dirichlet(np.ones(n)))
    return sx.GainDistribution.markov(random_chain(rng,
                                                   int(rng.integers(1, 5))))


class TestSampling:
    """The slot stream: every draw of a pass, a block of slots at a time."""

    @given(st.sampled_from(["constant", "discrete", "exponential", "markov"]),
           st.sampled_from(["constant", "discrete", "exponential"]),
           st.integers(1, 3), st.sampled_from([1, 7, 64, 256]),
           st.integers(1, 3 * _BLOCK), st.integers(0, 2 ** 32 - 1))
    # a one-state harvest chain, as fig3's default, on 256 lanes: state
    # indices sized to the states alone must still serve every lane
    @example("exponential", "exponential", 1, 256, 3, 0)
    @settings(max_examples=120, deadline=None)
    def test_matches_per_slot_draws(self, private, common, eh_states, lanes,
                                    slots, seed):
        """The stream's blocks are the per-slot reference's draws, value
        for value, with the chain states the engine reads: every private
        kind (a Markov chain of 1 to 4 states) against every common kind,
        exponential gains of different means, 1 lane or many, and a short
        last block."""
        rng = np.random.default_rng(seed)
        model = sx.SystemModel(
            private=random_gain(rng, private),
            common=random_gain(rng, common),
            access=sx.AccessModel(0.5),
            eh=random_chain(rng, eh_states,
                            rng.integers(0, 5, eh_states).astype(float)),
            b_max_units=1, delta=1.0)
        stream = _SlotStream(model, np.random.Generator(np.random.PCG64(
            seed)), lanes)
        ref = SlotDraws(model, np.random.Generator(np.random.PCG64(seed)),
                        lanes)
        assert np.array_equal(stream.harvest0, ref.harvest0)
        for first in range(0, slots, _BLOCK):
            n = min(_BLOCK, slots - first)
            block = stream.fill(n)
            assert block.shape == (4, n, lanes)
            e_idx, h_idx = stream.states(n)
            for i in range(n):
                *values, e_want, h_want = ref.slot()
                for got, want in zip(block[:, i], values):
                    assert np.array_equal(got, want)
                assert np.array_equal(e_idx[i], e_want)
                assert (h_idx is None) == (h_want is None)
                if h_want is not None:
                    assert np.array_equal(h_idx[i], h_want)

    def test_forced_transition(self):
        stream = stream_of(100, 0,
                           private=sx.GainDistribution.markov(PAPER_CHAIN))
        stream.private.state = np.zeros(100, int)
        block = stream.fill(1)
        assert (stream.states(1)[1] == 1).all()
        assert (block[1, 0] == PAPER_CHAIN.states[1]).all()

    def test_single_state_loops(self):
        chain = sx.MarkovChainSpec([2.0], [[1.0]])
        stream = stream_of(5, 0, private=sx.GainDistribution.markov(chain))
        stream.fill()
        assert stream.states(_BLOCK)[1].tolist() == [[0] * 5] * _BLOCK

    def test_bad_index(self):
        stream = stream_of(1, 0,
                           private=sx.GainDistribution.markov(PAPER_CHAIN))
        stream.private.state = np.array([5])
        with pytest.raises(IndexError):
            stream.fill(1)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_matches_broadcast_step(self, k):
        rng = np.random.default_rng(k)
        P = rng.dirichlet(np.ones(k), size=k)
        cum = np.cumsum(P, axis=1)
        idx = rng.integers(0, k, 1000)
        u = np.random.default_rng(5).random(1000)
        got = chain_step(P, idx, u)
        want = step_chain(cum, idx, np.random.default_rng(5), 1000)
        # states are kept in the smallest unsigned type that holds them
        assert got.dtype == np.min_scalar_type(k - 1)
        assert (got == want).all()
        got = _inverse_cdf(_cum_table(P[-1]), u, np.empty(1000, np.uint8))
        assert (got == step_chain(cum[-1], None, np.random.default_rng(5),
                                  1000)).all()

    @pytest.mark.parametrize("P, kept", [
        # the last column is always dropped
        ([[0.9, 0.1], [0.3, 0.7]], 1),
        # both cumsums end at 0.9999999999999999; the last state takes
        # [that, 1) too
        ([[0.2, 0.7, 0.1], [0.3, 0.6, 0.1]], 2),
        # only row 1 ends at 0.9999999999999999: the last column goes all
        # the same, and no uniform indexes past the last state
        ([[0.5, 0.5, 0.0], [0.2, 0.7, 0.1]], 2),
        # the middle column is 1.0 in every row and is dropped
        ([[0.5, 0.5, 0.0], [0.1, 0.9, 0.0]], 1),
    ])
    def test_cum_table_skips_columns_of_ones(self, P, kept):
        full = np.cumsum(P, axis=1)
        cum = _cum_table(np.asarray(P))
        assert cum.shape == (len(P), kept)
        assert (full[:, kept:-1] >= 1.0).all()
        idx = np.random.default_rng(3).integers(0, len(P), 10_000)
        u = np.random.default_rng(5).random(10_000)
        got = chain_step(P, idx, u)
        want = step_chain(full, idx, np.random.default_rng(5), 10_000)
        assert (got == want).all() and got.max() < len(P[0])
        got = _inverse_cdf(_cum_table(np.asarray(P[1])), u,
                           np.empty(10_000, np.uint8))
        assert (got == step_chain(full[1], None, np.random.default_rng(5),
                                  10_000)).all()

    def test_last_state_takes_the_rest(self):
        """A uniform above the last cumulative sum draws the last state
        (it indexed one past the states): probabilities [0.5, 0.5 - 5e-10]
        sum to 1 - 5e-10, inside the 1e-9 that ``discrete`` accepts, and
        transition rows can sum to 1 - 2**-53."""
        dist = sx.GainDistribution.discrete([1.0, 2.0], [0.5, 0.5 - 5e-10])
        u = np.array([1.0 - 1e-10])
        idx = _inverse_cdf(_cum_table(dist.probabilities), u,
                           np.empty(1, np.uint8))
        assert np.asarray(dist.values)[idx].tolist() == [2.0]
        # rows summing to 0.9999999999999999 = 1 - 2**-53, the largest
        # uniform the generator returns
        chain = sx.MarkovChainSpec([1.0, 2.0, 3.0], [[0.2, 0.7, 0.1],
                                                     [0.3, 0.6, 0.1],
                                                     [0.5, 0.4, 0.1]])
        got = chain_step(chain.transition, np.arange(3),
                         np.full(3, 1.0 - 2.0 ** -53))
        assert got.tolist() == [2, 2, 2]

    def test_switch_fraction_lln(self):
        chain = sx.MarkovChainSpec([0.0, 1.0], [[0.5, 0.5], [0.5, 0.5]])
        n = 1_000_000
        stream = stream_of(n // _BLOCK, 42,
                           private=sx.GainDistribution.markov(chain))
        vals = stream.fill()[1]
        cur = stream.private.states(_BLOCK, after=False)
        nxt = stream.private.states(_BLOCK, after=True)
        assert (vals == np.asarray(chain.states)[nxt]).all()
        assert abs((nxt != cur).mean() - 0.5) < 0.002

    def test_sample_next_chi_square(self):
        rng_p = np.random.default_rng(9)
        P = rng_p.dirichlet(np.ones(3), size=3)
        chain = sx.MarkovChainSpec([1.0, 2.0, 3.0], P)
        n = 1_000_000
        nxt = chain_step(chain.transition, np.ones(n, int),
                         np.random.default_rng(7).random(n))
        counts = np.bincount(nxt, minlength=3)
        _, p = stats.chisquare(counts, P[1] * n)
        assert p > 0.001

    def test_constant_gain(self):
        vals = stream_of(10, 0, private=sx.GainDistribution.constant(
            2.0 ** 5)).fill(1)[1, 0]
        assert vals.shape == (10,) and (vals == 32.0).all()

    def test_exponential_mean_lln(self):
        draws = block_draws(1, 1_000_000, 11,
                            private=sx.GainDistribution.exponential(1.0))
        assert abs(draws.mean() - 1.0) < 0.005

    def test_degenerate_discrete(self):
        vals = stream_of(3, 0, common=sx.GainDistribution.discrete(
            [0.0], [1.0])).fill(1)[2, 0]
        assert vals.tolist() == [0.0] * 3

    def test_discrete_chi_square(self):
        probs = [0.2, 0.5, 0.3]
        draws = block_draws(2, 1_000_000, 5, common=sx.GainDistribution
                            .discrete([1.0, 2.0, 4.0], probs))
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
        with pytest.raises(ValueError, match="^p_s: must lie in"):
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
    """The DP's equal-probability bins of an exponential gain
    (``solver._bins``), each at its conditional mean."""

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
        d = _bins(1.0, 2)
        assert np.allclose(d.probabilities, [0.5, 0.5])
        assert np.allclose(d.values, self.quad_conditional_means(1.0, 2),
                           atol=1e-9)
        assert abs(np.dot(d.values, d.probabilities) - 1.0) < 1e-6

    def test_64_bins_moments(self):
        d = _bins(1.0, 64)
        vals = np.asarray(d.values)
        probs = np.asarray(d.probabilities)
        mean = vals @ probs
        var = (vals - mean) ** 2 @ probs
        assert abs(mean - 1.0) < 1e-6
        assert abs(var - 1.0) < 0.02

    @given(st.floats(0.1, 50.0), st.integers(2, 128))
    @settings(max_examples=60, deadline=None)
    def test_mean_preserved(self, mean, n_bins):
        d = _bins(mean, n_bins)
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
