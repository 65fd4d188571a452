"""Stochastic building blocks: Markov chains, gain distributions, channel
access, and the two-state harvesting presets.

All model objects are immutable after construction.  Sampling lives in the
Monte Carlo engine (``savetx.simulate``), which draws every slot for all of
its streams at once from an explicit ``numpy.random.Generator``.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import BadName, NoConvergence, ReducibleChain, UnsupportedKind

__all__ = [
    "MarkovChainSpec",
    "GainDistribution",
    "AccessModel",
    "stationary_distribution",
    "make_eh_preset",
    "discretize_gain",
    "SystemModel",
]

_ROW_SUM_TOL = 1e-12


def _reals(x, name: str, ndim: int = 0):
    """``x`` as a float (``ndim`` 0) or a float array of ``ndim`` axes.
    Refuses booleans, non-numbers and non-finite entries, which a plain
    float() takes or passes through every range check, naming ``name``."""
    arr = np.array(x, dtype=object)
    try:  # bool is a Real too, so it is refused by name
        ok = arr.ndim == ndim and all(
            isinstance(v, numbers.Real) and not isinstance(v, bool)
            and math.isfinite(v) for v in arr.flat)
    except OverflowError:  # an int beyond the float range
        ok = False
    if not ok:
        raise ValueError(f"{name}: must be " + (
            "a finite number", "a list of finite numbers",
            "a matrix of finite numbers")[ndim])
    return float(arr) if ndim == 0 else arr.astype(float)


@dataclass(frozen=True)
class MarkovChainSpec:
    """Finite-state homogeneous Markov chain over nonnegative real values.

    ``states`` holds the state values (channel power gains or harvesting
    rates); ``transition`` is the row-stochastic matrix between them.
    """

    states: tuple[float, ...]
    transition: np.ndarray

    def __init__(self, states, transition):
        states = tuple(_reals(states, "states", 1).tolist())
        transition = _reals(transition, "transition", 2)
        if len(states) < 1:
            raise ValueError("states: chain needs at least one state")
        if any(s < 0 for s in states):
            raise ValueError("states: state values must be >= 0")
        if transition.shape != (len(states), len(states)):
            raise ValueError(
                f"transition: must be {len(states)}x{len(states)}, "
                f"got {transition.shape}"
            )
        if np.any(transition < 0) or np.any(transition > 1):
            raise ValueError("transition: entries must lie in [0, 1]")
        row_err = np.abs(transition.sum(axis=1) - 1.0).max()
        if row_err > _ROW_SUM_TOL:
            raise ValueError(
                f"transition: rows must sum to 1 (off by {row_err:.2e})")
        transition.setflags(write=False)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "transition", transition)

    @property
    def n_states(self) -> int:
        return len(self.states)

    def __eq__(self, other):
        return (
            isinstance(other, MarkovChainSpec)
            and self.states == other.states
            and np.array_equal(self.transition, other.transition)
        )

    def __hash__(self):
        return hash((self.states, self.transition.tobytes()))


def _reach(adj: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure of boolean adjacency matrices (stacked
    on the leading axes), by repeated squaring."""
    r = adj | np.eye(adj.shape[-1], dtype=bool)
    for _ in range(adj.shape[-1].bit_length()):
        r = r @ r
    return r


def _closed_class(P: np.ndarray) -> np.ndarray:
    """Mask of the states that every state reaches: the chain's one closed
    class, or no state when it has several."""
    return _reach(P > 0).all(axis=0)


def stationary_distribution(chain: MarkovChainSpec) -> np.ndarray:
    """Solve pi @ P = pi, sum(pi) = 1 for a chain with one closed class.

    Transient states are allowed and get an exact 0: [[1, 0], [0.5, 0.5]]
    has law [1, 0].  A chain with several closed classes has no unique law
    and raises ReducibleChain.
    """
    P = chain.transition
    closed = _closed_class(P)
    if not closed.any():
        raise ReducibleChain("chain has more than one closed class")
    # the closed class's rows stay in it, so its block is a chain
    Q = P[closed][:, closed]
    m = len(Q)
    A = np.vstack([Q.T - np.eye(m), np.ones(m)])
    b = np.zeros(m + 1)
    b[-1] = 1.0
    law, *_ = np.linalg.lstsq(A, b, rcond=None)
    law = np.clip(law, 0.0, None)
    law /= law.sum()
    pi = np.zeros(chain.n_states)
    pi[closed] = law
    if np.abs(pi @ P - pi).max() > 1e-10:
        raise NoConvergence("stationary solve did not converge")
    return pi


def _atoms(dist: GainDistribution):
    """A constant, discrete or Markov gain as (values, probabilities); a
    Markov gain's probabilities are its stationary law."""
    if dist.kind == "constant":
        return np.array([dist.value]), np.array([1.0])
    if dist.kind == "markov":
        return (np.asarray(dist.chain.states),
                stationary_distribution(dist.chain))
    return np.asarray(dist.values), np.asarray(dist.probabilities)


@dataclass(frozen=True)
class GainDistribution:
    """Channel power-gain distribution.

    One of four kinds: a constant gain, an exponential (Rayleigh-power)
    gain, a discrete distribution over fixed values, or a Markov chain.
    Constructors refuse NaN, infinities and booleans, naming the argument.
    """

    kind: str
    value: float = 0.0
    mean: float = 0.0
    values: tuple[float, ...] = ()
    probabilities: tuple[float, ...] = ()
    chain: MarkovChainSpec | None = None

    @classmethod
    def constant(cls, value: float) -> "GainDistribution":
        value = _reals(value, "value")
        if value < 0:
            raise ValueError("value: constant gain must be >= 0")
        return cls(kind="constant", value=value)

    @classmethod
    def exponential(cls, mean: float) -> "GainDistribution":
        mean = _reals(mean, "mean")
        if mean <= 0:
            raise ValueError("mean: exponential mean must be > 0")
        return cls(kind="exponential", mean=mean)

    @classmethod
    def discrete(cls, values, probabilities) -> "GainDistribution":
        values = tuple(_reals(values, "values", 1).tolist())
        probabilities = tuple(
            _reals(probabilities, "probabilities", 1).tolist())
        if len(values) != len(probabilities) or not values:
            raise ValueError("probabilities: must align with values")
        if any(v < 0 for v in values):
            raise ValueError("values: gain values must be >= 0")
        if any(p < 0 for p in probabilities):
            raise ValueError("probabilities: must be >= 0")
        if abs(sum(probabilities) - 1.0) > 1e-9:
            raise ValueError("probabilities: must sum to 1")
        return cls(kind="discrete", values=values, probabilities=probabilities)

    @classmethod
    def markov(cls, chain: MarkovChainSpec) -> "GainDistribution":
        return cls(kind="markov", chain=chain)

    @property
    def is_iid(self) -> bool:
        return self.kind != "markov"


@dataclass(frozen=True)
class AccessModel:
    """Shared-channel access: the slot is secured with probability p_s."""

    p_s: float

    def __post_init__(self):
        p_s = _reals(self.p_s, "p_s")
        if not 0.0 <= p_s <= 1.0:
            raise ValueError(f"p_s: must lie in [0, 1], got {p_s}")
        object.__setattr__(self, "p_s", p_s)


# Default switch probabilities: (a) is i.i.d.-equivalent, (b) flips state
# more often than (a), (c) less often, (d) skews stationary mass to GOOD.
_PRESET_SWITCH = {"a": 0.5, "b": 0.9, "c": 0.1}
_PRESET_D_P_GOOD = 0.75


def make_eh_preset(name: str, switch: float | None = None,
                   p_good: float | None = None,
                   delta: float = 1.0) -> MarkovChainSpec:
    """Build harvesting preset ``name`` over states {0, 4*delta}.

    ``switch`` overrides the state-flip probability for a/b/c;
    ``p_good`` overrides the stationary GOOD probability for d.
    """
    states = (0.0, 4.0 * delta)
    if name in ("a", "b", "c"):
        s = _PRESET_SWITCH[name] if switch is None else \
            _reals(switch, "switch")
        if not 0.0 < s <= 1.0:
            raise ValueError("switch: probability must lie in (0, 1]")
        return MarkovChainSpec(states, [[1 - s, s], [s, 1 - s]])
    if name == "d":
        g = _PRESET_D_P_GOOD if p_good is None else _reals(p_good, "p_good")
        if not 0.5 < g < 1.0:
            raise ValueError("p_good: preset d needs 0.5 < p_good < 1")
        return MarkovChainSpec(states, [[1 - g, g], [1 - g, g]])
    raise BadName(f"unknown harvesting preset {name!r}")


def discretize_gain(dist: GainDistribution, n_bins: int) -> GainDistribution:
    """Equal-probability binning of an exponential gain.

    Each bin is represented by its conditional mean, so the first moment is
    preserved exactly.
    """
    if dist.kind != "exponential":
        raise UnsupportedKind(f"cannot discretize kind {dist.kind!r}")
    if n_bins < 2:
        raise ValueError("n_bins must be >= 2")
    m = dist.mean
    # Bin edges at quantiles k/n; conditional mean of Exp(m) on [a, b):
    #   m * ((a/m + 1) e^{-a/m} - (b/m + 1) e^{-b/m}) / (e^{-a/m} - e^{-b/m})
    k = np.arange(n_bins) / n_bins
    a = -m * np.log1p(-k)          # lower edges; the last bin is unbounded
    b = np.append(a[1:], np.inf)
    ea = np.exp(-a / m)
    eb = np.zeros(n_bins)
    bt = np.zeros(n_bins)
    fin = np.isfinite(b)
    eb[fin] = np.exp(-b[fin] / m)
    bt[fin] = (b[fin] / m + 1) * eb[fin]
    reps = m * ((a / m + 1) * ea - bt) / (ea - eb)
    probs = np.full(n_bins, 1.0 / n_bins)
    return GainDistribution.discrete(reps, probs)


@dataclass(frozen=True)
class SystemModel:
    """Full environment for one transmitter.

    Bundles the private/common channel models, the access model, the
    harvesting chain and battery quantization.  Rates on it are in bits.
    """

    private: GainDistribution
    common: GainDistribution
    access: AccessModel
    eh: MarkovChainSpec
    b_max_units: int
    delta: float = 1.0

    def __post_init__(self):
        # bool is an Integral too, so it is refused by name
        if isinstance(self.b_max_units, bool) or not isinstance(
                self.b_max_units, numbers.Integral) or self.b_max_units < 1:
            raise ValueError("b_max_units: must be an integer >= 1")
        if _reals(self.delta, "delta") <= 0:
            raise ValueError("delta: must be > 0")
        if self.common.kind == "markov":
            raise ValueError("common: common gains must be i.i.d.")
        # Harvest amounts must land on the battery grid.
        units = np.asarray(self.eh.states) / self.delta
        if np.abs(units - np.round(units)).max() > 1e-9:
            raise ValueError(
                "eh: harvesting states must be multiples of delta")

    @property
    def b_cap(self) -> float:
        return self.b_max_units * self.delta

    def eh_units(self) -> np.ndarray:
        return np.round(np.asarray(self.eh.states) / self.delta).astype(int)
