"""Optimal stopping policies for the save-then-transmit transmitter.

Two solution paths:

* ``solve_markov`` handles Markov-modulated gains and harvesting.  It works
  on the discretized state space (access flag, battery level, previous
  harvest rate, private gain, common gain) and finds the throughput-optimal
  stationary stop/continue rule by average-reward policy iteration, started
  from the rule that stops wherever the battery is charged.  The access
  flag and the common gain are drawn fresh every slot, so a rule's slot
  chain closes on (battery, harvest rate, private gain), where one sparse
  solve evaluates it exactly; the chain carries the stop slot's harvest and
  the gain chain's step into the next saving period.  The solved rule is a
  threshold table on that carried state: stop iff the battery is charged
  and the rate meets gamma(b, e, h).

* ``optimize_threshold`` handles i.i.d. gains and harvesting, where the
  optimal rule is a fixed rate threshold.  It maximizes the simulated
  renewal throughput over the threshold with a golden-section search
  cross-checked by a coarse grid scan, sharing random numbers across
  evaluations.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from .errors import NoConvergence
from .models import (
    GainDistribution,
    SystemModel,
    discretize_gain,
)
from .power import stop_rate

__all__ = [
    "SolverConfig",
    "ValueTable",
    "ThresholdPolicy",
    "solve_markov",
    "evaluate_threshold",
    "optimize_threshold",
]


@dataclass
class SolverConfig:
    """Numerical knobs for the solvers and their Monte Carlo evaluations;
    the battery grid is the model's."""

    lambda_tol: float = 1e-9
    outer_max_iters: int = 100
    common_bins: int = 64
    mc_periods: int = 200_000
    mc_warmup_periods: int = 1000
    mc_replications: int = 16
    mc_streams: int = 512
    mc_seed: int = 0
    slot_cap: int = 1_000_000
    gamma_hi: float = 4.0
    grid_points: int = 21
    golden_tol: float = 5e-3

    def __post_init__(self):
        # bool is an Integral and a Real too, so it is refused by name
        for name, low in (("outer_max_iters", 1), ("common_bins", 2),
                          ("grid_points", 2)):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral) \
                    or v < low:
                raise ValueError(f"{name}: must be an integer >= {low}")
        for name in ("lambda_tol", "golden_tol", "gamma_hi"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Real) \
                    or not 0 < v < math.inf:
                raise ValueError(f"{name}: must be a finite number > 0")


@dataclass(frozen=True)
class ThresholdPolicy:
    """Pure-threshold stopping rule: stop at the first rate >= gamma."""

    gamma: float
    lambda_star: float = float("nan")

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")


@dataclass
class ValueTable:
    """Solved dynamic program on the discretized state space.

    ``rates[phi, b, e, h, hc]`` is the stop rate of each grid state.  The
    rule is one threshold table on the carried state (battery, harvest
    rate, private gain): stop iff the battery is charged and the rate meets
    ``gamma[b, e, h] = Cg[b, e, h] - Cg[0, e, h]``, where ``Cg`` is the
    expected relative value one slot ahead.  ``gamma[0]`` is 0.
    """

    lambda_star: float
    delta: float
    h_values: np.ndarray
    hc_values: np.ndarray
    rates: np.ndarray
    gamma: np.ndarray
    outer_iters: int = 0

    @property
    def stop_table(self) -> np.ndarray:
        """Stop wherever the rate meets gamma (ties stop).

        An empty battery always continues: it has nothing to transmit, and
        under periodic restarts a zero-rate stop is value-identical to
        skipping, so the tie is resolved toward skipping.
        """
        stop = self.rates >= self.gamma[None, :, :, :, None]
        stop[:, 0] = False
        return stop


# ---------------------------------------------------------------------------
# Discretized state space


class _DPSpace:
    """Grids, transition factors, and stop rewards for the DP on the
    model's battery grid."""

    def __init__(self, model: SystemModel, cfg: SolverConfig):
        self.delta = model.delta
        self.b_vals = np.arange(model.b_max_units + 1) * self.delta

        self.eh_vals = np.asarray(model.eh.states)
        self.Pe = model.eh.transition

        self.h_vals, self.Ph = _private_chain(model.private, cfg.common_bins)
        self.hc_vals, self.hc_probs = _common_atoms(model.common,
                                                    cfg.common_bins)
        ps = model.access.p_s
        self.p_phi = np.array([1.0 - ps, ps])

        nb, ne = len(self.b_vals), len(self.eh_vals)
        nh, nc = len(self.h_vals), len(self.hc_vals)
        self.shape = (2, nb, ne, nh, nc)

        # next battery index after harvesting in state e', from level b
        b_idx = np.arange(nb)
        self.next_b = np.minimum(b_idx[:, None] + model.eh_units()[None, :],
                                 model.b_max_units)  # (nb, ne')

        phi = np.array([0, 1])
        self.R = stop_rate(
            self.b_vals[None, :, None, None, None],
            self.h_vals[None, None, None, :, None],
            self.hc_vals[None, None, None, None, :],
            phi[:, None, None, None, None],
            base=model.log_base,
        ) * np.ones(self.shape)

    def average(self, V: np.ndarray) -> np.ndarray:
        """Mean over the access flag and common gain, which are drawn fresh
        each slot: a (nb, ne, nh) tensor on the pre-observation state."""
        return np.einsum("p,pbehc,c->beh", self.p_phi, V, self.hc_probs)

    def propagate(self, vbar: np.ndarray) -> np.ndarray:
        """E[vbar(next pre-observation state) | current, skip] as a
        (nb, ne, nh) tensor."""
        # battery moves to next_b[b, e'] when the harvest state is e'
        gathered = vbar[self.next_b, np.arange(len(self.eh_vals))[None, :], :]
        return np.einsum("ef,bfg,hg->beh", self.Pe, gathered, self.Ph)

    def kernel(self, p_stop: np.ndarray) -> sparse.coo_array:
        """Slot-to-slot kernel on (b, e, h) of a rule that stops with
        probability ``p_stop``: a skip moves the battery to ``next_b[b, e']``,
        a stop restarts at ``next_b[0, e']``, and both step the harvest and
        private-gain chains.  Entries that coincide at the cap add up."""
        red = p_stop.shape
        # axes (skip/stop, b, e, h, e', h')
        a, b, e, h, e2, h2 = np.ix_(*map(np.arange, (2,) + red + red[1:]))
        src = np.ravel_multi_index((b, e, h), red)
        dest = np.ravel_multi_index((self.next_b[b * (1 - a), e2], e2, h2),
                                    red)
        p = p_stop[b, e, h]
        w = np.where(a, p, 1.0 - p) * self.Pe[e, e2] * self.Ph[h, h2]
        src, dest, w = np.broadcast_arrays(src, dest, w)
        edge = w > 0
        return sparse.coo_array((w[edge], (src[edge], dest[edge])),
                                shape=(p_stop.size, p_stop.size))


def _private_chain(dist: GainDistribution, bins: int):
    """Private gain as (values, row-stochastic matrix)."""
    if dist.kind == "markov":
        return np.asarray(dist.chain.states), dist.chain.transition
    if dist.kind == "constant":
        return np.array([dist.value]), np.array([[1.0]])
    if dist.kind == "exponential":
        d = discretize_gain(dist, bins)
        vals = np.asarray(d.values)
        probs = np.asarray(d.probabilities)
    else:
        vals = np.asarray(dist.values)
        probs = np.asarray(dist.probabilities)
    return vals, np.tile(probs, (len(vals), 1))


def _common_atoms(dist: GainDistribution, bins: int):
    """Common gain as (values, probabilities)."""
    if dist.kind == "constant":
        return np.array([dist.value]), np.array([1.0])
    if dist.kind == "exponential":
        dist = discretize_gain(dist, bins)
    return np.asarray(dist.values), np.asarray(dist.probabilities)


# ---------------------------------------------------------------------------
# Markov solver


def _gain_and_bias(space: _DPSpace, stop: np.ndarray):
    """Long-run throughput and relative values of a stationary rule.

    Solves g + gain = average(stop * rates) + K g on the pre-observation
    state (b, e, h), with g pinned at state 0, and returns (gain, g); the
    gain is the renewal ratio E[rate at stop]/E[T].
    """
    # imported here, not at module load: the threshold paths never need it
    from scipy.sparse.csgraph import connected_components

    K = space.kernel(space.average(stop))
    m = K.shape[0]
    # one gain fits every state only if a single class is closed
    n_cls, cls = connected_components(K, connection="strong")
    closed = n_cls - len(np.unique(cls[K.row][cls[K.row] != cls[K.col]]))
    if closed > 1:
        raise NoConvergence(f"the rule's chain has {closed} recurrent classes")
    r = space.average(np.where(stop, space.R, 0.0)).ravel()
    # pinning g[0] = 0 frees column 0 of I - K for the gain
    A = sparse.hstack(
        [np.ones((m, 1)), (sparse.eye_array(m) - K).tocsc()[:, 1:]], "csc")
    x = spsolve(A, r)
    resid = np.abs(A @ x - r).max()
    if not resid <= 1e-6:
        raise NoConvergence(f"policy evaluation residual {resid:.2e}")
    return float(x[0]), np.r_[0.0, x[1:]].reshape(space.shape[1:4])


def solve_markov(model: SystemModel, cfg: SolverConfig | None = None
                 ) -> ValueTable:
    """Throughput-optimal stationary stopping rule and its threshold table.

    Average-reward policy iteration, started from the rule that stops
    wherever the battery is charged.  Each outer step evaluates the current
    rule's throughput and relative values g on (b, e, h) exactly, then
    improves greedily against Cg = E[g' | skip]; the stop side of the
    comparison credits the restart value Cg[0] of the state components that
    survive the transmission slot.  Converges in finitely many improvements.
    """
    cfg = cfg or SolverConfig()
    space = _DPSpace(model, cfg)
    R = space.R

    charged = (space.b_vals > 0)[None, :, None, None, None]
    stop = np.broadcast_to(charged, space.shape).copy()
    lam, g = _gain_and_bias(space, stop)
    for it in range(1, cfg.outer_max_iters + 1):
        Cg = space.propagate(g)
        q_cont = Cg[None, :, :, :, None]
        q_stop = R + Cg[0][None, None, :, :, None]
        # stopping with an empty battery is value-neutral; keep it a skip
        new_stop = (q_stop >= q_cont - 1e-12) & charged
        changed = new_stop != stop
        if not changed.any():
            break
        near_tie = np.abs(q_stop - q_cont)[changed].max() < 1e-9
        stop = new_stop
        lam_new, g = _gain_and_bias(space, stop)
        settled = abs(lam_new - lam) < cfg.lambda_tol and near_tie
        lam = lam_new
        if settled:
            break
    else:
        raise NoConvergence(
            f"policy improvement did not settle in {cfg.outer_max_iters} "
            "iterations")

    Cg = space.propagate(g)
    gamma = Cg - Cg[0]
    cont = gamma[None, :, :, :, None]
    fixed_point_err = np.abs(np.where(stop, R, cont) - np.maximum(R, cont)
                             ).max()
    if fixed_point_err > 1e-7:
        raise NoConvergence(f"fixed-point residual {fixed_point_err:.2e}")
    return ValueTable(
        lambda_star=lam, delta=space.delta, h_values=space.h_vals,
        hc_values=space.hc_vals, rates=R, gamma=gamma, outer_iters=it)


# ---------------------------------------------------------------------------
# Threshold solver (i.i.d. dynamics)


def evaluate_threshold(model: SystemModel, gamma: float,
                       cfg: SolverConfig | None = None):
    """Monte Carlo renewal metrics of the rule 'stop once rate >= gamma'."""
    from .simulate import Policy, run_simulation

    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    cfg = cfg or SolverConfig()
    return run_simulation(
        Policy.threshold(gamma), model, cfg.mc_periods, cfg.mc_seed,
        warmup_periods=cfg.mc_warmup_periods,
        replications=cfg.mc_replications, streams=cfg.mc_streams,
        slot_cap=cfg.slot_cap)


def optimize_threshold(model: SystemModel, cfg: SolverConfig | None = None
                       ) -> ThresholdPolicy:
    """Best pure threshold by golden-section search plus a coarse grid scan.

    All evaluations share the same seed (common random numbers); the better
    of the two searches wins.
    """
    cfg = cfg or SolverConfig()
    if not (model.private.is_iid and model.common.is_iid):
        raise ValueError("pure-threshold optimization needs i.i.d. gains")
    cache: dict[float, float] = {}

    def f(gamma: float) -> float:
        g = float(gamma)
        if g not in cache:
            cache[g] = evaluate_threshold(model, g, cfg).throughput
        return cache[g]

    grid = np.linspace(0.0, cfg.gamma_hi, cfg.grid_points)
    grid_vals = [f(g) for g in grid]
    g_grid = float(grid[int(np.argmax(grid_vals))])

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.0, cfg.gamma_hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > cfg.golden_tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    g_golden = 0.5 * (a + b)

    best = max([g_grid, g_golden], key=f)
    return ThresholdPolicy(gamma=float(best), lambda_star=f(best))

