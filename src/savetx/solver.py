"""Optimal stopping policies for the save-then-transmit transmitter.

Two solution paths:

* ``solve_markov`` handles Markov-modulated gains and harvesting.  It works
  on the discretized state space (access flag, battery level, previous
  harvest rate, private gain, common gain) and finds the throughput-optimal
  stationary stop/continue rule by average-reward policy iteration.  The
  access flag and the common gain are drawn fresh every slot, so a rule's
  slot chain closes on (battery, harvest rate, private gain), where one
  sparse solve evaluates it exactly; the chain carries the stop slot's
  harvest and the gain chain's step into the next saving period.  For
  i.i.d. dynamics that carry-over is irrelevant and the rule collapses to
  the classic one-period comparison.

* ``optimize_threshold`` handles i.i.d. gains and harvesting, where the
  optimal rule is a fixed rate threshold.  It maximizes the simulated
  renewal throughput over the threshold with a golden-section search
  cross-checked by a coarse grid scan, sharing random numbers across
  evaluations.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from .errors import NoConvergence
from .models import (
    GainDistribution,
    SystemModel,
    SystemState,
    discretize_gain,
)
from .power import stop_rate

__all__ = [
    "SolverConfig",
    "ValueTable",
    "ThresholdPolicy",
    "value_iteration",
    "solve_markov",
    "dp_decide",
    "evaluate_threshold",
    "optimize_threshold",
]


@dataclass
class SolverConfig:
    """Numerical knobs for the solvers and their Monte Carlo evaluations."""

    value_iter_tol: float = 1e-10
    value_iter_max_sweeps: int = 200_000
    lambda_tol: float = 1e-9
    outer_max_iters: int = 100
    b_max_units: int | None = None      # None: take from the model
    delta: float | None = None
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
        for name in ("value_iter_tol", "lambda_tol", "golden_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.b_max_units is not None and self.b_max_units < 1:
            raise ValueError("b_max_units must be >= 1")
        if self.grid_points < 2:
            raise ValueError("grid_points must be >= 2")


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
    """Solved (or trial) dynamic program on the discretized state space.

    ``values[phi, b, e, h, hc]`` is the relative value of a state and
    ``continuation`` the value of skipping the slot, normalized so that
    ``values = max(rates, continuation) - lambda_star`` holds everywhere.
    The induced rule stops exactly when ``rates >= continuation``.
    """

    lambda_star: float
    delta: float
    b_values: np.ndarray
    eh_values: np.ndarray
    h_values: np.ndarray
    hc_values: np.ndarray
    rates: np.ndarray
    values: np.ndarray
    continuation: np.ndarray
    finalized: bool = False
    sweeps: int = 0
    outer_iters: int = 0

    @property
    def stop_table(self) -> np.ndarray:
        """Stop wherever the rate meets the continuation (ties stop).

        An empty battery always continues: it has nothing to transmit, and
        under periodic restarts a zero-rate stop is value-identical to
        skipping, so the tie is resolved toward skipping.
        """
        charged = self.b_values > 0
        return (self.rates >= self.continuation) \
            & charged[None, :, None, None, None]

    def slack(self) -> np.ndarray:
        """values - rates + lambda_star; nonnegative at a fixed point."""
        return self.values - self.rates + self.lambda_star

    def state_indices(self, state: SystemState) -> tuple[int, ...]:
        """Map a (possibly off-grid) state to the nearest grid cell."""
        bi = int(np.clip(round(state.b / self.delta), 0,
                         len(self.b_values) - 1))
        ei = int(np.argmin(np.abs(self.eh_values - state.e_prev)))
        hi = int(np.argmin(np.abs(self.h_values - state.h)))
        ci = int(np.argmin(np.abs(self.hc_values - state.h_common)))
        return state.phi, bi, ei, hi, ci


def dp_decide(table: ValueTable, state: SystemState) -> str:
    """Stop/continue decision for one state; rate ties stop (except that an
    empty battery always continues)."""
    return "stop" if table.stop_table[table.state_indices(state)] \
        else "continue"


# ---------------------------------------------------------------------------
# Discretized state space


class _DPSpace:
    """Grids, transition factors, and stop rewards for the DP."""

    def __init__(self, model: SystemModel, cfg: SolverConfig):
        self.delta = cfg.delta if cfg.delta is not None else model.delta
        self.bmax = (cfg.b_max_units if cfg.b_max_units is not None
                     else model.b_max_units)
        self.b_vals = np.arange(self.bmax + 1) * self.delta

        self.eh_vals = np.asarray(model.eh.states)
        self.Pe = model.eh.transition
        eh_units = np.round(self.eh_vals / self.delta).astype(int)

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
        self.next_b = np.minimum(b_idx[:, None] + eh_units[None, :],
                                 self.bmax)  # (nb, ne')

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

    def continuation(self, V: np.ndarray) -> np.ndarray:
        """E[V(next state) | current, skip] as a (nb, ne, nh) tensor."""
        return self.propagate(self.average(V))

    def sweep(self, V: np.ndarray, lam: float) -> np.ndarray:
        """One Bellman sweep, V <- max(rates, E[V' | skip]) - lam."""
        return np.maximum(self.R, self.broadcast(self.continuation(V))) - lam

    def broadcast(self, C: np.ndarray) -> np.ndarray:
        """Expand a (nb, ne, nh) continuation to the full state shape."""
        return np.broadcast_to(C[None, :, :, :, None], self.shape).copy()

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


def value_iteration(model: SystemModel, lam: float,
                    cfg: SolverConfig | None = None) -> ValueTable:
    """Fixed point of V = max(rates, E[V' | skip]) - lam for a trial lam.

    Returns an unfinalized table (lambda_star is just the trial value); the
    induced rule stops wherever the immediate rate beats the continuation.
    """
    cfg = cfg or SolverConfig()
    space = _DPSpace(model, cfg)
    V = space.R - lam
    for sweeps in range(1, cfg.value_iter_max_sweeps + 1):
        Vp, V = V, space.sweep(V, lam)
        change = np.abs(V - Vp).max()
        if change < cfg.value_iter_tol:
            break
    else:
        raise NoConvergence(
            f"value iteration did not converge in "
            f"{cfg.value_iter_max_sweeps} sweeps (last change {change:.2e})")
    C = space.broadcast(space.continuation(V))
    return ValueTable(
        lambda_star=lam, delta=space.delta, b_values=space.b_vals,
        eh_values=space.eh_vals, h_values=space.h_vals,
        hc_values=space.hc_vals, rates=space.R, values=V, continuation=C,
        finalized=False, sweeps=sweeps)


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
    """Throughput-optimal stationary stopping rule and its value table.

    Outer loop: evaluate the current rule's throughput and relative values
    g on (b, e, h) exactly, then improve greedily against E[g' | skip]; the
    stop side of the comparison credits the restart value of the state
    components that survive the transmission slot.  Converges in finitely
    many improvements.
    """
    cfg = cfg or SolverConfig()
    space = _DPSpace(model, cfg)

    charged = (space.b_vals > 0)[None, :, None, None, None]

    # warm start: rule that is greedy for zero waiting cost
    V = space.R
    for _ in range(200):
        Vp, V = V, space.sweep(V, 0.0)
        if np.abs(V - Vp).max() < 1e-9:
            break
    stop = (space.R >= space.broadcast(space.continuation(V))) & charged

    lam, g = _gain_and_bias(space, stop)
    for it in range(1, cfg.outer_max_iters + 1):
        Cg = space.propagate(g)
        q_cont = space.broadcast(Cg)
        q_stop = space.R + space.broadcast(np.broadcast_to(Cg[0], Cg.shape))
        # stopping with an empty battery is value-neutral; keep it a skip
        new_stop = (q_stop >= q_cont - 1e-12) & charged
        changed = new_stop != stop
        if not changed.any():
            break
        near_tie = np.abs(q_stop[changed] - q_cont[changed]).max() < 1e-9
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
    continuation = space.broadcast(Cg - Cg[0])
    table = ValueTable(
        lambda_star=lam, delta=space.delta, b_values=space.b_vals,
        eh_values=space.eh_vals, h_values=space.h_vals,
        hc_values=space.hc_vals, rates=space.R,
        values=np.where(stop, space.R, continuation) - lam,
        continuation=continuation, finalized=True, outer_iters=it)
    fixed_point_err = np.abs(
        table.values - (np.maximum(table.rates, table.continuation) - lam)
    ).max()
    if fixed_point_err > 1e-7:
        raise NoConvergence(f"fixed-point residual {fixed_point_err:.2e}")
    return table


# ---------------------------------------------------------------------------
# Threshold solver (i.i.d. dynamics)


def evaluate_threshold(model: SystemModel, gamma: float,
                       cfg: SolverConfig | None = None):
    """Monte Carlo renewal metrics of the rule 'stop once rate >= gamma'."""
    from .simulate import Policy, run_simulation

    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    cfg = cfg or SolverConfig()
    model = _with_cfg_battery(model, cfg)
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


def _with_cfg_battery(model: SystemModel, cfg: SolverConfig) -> SystemModel:
    """Apply config overrides of the battery grid, if any."""
    changes = {}
    if cfg.b_max_units is not None and cfg.b_max_units != model.b_max_units:
        changes["b_max_units"] = cfg.b_max_units
    if cfg.delta is not None and cfg.delta != model.delta:
        changes["delta"] = cfg.delta
    return replace(model, **changes) if changes else model
