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
  and the rate meets gamma(b, e, h); the engine reads it on the drawn rate.

* ``threshold_metrics`` evaluates a constant rate threshold exactly when
  the gains are i.i.d., under any harvest chain.  The rule's slot chain
  closes on (battery, harvest rate), and the same sparse solve gives the
  throughput and the mean saving time.  Per battery level, atom gains are
  summed exactly; an exponential gain is inverted in closed form, its tail
  mean of the rate is closed form, and a second exponential gain is
  integrated by Gauss rules on the pieces where the integrand is smooth.
  ``optimize_threshold`` maximizes that exact throughput over the
  threshold with a golden-section search cross-checked by a coarse grid
  scan.

This module only solves: it draws no random numbers.  Monte Carlo
estimates of the solved rules, with standard errors, come from the engine
in ``savetx.simulate`` (``run_policies``).
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, StateSpaceTooLarge, UnsupportedKind
from .models import (
    GainDistribution,
    SystemModel,
    discretize_gain,
)
from .power import check_gamma, stop_rate

__all__ = [
    "SolverConfig",
    "ValueTable",
    "solve_markov",
    "threshold_metrics",
    "optimize_threshold",
]


@dataclass
class SolverConfig:
    """Numerical knobs of the solvers; the battery grid is the model's,
    and Monte Carlo sizes belong to the engine's callers."""

    lambda_tol: float = 1e-9
    outer_max_iters: int = 100
    common_bins: int = 64
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

# most grid states (access flag x battery x harvest x private gain x common
# gain) the DP takes.  The solve holds several float arrays of this size
# and a slot kernel of about as many entries, a few hundred MB at the bound.
# fig3's default model has 8 states and the markov benchmark's 2,688; fig4's
# model at its "large" battery would have 164 million.
MAX_DP_STATES = 1_000_000


class _DPSpace:
    """Grids, transition factors, and stop rewards for the DP on the
    model's battery grid."""

    def __init__(self, model: SystemModel, cfg: SolverConfig):
        self.b_vals = np.arange(model.b_max_units + 1) * model.delta

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
        states = math.prod(self.shape)
        if states > MAX_DP_STATES:
            raise StateSpaceTooLarge(
                f"the DP would have {states:,} states (b_max_units "
                f"{model.b_max_units}, common_bins {cfg.common_bins}), "
                f"more than {MAX_DP_STATES:,}; lower b_max_units or "
                "common_bins")

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
    if dist.kind == "exponential":
        dist = discretize_gain(dist, bins)
    return _atoms(dist)


# ---------------------------------------------------------------------------
# Slot chain on the carried state, shared by both solvers


def _slot_kernel(p_stop: np.ndarray, next_b: np.ndarray, Pe: np.ndarray,
                 Ph: np.ndarray) -> sparse.coo_array:
    """Slot-to-slot kernel on the carried cells (b, e, h) of a rule that
    stops with probability ``p_stop[b, e, h]``: a skip moves the battery to
    ``next_b[b, e']``, a stop restarts at ``next_b[0, e']``, and both step
    the harvest chain ``Pe`` and the private-gain chain ``Ph``.  Entries
    that coincide at the cap add up."""
    from scipy import sparse

    red = p_stop.shape
    # axes (skip/stop, b, e, h, e', h')
    a, b, e, h, e2, h2 = np.ix_(*map(np.arange, (2,) + red + red[1:]))
    src = np.ravel_multi_index((b, e, h), red)
    dest = np.ravel_multi_index((next_b[b * (1 - a), e2], e2, h2), red)
    p = p_stop[b, e, h]
    w = np.where(a, p, 1.0 - p) * Pe[e, e2] * Ph[h, h2]
    src, dest, w = np.broadcast_arrays(src, dest, w)
    edge = w > 0
    return sparse.coo_array((w[edge], (src[edge], dest[edge])),
                            shape=(p_stop.size, p_stop.size))


def _chain_gains(K: sparse.coo_array, r: np.ndarray) -> np.ndarray:
    """Long-run averages of per-slot rewards on the slot chain ``K``.

    Solves g + gain = r + K g with g pinned at state 0 and returns x with
    the gain in ``x[0]`` and g[1:] in ``x[1:]``; the gain is pi @ r for the
    chain's stationary law pi.  ``r`` may hold several reward columns,
    which share one factorization.
    """
    # scipy is imported inside the functions that use it (here, in
    # _slot_kernel and _log_mean, and in power's _mean_power and
    # solve_water_level), not at module load, so that importing savetx
    # needs numpy alone
    from scipy import sparse
    from scipy.sparse.csgraph import connected_components
    from scipy.sparse.linalg import spsolve

    m = K.shape[0]
    # one gain fits every state only if a single class is closed
    n_cls, cls = connected_components(K, connection="strong")
    closed = n_cls - len(np.unique(cls[K.row][cls[K.row] != cls[K.col]]))
    if closed > 1:
        raise NoConvergence(f"the rule's chain has {closed} recurrent classes")
    # pinning g[0] = 0 frees column 0 of I - K for the gain
    A = sparse.hstack(
        [np.ones((m, 1)), (sparse.eye_array(m) - K).tocsc()[:, 1:]], "csc")
    x = spsolve(A, r)
    resid = np.abs(A @ x - r).max()
    if not resid <= 1e-6:
        raise NoConvergence(f"policy evaluation residual {resid:.2e}")
    return x


# ---------------------------------------------------------------------------
# Markov solver


def _gain_and_bias(space: _DPSpace, stop: np.ndarray):
    """Long-run throughput and relative values of a stationary rule.

    Solves g + gain = average(stop * rates) + K g on the pre-observation
    state (b, e, h), with g pinned at state 0, and returns (gain, g); the
    gain is the renewal ratio E[rate at stop]/E[T].
    """
    K = _slot_kernel(space.average(stop), space.next_b, space.Pe, space.Ph)
    x = _chain_gains(K, space.average(np.where(stop, space.R, 0.0)).ravel())
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
    return ValueTable(lambda_star=lam, rates=R, gamma=gamma, outer_iters=it)


# ---------------------------------------------------------------------------
# Threshold rules (i.i.d. gains)


@functools.cache
def _laguerre():
    """Gauss-Laguerre nodes and weights of the 128-point rule, built on
    first use.  Nodes of weight below 1e-20 are left out: with integrands
    that grow like a logarithm, their terms together stay below 1e-16."""
    x, w = np.polynomial.laguerre.laggauss(128)
    keep = w > 1e-20
    return _frozen(x[keep], w[keep])


@functools.cache
def _legendre():
    """32-point Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(32)
    return _frozen(0.5 * (x + 1.0), 0.5 * w)


def _frozen(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _atoms(dist: GainDistribution):
    """A constant or discrete gain as (values, probabilities)."""
    if dist.kind == "constant":
        return np.array([dist.value]), np.array([1.0])
    return np.asarray(dist.values), np.asarray(dist.probabilities)


def _threshold_gain(b, c, G):
    """Smallest gain h >= 0 at which the access rate of battery b with the
    other channel's gain c reaches log(G), for G >= 1.

    The water-filled rate is symmetric in the two gains and nondecreasing
    in each.  It is log(1 + c b) up to h = 1 / (b + 1/c), log(h c w^2) with
    w = (b + 1/h + 1/c) / 2 while both channels get power, and
    log(1 + h b) once 1/c - 1/h >= b.  In u = 1/h the middle piece reaches
    G where (a + u)^2 = k u, a = b + 1/c, k = 4 G / c, at the root below a.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_c = 1.0 / c
        a = b + inv_c
        k = 4.0 * G * inv_c
        h_mid = 0.5 * (k - 2.0 * a + np.sqrt(k * (k - 4.0 * a))) / (a * a)
        mid = (c > 0) & (inv_c - 1.0 / h_mid < b)
    h = np.where(mid, h_mid, (G - 1.0) / b)
    return np.where(G <= 1.0 + c * b, 0.0, h)


def _log_mean(u, s, m):
    """E[ln(g + s)] for g = u + an exponential of mean m: ln(u + s) +
    e^z E1(z) with z = (u + s) / m, and e^z E1(z) by its asymptotic series
    once e^z would overflow."""
    from scipy.special import exp1

    z = (u + s) / m
    zc = np.minimum(z, 700.0)
    r = 1.0 / np.maximum(z, 700.0)
    series = r * (1 - r * (1 - 2 * r * (1 - 3 * r * (1 - 4 * r
                                                      * (1 - 5 * r)))))
    return np.log(u + s) + np.where(z > 700.0, series, np.exp(zc) * exp1(zc))


def _tail_rate(b, y, t, m):
    """E[R 1{g >= t}] in nats for a gain g ~ exponential(m) on one channel
    and a gain y on the other, with access and battery b.

    The rate is ln(1 + y b) while g <= h_a = y / (1 + y b), then
    ln((1 + y b)^2 (g + h_a)^2 / (4 g y)) while both channels get power,
    and ln(1 + g b) once g >= h_b = y / (1 - y b) (never when y b >= 1).
    Every piece is a sum of ln(g + s) terms, so its tail mean is closed
    form; no quadrature runs over g.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h_a = y / (1.0 + y * b)
        lo = np.maximum(t, h_a)
        h_b = np.maximum(np.where(y * b < 1.0, y / (1.0 - y * b), np.inf), lo)

        def both(u):  # mean of the two-channel rate over g >= u
            return (2.0 * np.log1p(y * b) - np.log(4.0 * y)
                    + 2.0 * _log_mean(u, h_a, m) - _log_mean(u, 0.0, m))

        def alone(u):  # mean of ln(1 + g b) over g >= u
            return np.log(b) + _log_mean(u, 1.0 / b, m)

        top = np.where(np.isfinite(h_b),
                       np.exp(-h_b / m) * (alone(h_b) - both(h_b)), 0.0)
        mixed = (np.log1p(y * b) * (np.exp(-t / m) - np.exp(-lo / m))
                 + np.exp(-lo / m) * both(lo) + top)
        return np.where(y > 0, mixed, np.exp(-t / m) * alone(t))


def _exp_nodes(b, G, m):
    """Nodes and weights of an exponential(m) gain c on the other channel,
    per battery level b (a column), for integrating the stop moments.

    The threshold gain of the inverted channel is constant up to
    c1 = c0 / G, falls like sqrt(c0 - c) toward c0 = (G - 1) / b, where
    the other channel alone reaches the target, and is 0 beyond; the
    inverted channel's solo regime ends at c = 1/b.  So [0, c1] and
    [c0, e], e = max(c0, 1/b), take Gauss-Legendre rules; [c1, c0] takes
    them in s, with c = c0 - (c0 - c1) s^2 and a cut where c = 1/b;
    [e, e + m] takes them in log c, as the rate's pieces are singular at
    c = 0; and the tail past e + m takes the Gauss-Laguerre rule.
    """
    s, ws = _legendre()
    x, wx = _laguerre()
    c0 = (G - 1.0) / b
    c1 = c0 / G
    e = np.maximum(1.0 / b, c0)
    # s where c = 1/b, when 1/b lies inside [c1, c0]
    with np.errstate(divide="ignore", invalid="ignore"):
        s_e = np.where(c0 > c1, np.sqrt(np.clip((c0 - 1.0 / b) / (c0 - c1),
                                                0.0, 1.0)), 0.0)

    def legendre(lo, hi):
        return lo + (hi - lo) * s, (hi - lo) * ws

    def in_s(lo, hi):
        u, wu = legendre(lo, hi)
        return c0 - (c0 - c1) * u * u, 2.0 * (c0 - c1) * u * wu

    def in_log(lo, hi):
        c = lo * (hi / lo) ** s
        return c, c * np.log(hi / lo) * ws

    pieces = [legendre(0.0, c1), in_s(0.0, s_e), in_s(s_e, 1.0),
              legendre(c0, e), in_log(e, e + m)]
    # every piece has shape (levels, nodes), as b is a column
    c = np.concatenate([p[0] for p in pieces] + [e + m + m * x], axis=-1)
    w = np.concatenate([p[1] * np.exp(-p[0] / m) / m for p in pieces]
                       + [np.exp(-(e + m) / m) * wx], axis=-1)
    return c, w


# Levels are handled a chunk at a time, at most this many array elements
# (64 kB of float64) per chunk.  Chunks of 2 MB left the search workload's
# peak memory 2 MB higher: the allocator keeps freed blocks of that size.
_CHUNK_ELEMS = 1 << 13


def _stop_moments(model: SystemModel, b: np.ndarray, gamma: float):
    """(P(stop), E[R 1{stop}]) at each battery level ``b`` of the rule
    'stop iff b > 0 and R >= gamma', over the fresh access flag and gains.

    Atom pairs are summed exactly with the engine's comparison.  When a
    gain in play is exponential, the rate is inverted in it at each atom
    of the other gain, or at each node of ``_exp_nodes`` when both are
    exponential: the stop probability is then exp(-t / mean), and the
    rate's mean above t is closed form (``_tail_rate``).
    """
    p = np.zeros((2, len(b)))
    charged = np.flatnonzero(b > 0)
    G = model.log_base ** gamma
    for phi, w_phi in ((0, 1.0 - model.access.p_s), (1, model.access.p_s)):
        if w_phi == 0.0:
            continue
        inv, other = model.private, model.common
        if phi == 0:  # the common gain plays no part
            other = GainDistribution.constant(0.0)
        # the rate is symmetric in the two gains: invert the exponential one
        if other.kind == "exponential" and inv.kind != "exponential":
            inv, other = other, inv
        if inv.kind == "exponential":
            per_level = len(_laguerre()[0]) + 5 * len(_legendre()[0])
        else:
            per_level = len(_atoms(inv)[0]) * len(_atoms(other)[0])
        step = max(1, _CHUNK_ELEMS // per_level)
        for lo in range(0, len(charged), step):
            idx = charged[lo:lo + step]
            bb = b[idx, None]
            if inv.kind == "exponential":
                y, wy = (_exp_nodes(bb, G, other.mean)
                         if other.kind == "exponential" else _atoms(other))
                t = _threshold_gain(bb, y, G)
                stop_p = (np.exp(-t / inv.mean) * wy).sum(axis=-1)
                stop_r = (_tail_rate(bb, y, t, inv.mean) * wy).sum(axis=-1) \
                    / math.log(model.log_base)
            else:
                (x, wx), (y, wy) = _atoms(inv), _atoms(other)
                # axes (level, private atom, common atom)
                rate = stop_rate(bb[:, :, None], x[None, :, None],
                                 y[None, None, :], phi, model.log_base)
                stop = rate >= gamma
                stop_p = np.einsum("lij,i,j->l", stop.astype(float), wx, wy)
                stop_r = np.einsum("lij,i,j->l", np.where(stop, rate, 0.0),
                                   wx, wy)
            p[0, idx] += w_phi * stop_p
            p[1, idx] += w_phi * stop_r
    return p[0], p[1]


def _threshold_chain(model: SystemModel, gamma: float,
                     mass_tol: float = 1e-12):
    """(throughput, stops per slot, levels) of the rule 'stop iff b > 0
    and R >= gamma' on the carried chain (battery, harvest state).

    The battery lives on multiples of the gcd of the positive harvest
    units, topped by the cap.  The chain is cut at its first ``levels``
    levels, the top one absorbing, starting from 16 and doubling until the
    top holds stationary mass <= ``mass_tol`` or the cap is reached.  One
    factorization gives all three long-run averages.
    """
    units = model.eh_units()
    pos = units[units > 0]
    step = int(np.gcd.reduce(pos)) if pos.size else 1
    # an empty battery never moves when nothing is ever harvested
    n_full = -(-model.b_max_units // step) + 1 if pos.size else 1
    ne = len(units)
    p_stop = r_stop = np.zeros(0)
    n = min(16, n_full)
    while True:
        b = np.minimum(np.arange(len(p_stop), n) * step, model.b_max_units)
        p_new, r_new = _stop_moments(model, b * model.delta, gamma)
        p_stop, r_stop = np.r_[p_stop, p_new], np.r_[r_stop, r_new]
        next_b = np.minimum(np.arange(n)[:, None] + units // step, n - 1)
        K = _slot_kernel(np.repeat(p_stop[:, None, None], ne, axis=1),
                         next_b, model.eh.transition, np.ones((1, 1)))
        top = np.zeros((n, ne))
        top[-1] = 1.0
        x = _chain_gains(K, np.column_stack(
            [np.repeat(r_stop, ne), np.repeat(p_stop, ne), top.ravel()]))
        lam, stops, mass = x[0]
        if n == n_full or mass <= mass_tol:
            return float(lam), float(stops), n
        n = min(2 * n, n_full)


def threshold_metrics(model: SystemModel, gamma: float):
    """Exact (throughput, mean saving time) of the rule 'stop once the
    battery is charged and the rate reaches gamma', for i.i.d. gains and
    any harvest chain.

    The throughput is the renewal ratio E[rate at stop] / E[T]; the mean
    saving time is 1 / (stops per slot), infinite for a rule that never
    stops.  Unlike the Monte Carlo engine, an empty battery never stops,
    which leaves the throughput unchanged and can lengthen the periods at
    gamma = 0.  A Markov private gain is refused with UnsupportedKind: the
    rule's chain would have to carry it.
    """
    if not model.private.is_iid:
        raise UnsupportedKind("threshold rules need an i.i.d. private gain")
    lam, stops, _ = _threshold_chain(model, check_gamma(gamma))
    return lam, (1.0 / stops if stops > 0 else math.inf)


def optimize_threshold(model: SystemModel, cfg: SolverConfig | None = None):
    """Best pure threshold by golden-section search plus a coarse grid scan.

    Both searches maximize the exact throughput of ``threshold_metrics``;
    the better of the two wins.  Returns ``(gamma, (throughput, mean
    saving time))``, the pair being ``threshold_metrics`` at that gamma.
    """
    cfg = cfg or SolverConfig()
    cache: dict[float, tuple[float, float]] = {}

    def f(gamma: float) -> float:
        g = float(gamma)
        if g not in cache:
            cache[g] = threshold_metrics(model, g)
        return cache[g][0]

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
    g_golden = float(0.5 * (a + b))

    best = max([g_grid, g_golden], key=f)
    return best, cache[best]
