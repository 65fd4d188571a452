"""Optimal stopping policies for the save-then-transmit transmitter.

Every rule is a threshold table: stop iff the battery is charged and the
slot's rate meets gamma(b, e, h) on the carried cells (battery, harvest
state, private-gain state).  The access flag and the common gain are drawn
fresh every slot, so a rule's slot chain closes on those cells.
``solve_markov`` finds the throughput-optimal table by average-reward
policy iteration (exponential gains binned), and ``threshold_metrics``
evaluates a constant threshold exactly, under any harvest chain and an
i.i.d. or Markov private gain.  ``optimize_threshold`` maximizes that
throughput over the threshold by golden-section search cross-checked by a
coarse grid scan.

One driver (``_rule_chain``) evaluates every rule for both solvers, on
battery levels that are multiples of the gcd of the positive harvest
units, cut where the chain holds no mass: the rule's stop moments per
level (``_stop_moments``) set the slot chain, and one numpy pass over its
levels (``_level_gains``) gives the throughput, the mean saving time and
the relative values.  Atom gains are summed exactly; an exponential
gain is inverted in closed form with a closed-form tail mean of the rate,
and a second exponential gain is integrated by Gauss rules on the pieces
where the integrand is smooth.

This module only solves: it draws no random numbers.  Monte Carlo
estimates of the solved rules, with standard errors, come from the engine
in ``savetx.simulate`` (``run_policies``).
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import NoConvergence, ReducibleChain, StateSpaceTooLarge
from .models import (
    GainDistribution,
    SystemModel,
    _atoms,
    _reach,
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
        for name in ("golden_tol", "gamma_hi"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Real) \
                    or not 0 < v < math.inf:
                raise ValueError(f"{name}: must be a finite number > 0")


@dataclass
class ValueTable:
    """Solved dynamic program on the carried cells (battery, harvest state,
    private-gain state).

    The rule is one threshold table: stop iff the battery is charged and
    the rate meets ``gamma[b, e, h] = Cg[b, e, h] - Cg[0, e, h]``, where
    ``Cg`` is the expected relative value one slot ahead; ``gamma[0]`` is
    0.  The h axis holds a Markov private gain's states; it has length 1
    for an i.i.d. private gain, which each cell integrates.  ``rates`` is
    the rule's expected stop reward E[R 1{stop}] per cell, over the fresh
    access flag and gains, and ``stop_fraction`` the long-run share of
    slots that stop, 1 / mean saving time.

    Both tables have a row per battery unit, 0 to ``b_max_units``, as the
    engine reads them.  Only the levels the chain reaches below its cut
    are solved: the multiples of the gcd of the positive harvest units, and
    the cap.  Unit u copies the row of level ceil(u / gcd), or the top's.
    """

    lambda_star: float
    rates: np.ndarray
    gamma: np.ndarray
    stop_fraction: float
    outer_iters: int = 0


# ---------------------------------------------------------------------------
# Slot chain on the carried state, shared by both solvers


def _sweep(c: np.ndarray, V: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The backward pass's moves up, in place: from the level below the
    top down, level k adds ``V[k]`` times the rows ``rows[k]`` of c's
    (level, cell) rows, flat, which lie on levels above it."""
    flat = c.reshape(-1, c.shape[-1])
    for v, row, ck in zip(V[-2::-1], rows[-2::-1], c[-2::-1]):
        ck += v @ flat[row]
    return c


def _level_gains(p_stop: np.ndarray, next_b: np.ndarray, Pe: np.ndarray,
                 Ph: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Long-run averages of per-slot rewards on the slot chain of a rule
    that stops with probability ``p_stop[k, e, h]`` on the carried cells
    (level, harvest state, private-gain state): a skip moves the level to
    ``next_b[k, e']``, a stop restarts it at ``next_b[0, e']``, and both
    step the harvest chain ``Pe`` and the private-gain chain ``Ph``.

    Solves g + gain = r + K g with g pinned at cell 0 and returns x with
    the gain in ``x[0]`` and g[1:] in ``x[1:]``; the gain is pi @ r for the
    chain's stationary law pi.  ``r`` holds reward columns on the cells,
    flat in the order of ``p_stop``, which share one solve.

    A skip never lowers the level, and a stop lands on a restart cell
    (next_b[0, e'], e', h').  So a backward pass from the top level writes
    each level's g as an affine function of the gain and of the g at the
    restart cells: the moves that stay on the level take one dense solve
    per level, all inverted at once, and the moves up read levels already
    passed.  The moves that stay on a level are its skips that harvest
    nothing (every skip at the top) and its stops that land on it.  A
    square system on the gain and the restart values closes the pass.  The
    pass's boolean twin counts the closed classes: a class that lies on one
    level has no move off it, and any other class holds a restart cell.
    """
    n, ne, nh = p_stop.shape
    m = ne * nh
    p = p_stop.reshape(n, m)
    cells = np.arange(m)
    e_of = cells // nh
    # from cell e * nh + h to cell e' * nh + h'
    P = (Pe[:, None, :, None] * Ph[None, :, None, :]).reshape(m, m)
    edge = ((Pe > 0)[:, None, :, None] & (Ph > 0)[None, :, None, :]
            ).reshape(m, m)
    restart = next_b[0, e_of]  # the level a stop into each cell lands on
    stay = next_b[:, e_of] == np.arange(n)[:, None]  # skips, per level
    same = restart == np.arange(n)[:, None]  # stops, per level
    up = np.flatnonzero(restart > 0)  # the cells a skip enters a level up
    target = next_b[:, e_of[up]]
    rows = target * m + up  # the flat (level, cell) rows a skip up enters
    skip, stop = (p < 1)[:, :, None], (p > 0)[:, :, None]

    # a closed class on one level is a closed class of the cell chain
    # whose moves all stay on the level.  Its block of I - S is singular;
    # adding 1 e_c' on its rows, c its first cell, makes it regular with g
    # pinned to 0 at c
    reach = _reach(edge)
    # each closed class by its first cell: one that every cell it reaches
    # reaches back, and the first cell it reaches
    first = np.flatnonzero(~(reach & ~reach.T).any(axis=1)
                           & (reach.argmax(axis=1) == cells))
    classes = reach[first]
    off = edge & (skip & ~stay[:, None, :] | stop & ~same[:, None, :])
    closed_on = ~(off.any(axis=2) @ classes.T)  # (level, class)
    k_q, q = np.nonzero(closed_on)

    # the boolean twin: the restart cells each cell reaches up to its first
    # stop off its level, and whether it reaches a class on one level
    seen = _reach(edge & (skip & stay[:, None, :] | stop & same[:, None, :]))
    R = np.zeros((n, m, m + 1), dtype=bool)
    R[restart, cells, cells] = True
    R[:, :, :m] |= stop & edge & ~same[:, None, :]
    R[:, :, m] = closed_on @ classes
    R = seen @ R
    RV = seen @ (skip & edge & ~stay[:, None, :])[:, :, up]

    # the numeric pass, on columns (rewards, gain, restart values)
    nr = r.shape[1]
    M = np.eye(m) - ((1.0 - p)[:, :, None] * stay[:, None, :]
                     + p[:, :, None] * same[:, None, :]) * P
    M[k_q, :, first[q]] += classes[q]
    W = np.linalg.inv(M) * seen  # exact zeros where no path runs
    V = W @ ((1.0 - p)[:, :, None] * P * ~stay[:, None, :])[:, :, up]

    G = _sweep(W @ np.concatenate(
        [r.reshape(n, m, nr), np.full((n, m, 1), -1.0),
         p[:, :, None] * P * ~same[:, None, :]], axis=2), V, rows)

    # the twin's levels repeat: once a level's row equals the rows it
    # reads, each level below with the same data gets that row too
    data = R.reshape(n, -1), RV.reshape(n, -1), target - np.arange(n)[:, None]
    new = np.any([(d[1:] != d[:-1]).any(axis=1) for d in data], axis=0)
    run_start = np.maximum.accumulate(
        np.concatenate([[0], np.where(new, np.arange(1, n), 0)]))
    lag = restart.max(initial=0)
    k = n - 2
    while k >= 0:
        R[k] |= RV[k] @ R[target[k], up]
        if run_start[k] < k and (R[k + 1:k + lag + 1] == R[k]).all():
            R[run_start[k]:k] = R[k]
            k = run_start[k]
        k -= 1

    # any other closed class holds the restart cells of a final class of
    # the restart cells' graph, one that reaches no class on one level
    hits = _reach(R[restart, cells, :m])
    final = ~(hits & ~hits.T).any(axis=1) & ~(hits @ R[restart, cells, m])
    n_classes = len(k_q) + np.count_nonzero(
        final & (hits.argmax(axis=1) == cells))
    if n_classes > 1:
        raise ReducibleChain(
            f"the rule's chain has {n_classes} recurrent classes")

    # closure: g is 0 at the pin (cell 0, or the first cell of the class on
    # one level) and each restart value is its cell's g.  The pin's row
    # eliminates the gain first: a class on one level has a pin row in the
    # gain alone, which gives the class's gain from its own cells
    pin = (k_q[0], first[q[0]]) if len(k_q) else (0, 0)
    at = (np.concatenate([[pin[0]], restart]),
          np.concatenate([[pin[1]], cells]))
    A = G[at][:, nr:]
    A[1:, 1:] -= np.eye(m)
    col = A[1:, :1] / A[0, 0]
    reduced = A[1:, 1:] - col * A[0, 1:]

    def close(a):  # (gain, g) of the reward parts a on the cells
        b = -a[at]
        g_r = np.linalg.solve(reduced, b[1:] - col * b[0])
        gain = (b[0] - A[0, 1:] @ g_r) / A[0, 0]
        g = a + G[:, :, nr:nr + 1] * gain + G[:, :, nr + 1:] @ g_r
        return gain, (g - g[0, 0]).reshape(n, ne, nh, nr)

    def residual(gain, g):  # r - (gain + g - K g), K g gathered per level
        Cg = np.einsum("ef,kfgc,hg->kehc", Pe, g[next_b, np.arange(ne)],
                       Ph)
        ps = p_stop[..., None]
        return r.reshape(g.shape) - gain - g + (1.0 - ps) * Cg + ps * Cg[0]

    gain, g = close(G[:, :, :nr])
    res = residual(gain, g)
    # a level the chain stays on for many slots costs the pass as many
    # digits; one step of iterative refinement wins them back
    if np.abs(W).sum(axis=2).max() > 64.0:
        fix = close(_sweep(W @ res.reshape(n, m, nr), V, rows))
        gain, g = gain + fix[0], g + fix[1]
        res = residual(gain, g)
    resid = np.abs(res).max()
    if not resid <= 1e-6:
        raise NoConvergence(f"policy evaluation residual {resid:.2e}")
    return np.concatenate([gain[None], g.reshape(-1, nr)[1:]])


# ---------------------------------------------------------------------------
# The evaluation driver, shared by both solvers

# most cells (battery level x harvest state x private-gain state) in a cut
# of a rule's chain, as b_max_units has no bound.  A cut of 248,000 cells
# (two harvest states) took 6.5-7.7 s, most of it in the stop moments, and
# 132 MB on a 2-core x86-64 machine; the default models need at most 32
# levels.
MAX_DP_STATES = 250_000


def _level_moments(model: SystemModel, levels: np.ndarray,
                   gamma: np.ndarray):
    """(P(stop), E[R 1{stop}]) of the rule 'stop iff b > 0 and R >=
    gamma[k, e, h]' at the battery ``levels[k]`` (in units), over the
    fresh access flag and gains, on axes (level, gamma's e axis, private
    gain): a Markov private gain is the cell's state h, and an i.i.d. one
    (an h axis of length 1) is integrated."""
    states = None if model.private.is_iid \
        else np.asarray(model.private.chain.states)
    shape = (len(levels), gamma.shape[1], 1 if states is None
             else len(states))
    k, _, h = np.indices(shape).reshape(3, -1)
    p, r = _stop_moments(model, levels[k] * model.delta,
                         np.broadcast_to(gamma, shape).ravel(),
                         None if states is None else states[h])
    return p.reshape(shape), r.reshape(shape)


def _rule_chain(model: SystemModel, gamma: np.ndarray, moments=None,
                mass_tol: float = 1e-12):
    """Exact evaluation of the rule 'stop iff b > 0 and R >= gamma[k, e,
    h]', a table on axes (level, 1 or harvest states, 1 or private-gain
    states) whose last row serves every level past its end.

    Level k holds the battery min(k step, b_max_units), step the gcd of
    the positive harvest units.  The chain is cut at its first levels, the
    top one absorbing, from 16 doubling until the top holds stationary
    mass <= ``mass_tol`` or the cap is reached.  Only the levels a cut
    adds get stop moments computed; ``moments`` spares the first levels'.
    Returns ``(x, levels, (next_b, Pe, Ph), (p, r))``: ``_level_gains``'
    solve for (stop reward, stop, top mass), each level's battery in
    units, the cut's carried chain and the moments per cell.
    """
    units = model.eh_units()
    pos = units[units > 0]
    step = int(np.gcd.reduce(pos)) if pos.size else 1
    # an empty battery never moves when nothing is ever harvested
    n_full = -(-model.b_max_units // step) + 1 if pos.size else 1
    Pe = model.eh.transition
    Ph = np.ones((1, 1)) if model.private.is_iid \
        else model.private.chain.transition
    p, r = moments or (np.zeros((0, gamma.shape[1], len(Ph))),) * 2
    n = max(min(16, n_full), len(p))
    while True:
        shape = (n, len(Pe), len(Ph))
        if math.prod(shape) > MAX_DP_STATES:
            raise StateSpaceTooLarge(
                f"the rule's chain needs {math.prod(shape):,} cells "
                f"(b_max_units {model.b_max_units}), more than "
                f"{MAX_DP_STATES:,}")
        new = np.arange(len(p), n)
        levels = np.minimum(np.arange(n) * step, model.b_max_units)
        p_new, r_new = _level_moments(
            model, levels[new], gamma[np.minimum(new, len(gamma) - 1)])
        p, r = np.concatenate([p, p_new]), np.concatenate([r, r_new])
        cells = np.broadcast_to(p, shape), np.broadcast_to(r, shape)
        chain = (np.minimum(np.arange(n)[:, None] + units // step, n - 1),
                 Pe, Ph)
        top = np.zeros(shape)
        top[-1] = 1.0
        x = _level_gains(cells[0], *chain, np.column_stack(
            [cells[1].ravel(), cells[0].ravel(), top.ravel()]))
        if n == n_full or x[0, 2] <= mass_tol:
            return x, levels, chain, cells
        n = min(2 * n, n_full)


# ---------------------------------------------------------------------------
# Markov solver

# improvements stop within this much of a tie, so that rounding in the
# relative values cannot flip a tied cell from one improvement to the next
_TIE = 1e-12


def solve_markov(model: SystemModel, cfg: SolverConfig | None = None
                 ) -> ValueTable:
    """Throughput-optimal stationary stopping rule and its threshold table.

    Average-reward policy iteration on threshold tables gamma[b, e, h],
    started from the rule that stops wherever the battery is charged.  An
    exponential gain is binned into ``common_bins`` equal-probability
    atoms.  Each outer step evaluates the current rule exactly on the
    driver's cut (``_rule_chain``), which it grows as the rule needs; its
    pass over the levels gives the throughput and the relative values g.  The
    improvement compares the stop rate with gamma = Cg - Cg[0], where Cg =
    E[g' | skip] and the stop side credits the restart value Cg[0] of the
    state components that survive the transmission slot.  The iteration
    ends when an improvement leaves every cell's stop moments unchanged.
    """
    cfg = cfg or SolverConfig()
    model = replace(model, **{
        name: discretize_gain(dist, cfg.common_bins)
        for name, dist in (("private", model.private),
                           ("common", model.common))
        if dist.kind == "exponential"})
    rule, moments = np.zeros((1, 1, 1)), None
    for it in range(1, cfg.outer_max_iters + 1):
        x, levels, (next_b, Pe, Ph), evaluated = _rule_chain(model, rule,
                                                             moments)
        g = np.r_[0.0, x[1:, 0]].reshape(evaluated[0].shape)
        Cg = np.einsum("ef,bfg,hg->beh", Pe,
                       g[next_b, np.arange(len(Pe))], Ph)
        gamma = Cg - Cg[0]
        rule = gamma - _TIE
        moments = _level_moments(model, levels, rule)
        if all(map(np.array_equal, moments, evaluated)):
            break
    else:
        raise NoConvergence(
            f"policy improvement did not settle in {cfg.outer_max_iters} "
            "iterations")
    lam, stops, _ = x[0]
    # each battery unit reads the level at or above it (see ValueTable)
    at = np.minimum(np.searchsorted(levels, np.arange(model.b_max_units + 1)),
                    len(levels) - 1)
    return ValueTable(lambda_star=float(lam), rates=evaluated[1][at],
                      gamma=gamma[at], stop_fraction=float(stops),
                      outer_iters=it)


# ---------------------------------------------------------------------------
# Stop moments and threshold rules


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
    # scipy is imported on first use, so that importing savetx needs numpy
    # alone and a model without an exponential gain never loads it
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
    form; no quadrature runs over g.  Each piece is evaluated only on the
    elements it applies to: the two-channel pieces where y > 0, the top
    piece where h_b is finite.
    """
    b, y, t = np.broadcast_arrays(b, y, t)
    out = np.empty(b.shape)

    def alone(b, u):  # mean of ln(1 + g b) over g >= u
        return np.log(b) + _log_mean(u, 1.0 / b, m)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pair = y > 0
        solo = ~pair
        out[solo] = np.exp(-t[solo] / m) * alone(b[solo], t[solo])
        b, y, t = b[pair], y[pair], t[pair]
        yb = y * b
        h_a = y / (1.0 + yb)
        lo = np.maximum(t, h_a)
        h_b = np.maximum(np.where(yb < 1.0, y / (1.0 - yb), np.inf), lo)
        log1p_yb = np.log1p(yb)
        c = 2.0 * log1p_yb - np.log(4.0 * y)

        def both(u, k):  # mean of the two-channel rate over g >= u, at k
            return c[k] + 2.0 * _log_mean(u, h_a[k], m) - _log_mean(u, 0.0, m)

        fin = np.isfinite(h_b)
        hb = h_b[fin]
        top = np.zeros(len(y))
        top[fin] = np.exp(-hb / m) * (alone(b[fin], hb) - both(hb, fin))
        out[pair] = (log1p_yb * (np.exp(-t / m) - np.exp(-lo / m))
                     + np.exp(-lo / m) * both(lo, ...) + top)
    return out


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


def _is_exponential(gain) -> bool:
    return isinstance(gain, GainDistribution) and gain.kind == "exponential"


def _stop_moments(model: SystemModel, b: np.ndarray, gamma, private=None):
    """(P(stop), E[R 1{stop}]) at each battery level ``b`` of the rule
    'stop iff b > 0 and R >= gamma', over the fresh access flag and gains.
    ``gamma`` is one threshold or one per level.  ``private``, when given,
    holds the private gain at each level (a Markov chain's state there) in
    place of the model's i.i.d. private gain.

    Atom pairs are summed exactly with the engine's comparison.  When a
    gain in play is exponential, the rate is inverted in it at each atom
    of the other gain, or at each node of ``_exp_nodes`` when both are
    exponential: the stop probability is then exp(-t / mean), and the
    rate's mean above t is closed form (``_tail_rate``).
    """
    p = np.zeros((2, len(b)))
    charged = np.flatnonzero(b > 0)
    gamma = np.broadcast_to(gamma, b.shape)
    # Python's power, not numpy's, which differs in the last bit: a level
    # gets the G of a call with its threshold alone
    G = np.array([model.log_base ** g for g in gamma.tolist()])

    def atoms(gain):  # (values on (level, atom) axes, weights)
        v, w = _atoms(gain) if isinstance(gain, GainDistribution) \
            else (gain[:, None], np.ones(1))
        return np.broadcast_to(v, (len(b), len(w))), w

    for phi, w_phi in ((0, 1.0 - model.access.p_s), (1, model.access.p_s)):
        if w_phi == 0.0:
            continue
        inv = model.private if private is None else private
        other = model.common
        if phi == 0:  # the common gain plays no part
            other = GainDistribution.constant(0.0)
        # the rate is symmetric in the two gains: invert the exponential one
        if _is_exponential(other) and not _is_exponential(inv):
            inv, other = other, inv
        if _is_exponential(inv):
            per_level = len(_laguerre()[0]) + 5 * len(_legendre()[0])
        else:
            (x, wx), (y, wy) = atoms(inv), atoms(other)
            per_level = len(wx) * len(wy)
        step = max(1, _CHUNK_ELEMS // per_level)
        for lo in range(0, len(charged), step):
            idx = charged[lo:lo + step]
            bb, GG = b[idx, None], G[idx, None]
            if _is_exponential(inv):
                if _is_exponential(other):
                    y, wy = _exp_nodes(bb, GG, other.mean)
                else:
                    y, wy = atoms(other)
                    y = y[idx]
                t = _threshold_gain(bb, y, GG)
                stop_p = (np.exp(-t / inv.mean) * wy).sum(axis=-1)
                stop_r = (_tail_rate(bb, y, t, inv.mean) * wy).sum(axis=-1) \
                    / math.log(model.log_base)
            else:
                # axes (level, private atom, common atom)
                rate = stop_rate(bb[:, :, None], x[idx, :, None],
                                 y[idx, None, :], phi, model.log_base)
                stop = rate >= gamma[idx, None, None]
                stop_p = np.einsum("lij,i,j->l", stop.astype(float), wx, wy)
                stop_r = np.einsum("lij,i,j->l", np.where(stop, rate, 0.0),
                                   wx, wy)
            p[0, idx] += w_phi * stop_p
            p[1, idx] += w_phi * stop_r
    return p[0], p[1]


def threshold_metrics(model: SystemModel, gamma: float):
    """Exact (throughput, mean saving time) of the rule 'stop once the
    battery is charged and the rate reaches gamma', under any harvest
    chain and any private gain, i.i.d. or Markov.

    The throughput is the renewal ratio E[rate at stop] / E[T]; the mean
    saving time is 1 / (stops per slot), infinite for a rule that never
    stops.  Unlike the Monte Carlo engine, an empty battery never stops,
    which leaves the throughput unchanged and can lengthen the periods at
    gamma = 0.
    """
    lam, stops, _ = _rule_chain(model, np.full((1, 1, 1),
                                               check_gamma(gamma)))[0][0]
    return float(lam), (float(1.0 / stops) if stops > 0 else math.inf)


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
