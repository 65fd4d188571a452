"""Independent reference implementations used to pin expected values.

Everything here is deliberately written from scratch (closed-form water
level, Gauss-Laguerre quadrature, dense-chain linear algebra, a scalar
one-period simulator) so the tests cross-check the package against a second
route to the same numbers.  The borrowed routes are scipy's: ``brentq``,
kept as a tolerance oracle (the package bisects for its water level, which
must lie within brentq's own tolerance of brentq's root), ``exp1`` in the
exact tail means (the package evaluates E1 in ``savetx.expint``), and the
sparse solve of ``chain_gains``.

The module imports ``savetx`` only inside the functions that take its model
objects, so the exact-throughput oracles load without the package.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

GL_X, GL_W = np.polynomial.laguerre.laggauss(128)
# the 48-point Gauss-Legendre rule on [0, 1], for ``_q_rho1``
LEG_X, LEG_W = np.polynomial.legendre.leggauss(48)
LEG_X, LEG_W = 0.5 * (LEG_X + 1.0), 0.5 * LEG_W


def oracle_rate(b, h, hc, phi):
    """Stop rate via the water-level closed form (not the split cases)."""
    if b <= 0:
        return 0.0
    if phi == 0 or hc <= 0:
        return float(np.log2(1 + h * b)) if h > 0 else 0.0
    if h <= 0:
        return float(np.log2(1 + hc * b))
    if abs(1 / hc - 1 / h) < b:
        w = 0.5 * (b + 1 / h + 1 / hc)
        return float(np.log2(h * hc * w * w))
    g = max(h, hc)
    return float(np.log2(1 + g * b))


def where_stop_rate(b, h, hc, phi, base=2.0):
    """``savetx.stop_rate`` as the branches it clips together, each case
    selected by ``np.where`` over the broadcast arguments: the same
    per-element arithmetic, so in bits the two agree bit for bit.  With
    ``base=np.e`` it gives the same rates in nats, the unit in which the
    solver carries them (bits times ln 2)."""
    logf = np.log2 if base == 2.0 else np.log
    b, h, hc, phi = (np.asarray(a) for a in (b, h, hc, phi))
    b = np.fmax(b, 0.0)  # fmax also sends a NaN battery to 0
    live = phi == 1
    if live.any():
        # no access is a dead common channel: its term below is log(1) = 0
        cc = np.where(live, hc, 0.0)
        both = (h > 0) & (cc > 0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            gap = np.where(both, 1.0 / cc - 1.0 / h, 0.0)
        interior = both & (np.abs(gap) < b)
        # outside the interior the whole budget goes to the stronger
        # channel, and a dead one (gain 0 or no access) never wins
        p_pri = np.where(interior, 0.5 * (b + gap),
                         np.where(h >= cc, b, 0.0))
        rate = logf(1.0 + h * p_pri) + logf(1.0 + cc * (b - p_pri))
    else:
        rate = logf(1.0 + h * b, out=np.empty(np.broadcast(b, h, hc,
                                                            phi).shape))
    return rate if rate.shape else float(rate)


def best_grid_split(b, h, hc, n=10_000):
    """Exhaustive split search for the two-channel allocation."""
    p = np.linspace(0.0, b, n + 1)
    rates = np.log2(1 + h * p) + np.log2(1 + hc * (b - p))
    k = int(np.argmax(rates))
    return float(rates[k]), float(p[k])


class Split(NamedTuple):
    """Transmit powers on the private and common channels."""

    p_private: float
    p_common: float

    @property
    def total(self) -> float:
        return self.p_private + self.p_common


def water_fill_two_channel(budget, h_private, h_common) -> Split:
    """Split an energy budget across both channels to maximize the slot rate.

    Interior solution equalizes 1/gain + power across the two channels;
    otherwise the whole budget goes to the stronger channel.  Zero-gain
    channels receive zero power.  Scalar case analysis, the reference for
    the vectorized split inside ``savetx.stop_rate``.
    """
    if budget <= 0:
        raise ValueError(f"budget must be > 0, got {budget}")
    if h_common <= 0:
        return Split(budget, 0.0)
    if h_private <= 0:
        return Split(0.0, budget)
    gap = 1.0 / h_common - 1.0 / h_private
    if abs(gap) < budget:
        p = 0.5 * (budget + gap)
        return Split(p, budget - p)
    if h_private > h_common:
        return Split(budget, 0.0)
    return Split(0.0, budget)


def split_rate(phi, h, hc, split: Split) -> float:
    """Slot rate of a given power split; common power needs access."""
    if phi == 0 and split.p_common > 0:
        raise ValueError("common power assigned without channel access")
    r = np.log2(1.0 + h * split.p_private)
    if phi == 1:
        r += np.log2(1.0 + hc * split.p_common)
    return float(r)


# ---------------------------------------------------------------------------
# scalar reference of the period engine
#
# One stream, scalar draws taken from ``rng`` in the engine's order (phi,
# private gain, common gain, harvest), so a single-stream engine run matches
# it draw for draw.  A rule stops once the drawn rate meets its gamma table
# at (battery units, harvest state, private-gain state), as the engine
# applies it.


def conventional_power(h, xi):
    """Water-filling power (1/xi - 1/h)^+ of a conventional supply at the
    water level ``xi``; a gain of 0, or one below 1/DBL_MAX whose
    reciprocal overflows, gets power 0."""
    h = np.asarray(h, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        p = np.where(h > 0, 1.0 / xi - 1.0 / np.where(h > 0, h, 1.0),
                     0.0)
    p = np.maximum(p, 0.0)
    return float(p) if p.shape == () else p


BRENTQ_XTOL, BRENTQ_RTOL = 2e-12, 1e-12  # brentq's defaults, and its bound


def brentq_water_level(private, common, access, p_bar):
    """The water level xi by ``scipy.optimize.brentq`` on the mean-power
    curve of ``power.solve_water_level``, over its bracket [1e-12, 1e12]:
    within BRENTQ_XTOL + BRENTQ_RTOL * xi of the curve's root."""
    from scipy import optimize

    from savetx.power import _power_curve

    private_power, common_power = _power_curve(private), _power_curve(common)
    return optimize.brentq(
        lambda x: private_power(x) + access.p_s * common_power(x) - p_bar,
        1e-12, 1e12, xtol=BRENTQ_XTOL, rtol=BRENTQ_RTOL, maxiter=500)


def advance_battery(b, e, b_max_units, delta) -> float:
    """Next battery level min(b + e, cap)."""
    if b < 0 or e < 0:
        raise ValueError("energies must be >= 0")
    return min(b + e, b_max_units * delta)


@dataclass(frozen=True)
class SystemState:
    """What the transmitter observes at the start of a slot: access flag,
    battery, last harvest rate, private and common gains."""

    phi: int
    b: float
    e_prev: float
    h: float
    h_common: float


@dataclass
class SimCarry:
    """State surviving a transmission slot into the next period."""

    b: float
    e_idx: int
    h_idx: int | None


@dataclass(frozen=True)
class PeriodOutcome:
    """One completed save-then-transmit period."""

    saving_slots: int
    stop_state: SystemState
    rate_at_stop: float
    energy_spent: float
    harvested: float = 0.0
    clipped: float = 0.0


def _draw_index(cum_row, rng) -> int:
    """Inverse-CDF index of one uniform under the full cumulative sums
    ``cum_row``; the last sum is not compared, so the last state takes the
    rest of [0, 1) whatever the sums round to."""
    return int(np.searchsorted(cum_row[:-1], rng.random(), side="right"))


def _draw_gain(dist, rng) -> float:
    """One i.i.d. gain draw, consuming the stream as the engine does."""
    if dist.kind == "constant":
        return dist.value
    if dist.kind == "exponential":
        return float(rng.exponential(dist.mean))
    return dist.values[_draw_index(np.cumsum(dist.probabilities), rng)]


def fresh_carry(model, rng) -> SimCarry:
    """Initial carry: harvest chain at stationarity, one harvest draw as
    the first battery, gain chain at stationarity."""
    import savetx as sx

    eh_pi = np.cumsum(sx.stationary_distribution(model.eh))
    e_idx = _draw_index(eh_pi, rng)
    e_idx = _draw_index(np.cumsum(model.eh.transition[e_idx]), rng)
    h_idx = None
    if model.private.kind == "markov":
        h_pi = np.cumsum(sx.stationary_distribution(model.private.chain))
        h_idx = _draw_index(h_pi, rng)
    return SimCarry(b=min(model.eh.states[e_idx], model.b_cap), e_idx=e_idx,
                    h_idx=h_idx)


def _decide_stop(policy, model, b, e_idx, h_idx, rate) -> bool:
    """``rate >= gamma`` at the state; a length-1 axis applies to every
    state on it, and an i.i.d. private gain (``h_idx`` None) reads the
    private axis at 0."""
    at = (round(b / model.delta), e_idx, h_idx or 0)
    gamma = policy.gamma
    return bool(rate >= gamma[tuple(i if n > 1 else 0
                                    for i, n in zip(at, gamma.shape))])


def run_period(policy, model, rng, carry: SimCarry | None = None,
               slot_cap=1_000_000) -> PeriodOutcome:
    """Simulate one save-then-transmit period.

    ``carry`` holds the battery seed, harvest-chain state, and gain-chain
    state left by the previous period; it is updated in place so repeated
    calls chain periods together.  A fresh carry is drawn when omitted.
    """
    import savetx as sx

    if carry is None:
        carry = fresh_carry(model, rng)
    b, e_idx, h_idx = carry.b, carry.e_idx, carry.h_idx
    cap = model.b_cap
    harvested = 0.0
    clipped = 0.0
    t = 0
    while True:
        t += 1
        if t > slot_cap:
            raise sx.PeriodOverflow(f"period exceeded {slot_cap} slots")
        phi = int(rng.random() < model.access.p_s)
        if model.private.kind == "markov":
            chain = model.private.chain
            h_idx = _draw_index(np.cumsum(chain.transition[h_idx]), rng)
            h = chain.states[h_idx]
        else:
            h = _draw_gain(model.private, rng)
        hc = _draw_gain(model.common, rng)
        state = SystemState(phi=phi, b=b, e_prev=model.eh.states[e_idx],
                            h=float(h), h_common=float(hc))
        rate = float(sx.stop_rate(b, h, hc, phi))
        stop = _decide_stop(policy, model, b, e_idx, h_idx, rate)
        e_idx = _draw_index(np.cumsum(model.eh.transition[e_idx]), rng)
        e_val = model.eh.states[e_idx]
        if stop:
            # the stop slot's harvest seeds the next period's battery
            carry.b = min(e_val, cap)
            carry.e_idx = e_idx
            carry.h_idx = h_idx
            return PeriodOutcome(
                saving_slots=t, stop_state=state, rate_at_stop=rate,
                energy_spent=b, harvested=harvested, clipped=clipped)
        harvested += e_val
        clipped += max(b + e_val - cap, 0.0)
        b = advance_battery(b, e_val, model.b_max_units, model.delta)


def refill_indices(take, cur, taken, n_periods: int):
    """The period engine's queue with a period index per lane: each lane
    in the (rows, lanes) mask ``take`` gets its row's next index, in lane
    order by one ``cumsum`` over every row, or -1 once the row's
    ``n_periods`` indices are out.  Returns the new ``cur`` and
    ``taken``; a lane records its period where ``cur >= 0``."""
    nxt = taken[:, None] + np.cumsum(take, axis=1)  # 1-based here
    new = nxt * (nxt <= n_periods) - 1
    return cur + take * (new - cur), np.minimum(nxt[:, -1], n_periods)


# ---------------------------------------------------------------------------
# slot draws one slot at a time, and the benchmark supplies spent per slot


def step_chain(cum, idx, rng, size):
    """Inverse-CDF index draws as one 2-D broadcast against the rows
    ``cum[idx]`` of full cumulative sums (``idx=None``: the single row
    ``cum``).  The last column is not compared, so the last state takes
    the rest of [0, 1) whatever the sums round to."""
    u = rng.random(size)
    return (u[:, None] >= (cum if idx is None else cum[idx])[..., :-1]).sum(
        axis=1)


class SlotDraws:
    """The draws of a pass for ``lanes`` lanes, one slot and one generator
    call per value at a time: the reference of the package's block stream.

    Construction draws the harvest chain's state from its stationary law
    and steps it once (``harvest0`` is that step's harvest), then a Markov
    private gain's state from its stationary law.  Each ``slot()`` draws
    the access uniform u, the private gain, the common gain and the
    harvest step, in that order; a constant gain draws nothing."""

    def __init__(self, model, rng, lanes):
        import savetx as sx

        self.model, self.rng, self.lanes = model, rng, lanes
        self.eh_cum = np.cumsum(model.eh.transition, axis=1)
        self.eh_vals = np.asarray(model.eh.states)
        pi = np.cumsum(sx.stationary_distribution(model.eh))
        self.e_idx = step_chain(self.eh_cum, step_chain(pi, None, rng, lanes),
                                rng, lanes)
        self.harvest0 = self.eh_vals[self.e_idx]
        self.h_idx = None
        if model.private.kind == "markov":
            pi = np.cumsum(sx.stationary_distribution(model.private.chain))
            self.h_idx = step_chain(pi, None, rng, lanes)

    def _gain(self, dist):
        if dist.kind == "constant":
            return np.full(self.lanes, dist.value)
        if dist.kind == "exponential":
            return self.rng.exponential(dist.mean, self.lanes)
        return np.asarray(dist.values)[step_chain(
            np.cumsum(dist.probabilities), None, self.rng, self.lanes)]

    def slot(self):
        """One slot: ``(u, h, hc, harvest, e_idx, h_idx)``, with
        ``e_idx`` the harvest state at the slot's start and ``h_idx`` the
        private state of the slot (None for an i.i.d. gain)."""
        rng, lanes = self.rng, self.lanes
        u = rng.random(lanes)
        if self.h_idx is None:
            h = self._gain(self.model.private)
        else:
            chain = self.model.private.chain
            self.h_idx = step_chain(np.cumsum(chain.transition, axis=1),
                                    self.h_idx, rng, lanes)
            h = np.asarray(chain.states)[self.h_idx]
        hc = self._gain(self.model.common)
        e_idx = self.e_idx
        self.e_idx = step_chain(self.eh_cum, e_idx, rng, lanes)
        return u, h, hc, self.eh_vals[self.e_idx], e_idx, self.h_idx


def run_supplies_per_slot(model, level, n_slots, seed, *, streams=512):
    """Both benchmark supplies with one spend per slot: ``(best_effort,
    conventional)``, with conventional at water level ``level``.

    The draws come one slot at a time from ``SlotDraws``, so they are
    those of ``run_conventional_supply`` and of the engine, if their block
    stream keeps the order.  Best-effort spends the harvest of the slot
    before, which the package runs as the engine's gamma = 0 rule (equal
    when no harvest exceeds the battery cap); conventional water-fills at
    ``level``, as ``run_conventional_supply`` does.
    Each lane's deviations from the first slot's values are summed in
    blocks of the slot stream's size, so the sums round as the package's
    do, then folded into the engine's ``N_BATCHES`` lane groups.
    """
    import savetx as sx
    from savetx import simulate as sim

    slots = -(-n_slots // streams)
    draws = SlotDraws(model, np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(seed).spawn(1)[0])), streams)
    budget = draws.harvest0
    shifts = None
    sums = np.zeros((3, streams))
    block = []  # per-lane deviations of the slots since the last fold
    for s in range(slots):
        u, h, hc, harvest, *_ = draws.slot()
        phi = (u < model.access.p_s).astype(np.int8)
        p = conventional_power(h, level)
        pc = np.where(phi == 1, conventional_power(hc, level), 0.0)
        values = (sx.stop_rate(budget, h, hc, phi),
                  np.log2(1.0 + h * p)
                  + np.where(phi == 1, np.log2(1.0 + hc * pc), 0.0),
                  p + pc)
        if shifts is None:
            shifts = [float(v[0]) for v in values]
        block.append([v - c for v, c in zip(values, shifts)])
        budget = harvest  # the next slot spends this slot's harvest
        if len(block) == sim._BLOCK or s == slots - 1:
            sums += np.sum(block, axis=0)
            block = []
    group = np.arange(streams) * sim.N_BATCHES // streams
    count = np.bincount(group, minlength=sim.N_BATCHES) * float(slots)
    dev = [np.bincount(group, acc, minlength=sim.N_BATCHES) for acc in sums]

    def metrics(k, **fields):
        return sx.Metrics(
            throughput=sim._mean_about(shifts[k], dev[k], count),
            mean_saving_time=1.0,
            se_throughput=sim._batch_ses(dev[k], count, count)[0],
            se_saving_time=0.0, periods=slots * streams,
            cap_hit_fraction=0.0, **fields)

    return metrics(0), metrics(1, realized_avg_power=sim._mean_about(
        shifts[2], dev[2], count), water_level=level)


def best_effort_exact(model) -> float:
    """The exact best-effort throughput: every slot stops and spends the
    harvest of the slot before, held in the battery, so it is
    sum_e pi(e) E[R | b = min(e, cap)], with pi the harvest chain's
    stationary law and E[R | b] the gamma-0 stop reward of
    ``solver._stop_moments`` over the fresh access flag and gains."""
    import savetx as sx
    from savetx.solver import _stop_moments

    pi = sx.stationary_distribution(model.eh)
    b = np.minimum(np.asarray(model.eh.states, dtype=float), model.b_cap)
    return float(pi @ _stop_moments(model, b, 0.0)[1])


# ---------------------------------------------------------------------------
# exact renewal metrics for the i.i.d. unit-mean-exponential configuration


def _rate_vec(b, h, hc):
    interior = np.abs(1 / hc - 1 / h) < b
    w = 0.5 * (b + 1 / h + 1 / hc)
    r_int = np.log2(h * hc * w * w)
    r_one = np.log2(1 + np.maximum(h, hc) * b)
    return np.where(interior, r_int, r_one)


def _tail_log(u, s):
    """int_u^inf e^-h ln(h + s) dh = e^-u ln(u + s) + e^s E1(u + s)."""
    from scipy.special import exp1

    return np.exp(-u) * np.log(u + s) + np.exp(s) * exp1(u + s)


def _tail_rate_bits(b, hc, hstar):
    """int_hstar^inf e^-h R(b, h, hc) dh in bits, with access, piece by
    piece: R is log2(1 + hc b) up to ha = 1 / (b + 1/hc), then
    log2(hc / 4) + 2 log2(b + 1/hc) - log2(h) + 2 log2(h + ha), then
    log2(1 + h b) from hb = 1 / (1/hc - b) (never when hc b >= 1)."""
    ha = 1.0 / (b + 1.0 / hc)
    lo = np.maximum(hstar, ha)
    with np.errstate(divide="ignore"):
        hb = np.where(hc * b < 1.0, 1.0 / (1.0 / hc - b), np.inf)
    hb = np.maximum(hb, lo)
    fin = np.isfinite(hb)
    hbf = np.where(fin, hb, lo)
    const = np.log(hc / 4.0) + 2.0 * np.log(b + 1.0 / hc)
    common = np.log1p(hc * b) * (np.exp(-hstar) - np.exp(-lo))
    both = (const * np.exp(-lo) - _tail_log(lo, 0.0) + 2.0 * _tail_log(lo, ha)
            - np.where(fin, const * np.exp(-hbf) - _tail_log(hbf, 0.0)
                       + 2.0 * _tail_log(hbf, ha), 0.0))
    private = np.where(fin, np.log(b) * np.exp(-hbf)
                       + _tail_log(hbf, 1.0 / b), 0.0)
    return (common + both + private) / np.log(2.0)


def full_array_tail_rate(b, y, t, m):
    """``savetx.solver._tail_rate`` with every piece evaluated on every
    element and the unused ones masked out by ``np.where``: the same
    per-element arithmetic, so the two agree bit for bit, where the solver
    evaluates each piece only on the elements it applies to."""
    from savetx.solver import _log_mean

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h_a = y / (1.0 + y * b)
        lo = np.maximum(t, h_a)
        h_b = np.maximum(np.where(y * b < 1.0, y / (1.0 - y * b), np.inf), lo)

        def both(u):
            return (2.0 * np.log1p(y * b) - np.log(4.0 * y)
                    + 2.0 * _log_mean(u, h_a, m) - _log_mean(u, 0.0, m))

        def alone(u):
            return np.log(b) + _log_mean(u, 1.0 / b, m)

        top = np.where(np.isfinite(h_b),
                       np.exp(-h_b / m) * (alone(h_b) - both(h_b)), 0.0)
        mixed = (np.log1p(y * b) * (np.exp(-t / m) - np.exp(-lo / m))
                 + np.exp(-lo / m) * both(lo) + top)
        return np.where(y > 0, mixed, np.exp(-t / m) * alone(t))


def _common_nodes(b, gamma):
    """The common gain's nodes and weights at battery b > 0 for
    ``_q_rho1``, and c0 = (2^gamma - 1) / b."""
    c0 = (2.0 ** gamma - 1.0) / b
    c1 = c0 / 2.0 ** gamma
    e = max(c0, 1.0 / b)
    s_e = np.sqrt(min(max((c0 - 1.0 / b) / (c0 - c1), 0.0), 1.0)) \
        if c0 > c1 else 0.0
    x, w = LEG_X, LEG_W
    nodes, weights = [], []
    for lo, hi, kind in ((0.0, c1, "c"), (0.0, s_e, "s"), (s_e, 1.0, "s"),
                         (c0, e, "c"), (0.0, 1.0, "log")):
        if hi <= lo or (kind == "s" and c0 <= c1):
            continue  # an empty piece: gamma = 0 has c0 = c1 = 0
        u, wu = lo + (hi - lo) * x, (hi - lo) * w
        if kind == "s":
            u, wu = c0 - (c0 - c1) * u * u, 2.0 * (c0 - c1) * u * wu
        elif kind == "log":
            u = e * ((e + 1.0) / e) ** u
            wu = u * np.log((e + 1.0) / e) * wu
        nodes.append(u)
        weights.append(wu * np.exp(-u))
    hc = np.concatenate(nodes + [e + 1.0 + GL_X])
    wc = np.concatenate(weights + [GL_W * np.exp(-(e + 1.0))])
    return hc, wc, c0


def _private_threshold(b, hc, gamma):
    """The private gain at which the rate with battery b and common gain
    hc reaches gamma > 0, elementwise (b an array like hc): the bracket
    doubles from 1 until it holds the root, then 70 bisection steps."""
    lo = np.full_like(hc, 1e-12)
    hi = np.ones_like(hc)
    for _ in range(200):
        bad = _rate_vec(b, hi, hc) < gamma
        if not bad.any():
            break
        hi[bad] *= 2.0
    for _ in range(70):
        mid = 0.5 * (lo + hi)
        ok = _rate_vec(b, mid, hc) >= gamma
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid)
    return hi


def _q_rho1(bs, gamma, ps):
    """(P(R >= gamma), E[R 1{R >= gamma}]) at each battery level of
    ``bs``, gains exp(1), as a list of pairs.

    The private gain is integrated in closed form above the gain where the
    rate reaches gamma (found by bisection).  With access, the common gain
    hc is integrated piecewise, with 48-point Gauss-Legendre rules between
    the points where the integrand is not smooth: c1 = c0 / 2^gamma (the
    threshold gain starts to fall), c0 = (2^gamma - 1) / b (it falls like
    sqrt(c0 - hc) and jumps to 0), 1/b (the private-only regime ends) and
    e + 1 for e = max(c0, 1/b) (in log hc from e, as hc -> 0 is singular);
    [c1, c0] is taken in s with hc = c0 - (c0 - c1) s^2, and the tail past
    e + 1 by the 128-point Gauss-Laguerre rule.  The bisection runs on
    every level's nodes at once; it is elementwise, so each level's nodes
    take the steps they take alone, and each level's sums are its own.
    """
    out, access = [], []  # access: (index, b, q0, r0, hc, wc, c0)
    for b in bs:
        if b <= 0:
            out.append((1.0, 0.0) if gamma <= 0 else (0.0, 0.0))
            continue
        hs0 = (2.0 ** gamma - 1.0) / b
        q0 = np.exp(-hs0)
        r0 = (np.log(b) * q0 + _tail_log(hs0, 1.0 / b)) / np.log(2.0)
        if ps == 0.0:
            out.append((float(q0), float(r0)))
            continue
        access.append((len(out), b, q0, r0, *_common_nodes(b, gamma)))
        out.append(None)
    if not access:
        return out
    index, b_a, q0_a, r0_a, hc_a, wc_a, c0_a = zip(*access)
    sizes = [len(hc) for hc in hc_a]
    hc = np.concatenate(hc_a)
    if gamma <= 0:
        hstar = np.zeros_like(hc)
    else:
        # past c0 the common gain alone reaches gamma
        hstar = np.where(hc >= np.repeat(c0_a, sizes), 0.0,
                         _private_threshold(np.repeat(b_a, sizes), hc, gamma))
    for i, b, q0, r0, hc, wc, h in zip(index, b_a, q0_a, r0_a, hc_a, wc_a,
                                       np.split(hstar, np.cumsum(sizes)[:-1])):
        q1 = np.sum(wc * np.exp(-h))
        r1 = np.sum(wc * _tail_rate_bits(b, hc, h))
        out[i] = (float((1 - ps) * q0 + ps * q1),
                  float((1 - ps) * r0 + ps * r1))
    return out


def exact_threshold_metrics(gamma, ps, e_values=(0.0, 4.0),
                            e_probs=(0.5, 0.5), b_hi=800.0):
    """(throughput, mean saving time) of the rule 'stop once rate >= gamma'
    for i.i.d. exp(1) gains and i.i.d. harvesting.

    Backward recursion on the battery lattice; the start battery is one
    harvest draw.
    """
    e_values = np.asarray(e_values, float)
    e_probs = np.asarray(e_probs, float)
    step = np.gcd.reduce([int(round(v)) for v in e_values if v > 0] or [1])
    bs = np.arange(0.0, b_hi + step, step)
    n = len(bs)
    q, r1 = np.array(_q_rho1(bs.tolist(), gamma, ps)).T
    tau = np.ones(n)
    rho = r1.copy()
    p0 = float(e_probs[e_values == 0].sum())
    nz = [(int(round(v)) // step, p) for v, p in zip(e_values, e_probs)
          if v > 0]
    for i in range(n - 2, -1, -1):
        cont = 1.0 - q[i]
        t_nz = sum(p * tau[min(i + k, n - 1)] for k, p in nz)
        r_nz = sum(p * rho[min(i + k, n - 1)] for k, p in nz)
        denom = 1.0 - cont * p0
        tau[i] = (1.0 + cont * t_nz) / denom
        rho[i] = (r1[i] + cont * r_nz) / denom
    start_idx = [min(int(round(v)) // step, n - 1) for v in e_values]
    eT = float(sum(p * tau[i] for i, p in zip(start_idx, e_probs)))
    eR = float(sum(p * rho[i] for i, p in zip(start_idx, e_probs)))
    return eR / eT, eT


def reference_threshold_search(model):
    """``savetx.optimize_threshold``'s grid scan and golden-section search
    as a loop over ``threshold_metrics``, each threshold evaluated alone:
    no moments shared over the grid, no chain structure shared between
    evaluations.  The search must return this ``(gamma, pair)``."""
    import savetx as sx
    from savetx.solver import GAMMA_HI, GOLDEN_TOL, GRID_POINTS

    cache = {}

    def f(gamma):
        g = float(gamma)
        if g not in cache:
            cache[g] = sx.threshold_metrics(model, g)
        return cache[g][0]

    grid = np.linspace(0.0, GAMMA_HI, GRID_POINTS)
    grid_vals = [f(g) for g in grid]
    g_grid = float(grid[int(np.argmax(grid_vals))])

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.0, GAMMA_HI
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > GOLDEN_TOL:
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


# ---------------------------------------------------------------------------
# exhaustive stationary-policy search on small discrete configurations


class SmallConfig:
    """Markov environment small enough to enumerate every stopping map."""

    def __init__(self, ps, bmax, e_units, Pe, h_vals, Ph, hc, delta=1.0):
        self.ps = ps
        self.bmax = bmax
        self.e_units = list(e_units)
        self.Pe = np.asarray(Pe, float)
        self.h_vals = np.asarray(h_vals, float)
        self.Ph = np.asarray(Ph, float)
        self.hc = hc
        self.delta = delta
        self.nb = bmax + 1
        self.ne = len(e_units)
        self.nh = len(h_vals)
        self.n = 2 * self.nb * self.ne * self.nh

    def index(self, phi, b, e, h):
        return ((phi * self.nb + b) * self.ne + e) * self.nh + h

    def states(self):
        return itertools.product(range(2), range(self.nb), range(self.ne),
                                 range(self.nh))

    def rates(self):
        R = np.zeros(self.n)
        for phi, b, e, h in self.states():
            R[self.index(phi, b, e, h)] = oracle_rate(
                b * self.delta, self.h_vals[h], self.hc, phi)
        return R

    def kernels(self):
        Kc = np.zeros((self.n, self.n))
        Kr = np.zeros((self.n, self.n))
        p_phi = np.array([1 - self.ps, self.ps])
        for phi, b, e, h in self.states():
            i = self.index(phi, b, e, h)
            for e2 in range(self.ne):
                pe = self.Pe[e, e2]
                if pe == 0:
                    continue
                bc = min(b + self.e_units[e2], self.bmax)
                br = min(self.e_units[e2], self.bmax)
                for h2 in range(self.nh):
                    w0 = pe * self.Ph[h, h2]
                    if w0 == 0:
                        continue
                    for phi2 in range(2):
                        w = w0 * p_phi[phi2]
                        if w == 0:
                            continue
                        Kc[i, self.index(phi2, bc, e2, h2)] += w
                        Kr[i, self.index(phi2, br, e2, h2)] += w
        return Kc, Kr

    def decision_states(self):
        return [self.index(phi, b, e, h)
                for phi, b, e, h in self.states() if b > 0]

    def system_model(self):
        """The same environment as a ``savetx.SystemModel``."""
        import savetx as sx

        return sx.SystemModel(
            private=sx.GainDistribution.markov(
                sx.MarkovChainSpec(self.h_vals, self.Ph)),
            common=sx.GainDistribution.constant(self.hc),
            access=sx.AccessModel(self.ps),
            eh=sx.MarkovChainSpec([float(u) for u in self.e_units], self.Pe),
            b_max_units=self.bmax, delta=self.delta)


def grid_rule(config: SmallConfig, gamma) -> np.ndarray:
    """The stop mask on the oracle's (phi, b, e, h) grid of the rule 'stop
    iff b > 0 and stop_rate >= gamma[b, e, h]', the comparison of the
    engine; a length-1 axis of ``gamma`` applies to every state on it."""
    import savetx as sx

    phi, b, e, h = np.array(list(config.states())).T
    rate = sx.stop_rate(b * config.delta, config.h_vals[h], config.hc, phi)
    at = tuple(i if n > 1 else 0 for i, n in zip((b, e, h), gamma.shape))
    mask = np.zeros(config.n, dtype=bool)
    mask[config.index(phi, b, e, h)] = (b > 0) & (rate >= gamma[at])
    return mask


def fig3_oracle_config(p_s) -> SmallConfig:
    """fig3's default model: private chain {0.1, 16}, constant common gain
    32, one-unit battery refilled by one unit of 1e-3 every slot."""
    return SmallConfig(
        ps=p_s, bmax=1, e_units=[1], Pe=[[1.0]],
        h_vals=[0.1, 16.0], Ph=[[0.0, 1.0], [0.5, 0.5]],
        hc=32.0, delta=1e-3)


# the model block of the benchmark's markov workload: a 4-state private
# chain, an exponential common gain, harvest preset c, 21 battery levels
MARKOV_MODEL = {
    "private": {"kind": "markov", "states": [0.25, 0.75, 1.5, 3.0],
                "transition": [[0.7, 0.3, 0.0, 0.0],
                               [0.15, 0.7, 0.15, 0.0],
                               [0.0, 0.15, 0.7, 0.15],
                               [0.0, 0.0, 0.3, 0.7]]},
    "common": {"kind": "exponential", "mean": 1.0},
    "eh": {"preset": "c"}, "delta": 1.0, "b_max_units": 20}


def markov_workload_config(common_bins=8):
    """The config of the benchmark's markov workload: the fig3 runner on
    ``MARKOV_MODEL``, its exponential gain on ``common_bins`` bins."""
    import savetx as sx

    return sx.validate_config({"experiment": "fig3", **MARKOV_MODEL,
                               "solver": {"common_bins": common_bins}})


def random_small_config(rng) -> SmallConfig:
    """Random environment with at most 12 charged decision states."""
    nh = int(rng.integers(1, 4))
    ne = int(rng.integers(1, 3))
    bmax = int(rng.integers(1, 4))
    while 2 * bmax * ne * nh > 12:
        if bmax > 1:
            bmax -= 1
        elif nh > 1:
            nh -= 1
        else:
            ne -= 1
    h_vals = np.sort(2.0 ** rng.uniform(-4, 5, nh))
    Ph = rng.dirichlet(np.ones(nh) * rng.uniform(0.4, 3.0), size=nh)
    e_units = sorted(
        rng.choice(np.arange(0, 5), size=ne, replace=False).tolist())
    if not any(e_units):
        e_units[-1] = 1
    Pe = rng.dirichlet(np.ones(ne) * rng.uniform(0.4, 3.0), size=ne)
    p_s = float(rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]))
    hc = float(2.0 ** rng.uniform(-2, 6))
    return SmallConfig(p_s, bmax, e_units, Pe, h_vals, Ph, hc)


def policy_gains(config: SmallConfig, masks: np.ndarray) -> np.ndarray:
    """Exact long-run reward per slot for a batch of stop/continue maps.

    Gain = sum_s pi(s) R(s) 1{stop at s} with pi the stationary law of the
    slot chain that follows the saving dynamics on continue states and the
    period-restart dynamics on stop states.
    """
    Kc, Kr = config.kernels()
    R = config.rates()
    n = config.n
    gains = np.empty(len(masks))
    chunk = max(1, 2 ** 22 // (n * n))
    ones = np.ones(n)
    rhs = np.zeros(n)
    rhs[0] = 1.0
    for a in range(0, len(masks), chunk):
        block = masks[a:a + chunk]
        P = np.where(block[:, :, None], Kr[None], Kc[None])
        A = np.swapaxes(P, 1, 2) - np.eye(n)[None]
        A[:, 0, :] = ones
        try:
            rhs_b = np.repeat(rhs[None, :, None], len(block), axis=0)
            pi = np.linalg.solve(A, rhs_b)[..., 0]
            bad = ~np.isfinite(pi).all(axis=1)
        except np.linalg.LinAlgError:
            pi = np.empty((len(block), n))
            bad = np.ones(len(block), bool)
        if not bad.any():
            resid = np.abs(np.einsum("ps,psj->pj", pi, P) - pi).max(axis=1)
            bad = (resid > 1e-8) | (pi.min(axis=1) < -1e-8)
        for j in np.where(bad)[0]:
            pi[j] = _stationary_lstsq(P[j])
        gains[a:a + chunk] = np.einsum(
            "ps,s,ps->p", pi, R, block.astype(float))
    return gains


def _stationary_lstsq(P: np.ndarray) -> np.ndarray:
    n = P.shape[0]
    A = np.vstack([P.T - np.eye(n), np.ones(n)])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    return np.clip(pi, 0.0, None) / max(np.clip(pi, 0.0, None).sum(), 1e-300)


def enumerate_best_policy(config: SmallConfig):
    """(best gain, best mask) over every stationary stop/continue map.

    Maps never stop at an empty battery: a zero-rate stop has the same
    transition as continuing and contributes zero reward, so excluding it
    loses nothing.
    """
    dec = config.decision_states()
    n_dec = len(dec)
    if n_dec > 16:
        raise ValueError(f"{n_dec} decision states is too many to enumerate")
    count = 2 ** n_dec
    bits = ((np.arange(count)[:, None] >> np.arange(n_dec)[None, :]) & 1
            ).astype(bool)
    masks = np.zeros((count, config.n), dtype=bool)
    masks[:, dec] = bits
    gains = policy_gains(config, masks)
    k = int(np.argmax(gains))
    return float(gains[k]), masks[k]


# ---------------------------------------------------------------------------
# The sparse route to a rule's slot chain: the package's solver before it
# solved the chain level by level, kept as the reference for that solve


def slot_kernel(p_stop: np.ndarray, next_b: np.ndarray, Pe: np.ndarray,
                Ph: np.ndarray):
    """Slot-to-slot kernel, a scipy COO array, on the carried cells (b, e,
    h) of a rule that stops with probability ``p_stop[b, e, h]``: a skip
    moves the battery to ``next_b[b, e']``, a stop restarts at ``next_b[0,
    e']``, and both step the harvest chain ``Pe`` and the private-gain
    chain ``Ph``.  Entries that coincide at the cap add up."""
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


def chain_gains(K, r: np.ndarray) -> np.ndarray:
    """Long-run averages of per-slot rewards on the slot chain ``K`` (a
    scipy COO array, as ``slot_kernel`` returns).

    Solves g + gain = r + K g with g pinned at state 0 and returns x with
    the gain in ``x[0]`` and g[1:] in ``x[1:]``; the gain is pi @ r for the
    chain's stationary law pi.  ``r`` may hold several reward columns,
    which share one factorization.  The closed classes are counted by
    scipy's strongly connected components.
    """
    from scipy import sparse
    from scipy.sparse.csgraph import connected_components
    from scipy.sparse.linalg import spsolve

    from savetx.errors import NoConvergence, ReducibleChain

    m = K.shape[0]
    # one gain fits every state only if a single class is closed
    n_cls, cls = connected_components(K, connection="strong")
    closed = n_cls - len(np.unique(cls[K.row][cls[K.row] != cls[K.col]]))
    if closed > 1:
        raise ReducibleChain(
            f"the rule's chain has {closed} recurrent classes")
    # pinning g[0] = 0 frees column 0 of I - K for the gain: A = [1 | (I -
    # K)[:, 1:]], built from K's triples.  A skip and a stop that meet at
    # the cap add up in K before I - K subtracts them, so the diagonal sums
    # them first too; an exact 0 of I - K is left out, as the subtraction
    # leaves it out
    on = K.row == K.col
    diag = 1.0 - np.bincount(K.row[on], K.data[on], minlength=m)
    d = np.flatnonzero(diag[1:]) + 1
    off = (K.col > 0) & ~on
    A = sparse.csc_array(
        (np.concatenate([np.ones(m), diag[d], -K.data[off]]),
         (np.concatenate([np.arange(m), d, K.row[off]]),
          np.concatenate([np.zeros(m, int), d, K.col[off]]))), shape=(m, m))
    x = spsolve(A, r)
    resid = np.abs(A @ x - r).max()
    if not resid <= 1e-6:
        raise NoConvergence(f"policy evaluation residual {resid:.2e}")
    return x
