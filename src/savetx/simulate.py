"""Slot-level Monte Carlo of save-then-transmit periods and the two
benchmark supplies.

Everything runs many battery streams side by side, one vectorized draw
block per slot, so a fixed (configuration, seed) pair always reproduces the
same metrics bit for bit.

Per-slot draw order is the access uniform u, private gain, common gain,
harvest, each one block over all streams; the access flag is phi = u < p_s.
``run_policies`` runs any list of rules, each a ``Policy`` gamma table, in
one refill pass of the period engine ``_run_block``, which draws from one
generator; ``run_simulation`` is its one-rule form.  Each rule's lanes take
period indices from a queue as they end periods, so a lane simulates
unrecorded periods only in its warm-up and while it waits, idle, for its
rule's last recorded periods to end.  The two benchmark supplies run as one
pass, ``run_supplies``, which draws per slot in that order, spends per
block of slots, and gives both supplies the same draws, as the engine gives
its rules.  A pass of either may hold several p_s: its models differ only
in the access probability, the draws serve them all, and each p_s compares
the one access uniform with its own value, so each row is what a pass of
its p_s alone gives.  It runs the engine's Monte
Carlo scheme: ``streams`` lanes on one generator built as the engine's,
with standard errors batched over the engine's ``N_BATCHES`` fixed groups
of lanes.  The engine and the supplies keep per-lane sums of their records
and reduce them once, after the slot loop, with one fold, ``_fold``.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import PeriodOverflow
from .models import GainDistribution, SystemModel, stationary_distribution
from .power import check_gamma, solve_water_level, stop_rate
from .tables import emit_csv

__all__ = [
    "Policy",
    "Metrics",
    "run_policies",
    "run_simulation",
    "run_supplies",
]

TRACE_SCHEMA = ("period", "saving_slots", "b_stop", "phi", "h", "h_common",
                "rate")

# batches of the batch-means standard errors: a z-score against one of
# them follows a t law with N_BATCHES - 1 degrees of freedom
N_BATCHES = 20


@dataclass(frozen=True, eq=False)
class Policy:
    """Stopping rule of the period engine: stop once the slot's rate meets
    ``gamma[b, e, h]``, a read-only table on (battery units, harvest state,
    private-gain state); an axis of length 1 applies to all its states."""

    gamma: np.ndarray

    def __post_init__(self):
        gamma = np.array(self.gamma, dtype=float)  # a read-only copy
        if gamma.ndim != 3:
            raise ValueError("gamma: a rule table has 3 axes")
        gamma.setflags(write=False)
        object.__setattr__(self, "gamma", gamma)

    @classmethod
    def dp(cls, table) -> "Policy":
        return cls(table.gamma)

    @classmethod
    def threshold(cls, gamma) -> "Policy":
        return cls(np.full((1, 1, 1), check_gamma(gamma)))


@dataclass(frozen=True)
class Metrics:
    """Renewal-reward statistics of a simulation run."""

    throughput: float
    mean_saving_time: float
    se_throughput: float
    se_saving_time: float
    periods: int
    cap_hit_fraction: float
    realized_avg_power: float | None = None

    def __post_init__(self):
        if self.throughput < 0 or self.periods <= 0:
            raise ValueError("throughput must be >= 0 and periods > 0")
        if self.se_throughput < 0 or self.se_saving_time < 0:
            raise ValueError("standard errors must be >= 0")


# ---------------------------------------------------------------------------
# samplers: every call draws one block of ``size`` values


def _cum_table(p) -> np.ndarray:
    """Cumulative sums of the probability rows ``p`` (one row, or a
    transition matrix), less the columns that are >= 1.0 in every row: a
    uniform in [0, 1) never reaches them, so ``_step_chain`` draws the same
    indices without them, and a two-state chain steps one column."""
    cum = np.cumsum(p, axis=-1)
    return cum[..., (cum < 1.0).reshape(-1, cum.shape[-1]).any(axis=0)]


def _step_chain(cum: np.ndarray, idx, rng, size: int):
    """Inverse-CDF index draws against the cumulative rows ``cum[idx]``,
    one uniform per draw; ``idx=None`` draws every index from the single
    cumulative row ``cum``."""
    u = rng.random(size)
    out = np.zeros(size, dtype=np.int64)
    for col in cum.T:  # one column at a time: cheaper than a 2-D broadcast
        out += u >= (col if idx is None else col[idx])
    return out


class _GainSampler:
    """Per-slot i.i.d. gain draws."""

    def __init__(self, dist: GainDistribution):
        self.dist = dist
        if dist.kind == "discrete":
            self.values = np.asarray(dist.values)
            self.cum = _cum_table(dist.probabilities)

    def draw(self, rng, size: int) -> np.ndarray:
        if self.dist.kind == "discrete":
            return self.values[_step_chain(self.cum, None, rng, size)]
        if self.dist.kind == "constant":
            return np.full(size, self.dist.value)
        return rng.exponential(self.dist.mean, size=size)


class _PrivateSampler:
    """Private gain: Markov chain steps, or fresh i.i.d. draws at index 0."""

    def __init__(self, model: SystemModel):
        self.is_markov = model.private.kind == "markov"
        if self.is_markov:
            chain = model.private.chain
            self.values = np.asarray(chain.states)
            self.cum = _cum_table(chain.transition)
            self.pi_cum = _cum_table(stationary_distribution(chain))
        else:
            self.iid = _GainSampler(model.private)

    def init(self, rng, size: int):
        """Chain indices from the stationary law (zeros when i.i.d., which
        draws nothing)."""
        if self.is_markov:
            return _step_chain(self.pi_cum, None, rng, size)
        return np.zeros(size, dtype=np.int64)

    def step(self, idx, rng, size: int):
        """Returns (values, indices); consumes one draw block."""
        if self.is_markov:
            nxt = _step_chain(self.cum, idx, rng, size)
            return self.values[nxt], nxt
        return self.iid.draw(rng, size), idx


def _draw_slot(private: _PrivateSampler, common: _GainSampler, h_idx, rng,
               size: int):
    """One slot's channel draws for every stream: the access uniform u,
    private gain, common gain.  Returns (u, h, h_idx, hc); the access flag
    at any p_s is ``u < p_s``, so one draw serves every p_s of a pass."""
    u = rng.random(size)
    h, h_idx = private.step(h_idx, rng, size)
    return u, h, h_idx, common.draw(rng, size)


def _access(u, p_s):
    """Access flags ``u < p_s`` as int8; ``p_s`` may be a column of one
    p_s per row."""
    return (u < p_s).astype(np.int8)


def _first_harvest(model: SystemModel, rng, size: int):
    """Harvest-chain indices from the stationary law, stepped once; the
    harvest of that step is the first battery (or best-effort budget)."""
    eh_cum = _cum_table(model.eh.transition)
    pi_cum = _cum_table(stationary_distribution(model.eh))
    return _step_chain(eh_cum, _step_chain(pi_cum, None, rng, size), rng,
                       size)


def _access_grid(model) -> list[SystemModel]:
    """``model``, one model or a list of them, as a list; refuses models
    that differ in any field but ``access``, naming it: a pass draws one
    slot stream, which serves every p_s but one model of everything else."""
    models = [model] if isinstance(model, SystemModel) else list(model)
    for f in fields(SystemModel):
        if f.name != "access" and any(getattr(m, f.name) !=
                                      getattr(models[0], f.name)
                                      for m in models[1:]):
            raise ValueError(f"models: they differ in {f.name}, and a "
                             "pass takes models that differ only in access")
    return models


# ---------------------------------------------------------------------------
# period engine


def _rule_tables(policies, model: SystemModel) -> np.ndarray:
    """The rules' gamma tables stacked on a row axis; refuses an axis that
    is neither 1 long nor the model's state count.  An i.i.d. private gain
    has one state."""
    iid = model.private.is_iid
    tables = [p.gamma for p in policies]
    sizes = {"battery": model.b_max_units + 1,
             "harvest": len(model.eh.states),
             "private-gain": 1 if iid else len(model.private.chain.states)}
    for t in tables:
        for (axis, n), have in zip(sizes.items(), t.shape):
            if have not in (1, n):
                raise ValueError(f"rule table: the {axis} axis has length "
                                 f"{have}, the model needs 1 or {n}")
    return np.stack(np.broadcast_arrays(*tables))


def _refill(take, cur, taken, n_periods: int):
    """Hand each lane in the (rows, lanes) mask ``take`` its row's next
    period index, in lane order, or -1 once the row's ``n_periods``
    indices are out.  Returns the new ``cur`` and ``taken``."""
    # integer arithmetic on the masks, not np.where: the next index (1-based
    # here), or -1 past the queue, and it replaces ``cur`` where ``take``
    nxt = taken[:, None] + np.cumsum(take, axis=1)
    new = nxt * (nxt <= n_periods) - 1
    return cur + take * (new - cur), np.minimum(nxt[:, -1], n_periods)


def _run_block(policies, model, warm_per_lane: int, n_periods: int, rng,
               lanes: int, slot_cap: int, trace: bool = False):
    """One refill pass of the period engine: ``lanes`` lanes per rule, one
    row of lanes per rule, against a queue of ``n_periods`` period indices
    per row.  ``model`` is one model for every rule, or a list of one per
    rule that differ only in ``access``: each row then compares the slot's
    access uniform with its own p_s.

    A lane's first ``warm_per_lane`` periods are warm-up and not recorded.
    After them, each slot the lanes that end a period take their row's next
    indices in lane order; once the queue is empty they go idle, and a row
    leaves when none of its lanes runs a recorded period.  A period is
    included when it starts, before its length is known, so the sample is
    free of length bias.  Rows share each slot's draws and keep their own
    batteries, so each gets what a pass of its rule alone would.

    Returns one Metrics per rule and, when ``trace``, the first rule's
    records ``T``, ``rate``, ``b``, ``phi``, ``h`` and ``hc`` in period
    index order (else None)."""
    models = _access_grid(model)
    rows = len(policies)
    if len(models) not in (1, rows):
        raise ValueError(f"models: {len(models)} models for {rows} rules; "
                         "give one model, or one per rule")
    model = models[0]
    p_s = np.array([[m.access.p_s] for m in models])
    # with one p_s the access flags stay one row of lanes for every row: a
    # (rows, lanes) compare each slot made fig4's 21-row passes 5-10% slower
    mixed = bool((p_s != p_s[0]).any())
    if not mixed:
        p_s = p_s[0, 0]
    gammas = _rule_tables(policies, model)
    nb, ne, nh = gammas.shape[1:]
    private = _PrivateSampler(model)
    common = _GainSampler(model.common)
    eh_cum = _cum_table(model.eh.transition)
    eh_vals = np.asarray(model.eh.states)
    cap = model.b_cap
    base = model.log_base

    # initial carry: one harvest as the first battery, gain chain from its
    # stationary law
    e_idx = _first_harvest(model, rng, lanes)
    b = np.tile(np.minimum(eh_vals[e_idx], cap), (rows, 1))
    h_idx = private.init(rng, lanes)

    T_cur = np.zeros((rows, lanes), dtype=np.int64)
    left = np.full((rows, lanes), warm_per_lane)  # warm-up periods to end
    # the index of each lane's running period; -1 when it is not recorded
    cur, taken = _refill(left == 0, np.full((rows, lanes), -1),
                         np.zeros(rows, dtype=np.int64), n_periods)
    # per lane: sums of the recorded periods' T, R - shift T and count,
    # with shift the row's first recorded R / T (0 until it is set, so that
    # a product with the recorded mask stays finite); ``done`` takes a
    # row's sums as it leaves
    sums = np.zeros((rows, 3, lanes))
    done = np.empty_like(sums)
    shift = np.zeros(rows)
    unset = np.ones(rows, dtype=bool)
    # float records hold period lengths and access flags exactly
    rec = {k: np.empty(n_periods)
           for k in ("T", "rate", "b", "phi", "h", "hc")} if trace else None
    clips = np.zeros(rows, dtype=np.int64)
    slots_run = np.zeros(rows, dtype=np.int64)  # set as each row leaves
    live = np.arange(rows)  # the rows that the per-lane arrays hold
    slots = 0

    while live.size:
        slots += 1
        T_cur += 1
        if T_cur.max() > slot_cap:
            raise PeriodOverflow(f"period exceeded {slot_cap} slots")
        u, h, h_idx, hc = _draw_slot(private, common, h_idx, rng, lanes)
        phi = _access(u, p_s[live] if mixed else p_s)
        rate = stop_rate(b, h, hc, phi, base)
        # unlike the rule the solvers evaluate, which never stops at b = 0,
        # this stops at an empty battery (0 >= gamma[0] = 0).  Masking that
        # stop gave the markov benchmark's DP rows a mean z of +0.01 and
        # -0.03 at p_s 0.25 and 0.75 (seeds 1-20; -1.76 at p_s 0.75 before
        # the refill pass, +0.13 and +0.07 unmasked), but it doubled their
        # slots and slowed the table, so it waits for stationary starts
        # (ROADMAP item 4)
        at = (live[:, None],
              np.round(b / model.delta).astype(np.int64) if nb > 1 else 0,
              e_idx if ne > 1 else 0, h_idx if nh > 1 else 0)
        stop = rate >= gammas[at]
        e_idx = _step_chain(eh_cum, e_idx, rng, lanes)
        e_val = eh_vals[e_idx]

        recorded = stop & (cur >= 0)
        fresh = unset[live]
        if fresh.any():  # a row's first records, lowest lane first
            first = np.flatnonzero(fresh & recorded.any(axis=1))
            s = recorded[first].argmax(axis=1)
            shift[live[first]] = rate[first, s] / T_cur[first, s]
            unset[live[first]] = False
        # every term is finite, so a product with the mask adds exactly
        # what np.where would select
        sums[:, 0] += T_cur * recorded
        sums[:, 1] += (rate - shift[live, None] * T_cur) * recorded
        sums[:, 2] += recorded
        if trace and live[0] == 0:
            s0 = np.flatnonzero(recorded[0])
            for field, v in zip(rec.values(), (T_cur, rate, b, phi, h, hc)):
                field[cur[0, s0]] = v[0, s0] if v.ndim == 2 else v[s0]
        # a lane that ends its last warm-up period or a recorded one takes
        # the next index
        take = stop & (left <= 1)
        left -= stop & (left > 0)
        cur, taken = _refill(take, cur, taken, n_periods)

        # the stop slot's harvest seeds the next period's battery
        b_next = b * ~stop
        b_next += e_val
        clips[live] += (b_next > cap).sum(axis=1)
        b = np.minimum(b_next, cap)
        T_cur *= ~stop
        going = (taken < n_periods) | (cur >= 0).any(axis=1)
        if not going.all():
            slots_run[live[~going]] = slots
            done[live[~going]] = sums[~going]
            live, b, T_cur, left, cur, taken, sums = (
                a[going] for a in (live, b, T_cur, left, cur, taken, sums))

    return ([_fold(shift[i], *done[i], cap_hit_fraction=float(
        clips[i] / max(slots_run[i] * lanes, 1))) for i in range(rows)], rec)


def _batch_ses(dev, T, n):
    """Batch-means SEs of the ratio estimate and of the mean length, from
    per-batch sums of deviations R - shift T, of lengths T and of record
    counts n; NaN when a batch holds fewer than 2 records.  Taking the
    ratio on deviations makes the SE exactly 0 when every R / T is shift."""
    if n.min() < 2:
        return float("nan"), float("nan")
    return tuple(float(x.std(ddof=1) / np.sqrt(len(x)))
                 for x in (dev / T, T / n))


def _mean_about(shift: float, deviations: np.ndarray,
                weights: np.ndarray) -> float:
    """``shift + sum(deviations) / sum(weights)``.

    The runners reduce their throughput and power averages as deviations
    from an observed value ``shift``.  When every slot's value equals
    ``shift`` the deviations are exactly zero, so the average is exactly
    ``shift`` for any count; a plain mean of n copies of c can miss c by an
    ulp, because floating-point summation does not form n * c exactly.
    """
    return float(shift + deviations.sum() / weights.sum())


def _rng(seed: int) -> np.random.Generator:
    """The one generator of an engine pass or a supply run: PCG64 on the
    first child of the seed's SeedSequence."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(seed).spawn(1)[0]))


def _lane_groups(lanes: int) -> np.ndarray:
    """Each lane's batch: ``N_BATCHES`` fixed groups of consecutive lanes,
    as equal in size as the lane count allows.  Lanes are independent, so
    the groups' ratios are too; batches of consecutive periods would be
    time slices of every lane, correlated under correlated dynamics."""
    return np.arange(lanes) * N_BATCHES // lanes


def _fold(shift: float, T, dev, n, **fields) -> Metrics:
    """Metrics from per-lane sums of the recorded periods' lengths ``T``,
    deviations ``dev`` = R - shift T of their rewards R, and counts ``n``,
    folded once into the ``N_BATCHES`` lane groups.  ``fields`` gives the
    Metrics fields the sums do not, and overrides those they do."""
    group = _lane_groups(len(T))
    T, dev, n = (np.bincount(group, x, minlength=N_BATCHES)
                 for x in (T, dev, n))
    se_rate, se_T = _batch_ses(dev, T, n)
    return Metrics(**{
        "throughput": _mean_about(shift, dev, T),
        "mean_saving_time": float(T.sum() / n.sum()),
        "se_throughput": se_rate, "se_saving_time": se_T,
        "periods": int(n.sum()), **fields})


def _check_sizes(**sizes):
    """Refuse a size that is not an integer, or below its least value: 0
    for warm-up, else 1."""
    for name, value in sizes.items():
        low = 0 if name == "warmup_periods" else 1
        # bool is an Integral too, so it is refused by name
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
                or value < low:
            raise ValueError(f"{name} must be an integer >= {low}")


def run_policies(policies, model, n_periods: int, seed: int, *,
                 warmup_periods: int = 1000, streams: int = 512,
                 slot_cap: int = 1_000_000, trace_path=None) -> list[Metrics]:
    """Renewal metrics of each stopping rule over ``n_periods`` periods, in
    order, from one refill pass of ``streams`` lanes per rule.

    ``policies`` is any list of rules; a table that does not fit the model
    raises ValueError naming the axis.  ``model`` is one SystemModel for
    every rule, or a list of one per rule; the models of a list may differ
    in ``access`` alone, so a pass may hold several p_s, and any other
    difference raises ValueError naming the field.  The rules share each
    slot's draws (common random numbers; each row's access flag is the
    slot's one access uniform below its p_s) and keep their own batteries
    and records, so each gets what a run of it alone would.  Each lane
    first runs ``ceil(warmup_periods / streams)`` unrecorded periods.
    Throughput is total rate over total slots, exact when the per-slot
    rate is constant; the standard errors are batch means over
    ``N_BATCHES`` fixed groups of lanes, so they are NaN with fewer
    streams than that.  Each lane keeps sums of its recorded periods, and
    the pass folds them into the lane groups once, at its end.
    Deterministic for fixed arguments: the pass draws from one PCG64
    generator seeded from ``seed``.  ``trace_path`` receives the first
    rule's periods as CSV.
    """
    _check_sizes(n_periods=n_periods, warmup_periods=warmup_periods,
                 streams=streams, slot_cap=slot_cap)
    if not policies:
        return []
    metrics, rec = _run_block(policies, model, -(-warmup_periods // streams),
                              n_periods, _rng(seed), streams, slot_cap,
                              trace_path is not None)
    if trace_path is not None:
        cols = [rec[k] for k in ("T", "b", "phi", "h", "hc", "rate")]
        emit_csv(([p, int(t), float(bb), int(ph), float(hh), float(cc),
                   float(rr)] for p, (t, bb, ph, hh, cc, rr)
                  in enumerate(zip(*cols))), TRACE_SCHEMA, trace_path)
    return metrics


def run_simulation(policy: Policy, model: SystemModel, n_periods: int,
                   seed: int, **sizes) -> Metrics:
    """Renewal metrics of one stopping policy: ``run_policies`` of that
    rule alone, with the same keyword arguments and defaults."""
    return run_policies([policy], model, n_periods, seed, **sizes)[0]


# slots per spend in ``run_supplies``: spreads the spend kernels' call
# overhead over many values and keeps their temporaries small
_SUPPLY_BLOCK = 32


def run_supplies(model, p_bar: float, n_slots: int, seed: int, *,
                 water_level=None, streams: int = 512):
    """Metrics of the two benchmark supplies, ``(best_effort,
    conventional)``, from one pass of shared slot draws.

    ``model`` is one SystemModel, or a list of models that differ only in
    ``access`` (a p_s grid; any other difference raises ValueError naming
    the field).  A list gives a list of one pair per model from one pass:
    the draws are made once per slot for the whole grid, and each p_s
    spends them with its own access flags ``u < p_s`` and water level, so
    each pair is what a call with that model alone returns.

    Best-effort has no battery: each slot's budget is the harvest of the
    slot before it (the very first budget is one fresh harvest draw),
    spent whole with ``stop_rate``.  Conventional water-fills an average
    power ``p_bar`` at ``water_level`` (for a list, a list of one level per
    model; solved from the model when None), so a model whose level cannot
    be bracketed raises ``NoBracket`` for both.

    ``streams`` lanes run ``ceil(n_slots / streams)`` slots each on the
    engine's generator at ``seed``.  Each slot draws the access uniform
    and both gains, then steps the harvest chain; each block of
    ``_SUPPLY_BLOCK`` slots is spent by both supplies of each model at
    once.  A block computes what no p_s changes once: best-effort's rates
    without and with access, and the gains' reciprocals.  Each model then
    adds only its access mask, its water level's powers and rates, and a
    choice between the two best-effort rates, made by multiplying them
    with the mask and its complement; no value is selected with
    ``np.where``, and every value is what a spend per model and slot
    gives, bit for bit.  Each lane sums its deviations from the first
    slot's values, and ``_fold`` takes those sums into the engine's lane
    groups once, at the end, so the standard errors are NaN with fewer
    streams than ``N_BATCHES``.
    Throughput is total rate over total slots, exact when the per-slot
    rate is constant; the realized average power is reduced the same way.
    """
    if not p_bar > 0:  # NaN fails the comparison
        raise ValueError("p_bar must be > 0")
    _check_sizes(n_slots=n_slots, streams=streams)
    grid = not isinstance(model, SystemModel)
    models = _access_grid(model)
    levels = (water_level if grid else [water_level]) or [None] * len(models)
    if len(levels) != len(models):
        raise ValueError("water_level: give one level per model")
    if not models:
        return []
    levels = [lv or solve_water_level(m.private, m.common, m.access, p_bar)
              for m, lv in zip(models, levels)]
    model = models[0]
    slots = -(-n_slots // streams)
    private = _PrivateSampler(model)
    common = _GainSampler(model.common)
    eh_cum = _cum_table(model.eh.transition)
    eh_vals = np.asarray(model.eh.states)
    base = model.log_base
    logf = np.log2 if base == 2.0 else np.log
    rng = _rng(seed)
    e_idx = _first_harvest(model, rng, streams)
    h_idx = private.init(rng, streams)

    # per model and lane: best-effort rate, conventional rate and power,
    # less shifts (each model's first values of them)
    sums = np.zeros((len(models), 3, streams))
    shifts = np.empty((len(models), 3))

    def spend(k, j, v):
        """Add the block's values ``v`` of model ``k``'s value ``j`` to
        its lane sums, less its shift; ``v`` is a scratch buffer."""
        if first == 0:
            shifts[k, j] = v[0, 0]
        v -= shifts[k, j]
        sums[k, j] += v.sum(axis=0)

    # buffers for a block's draws, its gains' reciprocals and one model's
    # values at a time, allocated once; a short last block uses their heads
    draws = np.empty((4, _SUPPLY_BLOCK, streams))
    inverses = np.empty((2, _SUPPLY_BLOCK, streams))
    work = np.empty((3, _SUPPLY_BLOCK, streams))
    masks = np.empty((2, _SUPPLY_BLOCK, streams), dtype=bool)
    for first in range(0, slots, _SUPPLY_BLOCK):
        n = min(_SUPPLY_BLOCK, slots - first)
        u, h, hc, budget = draws[:, :n]
        for i in range(n):
            budget[i] = eh_vals[e_idx]
            u[i], h[i], h_idx, hc[i] = _draw_slot(private, common, h_idx, rng,
                                                  streams)
            e_idx = _step_chain(eh_cum, e_idx, rng, streams)
        # what no p_s changes, once per block: best-effort's rates without
        # and with access, and the gains' reciprocals (+inf at a gain of 0,
        # where the water-filling power is 0)
        rate_off = stop_rate(budget, h, hc, 0, base)
        rate_on = stop_rate(budget, h, hc, 1, base)
        inv_h, inv_hc = inverses[:, :n]
        with np.errstate(divide="ignore", over="ignore"):
            np.divide(1.0, np.abs(h, out=inv_h), out=inv_h)
            np.divide(1.0, np.abs(hc, out=inv_hc), out=inv_hc)
        p, pc, cv = work[:, :n]
        on, off = masks[:, :n]
        for k, (m, level) in enumerate(zip(models, levels)):
            np.less(u, m.access.p_s, out=on)
            np.logical_not(on, out=off)
            # best-effort takes one of its two rates: multiplied by the
            # masks, the other is exactly 0
            be = np.multiply(rate_off, off, out=p)
            be += np.multiply(rate_on, on, out=pc)
            spend(k, 0, be)
            # conventional water-fills (1/xi - 1/gain)^+ on each channel;
            # off access pc = 0, whose term log(1 + hc pc) is exactly 0
            top = 1.0 / level.xi
            np.maximum(np.subtract(top, inv_h, out=p), 0.0, out=p)
            np.maximum(np.subtract(top, inv_hc, out=pc), 0.0, out=pc)
            pc *= on
            logf(np.add(np.multiply(h, p, out=cv), 1.0, out=cv), out=cv)
            p += pc  # the power spent
            cv += logf(np.add(np.multiply(hc, pc, out=pc), 1.0, out=pc),
                       out=pc)
            spend(k, 1, cv)
            spend(k, 2, p)
    # a supply's period is one slot, so each lane's T and count are its
    # slots, and the mean length is exact, with fewer lanes than groups too
    T = np.full(streams, float(slots))
    pairs = []
    for c3, dev3 in zip(shifts.tolist(), sums):
        be, cv, power = (_fold(c, T, dev, T, cap_hit_fraction=0.0,
                               se_saving_time=0.0)
                         for c, dev in zip(c3, dev3))
        pairs.append((be, replace(cv, realized_avg_power=power.throughput)))
    return pairs if grid else pairs[0]
