"""Slot-level Monte Carlo of save-then-transmit periods and the two
benchmark supplies.

The engine runs many battery streams in lockstep, one vectorized draw block
per slot, so a fixed (configuration, seed) pair always reproduces the same
metrics bit for bit.  Replications carry seeds derived from the base seed
and are combined in replication order.

Per-slot draw order is phi, private gain, common gain, harvest, each one
block over all streams.  ``_run_block`` is the only period engine; the two
benchmark supplies share one per-slot loop, ``_run_supply``, and differ
only in how a slot's energy is spent.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PeriodOverflow
from .models import GainDistribution, SystemModel, stationary_distribution
from .power import conventional_power, solve_water_level, stop_rate
from .tables import emit_csv

__all__ = [
    "Policy",
    "Metrics",
    "run_simulation",
    "run_best_effort",
    "run_conventional",
]

TRACE_SCHEMA = ("period", "saving_slots", "b_stop", "phi", "h", "h_common",
                "rate")


@dataclass(frozen=True)
class Policy:
    """Stopping rule of the period engine: a solved DP table or a rate
    threshold."""

    kind: str
    table: object = None          # solved value table for kind="dp"
    gamma: float = float("nan")   # threshold for kind="threshold"

    @classmethod
    def dp(cls, table) -> "Policy":
        return cls(kind="dp", table=table)

    @classmethod
    def threshold(cls, gamma) -> "Policy":
        gamma = getattr(gamma, "gamma", gamma)
        if gamma < 0:
            raise ValueError("gamma must be >= 0")
        return cls(kind="threshold", gamma=float(gamma))


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


def _step_chain(cum: np.ndarray, idx, rng, size: int):
    """Inverse-CDF index draws against the cumulative rows ``cum[idx]``,
    one uniform per draw; ``idx=None`` draws every index from the single
    cumulative row ``cum``."""
    u = rng.random(size)
    return (u[:, None] >= cum[idx]).sum(axis=1)


class _GainSampler:
    """Per-slot i.i.d. gain draws; returns values and grid indices."""

    def __init__(self, dist: GainDistribution, grid: np.ndarray | None = None):
        self.dist = dist
        if dist.kind == "discrete":
            self.values = np.asarray(dist.values)
            self.cum = np.cumsum(dist.probabilities)
        if grid is not None and len(grid) > 1:
            g = np.sort(np.asarray(grid, dtype=float))
            self.mids = 0.5 * (g[1:] + g[:-1])
        else:
            self.mids = None

    def draw(self, rng, size: int):
        kind = self.dist.kind
        if kind == "discrete":
            idx = _step_chain(self.cum, None, rng, size)
            return self.values[idx], idx
        if kind == "constant":
            vals = np.full(size, self.dist.value)
        else:
            vals = rng.exponential(self.dist.mean, size=size)
        if self.mids is None:
            return vals, np.zeros(size, dtype=np.int64)
        return vals, np.searchsorted(self.mids, vals)


class _PrivateSampler:
    """Private gain: Markov chain steps or fresh i.i.d. draws."""

    def __init__(self, model: SystemModel, grid: np.ndarray | None = None):
        self.is_markov = model.private.kind == "markov"
        if self.is_markov:
            chain = model.private.chain
            self.values = np.asarray(chain.states)
            self.cum = np.cumsum(chain.transition, axis=1)
            self.pi_cum = np.cumsum(stationary_distribution(chain))
        else:
            self.iid = _GainSampler(model.private, grid)

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
        return self.iid.draw(rng, size)


def _draw_slot(model: SystemModel, private: _PrivateSampler,
               common: _GainSampler, h_idx, rng, size: int):
    """One slot's channel draws for every stream: access flag, private
    gain, common gain.  Returns (phi, h, h_idx, hc, hc_idx)."""
    phi = (rng.random(size) < model.access.p_s).astype(np.int8)
    h, h_idx = private.step(h_idx, rng, size)
    hc, hc_idx = common.draw(rng, size)
    return phi, h, h_idx, hc, hc_idx


def _first_harvest(model: SystemModel, rng, size: int):
    """Harvest-chain indices from the stationary law, stepped once; the
    harvest of that step is the first battery (or best-effort budget)."""
    eh_cum = np.cumsum(model.eh.transition, axis=1)
    pi_cum = np.cumsum(stationary_distribution(model.eh))
    return _step_chain(eh_cum, _step_chain(pi_cum, None, rng, size), rng,
                       size)


# ---------------------------------------------------------------------------
# period engine


def _run_block(policy: Policy, model: SystemModel, warm_per_stream: int,
               keep_per_stream: int, rng, streams: int, slot_cap: int):
    """Collect a fixed number of periods from every lockstep stream.

    Each stream contributes exactly its periods number ``warm_per_stream``
    through ``warm_per_stream + keep_per_stream - 1``; selecting periods by
    index keeps the sample free of length bias (cutting a run mid-flight
    would over-represent short periods).  Records are ordered by (stream,
    period index).
    """
    private_grid = None
    hc_grid = None
    if policy.kind == "dp":
        t = policy.table
        stop_tab = t.rates >= t.continuation
        private_grid = t.h_values
        hc_grid = t.hc_values
    private = _PrivateSampler(model, private_grid)
    common = _GainSampler(model.common, hc_grid)
    eh_cum = np.cumsum(model.eh.transition, axis=1)
    eh_vals = np.asarray(model.eh.states)
    cap = model.b_cap
    base = model.log_base

    # initial carry: one harvest as the first battery, gain chain from its
    # stationary law
    e_idx = _first_harvest(model, rng, streams)
    b = np.minimum(eh_vals[e_idx], cap)
    h_idx = private.init(rng, streams)

    T_cur = np.zeros(streams, dtype=np.int64)
    rec: dict[str, list] = {k: [] for k in
                            ("T", "rate", "b", "phi", "h", "hc")}
    rec_stream: list = []
    done = np.zeros(streams, dtype=np.int64)  # periods completed per stream
    target = warm_per_stream + keep_per_stream
    clip_events = 0
    slot_draws = 0
    stream_ids = np.arange(streams)

    while done.min() < target:
        T_cur += 1
        if T_cur.max() > slot_cap:
            raise PeriodOverflow(f"period exceeded {slot_cap} slots")
        phi, h, h_idx, hc, hc_idx = _draw_slot(model, private, common,
                                               h_idx, rng, streams)
        rate = stop_rate(b, h, hc, phi, base)
        if policy.kind == "threshold":
            stop = rate >= policy.gamma
        else:
            b_units = np.round(b / policy.table.delta).astype(np.int64)
            stop = stop_tab[phi, b_units, e_idx, h_idx, hc_idx]
        e_idx = _step_chain(eh_cum, e_idx, rng, streams)
        e_val = eh_vals[e_idx]

        if stop.any():
            # boolean indexing copies, so the records own their data
            rec_stream.append(stream_ids[stop])
            rec["T"].append(T_cur[stop])
            rec["rate"].append(rate[stop])
            rec["b"].append(b[stop])
            rec["phi"].append(phi[stop])
            rec["h"].append(h[stop])
            rec["hc"].append(hc[stop])
            done[stop] += 1

        # the stop slot's harvest seeds the next period's battery
        b_next = np.where(stop, e_val, b + e_val)
        clip_events += int((b_next > cap).sum())
        slot_draws += streams
        b = np.minimum(b_next, cap)
        T_cur = np.where(stop, 0, T_cur)

    # reorder chronological records to (stream, period index) and keep each
    # stream's periods [warm, warm + keep)
    sid = np.concatenate(rec_stream)
    order = np.lexsort((np.arange(len(sid)), sid))
    rank = np.arange(len(sid)) - np.repeat(
        np.searchsorted(sid[order], np.arange(streams)),
        np.bincount(sid, minlength=streams))
    keep_mask = (rank >= warm_per_stream) & (rank < target)
    sel = order[keep_mask]
    out = {k: np.concatenate(v)[sel] for k, v in rec.items()}
    return out, clip_events, slot_draws


def _mean_about(shift: float, deviations: np.ndarray,
                weights: np.ndarray | None = None) -> float:
    """``shift + sum(deviations) / sum(weights)``; weights default to 1.

    The runners reduce their throughput and power averages as deviations
    from an observed value ``shift``.  When every slot's value equals
    ``shift`` the deviations are exactly zero, so the average is exactly
    ``shift`` for any count; a plain mean of n copies of c can miss c by an
    ulp, because floating-point summation does not form n * c exactly.
    """
    den = len(deviations) if weights is None else weights.sum()
    return float(shift + deviations.sum() / den)


def _batch_ratio_se(num: np.ndarray, den: np.ndarray, n_batches: int):
    """Batch-means SE of sum(num)/sum(den); NaN below 2 records per batch."""
    n = len(num)
    if n < n_batches * 2:
        return float("nan")
    edges = np.linspace(0, n, n_batches + 1, dtype=int)
    ratios = np.array([
        num[a:b].sum() / max(den[a:b].sum(), 1e-300)
        for a, b in zip(edges[:-1], edges[1:])
    ])
    return float(ratios.std(ddof=1) / np.sqrt(n_batches))


def run_simulation(policy: Policy, model: SystemModel, n_periods: int,
                   seed: int, *, warmup_periods: int = 1000,
                   replications: int = 16, streams: int = 512,
                   slot_cap: int = 1_000_000, n_batches: int = 20,
                   trace_path=None) -> Metrics:
    """Renewal metrics of a stopping policy over ``n_periods`` periods.

    Throughput is total rate over total slots, exact when the per-slot
    rate is constant.  Deterministic for fixed arguments: replication
    seeds derive from ``seed`` and partial results combine in replication
    order.
    """
    if n_periods < 1:
        raise ValueError("n_periods must be >= 1")
    if policy.kind not in ("dp", "threshold"):
        raise ValueError("run_simulation needs a dp or threshold policy")
    reps = max(1, replications)
    quota = -(-n_periods // reps)
    keep_per_stream = -(-quota // streams)
    warm_per_stream = 1 if warmup_periods else 0
    if warmup_periods:
        warm_per_stream = max(1, -(-warmup_periods // (reps * streams)))
    seeds = np.random.SeedSequence(seed).spawn(reps)
    chunks = []
    clip_events = 0
    slot_draws = 0
    for rep_seed in seeds:
        rng = np.random.Generator(np.random.PCG64(rep_seed))
        out, clips, draws = _run_block(policy, model, warm_per_stream,
                                       keep_per_stream, rng, streams,
                                       slot_cap)
        chunks.append(out)
        clip_events += clips
        slot_draws += draws
    # trimming the tail drops whole per-stream index blocks, never a
    # completion-ordered subset, so it cannot skew the length distribution
    data = {k: np.concatenate([c[k] for c in chunks])[:n_periods]
            for k in chunks[0]}
    del chunks  # hold each record once while the metrics are reduced

    T = data["T"]  # integer lengths: exact sums without a float copy
    R = data["rate"]
    shift = R[0] / T[0]
    metrics = Metrics(
        throughput=_mean_about(shift, R - shift * T, T),
        mean_saving_time=float(T.mean()),
        se_throughput=_batch_ratio_se(R, T, n_batches),
        se_saving_time=_batch_ratio_se(T, np.ones_like(T), n_batches),
        periods=len(T),
        cap_hit_fraction=clip_events / max(slot_draws, 1),
    )
    if trace_path is not None:
        rows = zip(range(len(T)), data["T"], data["b"], data["phi"],
                   data["h"], data["hc"], data["rate"])
        emit_csv(([int(p), int(t), float(bb), int(ph), float(hh), float(cc),
                   float(rr)] for p, t, bb, ph, hh, cc, rr in rows),
                 TRACE_SCHEMA, trace_path)
    return metrics


def _run_supply(model: SystemModel, n_slots: int, seed: int, start, *,
                warmup_slots: int, replications: int, streams: int,
                n_batches: int, with_power: bool = False) -> Metrics:
    """Per-slot loop shared by the two benchmark supplies.

    Each replication first calls ``start(rng)``, which draws the supply's
    own initial state and returns its spend step ``spend(phi, h, hc)``.
    Every slot then draws the access flag and both gains for all streams,
    and ``spend`` returns the slot's rates, plus its powers when
    ``with_power`` (it may draw more).  Throughput is total rate over total
    slots, exact when the per-slot rate is constant; the realized average
    power is reduced the same way.
    """
    if n_slots < 1:
        raise ValueError("n_slots must be >= 1")
    reps = max(1, replications)
    warm_slots = -(-warmup_slots // max(streams, 1))
    slots_per_rep = -(-n_slots // (reps * streams)) + warm_slots
    private = _PrivateSampler(model)
    common = _GainSampler(model.common)

    shifts = None
    slot_means = []
    for rep_seed in np.random.SeedSequence(seed).spawn(reps):
        rng = np.random.Generator(np.random.PCG64(rep_seed))
        spend = start(rng)
        h_idx = private.init(rng, streams)
        means = np.empty((1 + with_power, slots_per_rep))
        for s in range(slots_per_rep):
            phi, h, h_idx, hc, _ = _draw_slot(model, private, common, h_idx,
                                              rng, streams)
            values = spend(phi, h, hc)
            if shifts is None:
                shifts = [float(v[0]) for v in values]
            means[:, s] = [(v - c).mean() for v, c in zip(values, shifts)]
        slot_means.append(means[:, warm_slots:])
    per_slot = np.concatenate(slot_means, axis=1)
    rate = per_slot[0]
    return Metrics(
        throughput=_mean_about(shifts[0], rate),
        mean_saving_time=1.0,
        se_throughput=_batch_ratio_se(rate, np.ones_like(rate), n_batches),
        se_saving_time=0.0,
        periods=len(rate) * streams,
        cap_hit_fraction=0.0,
        realized_avg_power=(_mean_about(shifts[1], per_slot[1])
                            if with_power else None),
    )


def run_best_effort(model: SystemModel, n_slots: int, seed: int, *,
                    warmup_slots: int = 10_000, replications: int = 16,
                    streams: int = 512, n_batches: int = 20) -> Metrics:
    """Per-slot transmission using only the previous slot's harvest.

    No battery: each slot's budget is the harvest of the slot before it
    (the very first budget is one fresh harvest draw).  Throughput is
    total rate over total slots, exact when the per-slot rate is constant.
    """
    eh_cum = np.cumsum(model.eh.transition, axis=1)
    eh_vals = np.asarray(model.eh.states)

    def start(rng):
        e_idx = _first_harvest(model, rng, streams)

        def spend(phi, h, hc):
            nonlocal e_idx
            rate = stop_rate(eh_vals[e_idx], h, hc, phi, model.log_base)
            e_idx = _step_chain(eh_cum, e_idx, rng, streams)
            return (rate,)

        return spend

    return _run_supply(model, n_slots, seed, start,
                       warmup_slots=warmup_slots, replications=replications,
                       streams=streams, n_batches=n_batches)


def run_conventional(model: SystemModel, p_bar: float, n_slots: int,
                     seed: int, *, water_level=None,
                     warmup_slots: int = 0, replications: int = 16,
                     streams: int = 512, n_batches: int = 20) -> Metrics:
    """Water-filling transmission under an average power constraint.

    Throughput is total rate over total slots, exact when the per-slot
    rate is constant; the realized average power is reduced the same way.
    """
    if p_bar <= 0:
        raise ValueError("p_bar must be > 0")
    level = water_level or solve_water_level(model.private, model.common,
                                             model.access, p_bar)
    logf = np.log2 if model.log_base == 2.0 else np.log

    def spend(phi, h, hc):
        p = conventional_power(h, level)
        pc = np.where(phi == 1, conventional_power(hc, level), 0.0)
        rate = logf(1.0 + h * p) + np.where(
            phi == 1, logf(1.0 + hc * pc), 0.0)
        return rate, p + pc

    return _run_supply(model, n_slots, seed, lambda rng: spend,
                       warmup_slots=warmup_slots, replications=replications,
                       streams=streams, n_batches=n_batches, with_power=True)
