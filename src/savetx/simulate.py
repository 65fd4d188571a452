"""Slot-level Monte Carlo of save-then-transmit periods and of the
conventional-supply benchmark.

Everything runs many battery streams side by side, so a fixed
(configuration, seed) pair always reproduces the same metrics bit for bit.

Per-slot draw order is the access uniform u, private gain, common gain,
harvest, each one value per stream; the access flag is phi = u < p_s.  One
slot stream, ``_SlotStream``, makes every draw of a pass: it draws a block
of ``_BLOCK`` slots at a time in exactly that generator order, one
generator call per run of draws of one kind, so a block holds what drawing
slot by slot gives, bit for bit.

``run_policies`` runs any list of rules, each a ``Policy`` gamma table, in
one refill pass of the period engine ``_run_block``, which reads the
stream slot by slot; ``run_simulation`` is its one-rule form.  Each rule's
lanes take period indices from a queue as they end periods, so a lane
simulates unrecorded periods only in its warm-up and while it waits, idle,
for its rule's last recorded periods to end.  A lane keeps only whether
its running period is recorded; the queue counts its takers, and a trace
alone keeps the traced rule's period indices.

The best-effort benchmark is the engine's gamma = 0 rule,
``Policy.threshold(0.0)``: every slot stops and spends the harvest of the
slot before, held in the model's battery.  The conventional supply runs
as its own pass, ``run_conventional_supply``, which spends the stream's
blocks whole on the engine's Monte Carlo scheme: ``streams`` lanes on one
generator built as the engine's, with standard errors batched over the
engine's ``N_BATCHES`` fixed groups of lanes.  A pass of either may hold
several p_s: its models differ only in the access probability, the draws
serve them all, and each p_s compares the one access uniform with its own
value, so each row is what a pass of its p_s alone gives.  The engine and
the supply keep per-lane sums of their records and reduce them once,
after the slot loop, with one fold, ``_fold``.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import PeriodOverflow
from .models import SystemModel, stationary_distribution
from .power import check_gamma, check_p_bar, solve_water_level, stop_rate
from .tables import emit_csv

__all__ = [
    "Policy",
    "Metrics",
    "run_policies",
    "run_simulation",
    "run_conventional_supply",
]

TRACE_SCHEMA = ("period", "saving_slots", "b_stop", "phi", "h", "h_common",
                "rate")

# batches of the batch-means standard errors: a z-score against one of
# them follows a t law with N_BATCHES - 1 degrees of freedom
N_BATCHES = 20

# longest period, in slots, before ``run_policies`` raises PeriodOverflow
SLOT_CAP = 1_000_000


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
    # the conventional supply's: its average power spent and water level
    realized_avg_power: float | None = None
    water_level: float | None = None

    def __post_init__(self):
        if self.throughput < 0 or self.periods <= 0:
            raise ValueError("throughput must be >= 0 and periods > 0")
        if self.se_throughput < 0 or self.se_saving_time < 0:
            raise ValueError("standard errors must be >= 0")


# ---------------------------------------------------------------------------
# the slot stream: every draw of a pass, one block of slots at a time

# slots per block of the slot stream, for the engine and the supply alike:
# spreads the draw and spend kernels' call overhead over many values and
# keeps their temporaries small
_BLOCK = 32


def _cum_table(p) -> np.ndarray:
    """Inverse-CDF bounds of the probability rows ``p`` (one row, or a
    transition matrix): their cumulative sums less the last column, so the
    last state takes the rest of [0, 1) whatever the sums round to, and
    less the columns that are >= 1.0 in every row, which a uniform in
    [0, 1) never reaches; a two-state chain has one column."""
    cum = np.cumsum(p, axis=-1)[..., :-1]
    return cum[..., np.atleast_2d(cum < 1.0).any(axis=0)]


def _inverse_cdf(bounds: np.ndarray, u: np.ndarray, out: np.ndarray):
    """Writes to ``out`` the index of each uniform in ``u`` under one row
    of ``_cum_table`` bounds, the count of bounds <= u, and returns it.  A
    bound <= 0 counts for every uniform and one >= 1 for none, so neither
    is compared."""
    out.fill(np.count_nonzero(bounds <= 0.0))
    for c in bounds[(bounds > 0.0) & (bounds < 1.0)]:
        out += u >= c
    return out


class _Chain:
    """A Markov chain of each lane, stepped by one uniform per lane and slot.

    A step reads each lane's row of the chain's ``_cum_table`` bounds at
    its current state and counts the bounds its uniform reaches, so a
    step's work grows with the number of states.  The walk's path holds
    the block's states, from which its values are read once per block."""

    def __init__(self, spec, lanes: int):
        n = len(spec.states)
        # column c holds every state's c-th bound, so one gather reads
        # each lane's row
        self.bounds = np.ascontiguousarray(_cum_table(spec.transition).T)
        self.values = np.asarray(spec.states, dtype=float)
        self._rows = np.empty((len(self.bounds), lanes))
        self._hits = np.empty(self._rows.shape, dtype=bool)
        self._counts = self._hits.view(np.uint8)  # summed without a cast
        # the state at each slot's start; row i + 1 is after slot i
        self.path = np.empty((_BLOCK + 1, lanes), np.min_scalar_type(n - 1))
        self.spec = spec
        self.state = None  # each lane's state, drawn by ``start``

    def start(self, u: np.ndarray):
        """Draws each lane's state from the chain's stationary law, by
        the inverse CDF of the uniforms ``u``, one per lane."""
        self.state = _inverse_cdf(
            _cum_table(stationary_distribution(self.spec)), u,
            np.empty(len(u), self.path.dtype))

    def walk(self, u: np.ndarray, out: np.ndarray):
        """Steps every lane once per row of the uniforms ``u`` (n, lanes)
        and writes each step's value to the same row of ``out``, which may
        be ``u`` itself.  A state out of range raises IndexError."""
        n = len(u)
        bounds, rows, hits, counts, path = (
            self.bounds, self._rows, self._hits, self._counts, self.path)
        bounds.take(self.state, axis=1, out=rows)  # out of range raises
        path[0] = self.state
        for i in range(n):
            if i:  # every state here is a count of bounds, so in range
                bounds.take(path[i], axis=1, out=rows, mode="clip")
            np.less_equal(rows, u[i], out=hits)
            np.add.reduce(counts, axis=0, dtype=path.dtype, out=path[i + 1])
        self.values.take(path[1:n + 1], out=out, mode="clip")
        self.state = path[n].copy()

    def states(self, n: int, after: bool) -> np.ndarray:
        """The states of the last walk's ``n`` slots, valid until the next
        walk: at each slot's start, or ``after`` its step."""
        return self.path[after:n + after]


class _SlotStream:
    """Every draw of a pass, for ``lanes`` lanes on the generator ``rng``,
    one block of ``_BLOCK`` slots at a time.

    Each slot draws, in this order and one value per lane, the access
    uniform u, the private gain, the common gain and the harvest step; a
    constant gain draws nothing.  ``fill`` draws a block into a buffer of
    shape (``_BLOCK``, 4, lanes) whose row for slot i holds (u, private
    gain, common gain, harvest).  That layout is the generator's order, so
    each run of consecutive draws of one kind is one generator call
    writing into the buffer: uniforms for u, a Markov or discrete gain and
    the harvest step, standard exponentials for an exponential gain, which
    times the gain's mean is what ``Generator.exponential`` returns, bit
    for bit.  The conventional supply has the block laid out as four
    contiguous planes of shape (n, lanes), one per kind: its spend runs
    about a third faster on them than on the slot rows.  A discrete gain's
    uniforms are mapped to its values once per block, and a Markov private
    gain and the harvest chain are walked slot by slot (``_Chain``), their
    planes then holding the chain's values.  The harvest of slot i is the
    energy that reaches the battery of slot i + 1.

    Construction draws the start: the harvest chain's state from its
    stationary law, stepped once (``harvest0`` is that step's harvest, the
    energy before the first slot), then a Markov private gain's state from
    its stationary law.  A pass that stops mid-block leaves the block's
    other draws unread, with its generator."""

    def __init__(self, model: SystemModel, rng, lanes: int):
        self._slots = np.empty((_BLOCK, 4, lanes))
        self._flat = self._slots.reshape(-1, lanes)
        # per row: the generator method that draws it, or None; one object
        # per method, so that runs of one kind are found by identity
        uniform, exponential = rng.random, rng.standard_exponential
        self._kinds = [uniform, None, None, uniform]
        markov = model.private.kind == "markov"
        gains = ((1, model.private), (2, model.common))
        # the i.i.d. gains' rows, each mapped to gains once per block
        self._gains = [(j, dist) for j, dist in gains if dist.kind != "markov"]
        self._bounds = {}  # each discrete gain's bounds, by row
        for j, dist in gains:
            if dist.kind == "exponential":
                self._kinds[j] = exponential
            elif dist.kind != "constant":  # discrete or Markov: uniforms
                self._kinds[j] = uniform
            if dist.kind == "discrete":
                self._bounds[j] = _cum_table(dist.probabilities)
        self._index = np.empty((_BLOCK, lanes), np.min_scalar_type(max(
            (len(d.values) - 1 for _, d in self._gains
             if d.kind == "discrete"), default=0)))
        self._runs = {}
        self.harvest = _Chain(model.eh, lanes)
        self.private = _Chain(model.private.chain, lanes) if markov else None

        u = rng.random((3 if markov else 2, lanes))
        self.harvest.start(u[0])
        self.harvest0 = np.empty(lanes)
        self.harvest.walk(u[1:2], self.harvest0[None])
        if markov:
            self.private.start(u[2])

    def _block_runs(self, n: int):
        """(method, rows) of each run of consecutive draws of one kind
        among the ``4 n`` rows of an ``n``-slot block."""
        if n not in self._runs:
            runs = []
            for r in range(4 * n):
                kind = self._kinds[r % 4]
                if kind is None:
                    continue
                if runs and runs[-1][0] is kind and runs[-1][2] == r:
                    runs[-1][2] = r + 1
                else:
                    runs.append([kind, r, r + 1])
            self._runs[n] = [(kind, self._flat[first:end])
                             for kind, first, end in runs]
        return self._runs[n]

    def fill(self, n: int = _BLOCK, scratch=None) -> np.ndarray:
        """Draws the next ``n`` slots and returns them as planes of shape
        (4, n, lanes): access uniforms, private gains, common gains and
        harvests, valid until the next ``fill``.  A plane's rows are
        contiguous, but not the plane, unless ``scratch``, a free buffer
        of that shape, is given: the block is then laid out as four
        contiguous planes, copied through it."""
        for draw, rows in self._block_runs(n):
            draw(out=rows)
        planes = self._slots[:n].transpose(1, 0, 2)
        if scratch is not None:
            np.copyto(scratch, planes)
            planes = self._flat[:4 * n].reshape(4, n, -1)
            np.copyto(planes, scratch)
        for j, dist in self._gains:
            rows = planes[j]
            if dist.kind == "constant":  # drew nothing
                rows.fill(dist.value)
            elif dist.kind == "exponential":  # standard, to the mean
                rows *= dist.mean
            else:  # discrete: uniforms to values
                index = _inverse_cdf(self._bounds[j], rows, self._index[:n])
                np.take(dist.values, index, out=rows, mode="clip")
        if self.private is not None:
            self.private.walk(planes[1], planes[1])
        self.harvest.walk(planes[3], planes[3])
        return planes

    def states(self, n: int):
        """The last block's chain states per slot: the harvest state at
        each slot's start, and the private state of the slot (None for an
        i.i.d. private gain)."""
        return (self.harvest.states(n, after=False),
                None if self.private is None
                else self.private.states(n, after=True))


def _access(u, p_s):
    """Access flags ``u < p_s`` as int8; ``p_s`` may be a column of one
    p_s per row."""
    return (u < p_s).astype(np.int8)


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


def _refill(take, recording, taken, n_periods: int):
    """Queue the lanes in the (rows, lanes) mask ``take`` for their row's
    next periods: a row's first ``n_periods - taken`` takers, in lane
    order, run recorded periods, and the rest go idle.  ``recording``
    marks the lanes whose running period is recorded; it is updated in
    place and returned with the new ``taken``.  A row counts its takers,
    and ranks them in lane order only in the slot its queue runs out."""
    count = np.count_nonzero(take, axis=1)
    room = n_periods - taken
    recording |= take
    short = np.flatnonzero(count > room)
    if short.size:  # takers past the queue go idle
        idle = take[short]
        part = np.flatnonzero(room[short])  # the queue runs out here
        if part.size:
            idle[part] &= np.cumsum(idle[part], axis=1) > room[short[part],
                                                               None]
        recording[short] &= ~idle
    return recording, np.minimum(taken + count, n_periods)


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
    batteries, so each gets what a pass of its rule alone would.  The
    draws come from one ``_SlotStream`` on ``rng``, read one slot at a
    time from its current block; a pass that ends mid-block leaves the
    block's other draws unread.  The draws a pass reads are those of
    drawing slot by slot in the stated order.

    A lane keeps one flag, whether its running period is recorded, not
    its period index: the records are summed per lane, so only a trace
    needs indices, and only the traced row keeps them.  Work that can no
    longer change anything is skipped: the warm-up count once every lane
    has ended its warm-up, the leave test until some row's queue is out,
    and the overflow test until the pass is longer than ``slot_cap``.

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
    cap = model.b_cap
    base = model.log_base

    # initial carry: one harvest as the first battery, gain chain from its
    # stationary law
    stream = _SlotStream(model, rng, lanes)
    b = np.tile(np.minimum(stream.harvest0, cap), (rows, 1))
    t = _BLOCK  # the slot read from the stream's block; at _BLOCK, draw

    T_cur = np.zeros((rows, lanes), dtype=np.int64)
    # warm-up periods each lane has left to end; None once all have ended
    left = np.full((rows, lanes), warm_per_lane) if warm_per_lane else None
    # the lanes whose running period is recorded
    recording, taken = _refill(np.full((rows, lanes), left is None),
                               np.zeros((rows, lanes), dtype=bool),
                               np.zeros(rows, dtype=np.int64), n_periods)
    # per lane: sums of the recorded periods' T, R - shift T and count,
    # with shift the row's first recorded R / T (0 until it is set, so that
    # a product with the recorded mask stays finite); ``done`` takes a
    # row's sums as it leaves.  ``terms`` holds one slot's three terms,
    # masked in place
    sums = np.zeros((rows, 3, lanes))
    done = {}
    terms = np.empty_like(sums)
    shift = np.zeros(rows)
    unset = np.ones(rows, dtype=bool)
    # float records hold period lengths and access flags exactly; the
    # traced row alone keeps its lanes' period indices
    rec = {k: np.empty(n_periods)
           for k in ("T", "rate", "b", "phi", "h", "hc")} if trace else None
    if trace:
        index = np.cumsum(recording[0]) - 1
    clips = np.zeros(rows, dtype=np.int64)
    slots_run = np.zeros(rows, dtype=np.int64)  # set as each row leaves
    live = np.arange(rows)  # the rows that the per-lane arrays hold
    slots = 0

    while live.size:
        slots += 1
        T_cur += 1
        # no period is longer than the pass so far
        if slots > slot_cap and T_cur.max() > slot_cap:
            raise PeriodOverflow(f"period exceeded {slot_cap} slots")
        if t == _BLOCK:
            us, hs, hcs, harvests = stream.fill()
            if ne > 1 or nh > 1:
                e_idx, h_idx = stream.states(_BLOCK)
            t = 0
        u, h, hc, e_val = us[t], hs[t], hcs[t], harvests[t]
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
              e_idx[t] if ne > 1 else 0, h_idx[t] if nh > 1 else 0)
        stop = rate >= gammas[at]
        t += 1

        recorded = stop & recording
        fresh = unset[live]
        if fresh.any():  # a row's first records, lowest lane first
            first = np.flatnonzero(fresh & recorded.any(axis=1))
            s = recorded[first].argmax(axis=1)
            shift[live[first]] = rate[first, s] / T_cur[first, s]
            unset[live[first]] = False
        # every term is finite, so a product with the mask adds exactly
        # what np.where would select
        terms[:, 0] = T_cur
        np.subtract(rate, shift[live, None] * T_cur, out=terms[:, 1])
        terms[:, 2] = 1
        terms *= recorded[:, None]
        sums += terms
        traced = trace and live[0] == 0
        if traced:
            s0 = np.flatnonzero(recorded[0])
            for field, v in zip(rec.values(), (T_cur, rate, b, phi, h, hc)):
                field[index[s0]] = v[0, s0] if v.ndim == 2 else v[s0]
        # a lane that ends its last warm-up period or a recorded one takes
        # the next index
        if left is None:
            take = stop
        else:
            take = stop & (left <= 1)
            left -= stop & (left > 0)
            if not left.any():
                left = None
        recording, taken = _refill(take, recording, taken, n_periods)
        if traced:  # this slot's takers hold the indices just handed out
            got = np.flatnonzero(take[0] & recording[0])
            index[got] = np.arange(taken[0] - got.size, taken[0])

        # the stop slot's harvest seeds the next period's battery
        keep = ~stop
        b *= keep
        b += e_val
        clips[live] += np.count_nonzero(b > cap, axis=1)
        np.minimum(b, cap, out=b)
        T_cur *= keep
        if taken.max() == n_periods:  # a row may have run out of periods
            going = (taken < n_periods) | recording.any(axis=1)
            if not going.all():
                slots_run[live[~going]] = slots
                done.update(zip(live[~going].tolist(), sums[~going]))
                live, b, T_cur, recording, taken, sums, terms = (
                    a[going] for a in (live, b, T_cur, recording, taken,
                                       sums, terms))
                if left is not None:
                    left = left[going]

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
                 trace_path=None) -> list[Metrics]:
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
    rule's periods as CSV.  A period longer than ``SLOT_CAP`` slots raises
    PeriodOverflow.
    """
    _check_sizes(n_periods=n_periods, warmup_periods=warmup_periods,
                 streams=streams)
    if not policies:
        return []
    metrics, rec = _run_block(policies, model, -(-warmup_periods // streams),
                              n_periods, _rng(seed), streams, SLOT_CAP,
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


def run_conventional_supply(model, p_bar: float, n_slots: int, seed: int,
                            *, streams: int = 512):
    """Metrics of the conventional supply, which water-fills an average
    power ``p_bar`` (``check_p_bar``) at each model's water level
    (``solve_water_level``, so a model whose level cannot be bracketed
    raises ``NoBracket``).

    ``model`` is one SystemModel, or a list of models that differ only in
    ``access`` (a p_s grid; any other difference raises ValueError naming
    the field).  A list gives a list of one Metrics per model from one
    pass: the draws are made once per slot for the whole grid, and each p_s
    spends them with its own access flags ``u < p_s`` and water level, so
    each Metrics is what a call with that model alone returns.

    ``streams`` lanes run ``ceil(n_slots / streams)`` slots each on the
    engine's generator at ``seed``, drawn by the engine's ``_SlotStream``:
    each slot draws the access uniform and both gains, then steps the
    harvest chain, in that generator order.  Each block of ``_BLOCK``
    slots is spent by each model at once, on the stream's contiguous
    planes: the gains' reciprocals once per block, then each model's
    access mask and its water level's powers and rates.  Each lane sums
    its deviations from the first slot's values, and ``_fold`` takes those
    sums into the engine's lane groups once, at the end, so the standard
    errors are NaN with fewer streams than ``N_BATCHES``.
    Throughput is total rate over total slots, exact when the per-slot
    rate is constant; the realized average power is reduced the same way.
    Each Metrics records its model's water level xi.
    """
    check_p_bar(p_bar)
    _check_sizes(n_slots=n_slots, streams=streams)
    grid = not isinstance(model, SystemModel)
    models = _access_grid(model)
    if not models:
        return []
    levels = [solve_water_level(m.private, m.common, m.access, p_bar)
              for m in models]
    model = models[0]
    slots = -(-n_slots // streams)
    logf = np.log2 if model.log_base == 2.0 else np.log
    stream = _SlotStream(model, _rng(seed), streams)

    # per model and lane: rate and power, less each model's first values
    sums = np.zeros((len(models), 2, streams))
    shifts = np.empty((len(models), 2))

    def spend(k, j, v):
        """Add the block's values ``v`` of model ``k``'s value ``j`` to
        its lane sums, less its shift; ``v`` is a scratch buffer."""
        if first == 0:
            shifts[k, j] = v[0, 0]
        v -= shifts[k, j]
        sums[k, j] += v.sum(axis=0)

    # buffers for a block's gains' reciprocals and one model's values at a
    # time, allocated once; a short last block uses their heads.  Between
    # blocks they are free, and the stream lays its block out through them
    buffers = np.empty((5, _BLOCK, streams))
    inverses, work = buffers[:2], buffers[2:]
    access = np.empty((_BLOCK, streams), dtype=bool)
    for first in range(0, slots, _BLOCK):
        n = min(_BLOCK, slots - first)
        u, h, hc, _ = stream.fill(n, buffers[:4, :n])
        # the gains' reciprocals, once per block for every p_s (+inf at a
        # gain of 0, where the water-filling power is 0)
        inv_h, inv_hc = inverses[:, :n]
        with np.errstate(divide="ignore", over="ignore"):
            np.divide(1.0, np.abs(h, out=inv_h), out=inv_h)
            np.divide(1.0, np.abs(hc, out=inv_hc), out=inv_hc)
        p, pc, cv = work[:, :n]
        on = access[:n]
        for k, (m, level) in enumerate(zip(models, levels)):
            np.less(u, m.access.p_s, out=on)
            # water-fill (1/xi - 1/gain)^+ on each channel; off access
            # pc = 0, whose term log(1 + hc pc) is exactly 0
            top = 1.0 / level.xi
            np.maximum(np.subtract(top, inv_h, out=p), 0.0, out=p)
            np.maximum(np.subtract(top, inv_hc, out=pc), 0.0, out=pc)
            pc *= on
            logf(np.add(np.multiply(h, p, out=cv), 1.0, out=cv), out=cv)
            p += pc  # the power spent
            cv += logf(np.add(np.multiply(hc, pc, out=pc), 1.0, out=pc),
                       out=pc)
            spend(k, 0, cv)
            spend(k, 1, p)
    # a supply's period is one slot, so each lane's T and count are its
    # slots, and the mean length is exact, with fewer lanes than groups too
    T = np.full(streams, float(slots))
    metrics = [_fold(c_rate, T, rate, T, cap_hit_fraction=0.0,
                     se_saving_time=0.0, realized_avg_power=_fold(
                         c_power, T, power, T,
                         cap_hit_fraction=0.0).throughput,
                     water_level=level.xi)
               for (c_rate, c_power), (rate, power), level in zip(
                   shifts.tolist(), sums, levels)]
    return metrics if grid else metrics[0]
