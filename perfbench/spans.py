"""Spans around the public functions of each savetx layer, recorded from
outside the package.

``install`` wraps every public function of the layer modules and rebinds
each module attribute that held the original, so callers that imported a
function by name (``experiments`` imports ``evaluate_threshold``,
``simulate`` imports ``stop_rate``, ...) go through the wrapper too.
Spans stay in memory; ``layer_metrics`` derives the per-layer numbers of
one workload run from them.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("experiments", "tables", "solver", "simulate", "power", "models")


def _elems(result):
    return int(getattr(result, "size", 1))


def _metrics_count(m):
    return {"periods": m.periods, "mean_T": m.mean_saving_time}


def _table_count(t):
    return {"states": int(t.rates.size), "outer_iters": t.outer_iters}


# Counts taken at the boundary, from the wrapped function's result.
COUNTERS = {
    "power.stop_rate": _elems,
    "simulate.run_simulation": _metrics_count,
    "simulate.run_best_effort": _metrics_count,
    "simulate.run_conventional": _metrics_count,
    "solver.solve_markov": _table_count,
}


class Tracer:
    """Span recorder.  Each span is ``[name, start_ns, end_ns, parent,
    run_id, count]``; ``parent`` is the index of the enclosing span or -1.
    """

    def __init__(self):
        self.spans = []
        self.run_id = None
        self._stack = []

    def wrap(self, name, fn):
        count = COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.run_id,
                    None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[5] = count(result)
            return result

        return traced

    def install(self):
        """Wrap every public function of the layers at every import site."""
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"savetx.{layer}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrapped[fn] = self.wrap(f"{layer}.{attr}", fn)
        for name, mod in list(sys.modules.items()):
            if name != "savetx" and not name.startswith("savetx."):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    setattr(mod, attr, wrapped[val])


def _pct(values, q):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans, run_id) -> dict:
    """Per-layer numbers of one workload run (one ``run_experiment``)."""
    ids = [i for i, s in enumerate(spans) if s[4] == run_id]
    dur = {i: (spans[i][2] - spans[i][1]) * 1e-9 for i in ids}
    child_s = defaultdict(float)
    for i in ids:
        if spans[i][3] >= 0:
            child_s[spans[i][3]] += dur[i]
    by_name = defaultdict(list)
    for i in ids:
        by_name[spans[i][0]].append(i)

    def calls(name):
        return len(by_name[name])

    def total(name):
        return sum(dur[i] for i in by_name[name])

    def self_s(name):
        return sum(dur[i] - child_s[i] for i in by_name[name])

    def ratio(a, b):
        return a / b if b else 0.0

    def children(parent, child):
        parents = set(by_name[parent])
        return [i for i in by_name[child] if spans[i][3] in parents]

    m = {}
    sr = by_name["power.stop_rate"]
    elems = sum(spans[i][5] for i in sr)
    m["power.stop_rate.calls"] = len(sr)
    m["power.stop_rate.elems"] = elems
    m["power.stop_rate.elems_per_call"] = ratio(elems, len(sr))
    m["power.stop_rate.s"] = total("power.stop_rate")
    m["power.stop_rate.ns_per_elem"] = ratio(total("power.stop_rate") * 1e9,
                                             elems)

    sim = "simulate.run_simulation"
    kept = sum(spans[i][5]["periods"] * spans[i][5]["mean_T"]
               for i in by_name[sim])
    stream_slots = sum(spans[i][5]
                       for i in children(sim, "power.stop_rate"))
    m[f"{sim}.calls"] = calls(sim)
    m[f"{sim}.s"] = total(sim)
    m[f"{sim}.self_s"] = self_s(sim)
    m[f"{sim}.periods"] = sum(spans[i][5]["periods"] for i in by_name[sim])
    m[f"{sim}.stream_slots"] = stream_slots
    m[f"{sim}.useful_slot_frac"] = ratio(kept, stream_slots)

    ev = "solver.evaluate_threshold"
    ev_s = [dur[i] for i in by_name[ev]]
    m[f"{ev}.calls"] = calls(ev)
    m[f"{ev}.s"] = total(ev)
    m[f"{ev}.s_p50"] = _pct(ev_s, 50)
    m[f"{ev}.s_p90"] = _pct(ev_s, 90)

    opt = "solver.optimize_threshold"
    m[f"{opt}.calls"] = calls(opt)
    m[f"{opt}.s"] = total(opt)
    m[f"{opt}.evals"] = ratio(len(children(opt, ev)), calls(opt))

    dp = "solver.solve_markov"
    iters = sum(spans[i][5]["outer_iters"] for i in by_name[dp])
    m[f"{dp}.calls"] = calls(dp)
    m[f"{dp}.s"] = total(dp)
    m[f"{dp}.self_s"] = self_s(dp)
    m[f"{dp}.states"] = max((spans[i][5]["states"] for i in by_name[dp]),
                            default=0)
    m[f"{dp}.outer_iters"] = iters
    m[f"{dp}.s_per_outer_iter"] = ratio(total(dp), iters)

    for sup in ("simulate.run_best_effort", "simulate.run_conventional"):
        slots = sum(spans[i][5]["periods"] for i in by_name[sup])
        m[f"{sup}.calls"] = calls(sup)
        m[f"{sup}.s"] = total(sup)
        m[f"{sup}.slots_per_s"] = ratio(slots, total(sup))
    m["simulate.run_best_effort.self_s"] = self_s("simulate.run_best_effort")
    m["power.conventional_power.s"] = total("power.conventional_power")
    m["power.solve_water_level.calls"] = calls("power.solve_water_level")
    m["power.solve_water_level.s"] = total("power.solve_water_level")

    models = [n for n in by_name if n.startswith("models.")]
    m["models.calls"] = sum(calls(n) for n in models)
    m["models.s"] = sum(total(n) for n in models)

    m["experiments.validate_config.s"] = total("experiments.validate_config")
    m["experiments.run_experiment.s"] = total("experiments.run_experiment")
    m["experiments.run_experiment.self_s"] = \
        self_s("experiments.run_experiment")
    m["tables.emit_csv.s"] = total("tables.emit_csv")
    return m
