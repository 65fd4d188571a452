"""Configuration-driven experiment runner.

Each experiment resolves a JSON config against per-experiment defaults,
assembles the models, runs the relevant solvers and simulations, and emits
one CSV table per figure plus a JSON metadata sidecar with the resolved
config and provenance.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .errors import BadName, ConfigError
from .models import (
    AccessModel,
    GainDistribution,
    MarkovChainSpec,
    SystemModel,
    _closed_class,
    make_eh_preset,
)
from .simulate import STREAMS, WARMUP_PERIODS, Policy, \
    run_conventional_supply, run_policies
from .solver import SolverConfig, optimize_threshold, solve_markov
from .tables import emit_csv, make_dir, write_text

__all__ = ["ExperimentConfig", "validate_config", "run_experiment",
           "default_config", "EXPERIMENTS"]

LARGE_B_MAX = 10_000


@dataclass
class ExperimentConfig:
    """Fully resolved experiment description."""

    experiment: str
    seed: int
    delta: float
    b_max_units: int
    p_s_grid: list[float]
    gamma_grid: list[float]
    gamma_modes: list
    p_bar: float
    private: dict
    common: dict
    eh: dict
    eh_models: list[str]
    solver: SolverConfig
    mc: dict

    def build_model(self, p_s: float, eh_block: dict | None = None
                    ) -> SystemModel:
        eh_block = eh_block if eh_block is not None else self.eh
        return SystemModel(
            private=_gain_from_block(self.private, "private"),
            common=_gain_from_block(self.common, "common"),
            access=AccessModel(p_s=p_s),
            eh=_eh_from_block(eh_block, self.delta),
            b_max_units=self.b_max_units,
            delta=self.delta,
        )

    def simulate(self, model, policies, trace_path=None) -> list:
        """``run_policies`` of the rules on ``model`` (one model, or one
        per rule) at the ``mc`` sizes and the config's seed: one Metrics
        per rule, in order."""
        mc = self.mc
        return run_policies(policies, model, mc["periods"], self.seed,
                            warmup_periods=mc["warmup_periods"],
                            streams=mc["streams"], trace_path=trace_path)

    def supply(self, models) -> list:
        """``run_conventional_supply`` of ``models`` (one model, or a p_s
        grid of them) at the config's ``p_bar``, ``mc`` slots and streams,
        on its own generator at the config's seed + 1: one Metrics per
        model, in order."""
        return run_conventional_supply(models, self.p_bar, self.mc["slots"],
                                       self.seed + 1,
                                       streams=self.mc["streams"])


def _fig3_private() -> dict:
    return {"kind": "markov", "states": [0.1, 2.0 ** 4],
            "transition": [[0.0, 1.0], [0.5, 0.5]]}


def _iid_defaults() -> dict:
    return {
        "delta": 1.0,
        "b_max_units": "large",
        "p_s_grid": [0.0, 0.25, 0.5, 0.75, 1.0],
        "gamma_grid": [round(g, 10) for g in np.linspace(0.0, 4.0, 21)],
        "private": {"kind": "exponential", "mean": 1.0},
        "common": {"kind": "exponential", "mean": 1.0},
        "eh": {"preset": "a"},
        "p_bar": 2.0,
    }


def default_config(experiment: str) -> dict:
    """Raw (unvalidated) defaults for one experiment."""
    base = {
        "experiment": experiment,
        "seed": 20240501,
        "gamma_modes": [1.5, 2.0, "optimal"],
        "eh_models": ["a", "b", "c", "d"],
        "solver": {},
        "mc": {},
    }
    if experiment == "fig3":
        base.update({
            "delta": 1e-3,
            "b_max_units": 1,
            "p_s_grid": [0.0, 0.25, 0.5, 0.75, 1.0],
            "gamma_grid": [],
            "private": _fig3_private(),
            "common": {"kind": "constant", "value": 2.0 ** 5},
            "eh": {"states": [1e-3], "transition": [[1.0]]},
            # conventional benchmark budget matched to the mean harvest
            "p_bar": 1e-3,
        })
    elif experiment in EXPERIMENTS:
        base.update(_iid_defaults())
        if experiment == "fig7":
            base["p_s_grid"] = [0.5]
    else:
        raise ConfigError(f"experiment: unknown experiment {experiment!r}")
    return base


_MC_DEFAULTS = {"periods": 200_000, "slots": 1_000_000,
                "warmup_periods": WARMUP_PERIODS, "streams": STREAMS}
# the keys each gain kind reads besides "kind"
_GAIN_FORMS = {"constant": ("value",), "exponential": ("mean",),
               "discrete": ("values", "probabilities"),
               "markov": ("states", "transition")}


def _fail(path: str, reason: str):
    raise ConfigError(f"{path}: {reason}")


def _is_number(v) -> bool:
    # bool is an int too; the defaults' np.float64 values are floats
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _as_list(value, path: str) -> list:
    try:
        return list(value)
    except TypeError:
        _fail(path, "must be a list")


def _check_keys(block: dict, allowed: set, path: str):
    if not isinstance(block, dict):
        _fail(path, "must be an object")
    unknown = set(block) - allowed
    if unknown:
        _fail(f"{path}.{sorted(unknown)[0]}", "unknown key")


def _chain_from_block(block: dict, path: str) -> MarkovChainSpec:
    """The block's chain, refused by name unless it has one closed class
    (transient states allowed), the rule every layer applies."""
    chain = MarkovChainSpec(block["states"], block["transition"])
    if not _closed_class(chain.transition).any():
        _fail(f"{path}.transition", "chain has more than one closed class")
    return chain


def _gain_from_block(block: dict, path: str) -> GainDistribution:
    """The block's gain; refuses by name a key its kind does not read."""
    kind = block.get("kind")
    if not isinstance(kind, str) or kind not in _GAIN_FORMS:
        _fail(f"{path}.kind", f"unknown gain kind {kind!r}")
    keys = _GAIN_FORMS[kind]
    _check_keys(block, {"kind", *keys}, path)
    try:
        if kind == "markov":
            return GainDistribution.markov(_chain_from_block(block, path))
        # each i.i.d. kind's constructor takes its keys in order
        return getattr(GainDistribution, kind)(*(block[k] for k in keys))
    except KeyError as exc:
        _fail(f"{path}.{exc.args[0]}", "missing key")
    except ValueError as exc:  # its message starts with the argument name
        raise ConfigError(f"{path}.{exc}") from exc


def _eh_from_block(block: dict, delta: float) -> MarkovChainSpec:
    """The block's harvest chain, a preset or an explicit chain; refuses by
    name a key its form does not read."""
    try:
        if "preset" not in block:
            _check_keys(block, {"states", "transition"}, "eh")
            return _chain_from_block(block, "eh")
        name = block["preset"]
        chain = make_eh_preset(name, switch=block.get("switch"),
                               p_good=block.get("p_good"), delta=delta)
        # a known preset from here on: d reads p_good, a/b/c read switch
        _check_keys(block, {"preset", "p_good" if name == "d" else "switch"},
                    "eh")
        return chain
    except KeyError as exc:
        _fail(f"eh.{exc.args[0]}", "missing key")
    except BadName as exc:
        _fail("eh.preset", str(exc))
    except ValueError as exc:  # its message starts with the argument name
        raise ConfigError(f"eh.{exc}") from exc


def validate_config(raw) -> ExperimentConfig:
    """Parse and validate raw JSON text (or a dict) into a full config.

    Missing keys take the chosen experiment's defaults (fig4's without an
    ``experiment``); unknown keys, and keys a model block's form does not
    read, are hard errors naming the offending path.
    """
    if isinstance(raw, (str, bytes)):
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    else:
        data = dict(raw)
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")

    experiment = data.get("experiment", "fig4")
    if experiment not in EXPERIMENTS:
        _fail("experiment", f"must be one of {EXPERIMENTS}")
    merged = default_config(experiment)
    _check_keys(data, {f.name for f in fields(ExperimentConfig)}, "config")
    merged.update(data)

    seed = merged["seed"]
    if type(seed) is not int or seed < 0:  # bool is an int too
        _fail("seed", "must be a nonnegative integer")
    positive = ("delta", "p_bar")
    for key in positive:  # type() rejects bool; NaN fails both comparisons
        value = merged[key]
        if type(value) not in (int, float) or not 0.0 < value < math.inf:
            _fail(key, "must be a finite number > 0")
    delta, p_bar = (float(merged[k]) for k in positive)

    b_max = merged["b_max_units"]
    if b_max == "large":
        b_max = LARGE_B_MAX
    if type(b_max) is not int or b_max < 1:  # bool is an int too
        _fail("b_max_units", "must be a positive integer or \"large\"")

    ps_grid = _as_list(merged["p_s_grid"], "p_s_grid")
    if not ps_grid:
        _fail("p_s_grid", "must be nonempty")
    for v in ps_grid:
        if not _is_number(v):
            _fail("p_s_grid", f"entries must be numbers, got {v!r}")
        if not 0.0 <= v <= 1.0:
            _fail("p_s_grid", f"p_s out of [0,1]: {v}")
    if sorted(ps_grid) != ps_grid:
        _fail("p_s_grid", "must be sorted")
    # fig7's rows are labelled by the harvest model alone
    if experiment == "fig7" and len(ps_grid) > 1:
        _fail("p_s_grid", "must hold one value for this experiment")

    gamma_grid = _as_list(merged["gamma_grid"], "gamma_grid")
    for g in gamma_grid:
        if not _is_number(g):
            _fail("gamma_grid", f"thresholds must be numbers, got {g!r}")
    gamma_grid = [float(g) for g in gamma_grid]
    if not all(0.0 <= g < math.inf for g in gamma_grid):
        _fail("gamma_grid", "thresholds must be finite and >= 0")
    if sorted(gamma_grid) != gamma_grid:
        _fail("gamma_grid", "must be sorted")

    modes = _as_list(merged["gamma_modes"], "gamma_modes")
    for m in modes:
        if m != "optimal" and (not _is_number(m) or not 0.0 <= m < math.inf):
            _fail("gamma_modes", f"entries must be finite numbers >= 0 or "
                                 f"'optimal', got {m!r}")

    eh_models = _as_list(merged["eh_models"], "eh_models")
    for name in eh_models:
        if name not in ("a", "b", "c", "d"):
            _fail("eh_models", f"unknown preset {name!r}")
    lists = {"p_s_grid": ps_grid, "gamma_grid": gamma_grid,
             "gamma_modes": modes, "eh_models": eh_models}
    for path in _EXPERIMENTS[experiment].rows_of:
        if not lists[path]:
            _fail(path, "must be nonempty for this experiment")
    # each value labels rows of its table, and a repeat prints them twice
    for path, values in lists.items():
        if len(set(values)) != len(values):
            _fail(path, "must not repeat a value")

    # their keys are checked by form as the model is built, below
    for path in ("private", "common", "eh"):
        if not isinstance(merged[path], dict):
            _fail(path, "must be an object")
    _check_keys(merged["solver"], {f.name for f in fields(SolverConfig)},
                "solver")
    _check_keys(merged["mc"], set(_MC_DEFAULTS), "mc")

    mc = dict(_MC_DEFAULTS)
    mc.update(merged["mc"])
    for key, value in mc.items():
        low = 0 if key.startswith("warmup") else 1
        if type(value) is not int or value < low:  # bool is an int too
            _fail(f"mc.{key}", f"must be an integer >= {low}")

    try:
        solver = SolverConfig(**merged["solver"])
    except ValueError as exc:  # its message starts with the field name
        raise ConfigError(f"solver.{exc}") from exc

    cfg = ExperimentConfig(
        experiment=experiment, seed=seed, delta=delta, b_max_units=b_max,
        p_s_grid=[float(v) for v in ps_grid], gamma_grid=gamma_grid,
        gamma_modes=modes, p_bar=p_bar,
        private=merged["private"], common=merged["common"], eh=merged["eh"],
        eh_models=eh_models, solver=solver, mc=mc,
    )
    try:  # fail fast on malformed model blocks
        cfg.build_model(cfg.p_s_grid[0])
    except ValueError as exc:  # its message starts with the block name
        raise ConfigError(str(exc)) from exc
    return cfg


# ---------------------------------------------------------------------------
# runners


def _meta_base(cfg: ExperimentConfig) -> dict:
    return {
        "package": "savetx",
        "version": __version__,
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        "resolved_config": asdict(cfg),
        "notes": ("Monte Carlo rows share one seed across rules (common "
                  "random numbers), best-effort's gamma = 0 among them; "
                  "the conventional supply has its own pass; threshold "
                  "searches and the exact stats use no random numbers"),
    }


def _record(stats: dict, model: SystemModel, **values):
    """Record each value under its name and the model's p_s."""
    for name, value in values.items():
        stats.setdefault(name, {})[str(model.access.p_s)] = value


def _scheme_table(cfg: ExperimentConfig, rule: Callable):
    """Rows of a scheme table and its stats: per p_s the opportunistic
    rule's row, ``rule(model, stats)``, then the best-effort and
    conventional rows, from one engine pass of all rules and best-effort's
    gamma = 0 and one supply pass over the whole p_s grid.  Records each
    p_s's water level and realized power."""
    stats = {}
    models = [cfg.build_model(p_s) for p_s in cfg.p_s_grid]
    rules = [rule(model, stats) for model in models]
    mets = cfg.simulate(models + models,
                        rules + [Policy.threshold(0.0)] * len(models))
    rows = []
    for model, m_opp, m_be, m_cv in zip(models, mets, mets[len(models):],
                                        cfg.supply(models)):
        _record(stats, model, water_level=m_cv.water_level,
                realized_power=m_cv.realized_avg_power)
        rows += [(model.access.p_s, scheme, m.throughput, m.se_throughput)
                 for scheme, m in (("opportunistic", m_opp),
                                   ("best_effort", m_be),
                                   ("conventional", m_cv))]
    return rows, stats


def _run_fig3(cfg: ExperimentConfig):
    def dp_rule(model, stats):
        table = solve_markov(model, cfg.solver)
        _record(stats, model, lambda_star=table.lambda_star,
                solver_iters=table.outer_iters)
        return Policy(table.gamma)
    return _scheme_table(cfg, dp_rule)


def _sweep_rows(cfg: ExperimentConfig, labelled_models):
    """Rows of a threshold sweep: per (label, model), one engine pass of
    the ``gamma_grid`` thresholds."""
    rules = [Policy.threshold(g) for g in cfg.gamma_grid]
    rows = []
    for label, model in labelled_models:
        rows += [(label, gamma, m.throughput, m.se_throughput)
                 for gamma, m in zip(cfg.gamma_grid,
                                     cfg.simulate(model, rules))]
    return rows, {}


def _run_fig4(cfg: ExperimentConfig):
    return _sweep_rows(cfg, ((p_s, cfg.build_model(p_s))
                             for p_s in cfg.p_s_grid))


def _record_optimum(model: SystemModel, stats: dict) -> float:
    """Search the best threshold of one ``p_s``; record it with its exact
    throughput and mean saving time, and return it."""
    gamma, (lam, mean_T) = optimize_threshold(model)
    _record(stats, model, gamma_star=gamma, lambda_exact=lam,
            mean_T_exact=mean_T)
    return gamma


def _run_fig6(cfg: ExperimentConfig):
    rows = []
    stats = {"gamma_star": {}}
    for p_s in cfg.p_s_grid:
        model = cfg.build_model(p_s)
        rules = [Policy.threshold(_record_optimum(model, stats)
                                  if mode == "optimal" else mode)
                 for mode in cfg.gamma_modes]
        for mode, m in zip(cfg.gamma_modes, cfg.simulate(model, rules)):
            # 12 significant digits, as the CSV's: distinct modes differ
            label = "optimal" if mode == "optimal" else f"{float(mode):.12g}"
            rows.append((p_s, label, m.mean_saving_time, m.se_saving_time))
    return rows, stats


def _run_fig7(cfg: ExperimentConfig):
    p_s, = cfg.p_s_grid
    return _sweep_rows(cfg, ((name, cfg.build_model(
        p_s, eh_block={"preset": name})) for name in cfg.eh_models))


def _run_fig8(cfg: ExperimentConfig):
    return _scheme_table(cfg, lambda model, stats: Policy.threshold(
        _record_optimum(model, stats)))


class _Experiment(NamedTuple):
    columns: tuple   # of its CSV
    run: Callable    # cfg -> (rows, stats)
    rows_of: tuple   # the config lists its rows are made of: none empty


_EXPERIMENTS = {
    "fig3": _Experiment(("p_s", "scheme", "throughput", "se"), _run_fig3,
                        ()),
    "fig4": _Experiment(("p_s", "gamma", "throughput", "se"), _run_fig4,
                        ("gamma_grid",)),
    "fig6": _Experiment(("p_s", "gamma_mode", "mean_T", "se"), _run_fig6,
                        ("gamma_modes",)),
    "fig7": _Experiment(("eh_model", "gamma", "throughput", "se"),
                        _run_fig7, ("gamma_grid", "eh_models")),
    "fig8": _Experiment(("p_s", "scheme", "throughput", "se"), _run_fig8,
                        ()),
}
EXPERIMENTS = tuple(_EXPERIMENTS)


def run_experiment(cfg: ExperimentConfig, out_dir) -> dict:
    """Run one experiment; write <name>.csv and <name>_meta.json.

    Returns {"csv": path, "meta": path, "rows": row count}.
    """
    out = make_dir(out_dir)
    experiment = _EXPERIMENTS[cfg.experiment]
    start = time.perf_counter()
    rows, stats = experiment.run(cfg)
    elapsed = time.perf_counter() - start

    csv_path = out / f"{cfg.experiment}.csv"
    emit_csv(rows, experiment.columns, csv_path)

    meta = _meta_base(cfg)
    meta["wall_clock_s"] = elapsed
    meta["rows"] = len(rows)
    meta["stats"] = stats
    meta_path = out / f"{cfg.experiment}_meta.json"
    write_text(meta_path, json.dumps(meta, indent=2, default=float) + "\n")
    return {"csv": str(csv_path), "meta": str(meta_path), "rows": len(rows)}
