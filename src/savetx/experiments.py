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
from .simulate import Policy, run_conventional_supply, run_policies
from .solver import SolverConfig, optimize_threshold, solve_markov
from .tables import emit_csv, make_dir, write_text

__all__ = ["ExperimentConfig", "validate_config", "run_experiment",
           "default_config", "EXPERIMENTS"]

EXPERIMENTS = ("fig3", "fig4", "fig6", "fig7", "fig8", "custom")

LARGE_B_MAX = 10_000

SCHEMAS = {
    "fig3": ("p_s", "scheme", "throughput", "se"),
    "fig4": ("p_s", "gamma", "throughput", "se"),
    "fig6": ("p_s", "gamma_mode", "mean_T", "se"),
    "fig7": ("eh_model", "gamma", "throughput", "se"),
    "fig8": ("p_s", "scheme", "throughput", "se"),
    "custom": ("p_s", "gamma", "throughput", "se"),
}


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
    log_base: float
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
            log_base=self.log_base,
        )

    def simulate(self, model, policies, trace_path=None) -> list:
        """``run_policies`` of the rules on ``model`` (one model, or one
        per rule) at the ``mc`` sizes and the config's seed: one Metrics
        per rule, in order."""
        mc = self.mc
        return run_policies(policies, model, mc["periods"], self.seed,
                            warmup_periods=mc["warmup_periods"],
                            streams=mc["streams"], trace_path=trace_path)

    def supply(self, models):
        """``run_conventional_supply`` of ``models`` (one model, or a p_s
        grid of them) at the config's ``p_bar``, ``mc`` slots and streams,
        on its own generator at the config's seed + 1."""
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
        "log_base": 2,
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
    elif experiment in ("fig4", "fig6", "fig7", "fig8", "custom"):
        base.update(_iid_defaults())
        if experiment == "fig7":
            base["p_s_grid"] = [0.5]
    else:
        raise ConfigError(f"experiment: unknown experiment {experiment!r}")
    return base


_MC_DEFAULTS = {"periods": 200_000, "slots": 1_000_000,
                "warmup_periods": 1000, "streams": 512}
_GAIN_KEYS = {"kind", "value", "mean", "values", "probabilities", "states",
              "transition"}
_EH_KEYS = {"preset", "switch", "p_good", "states", "transition"}


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
    kind = block.get("kind")
    try:
        if kind == "constant":
            return GainDistribution.constant(block["value"])
        if kind == "exponential":
            return GainDistribution.exponential(block["mean"])
        if kind == "discrete":
            return GainDistribution.discrete(block["values"],
                                             block["probabilities"])
        if kind == "markov":
            return GainDistribution.markov(_chain_from_block(block, path))
    except KeyError as exc:
        _fail(f"{path}.{exc.args[0]}", "missing key")
    except ValueError as exc:  # its message starts with the argument name
        raise ConfigError(f"{path}.{exc}") from exc
    _fail(f"{path}.kind", f"unknown gain kind {kind!r}")


def _eh_from_block(block: dict, delta: float) -> MarkovChainSpec:
    try:
        if "preset" in block:
            return make_eh_preset(block["preset"], switch=block.get("switch"),
                                  p_good=block.get("p_good"),
                                  delta=delta)
        return _chain_from_block(block, "eh")
    except KeyError as exc:
        _fail(f"eh.{exc.args[0]}", "missing key")
    except BadName as exc:
        _fail("eh.preset", str(exc))
    except ValueError as exc:  # its message starts with the argument name
        raise ConfigError(f"eh.{exc}") from exc


def validate_config(raw) -> ExperimentConfig:
    """Parse and validate raw JSON text (or a dict) into a full config.

    Missing keys take the chosen experiment's defaults; unknown keys are
    hard errors naming the offending path.
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

    experiment = data.get("experiment", "custom")
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
    if experiment in ("fig4", "fig6", "fig7", "custom") and not gamma_grid:
        _fail("gamma_grid", "must be nonempty for this experiment")

    modes = _as_list(merged["gamma_modes"], "gamma_modes")
    for m in modes:
        if m != "optimal" and (not _is_number(m) or not 0.0 <= m < math.inf):
            _fail("gamma_modes", f"entries must be finite numbers >= 0 or "
                                 f"'optimal', got {m!r}")

    log_base = merged["log_base"]
    if log_base in (2, 2.0):
        log_base = 2.0
    elif log_base in ("e", np.e):
        log_base = float(np.e)
    else:
        _fail("log_base", "must be 2 or \"e\"")

    eh_models = _as_list(merged["eh_models"], "eh_models")
    for name in eh_models:
        if name not in ("a", "b", "c", "d"):
            _fail("eh_models", f"unknown preset {name!r}")
    # each value labels rows of its table, and a repeat prints them twice
    for path, values in (("p_s_grid", ps_grid), ("gamma_grid", gamma_grid),
                         ("gamma_modes", modes), ("eh_models", eh_models)):
        if len(set(values)) != len(values):
            _fail(path, "must not repeat a value")

    _check_keys(merged["private"], _GAIN_KEYS, "private")
    _check_keys(merged["common"], _GAIN_KEYS, "common")
    _check_keys(merged["eh"], _EH_KEYS, "eh")
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
        gamma_modes=modes, p_bar=p_bar, log_base=log_base,
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


def _scheme_rows(cfg: ExperimentConfig, models: list, rules: list,
                 stats: dict):
    """Rows of a scheme table, per p_s the opportunistic rule's row then
    the best-effort and conventional rows, from one engine pass of all
    rules and best-effort's gamma = 0 and one supply pass over the whole
    p_s grid.  Records each water level, and returns the rows and the
    conventional metrics."""
    mets = cfg.simulate(models + models,
                        rules + [Policy.threshold(0.0)] * len(models))
    conventional = cfg.supply(models)
    rows = []
    for model, m_opp, m_be, m_cv in zip(models, mets, mets[len(models):],
                                        conventional):
        p_s = model.access.p_s
        stats.setdefault("water_level", {})[str(p_s)] = m_cv.water_level
        rows += [(p_s, scheme, m.throughput, m.se_throughput)
                 for scheme, m in (("opportunistic", m_opp),
                                   ("best_effort", m_be),
                                   ("conventional", m_cv))]
    return rows, conventional


def _run_fig3(cfg: ExperimentConfig):
    stats = {"lambda_star": {}, "solver_iters": {}}
    models = [cfg.build_model(p_s) for p_s in cfg.p_s_grid]
    rules = []
    for p_s, model in zip(cfg.p_s_grid, models):
        table = solve_markov(model, cfg.solver)
        stats["lambda_star"][str(p_s)] = table.lambda_star
        stats["solver_iters"][str(p_s)] = table.outer_iters
        rules.append(Policy.dp(table))
    rows, conventional = _scheme_rows(cfg, models, rules, stats)
    stats["realized_power"] = {str(p_s): m.realized_avg_power
                               for p_s, m in zip(cfg.p_s_grid, conventional)}
    return rows, stats


def _run_fig4(cfg: ExperimentConfig):
    rows = []
    for p_s in cfg.p_s_grid:
        mets = cfg.simulate(cfg.build_model(p_s), [
            Policy.threshold(g) for g in cfg.gamma_grid])
        rows += [(p_s, gamma, m.throughput, m.se_throughput)
                 for gamma, m in zip(cfg.gamma_grid, mets)]
    return rows, {}


def _record_optimum(model: SystemModel, stats: dict) -> float:
    """Search the best threshold of one ``p_s``; record it with its exact
    throughput and mean saving time, and return it."""
    gamma, (lam, mean_T) = optimize_threshold(model)
    key = str(model.access.p_s)
    for name, value in (("gamma_star", gamma), ("lambda_exact", lam),
                        ("mean_T_exact", mean_T)):
        stats.setdefault(name, {})[key] = value
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
    rows = []
    p_s, = cfg.p_s_grid
    for name in cfg.eh_models:
        model = cfg.build_model(p_s, eh_block={"preset": name})
        mets = cfg.simulate(model, [Policy.threshold(g)
                                    for g in cfg.gamma_grid])
        rows += [(name, gamma, m.throughput, m.se_throughput)
                 for gamma, m in zip(cfg.gamma_grid, mets)]
    return rows, {}


def _run_fig8(cfg: ExperimentConfig):
    stats = {"gamma_star": {}, "water_level": {}}
    models = [cfg.build_model(p_s) for p_s in cfg.p_s_grid]
    rules = [Policy.threshold(_record_optimum(m, stats)) for m in models]
    rows, _ = _scheme_rows(cfg, models, rules, stats)
    return rows, stats


_RUNNERS = {
    "fig3": _run_fig3,
    "fig4": _run_fig4,
    "fig6": _run_fig6,
    "fig7": _run_fig7,
    "fig8": _run_fig8,
    "custom": _run_fig4,
}


def run_experiment(cfg: ExperimentConfig, out_dir) -> dict:
    """Run one experiment; write <name>.csv and <name>_meta.json.

    Returns {"csv": path, "meta": path, "rows": row count}.
    """
    out = make_dir(out_dir)
    start = time.perf_counter()
    rows, stats = _RUNNERS[cfg.experiment](cfg)
    elapsed = time.perf_counter() - start

    csv_path = out / f"{cfg.experiment}.csv"
    emit_csv(rows, SCHEMAS[cfg.experiment], csv_path)

    meta = _meta_base(cfg)
    meta["wall_clock_s"] = elapsed
    meta["rows"] = len(rows)
    meta["stats"] = stats
    meta_path = out / f"{cfg.experiment}_meta.json"
    write_text(meta_path, json.dumps(meta, indent=2, default=float) + "\n")
    return {"csv": str(csv_path), "meta": str(meta_path), "rows": len(rows)}
