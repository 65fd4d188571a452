"""Configuration-driven experiment runner.

Each experiment resolves a JSON config against per-experiment defaults,
assembles the models, runs the relevant solvers and simulations, and emits
one CSV table per figure plus a JSON metadata sidecar with the resolved
config and provenance.
"""
from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError
from .models import (
    AccessModel,
    GainDistribution,
    MarkovChainSpec,
    SystemModel,
    make_eh_preset,
)
from .power import solve_water_level
from .simulate import Policy, run_best_effort, run_conventional, \
    run_simulation
from .solver import SolverConfig, evaluate_threshold, optimize_threshold, \
    solve_markov
from .tables import emit_csv

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
    slot_ms: float            # physical slot length; report label only
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
        "slot_ms": 1.0,
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


_TOP_KEYS = {
    "experiment", "seed", "delta", "slot_ms", "b_max_units", "p_s_grid",
    "gamma_grid", "gamma_modes", "p_bar", "log_base", "private", "common",
    "eh", "eh_models", "solver", "mc",
}
_SOLVER_KEYS = {
    "value_iter_tol", "value_iter_max_sweeps", "lambda_tol",
    "outer_max_iters", "b_max_units", "delta", "common_bins", "mc_periods",
    "mc_warmup_periods", "mc_replications", "mc_streams", "mc_seed",
    "slot_cap", "gamma_hi", "grid_points", "golden_tol",
}
_MC_KEYS = {"periods", "slots", "warmup_periods", "warmup_slots",
            "replications", "streams", "slot_cap"}
_MC_DEFAULTS = {"periods": 200_000, "slots": 1_000_000,
                "warmup_periods": 1000, "warmup_slots": 10_000,
                "replications": 16, "streams": 512, "slot_cap": 1_000_000}
_GAIN_KEYS = {"kind", "value", "mean", "values", "probabilities", "states",
              "transition"}
_EH_KEYS = {"preset", "switch", "p_good", "states", "transition"}


def _fail(path: str, reason: str):
    raise ConfigError(f"{path}: {reason}")


def _check_keys(block: dict, allowed: set, path: str):
    if not isinstance(block, dict):
        _fail(path, "must be an object")
    unknown = set(block) - allowed
    if unknown:
        _fail(f"{path}.{sorted(unknown)[0]}", "unknown key")


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
            return GainDistribution.markov(
                MarkovChainSpec(block["states"], block["transition"]))
    except KeyError as exc:
        _fail(f"{path}.{exc.args[0]}", "missing key")
    except ValueError as exc:
        _fail(path, str(exc))
    _fail(f"{path}.kind", f"unknown gain kind {kind!r}")


def _eh_from_block(block: dict, delta: float) -> MarkovChainSpec:
    if "preset" in block:
        preset = make_eh_preset(block["preset"], switch=block.get("switch"),
                                p_good=block.get("p_good"), delta=delta)
        return preset.chain
    try:
        return MarkovChainSpec(block["states"], block["transition"])
    except KeyError as exc:
        _fail(f"eh.{exc.args[0]}", "missing key")
    except ValueError as exc:
        _fail("eh", str(exc))


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
    _check_keys(data, _TOP_KEYS, "config")
    merged.update(data)

    seed = merged["seed"]
    if not isinstance(seed, int) or seed < 0:
        _fail("seed", "must be a nonnegative integer")
    delta = float(merged["delta"])
    if delta <= 0:
        _fail("delta", "must be > 0")

    b_max = merged["b_max_units"]
    if b_max == "large":
        b_max = LARGE_B_MAX
    if not isinstance(b_max, int) or b_max < 1:
        _fail("b_max_units", "must be a positive integer or \"large\"")

    ps_grid = list(merged["p_s_grid"])
    if not ps_grid:
        _fail("p_s_grid", "must be nonempty")
    if sorted(ps_grid) != ps_grid:
        _fail("p_s_grid", "must be sorted")
    for v in ps_grid:
        if not 0.0 <= v <= 1.0:
            _fail("p_s_grid", f"p_s out of [0,1]: {v}")

    gamma_grid = [float(g) for g in merged["gamma_grid"]]
    if sorted(gamma_grid) != gamma_grid:
        _fail("gamma_grid", "must be sorted")
    if any(g < 0 for g in gamma_grid):
        _fail("gamma_grid", "thresholds must be >= 0")
    if experiment in ("fig4", "fig6", "fig7", "custom") and not gamma_grid:
        _fail("gamma_grid", "must be nonempty for this experiment")

    modes = list(merged["gamma_modes"])
    for m in modes:
        if m != "optimal" and not isinstance(m, (int, float)):
            _fail("gamma_modes", f"entries must be numbers or 'optimal', "
                                 f"got {m!r}")

    p_bar = float(merged["p_bar"])
    if p_bar <= 0:
        _fail("p_bar", "must be > 0")

    log_base = merged["log_base"]
    if log_base in (2, 2.0):
        log_base = 2.0
    elif log_base in ("e", np.e):
        log_base = float(np.e)
    else:
        _fail("log_base", "must be 2 or \"e\"")

    eh_models = list(merged["eh_models"])
    for name in eh_models:
        if name not in ("a", "b", "c", "d"):
            _fail("eh_models", f"unknown preset {name!r}")

    _check_keys(merged["private"], _GAIN_KEYS, "private")
    _check_keys(merged["common"], _GAIN_KEYS, "common")
    _check_keys(merged["eh"], _EH_KEYS, "eh")
    _check_keys(merged["solver"], _SOLVER_KEYS, "solver")
    _check_keys(merged["mc"], _MC_KEYS, "mc")

    mc = dict(_MC_DEFAULTS)
    mc.update(merged["mc"])
    for key in ("periods", "slots"):
        if mc[key] < 1:
            _fail(f"mc.{key}", "must be >= 1")

    try:
        solver = SolverConfig(mc_periods=mc["periods"],
                              mc_warmup_periods=mc["warmup_periods"],
                              mc_replications=mc["replications"],
                              mc_streams=mc["streams"],
                              mc_seed=seed,
                              slot_cap=mc["slot_cap"],
                              **merged["solver"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"solver: {exc}") from exc

    cfg = ExperimentConfig(
        experiment=experiment, seed=seed, delta=delta,
        slot_ms=float(merged["slot_ms"]), b_max_units=b_max,
        p_s_grid=[float(v) for v in ps_grid], gamma_grid=gamma_grid,
        gamma_modes=modes, p_bar=p_bar, log_base=log_base,
        private=merged["private"], common=merged["common"], eh=merged["eh"],
        eh_models=eh_models, solver=solver, mc=mc,
    )
    # fail fast on malformed model blocks
    cfg.build_model(cfg.p_s_grid[0])
    return cfg


# ---------------------------------------------------------------------------
# runners


def _meta_base(cfg: ExperimentConfig) -> dict:
    resolved = asdict(cfg)
    resolved["solver"] = asdict(cfg.solver)
    return {
        "package": "savetx",
        "version": __version__,
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        "resolved_config": resolved,
        "labels": {"slot_ms": cfg.slot_ms, "delta": cfg.delta},
        "notes": ("thresholds share one seed across evaluations "
                  "(common random numbers)"),
    }


def _supply_rows(cfg: ExperimentConfig, model: SystemModel, rows: list,
                 stats: dict):
    """Append the best-effort and conventional rows of one ``p_s``, record
    the water level, and return the conventional metrics."""
    mc = cfg.mc
    p_s = model.access.p_s
    m_be = run_best_effort(model, mc["slots"], cfg.seed + 1,
                           warmup_slots=mc["warmup_slots"],
                           replications=mc["replications"],
                           streams=mc["streams"])
    rows.append((p_s, "best_effort", m_be.throughput, m_be.se_throughput))
    level = solve_water_level(model.private, model.common, model.access,
                              cfg.p_bar)
    stats.setdefault("water_level", {})[str(p_s)] = level.xi
    m_cv = run_conventional(model, cfg.p_bar, mc["slots"], cfg.seed + 2,
                            water_level=level,
                            replications=mc["replications"],
                            streams=mc["streams"])
    rows.append((p_s, "conventional", m_cv.throughput, m_cv.se_throughput))
    return m_cv


def _run_fig3(cfg: ExperimentConfig):
    rows = []
    stats = {"lambda_star": {}, "solver_iters": {}}
    mc = cfg.mc
    for p_s in cfg.p_s_grid:
        model = cfg.build_model(p_s)
        table = solve_markov(model, cfg.solver)
        stats["lambda_star"][str(p_s)] = table.lambda_star
        stats["solver_iters"][str(p_s)] = table.outer_iters
        m_dp = run_simulation(Policy.dp(table), model, mc["periods"],
                              cfg.seed, warmup_periods=mc["warmup_periods"],
                              replications=mc["replications"],
                              streams=mc["streams"],
                              slot_cap=mc["slot_cap"])
        rows.append((p_s, "opportunistic", m_dp.throughput,
                     m_dp.se_throughput))
        m_cv = _supply_rows(cfg, model, rows, stats)
        stats.setdefault("realized_power", {})[str(p_s)] = \
            m_cv.realized_avg_power
    return rows, stats


def _run_fig4(cfg: ExperimentConfig):
    rows = []
    for p_s in cfg.p_s_grid:
        model = cfg.build_model(p_s)
        for gamma in cfg.gamma_grid:
            m = evaluate_threshold(model, gamma, cfg.solver)
            rows.append((p_s, gamma, m.throughput, m.se_throughput))
    return rows, {}


def _run_fig6(cfg: ExperimentConfig):
    rows = []
    stats = {"gamma_star": {}}
    for p_s in cfg.p_s_grid:
        model = cfg.build_model(p_s)
        for mode in cfg.gamma_modes:
            if mode == "optimal":
                policy = optimize_threshold(model, cfg.solver)
                gamma = policy.gamma
                stats["gamma_star"][str(p_s)] = gamma
            else:
                gamma = float(mode)
            m = evaluate_threshold(model, gamma, cfg.solver)
            label = "optimal" if mode == "optimal" else f"{float(mode):g}"
            rows.append((p_s, label, m.mean_saving_time, m.se_saving_time))
    return rows, stats


def _run_fig7(cfg: ExperimentConfig):
    rows = []
    p_s = cfg.p_s_grid[0]
    for name in cfg.eh_models:
        model = cfg.build_model(p_s, eh_block={"preset": name})
        for gamma in cfg.gamma_grid:
            m = evaluate_threshold(model, gamma, cfg.solver)
            rows.append((name, gamma, m.throughput, m.se_throughput))
    return rows, {}


def _run_fig8(cfg: ExperimentConfig):
    rows = []
    stats = {"gamma_star": {}, "water_level": {}}
    for p_s in cfg.p_s_grid:
        model = cfg.build_model(p_s)
        policy = optimize_threshold(model, cfg.solver)
        stats["gamma_star"][str(p_s)] = policy.gamma
        m_opp = evaluate_threshold(model, policy.gamma, cfg.solver)
        rows.append((p_s, "opportunistic", m_opp.throughput,
                     m_opp.se_throughput))
        _supply_rows(cfg, model, rows, stats)
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
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
    meta_path.write_text(json.dumps(meta, indent=2, default=float) + "\n")
    return {"csv": str(csv_path), "meta": str(meta_path), "rows": len(rows)}
