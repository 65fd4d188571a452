"""Command-line front end.

Subcommands: ``experiment <name>``, ``solve-markov``,
``optimize-threshold``, ``simulate``.  Global flags: ``--config``,
``--out``, ``--seed``, ``--format``.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigError, SaveTxError
from .experiments import EXPERIMENTS, ExperimentConfig, run_experiment, \
    validate_config
from .simulate import Policy, run_supplies
from .solver import optimize_threshold, solve_markov
from .tables import make_dir, write_text


def _load_config(args, experiment=None) -> ExperimentConfig:
    data = {}
    if args.config:
        try:
            data = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
            raise ConfigError(f"--config: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("--config: the file must hold a JSON object")
    if experiment is not None:
        data["experiment"] = experiment
    if args.seed is not None:
        data["seed"] = args.seed
    return validate_config(data)


def _model(args, cfg: ExperimentConfig):
    """``(p_s, model)`` at ``--p-s``, or at the first p_s of the grid."""
    p_s = cfg.p_s_grid[0] if args.p_s is None else args.p_s
    if not 0.0 <= p_s <= 1.0:  # NaN fails both comparisons
        raise ConfigError(f"--p-s: must lie in [0, 1], got {p_s}")
    return p_s, cfg.build_model(p_s)


def _out_dir(args):
    """``--out`` as a directory, created before the command's work (so a
    bad one fails first), or None without the flag."""
    return make_dir(args.out) if args.out else None


def _trace_file(args):
    """``--trace`` as a path whose directory is created and whose file is
    opened for writing before the pass (so a bad one fails first), or None
    without the flag."""
    if args.trace is None:
        return None
    path = Path(args.trace)
    make_dir(path.parent)
    write_text(path, "")
    return path


def _dump(payload: dict, out) -> None:
    text = json.dumps(payload, indent=2, default=float)
    if out is not None:
        path = out / f"{payload['command']}.json"
        write_text(path, text + "\n")
        print(path)
    else:
        print(text)


def _cmd_experiment(args) -> int:
    cfg = _load_config(args, experiment=args.name)
    out_dir = args.out or "."
    result = run_experiment(cfg, out_dir)
    if args.format == "json":
        import csv as _csv

        with open(result["csv"], newline="") as fh:
            rows = list(_csv.DictReader(fh))
        json_path = Path(result["csv"]).with_suffix(".json")
        write_text(json_path, json.dumps(rows, indent=2) + "\n")
        result["json"] = str(json_path)
    print(json.dumps(result))
    return 0


def _cmd_solve_markov(args) -> int:
    cfg = _load_config(args)
    p_s, model = _model(args, cfg)
    out = _out_dir(args)
    table = solve_markov(model, cfg.solver)
    _dump({
        "command": "solve-markov",
        "p_s": p_s,
        "lambda_star": table.lambda_star,
        "outer_iters": table.outer_iters,
        "states": int(table.rates.size),
        "stop_fraction": table.stop_fraction,
    }, out)
    return 0


def _cmd_optimize_threshold(args) -> int:
    cfg = _load_config(args)
    p_s, model = _model(args, cfg)
    out = _out_dir(args)
    gamma, (lam, _) = optimize_threshold(model, cfg.solver)
    _dump({
        "command": "optimize-threshold",
        "p_s": p_s,
        "gamma_star": gamma,
        "throughput": lam,
    }, out)
    return 0


def _rule(args, cfg: ExperimentConfig, model) -> Policy:
    """The stopping rule of ``simulate --scheme threshold|dp``."""
    if args.scheme == "dp":
        return Policy.dp(solve_markov(model, cfg.solver))
    if args.gamma is None:
        raise ConfigError("--gamma is required for the threshold scheme")
    try:
        return Policy.threshold(args.gamma)
    except ValueError as exc:
        raise ConfigError(f"--gamma: {exc}") from exc


def _cmd_simulate(args) -> int:
    for flag, value, schemes in (("--gamma", args.gamma, ("threshold",)),
                                 ("--trace", args.trace, ("threshold", "dp"))):
        if value is not None and args.scheme not in schemes:
            raise ConfigError(f"{flag}: not used by the {args.scheme} scheme")
    cfg = _load_config(args)
    p_s, model = _model(args, cfg)
    out = _out_dir(args)
    # a threshold is checked before --trace is opened, a DP rule solved after
    rule = _rule(args, cfg, model) if args.scheme == "threshold" else None
    trace = _trace_file(args)
    mc = cfg.mc
    if args.scheme in ("threshold", "dp"):
        m, = cfg.simulate(model, [rule or _rule(args, cfg, model)],
                          trace_path=trace)
    else:
        best_effort, conventional = run_supplies(
            model, cfg.p_bar, mc["slots"], cfg.seed, streams=mc["streams"])
        m = best_effort if args.scheme == "best-effort" else conventional
    payload = {
        "command": "simulate",
        "scheme": args.scheme,
        "p_s": p_s,
        "throughput": m.throughput,
        "se_throughput": m.se_throughput,
        "mean_saving_time": m.mean_saving_time,
        "periods": m.periods,
        "cap_hit_fraction": m.cap_hit_fraction,
    }
    if m.realized_avg_power is not None:
        payload["realized_avg_power"] = m.realized_avg_power
    _dump(payload, out)
    return 0


def _add_global_flags(parser, suppress=False):
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--config", default=d, help="JSON config file")
    parser.add_argument("--out", default=d, help="output directory")
    parser.add_argument("--seed", type=int, default=d,
                        help="override the config seed")
    parser.add_argument("--format", choices=("csv", "json"),
                        default=argparse.SUPPRESS if suppress else "csv",
                        help="experiment table format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="savetx",
        description="Save-then-transmit stopping policies: solvers, "
                    "simulators, and experiment tables.")
    _add_global_flags(parser)
    # the same flags are accepted after the subcommand; SUPPRESS keeps a
    # flag given before the subcommand from being reset to a default
    common = argparse.ArgumentParser(add_help=False)
    _add_global_flags(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiment", parents=[common],
                           help="run a named experiment")
    p_exp.add_argument("name", choices=EXPERIMENTS)
    p_exp.set_defaults(func=_cmd_experiment)

    p_solve = sub.add_parser("solve-markov", parents=[common],
                             help="solve the Markov stopping problem")
    p_solve.add_argument("--p-s", type=float, dest="p_s")
    p_solve.set_defaults(func=_cmd_solve_markov)

    p_opt = sub.add_parser("optimize-threshold", parents=[common],
                           help="search the best pure threshold")
    p_opt.add_argument("--p-s", type=float, dest="p_s")
    p_opt.set_defaults(func=_cmd_optimize_threshold)

    p_sim = sub.add_parser("simulate", parents=[common],
                           help="simulate one scheme")
    p_sim.add_argument("--scheme", required=True,
                       choices=("dp", "threshold", "best-effort",
                                "conventional"))
    p_sim.add_argument("--gamma", type=float)
    p_sim.add_argument("--p-s", type=float, dest="p_s")
    p_sim.add_argument("--trace", help="per-period trace CSV path")
    p_sim.set_defaults(func=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SaveTxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
