"""Every exported name resolves, the package's public names are pinned,
every annotation resolves, and savetx needs numpy alone.

Tools that walk a module's ``__all__`` (tracing wrappers, ``from savetx
import *``) fail on the first stale entry, so a name removed from a module
must leave its ``__all__`` too.  No module imports scipy, and no run loads
it: the water level is found by bisection in-package, the slot chains are
solved with numpy, and the exponential integral E1 behind an exponential
gain's mean power and stop moments is ``savetx.expint``'s.  The tests keep
scipy as an independent oracle.
"""
import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import savetx as sx

LAYERS = ("models", "expint", "power", "solver", "simulate", "experiments",
          "tables")
# the fewest functions a layer's hint check must find; expint and tables
# define fewer than the others' 5
LEAST_FUNCTIONS = {"expint": 2, "tables": 4}


def test_package_all_resolves():
    missing = [name for name in sx.__all__ if not hasattr(sx, name)]
    assert missing == []
    assert len(set(sx.__all__)) == len(sx.__all__)


def test_public_surface_pinned():
    # a public name is added or removed here, in a reviewed edit
    assert set(sx.__all__) == {
        "__version__",
        "SaveTxError", "ReducibleChain", "BadName", "NoBracket",
        "NoConvergence", "PeriodOverflow", "ConfigError", "IoError",
        "StateSpaceTooLarge",
        "MarkovChainSpec", "GainDistribution", "AccessModel", "SystemModel",
        "stationary_distribution", "make_eh_preset",
        "stop_rate", "solve_water_level",
        "SolverConfig", "ValueTable", "solve_markov", "threshold_metrics",
        "optimize_threshold",
        "Policy", "Metrics", "run_policies", "run_conventional_supply",
        "ExperimentConfig", "validate_config", "run_experiment",
        "default_config"}


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_all_resolves(layer):
    mod = importlib.import_module(f"savetx.{layer}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


@pytest.mark.parametrize("layer", LAYERS + ("cli",))
def test_type_hints_resolve(layer):
    mod = importlib.import_module(f"savetx.{layer}")
    functions = [f for f in vars(mod).values()
                 if inspect.isfunction(f) and f.__module__ == mod.__name__]
    functions += [f for c in vars(mod).values()
                  if inspect.isclass(c) and c.__module__ == mod.__name__
                  for f in vars(c).values() if inspect.isfunction(f)]
    assert len(functions) >= LEAST_FUNCTIONS.get(layer, 5)
    for f in functions:
        typing.get_type_hints(f)


def test_star_import():
    namespace = {}
    exec("from savetx import *", namespace)
    assert set(sx.__all__) <= set(namespace)


def scipy_modules_after(code: str) -> list:
    """scipy modules loaded once ``code`` has run in a fresh interpreter."""
    src = str(Path(sx.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    probe = code + ("\nimport json, sys\nprint(json.dumps(sorted(m for m in "
                    "sys.modules if m.split('.')[0] == 'scipy')))")
    r = subprocess.run([sys.executable, "-c", probe], env=env,
                       capture_output=True, text=True, check=True)
    return json.loads(r.stdout.splitlines()[-1])


def test_import_loads_no_scipy():
    assert scipy_modules_after("import savetx, savetx.cli") == []


def test_fig4_run_loads_no_scipy(tmp_path):
    # fig4 runs the Monte Carlo engine only: no water level, DP or exact
    # evaluator
    code = (
        "import savetx as sx\n"
        "cfg = sx.validate_config({'experiment': 'fig4', 'p_s_grid': [0.5],"
        " 'gamma_grid': [1.0, 2.0], 'mc': {'periods': 200, 'streams': 16,"
        " 'warmup_periods': 10}})\n"
        f"sx.run_experiment(cfg, {str(tmp_path)!r})\n")
    assert scipy_modules_after(code) == []
    assert (tmp_path / "fig4.csv").exists()


def test_fig8_run_loads_no_scipy(tmp_path):
    # the threshold search's stop moments and the water level's mean power
    # are closed forms in E1, evaluated in-package, so a fig8 run (search,
    # water level, engine and supplies) loads no scipy
    code = (
        "import savetx as sx\n"
        "cfg = sx.validate_config({'experiment': 'fig8', 'p_s_grid': [0.5],"
        " 'mc': {'periods': 200, 'slots': 2000, 'streams': 16,"
        " 'warmup_periods': 10}})\n"
        f"sx.run_experiment(cfg, {str(tmp_path)!r})\n")
    assert scipy_modules_after(code) == []
    assert (tmp_path / "fig8.csv").exists()


def test_fig6_run_loads_no_scipy(tmp_path):
    # fig6 runs the exact evaluator on exponential gains
    code = (
        "import savetx as sx\n"
        "cfg = sx.validate_config({'experiment': 'fig6', 'p_s_grid': [0.5],"
        " 'mc': {'periods': 200, 'streams': 16, 'warmup_periods': 10}})\n"
        f"sx.run_experiment(cfg, {str(tmp_path)!r})\n")
    assert scipy_modules_after(code) == []
    assert (tmp_path / "fig6.csv").exists()


def test_fig3_run_loads_no_scipy(tmp_path):
    # fig3's gains are atoms, so its water level needs no E1, its root is
    # found in-package, and the DP solver's slot chains are solved with
    # numpy: a fig3 run loads no scipy
    code = (
        "import savetx as sx\n"
        "cfg = sx.validate_config({'experiment': 'fig3', 'p_s_grid': [0.5],"
        " 'mc': {'periods': 200, 'slots': 2000, 'streams': 16,"
        " 'warmup_periods': 10}})\n"
        f"sx.run_experiment(cfg, {str(tmp_path)!r})\n")
    assert scipy_modules_after(code) == []
    assert (tmp_path / "fig3.csv").exists()


def test_package_imports_no_scipy():
    imports = []
    for path in sorted(Path(sx.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imports += [(path.name, a.name) for a in node.names
                            if a.name.split(".")[0] == "scipy"]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module.split(".")[0] == "scipy":
                imports += [(path.name, f"{node.module}.{a.name}")
                            for a in node.names]
    assert imports == []


def test_water_level_loads_no_scipy():
    code = (
        "import savetx as sx\n"
        "g = sx.GainDistribution.exponential(1.0)\n"
        "sx.solve_water_level(g, g, sx.AccessModel(0.5), 2.0)\n")
    assert scipy_modules_after(code) == []
