"""Save-then-transmit throughput optimization for energy-harvesting
multi-channel uplinks: stopping-rule solvers, slot-level Monte Carlo, and
benchmark power allocation."""

__version__ = "0.1.0"

from .errors import (
    BadName,
    ConfigError,
    IoError,
    NoBracket,
    NoConvergence,
    PeriodOverflow,
    ReducibleChain,
    SaveTxError,
    StateSpaceTooLarge,
    UnsupportedKind,
)
from .models import (
    AccessModel,
    GainDistribution,
    MarkovChainSpec,
    SystemModel,
    discretize_gain,
    make_eh_preset,
    stationary_distribution,
)
from .power import (
    WaterLevel,
    solve_water_level,
    stop_rate,
)
from .simulate import (
    Metrics,
    Policy,
    run_policies,
    run_simulation,
    run_conventional_supply,
)
from .solver import (
    SolverConfig,
    ValueTable,
    optimize_threshold,
    solve_markov,
    threshold_metrics,
)
from .experiments import (
    ExperimentConfig,
    default_config,
    run_experiment,
    validate_config,
)

__all__ = [
    "__version__",
    # errors
    "SaveTxError", "ReducibleChain", "BadName", "UnsupportedKind",
    "NoBracket", "NoConvergence", "PeriodOverflow", "ConfigError", "IoError",
    "StateSpaceTooLarge",
    # models
    "MarkovChainSpec", "GainDistribution", "AccessModel",
    "SystemModel", "stationary_distribution",
    "make_eh_preset", "discretize_gain",
    # power
    "WaterLevel", "stop_rate", "solve_water_level",
    # solver
    "SolverConfig", "ValueTable", "solve_markov", "threshold_metrics",
    "optimize_threshold",
    # simulate
    "Policy", "Metrics", "run_policies", "run_simulation",
    "run_conventional_supply",
    # experiments
    "ExperimentConfig", "validate_config", "run_experiment",
    "default_config",
]
