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
    UnsupportedKind,
)
from .models import (
    AccessModel,
    EHModelPreset,
    GainDistribution,
    MarkovChainSpec,
    SystemModel,
    SystemState,
    discretize_gain,
    make_eh_preset,
    stationary_distribution,
)
from .power import (
    WaterLevel,
    conventional_power,
    solve_water_level,
    stop_rate,
)
from .simulate import (
    Metrics,
    Policy,
    run_best_effort,
    run_conventional,
    run_simulation,
)
from .solver import (
    SolverConfig,
    ThresholdPolicy,
    ValueTable,
    dp_decide,
    evaluate_threshold,
    optimize_threshold,
    solve_markov,
    value_iteration,
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
    # models
    "MarkovChainSpec", "GainDistribution", "AccessModel", "EHModelPreset",
    "SystemModel", "SystemState", "stationary_distribution",
    "make_eh_preset", "discretize_gain",
    # power
    "WaterLevel", "stop_rate", "conventional_power", "solve_water_level",
    # solver
    "SolverConfig", "ValueTable", "ThresholdPolicy", "value_iteration",
    "solve_markov", "dp_decide", "evaluate_threshold", "optimize_threshold",
    # simulate
    "Policy", "Metrics", "run_simulation", "run_best_effort",
    "run_conventional",
    # experiments
    "ExperimentConfig", "validate_config", "run_experiment",
    "default_config",
]
