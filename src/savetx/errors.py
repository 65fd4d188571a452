"""Exception types shared across the package."""


class SaveTxError(Exception):
    """Base class for all package errors."""


class ReducibleChain(SaveTxError):
    """Markov chain has no unique stationary distribution."""


class BadName(SaveTxError):
    """Unknown harvesting-model preset name."""


class UnsupportedKind(SaveTxError):
    """Operation not defined for this distribution kind."""


class NoBracket(SaveTxError):
    """Water-level bisection could not bracket the target average power."""


class NoConvergence(SaveTxError):
    """Iterative solver exhausted its iteration budget."""


class PeriodOverflow(SaveTxError):
    """A saving period exceeded the hard per-period slot cap."""


class ConfigError(SaveTxError):
    """Invalid experiment configuration; message names the offending key."""


class IoError(SaveTxError):
    """Failed to write a result file."""
