"""Exception types shared across the package."""


class SaveTxError(Exception):
    """Base class for all package errors."""


class ReducibleChain(SaveTxError):
    """Markov chain has more than one closed class, so no unique
    stationary law."""


class BadName(SaveTxError):
    """Unknown harvesting-model preset name."""


class UnsupportedKind(SaveTxError):
    """Operation not defined for this distribution kind."""


class NoBracket(SaveTxError):
    """Water-level bisection could not bracket the target average power."""


class NoConvergence(SaveTxError):
    """A solver exhausted its iteration budget or missed its residual."""


class StateSpaceTooLarge(SaveTxError):
    """A rule's chain needs more cells than the solvers' size bound."""


class PeriodOverflow(SaveTxError):
    """A saving period exceeded the hard per-period slot cap."""


class ConfigError(SaveTxError):
    """Invalid experiment configuration; message names the offending key."""


class IoError(SaveTxError):
    """Failed to write a result file."""
