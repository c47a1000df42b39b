"""Exception hierarchy shared across the package."""


class DiarcutError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(DiarcutError):
    """A data file violates its format; message carries path and line number."""


class ContractError(DiarcutError):
    """An operation was called with arguments violating its preconditions."""


class ConfigError(DiarcutError):
    """A configuration object is internally inconsistent."""


class NumericalError(DiarcutError):
    """A numerical routine failed (eigensolver breakdown, degenerate input)."""


class InfeasiblePathError(DiarcutError):
    """No frame labeling satisfies the duration and transition constraints."""


class EmptyReferenceError(DiarcutError):
    """The reference timeline has no scored speaker time; rates are undefined."""
