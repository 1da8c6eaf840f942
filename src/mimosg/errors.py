"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: an input the package refuses exits 2,
numerical, realization and estimation failures exit 3, a failed
validation gate exits 4.
"""


class MimosgError(Exception):
    """Base class for all package errors."""


class ConfigError(MimosgError, ValueError):
    """An input the package refuses: an invalid or inconsistent
    configuration (bad frame split, units, flags), or an argument outside
    the mathematical domain of an operation."""


class NumericalError(MimosgError, RuntimeError):
    """A numerical routine produced a non-finite or inconsistent result."""


class RealizationError(MimosgError, RuntimeError):
    """A sampled network realization is unusable (e.g. no base stations)."""


class EstimationError(MimosgError, RuntimeError):
    """A Monte Carlo run produced no usable samples."""
