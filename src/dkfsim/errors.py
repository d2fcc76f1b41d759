"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 1, OSError -> 2,
NumericError -> 3.
"""


class ConfigError(ValueError):
    """Invalid configuration or parameters; names the offending keys."""

    def __init__(self, message, keys=()):
        super().__init__(message)
        self.keys = tuple(keys)


class HorizonError(ConfigError):
    """A step index fell outside the available transition table."""


class SelectionError(ConfigError):
    """A node subset was empty or referenced unknown node ids."""


class NumericError(ArithmeticError):
    """A numerical computation produced a non-finite or unusable result."""


class DivergenceError(NumericError):
    """A simulated state or fused estimate became non-finite; carries the
    offending step and, for a batch of runs, the 0-based batch row."""

    def __init__(self, message, step=None, row=None):
        super().__init__(message)
        self.step = step
        self.row = row


class MetricError(ValueError):
    """A metric is undefined for the given trajectories."""
