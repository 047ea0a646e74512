"""Exception hierarchy for the toolkit."""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class FormatError(ToolkitError):
    """Malformed file structure (ragged CSV rows, bad PGM magic/maxval)."""


class ParseError(ToolkitError):
    """Unparseable token or truncated body."""


class EmptyInput(ToolkitError):
    """Empty file where data was required."""


class IoError(ToolkitError):
    """Underlying I/O failure on read or write."""


class InvalidThreshold(ToolkitError):
    """Negative shrinkage threshold."""


class DimensionError(ToolkitError):
    """Shape mismatch between operands."""


class NumericalError(ToolkitError):
    """Non-finite values or a failed matrix factorization."""

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


class DegenerateFeatures(ToolkitError):
    """All-zero feature matrix passed to classifier training."""


class InvalidSpec(ToolkitError):
    """Infeasible synthetic-data specification."""


class DegenerateSignal(ToolkitError):
    """All-zero signal where a nonzero reference is required."""


class RangeError(ToolkitError):
    """Input values outside the documented range."""
