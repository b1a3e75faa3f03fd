"""Exception types shared across the package.

`pickle` and `copy` rebuild an error by Python's default rule: its
constructor is called again with its `args`, then its attributes are
restored. Each constructor therefore accepts its own `args`:
PanelParseError keeps the text with its line number in it, and
SampleSizeError keeps its counts and formats its text in `__str__`.
"""


class FactorRegimesError(Exception):
    """Base class for all package-specific errors."""


class PanelParseError(FactorRegimesError, ValueError):
    """Malformed input file. Carries the 1-based line number when known."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class SchemaError(FactorRegimesError, ValueError):
    """A requested column or field is missing from the input."""


class SampleSizeError(FactorRegimesError, ValueError):
    """Too few observations to build the requested design."""

    def __init__(self, required: int, available: int, context: str = ""):
        super().__init__(required, available, context)
        self.required = required
        self.available = available

    def __str__(self) -> str:
        required, available, context = self.args
        msg = f"need at least {required} observations, have {available}"
        return f"{context}: {msg}" if context else msg


class DegenerateDesignError(FactorRegimesError, ValueError):
    """Design matrix is rank-deficient or has zero residual variance."""


class EstimationError(FactorRegimesError, RuntimeError):
    """Numerical failure during model estimation."""
