"""Exception types shared across the package."""


class FactorRegimesError(Exception):
    """Base class for all package-specific errors.

    `pickle` and `copy` rebuild an error from its type, `args` and
    attributes without calling `__init__` again: a constructor may format
    its text from arguments that `args` does not keep, as SampleSizeError
    does, and would fail if called with `args`.
    """

    def __reduce__(self):
        return _rebuilt, (type(self), self.args, self.__dict__)


def _rebuilt(cls, args, attributes):
    """An instance of the error class cls with these args and attributes."""
    exc = cls.__new__(cls, *args)
    exc.__dict__.update(attributes)
    return exc


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
        msg = f"need at least {required} observations, have {available}"
        if context:
            msg = f"{context}: {msg}"
        super().__init__(msg)
        self.required = required
        self.available = available


class DegenerateDesignError(FactorRegimesError, ValueError):
    """Design matrix is rank-deficient or has zero residual variance."""


class EstimationError(FactorRegimesError, RuntimeError):
    """Numerical failure during model estimation."""
