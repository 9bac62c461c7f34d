"""Exception types shared across the package."""


class InvalidParameterError(ValueError):
    """An argument violates a documented precondition."""


class SchemaError(ValueError):
    """A scenario document does not match the expected schema."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class NumericalError(RuntimeError):
    """A numerical routine failed, such as the optimizer's stationarity check."""


class InternalInconsistencyError(NumericalError):
    """Two redundant computations of the same quantity disagree."""


class NoProgressError(RuntimeError):
    """A download simulation hit the segment cap without finishing the decode."""
