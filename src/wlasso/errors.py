"""Errors with enough payload to act on (offending index, singular value, ...)."""


class DegenerateColumnError(ValueError):
    """A design column has zero norm, so its coordinate update is undefined."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"design column {column} has zero norm")


class SingularDesignError(ValueError):
    """Least-squares submatrix is numerically rank deficient."""

    def __init__(self, sigma_min: float, sigma_max: float):
        self.sigma_min = sigma_min
        self.sigma_max = sigma_max
        super().__init__(
            f"singular design: smallest singular value {sigma_min:.3e} "
            f"(largest {sigma_max:.3e})"
        )


class RegimeViolationError(ValueError):
    """Model parameters fall outside the regime a formula needs."""


class EnumerationGuardError(ValueError):
    """Requested exact enumeration exceeds the configured work budget."""


class MemoryGuardError(ValueError):
    """Requested dense materialization exceeds the configured size budget."""


class WeightKindError(ValueError):
    """A weight kind is unknown, or needs the truth x* and none is given."""
