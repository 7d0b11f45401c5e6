"""Errors with enough payload to act on (offending index, singular value, ...)."""


class DegenerateColumnError(ValueError):
    """A design column has zero norm, so its coordinate update is undefined."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"design column {column} has zero norm")


class SingularDesignError(ValueError):
    """The columns of a least-squares support are numerically rank deficient."""

    def __init__(self, sigma_min: float, sigma_max: float):
        self.sigma_min = sigma_min
        self.sigma_max = sigma_max
        super().__init__(
            f"singular design: smallest singular value {sigma_min:.3e} "
            f"(largest {sigma_max:.3e})"
        )


class ParameterError(ValueError):
    """A parameter lies outside its valid range, or sizes an array over
    model.BYTE_BUDGET bytes; name is the parameter."""

    def __init__(self, name: str, why: str, value):
        self.name = name
        self.why = why
        self.value = value
        super().__init__(f"{name} {why}, got {value!r}")


class RegimeViolationError(ValueError):
    """Model parameters fall outside the regime a formula needs."""


class EnumerationGuardError(ValueError):
    """Requested exact enumeration exceeds the configured work budget."""


class WeightKindError(ValueError):
    """A weight kind is unknown, or needs the truth x* and none is given."""


class NonConvergenceError(RuntimeError):
    """A solve hit its sweep limit before meeting the KKT tolerance."""

    def __init__(self, sweeps: int, kkt_residual: float):
        self.sweeps = sweeps
        self.kkt_residual = kkt_residual
        super().__init__(
            f"not converged after {sweeps} sweeps (KKT residual {kkt_residual:.3e})"
        )
