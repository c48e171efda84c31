"""Exception types shared across the toolkit."""


class BoundViolation(ValueError):
    """A control component violates the model's bounds.

    ``component`` names the offending entry (e.g. ``"v"`` or ``"phi"``).
    """

    def __init__(self, component: str, value: float, bound: float):
        self.component = component
        self.value = value
        self.bound = bound
        super().__init__(
            f"control component '{component}' = {value:.6g} violates bound {bound:.6g}"
        )


class DomainError(ValueError):
    """Evaluation requested outside the model's smooth domain."""


class NumericalFailure(RuntimeError):
    """A numerical routine produced NaN/Inf or hit a singular system."""


class ConfigError(ValueError):
    """Invalid experiment configuration; ``field`` names the bad entry."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config field '{field}': {message}")
