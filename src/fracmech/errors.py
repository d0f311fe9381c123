"""Exception hierarchy shared across the package."""

__all__ = [
    "FracmechError",
    "DomainError",
    "IntegrationError",
    "StepSizeUnderflow",
    "MaxStepsExceeded",
    "UnsuitablePhysicsError",
    "ToleranceWarning",
]


class FracmechError(Exception):
    """Base class for all package-specific errors."""


class DomainError(FracmechError, ValueError):
    """An argument violates a mathematical precondition (invalid exponent,
    evaluation at a singular point, value outside the function's domain)."""


class IntegrationError(FracmechError, RuntimeError):
    """The ODE integrator could not complete a run."""

    def __init__(self, message, t=None, y=None):
        super().__init__(message)
        self.t = t
        self.y = y


class StepSizeUnderflow(IntegrationError):
    """Step size collapsed below floating-point resolution, typically near a
    singular configuration of the force law."""


class MaxStepsExceeded(IntegrationError):
    """The step budget ran out before reaching the end of the span."""


class UnsuitablePhysicsError(FracmechError):
    """Initial conditions do not produce the motion a check requires
    (unbound orbit, zero angular momentum, non-recurrent trajectory)."""


class ToleranceWarning(UserWarning):
    """A quadrature result may not meet the requested tolerance."""
