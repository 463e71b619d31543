"""Exception and warning types shared across the package."""


class FracflowError(Exception):
    """Base class for all package-specific errors."""


class AssumptionViolated(FracflowError):
    """An exponent-field admissibility condition failed.

    ``name`` is one of 'a1'..'a4'; ``witness`` holds the sample point(s)
    at which the violation was observed, when available.
    """

    def __init__(self, name, message, witness=None):
        super().__init__("%s: %s" % (name, message))
        self.name = name
        self.witness = witness


class DegenerateDenominator(FracflowError):
    """Critical-exponent formula evaluated where its denominator is <= 0."""


class InvalidResolution(FracflowError):
    """Grid resolution outside the supported range."""


class GridMismatch(FracflowError):
    """Operands live on incompatible grids."""


class ContextMismatch(FracflowError):
    """Grid function does not belong to the operator context's grid."""


class ExponentOutOfRange(FracflowError):
    """Pointwise exponent outside the admissible range (must exceed 1)."""


class NotW0(FracflowError):
    """Operation requires a grid function vanishing on the exterior collar."""


class ZeroFunction(FracflowError):
    """Operation undefined for the identically-zero function."""


class NonFinite(FracflowError):
    """A state update produced non-finite values (overflow during blow-up)."""


class ProjectionFailed(FracflowError):
    """A manifold projection left a residual I(lam*u) above its tolerance."""


class InnerSolveStalled(FracflowError):
    """The implicit substep failed to reach its residual tolerance."""


class AuditFailed(FracflowError):
    """A step of the blow-up inequality audit violated its bound.

    ``step`` is the index of the first violating accepted step.
    """

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class ConfigError(FracflowError):
    """Experiment configuration missing, malformed, or inconsistent."""


class NoDescentProgress(UserWarning):
    """Constrained descent made no progress from its starting point."""
