"""Exception types shared across the package."""


class SolverError(Exception):
    """Base class for every error this package raises on purpose."""


class ValidationError(SolverError):
    """Problem data failed validation. Carries the full list of violations."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class DimensionMismatch(ValidationError):
    pass


class InconsistentBounds(ValidationError):
    pass


class NonFiniteData(ValidationError):
    pass


class NonFiniteIterate(SolverError):
    """An iterate picked up a NaN or infinity (divergence or bad step size)."""


class InvalidRadius(SolverError):
    pass


class NonPositiveInput(SolverError):
    pass


class NonPositiveQuadraticForm(SolverError):
    """The full step-norm quadratic form came out non-positive.

    Happens when it is evaluated with s * ||K|| >= 1, where positive
    definiteness is no longer guaranteed.
    """


class StepSizeUnderflow(SolverError):
    """Adaptive step size collapsed below 1e-14 times its initial value."""


class NotACertificate(SolverError):
    """A zero vector was offered as an infeasibility certificate."""


class InvalidGeneratorSpec(SolverError):
    pass


class MpsParseError(SolverError):
    """Base for MPS reader errors; records the 1-based source line."""

    def __init__(self, message, line_no=None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class MpsSyntaxError(MpsParseError):
    pass


class DuplicateRow(MpsParseError):
    pass


class DuplicateColumn(MpsParseError):
    pass


class UnknownRowReference(MpsParseError):
    pass


class MpsNameError(SolverError):
    """A variable or constraint name that MPS text cannot carry."""
