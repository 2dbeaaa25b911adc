"""Exception types shared across the package, and the number rules that
raise NonPositiveInput."""

import contextlib
import numbers
import operator
import sys


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


def _shown(value):
    """``repr(value)``, or the size of an integer too long for Python's
    decimal text (``sys.get_int_max_str_digits``), whose repr raises."""
    try:
        return repr(value)
    except ValueError:
        return f"{'a negative' if value < 0 else 'an'} integer of more than {sys.get_int_max_str_digits()} digits"


def _count(name, value, least=0):
    """``value`` as a Python int >= ``least``, as the config block reads it
    back: a numpy integer is taken, and a bool, a float, an infinity
    included, or an integer longer than Python writes as decimal text (so
    no config block could carry it) raises NonPositiveInput."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise NonPositiveInput(f"{name} must be an integer >= {least}, got {_shown(value)}")
    try:
        str(value)
    except ValueError:
        digits = sys.get_int_max_str_digits()
        raise NonPositiveInput(f"{name} must have at most {digits} digits, got {_shown(value)}") from None
    return operator.index(value)


def _real(name, value):
    """``value`` as a Python float; a bool, a non-real or an integer beyond
    float's range raises NonPositiveInput."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        with contextlib.suppress(OverflowError):
            return float(value)
    raise NonPositiveInput(f"{name} must be a real number, got {_shown(value)}")


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
