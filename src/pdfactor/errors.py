"""Exception types shared across the package. Each derives from exactly
one of InputError and NumericError, which carry the command-line exit code.
"""

__all__ = [
    "PdfactorError", "InputError", "NumericError",
    "InvalidInput", "InvalidParams", "InvalidStep", "DimensionMismatch",
    "NotPositiveDefinite", "SingularInput", "NotOrthogonal", "NotARotation",
    "NegativeDeterminant", "NonPositiveDeterminant",
    "TargetUnreachable", "NumericalFailure",
]


class PdfactorError(Exception):
    """Base class for all errors raised by this package."""


class InputError(PdfactorError):
    """Input outside the documented domain (exit code 1)."""

    exit_code = 1


class NumericError(PdfactorError):
    """A valid input that could not be computed to tolerance (exit code 2)."""

    exit_code = 2


class InvalidInput(InputError):
    """Input is not a finite real square matrix of the expected kind."""


class InvalidParams(InputError):
    """Scheme or solver parameters are out of range."""


class DimensionMismatch(InputError):
    """Operands have incompatible shapes."""


class NotPositiveDefinite(InputError):
    """Symmetric input fails the positive-definiteness certificate."""


class SingularInput(InputError):
    """Matrix is singular to working precision."""


class NotOrthogonal(InputError):
    """Matrix is not orthogonal to the required tolerance."""


class NotARotation(InputError):
    """Chain product is not a rotation: not orthogonal, or det not +1."""


class NegativeDeterminant(InputError):
    """Orthogonal matrix has determinant other than +1 (for example -1)."""


class NonPositiveDeterminant(InputError):
    """Determinant is zero or negative."""


class InvalidStep(InputError):
    """Integration step size is not a positive finite number, is longer than
    the shortest segment, or gives more samples than an array holds."""


class TargetUnreachable(NumericError):
    """Requested net rotation exceeds what the scheme can produce.

    Carries the largest achievable angle in ``max_phi`` (radians) when known.
    """

    def __init__(self, message, max_phi=None):
        super().__init__(message)
        self.max_phi = max_phi


class NumericalFailure(NumericError):
    """An iteration failed to converge or a result lost too much accuracy."""
