"""Exception hierarchy.

Everything raised deliberately by this package derives from SinglinkError,
so callers (and the CLI) can tell rejected input and broken internal
invariants apart from ordinary programming errors.  Validation errors mean
the input data was refused; ConsistencyError means two independent routes
to the same quantity disagreed, which must never happen on valid input.
"""

from __future__ import annotations


class SinglinkError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveWeightError(SinglinkError):
    """A weight was zero or negative."""


class NotNormalizedError(SinglinkError):
    """Weights share a common factor.  Rescaling is never done silently."""

    def __init__(self, gcd: int):
        super().__init__(f"weights are not normalized: gcd = {gcd}")
        self.gcd = gcd


class LengthMismatchError(SinglinkError):
    """An exponent vector and a weight sequence have different lengths."""


class NotQuasiHomogeneousError(SinglinkError):
    """Monomials do not share a single weighted degree, or not the stated one."""

    def __init__(self, degrees, stated: int | None = None):
        self.degrees = tuple(sorted(set(degrees)))
        listed = ", ".join(str(d) for d in self.degrees)
        message = f"monomials have distinct weighted degrees: {listed}"
        if stated is not None:
            message = f"monomials have weighted degrees {listed}; the stated degree is {stated}"
        super().__init__(message)


class EmptySubsetError(SinglinkError):
    """A nonempty index subset or monomial set was required."""


class DegenerateDegreeError(SinglinkError):
    """The degree is too small relative to the weights for the operation."""


class NonIntegralMilnorNumberError(SinglinkError):
    """The Milnor product is not a positive integer.

    Signals weight/degree data inconsistent with the link of an isolated
    singularity.
    """


class IntegralityViolationError(SinglinkError):
    """A quantity that must describe an integral root multiset is not one."""


class InexactDivisionError(SinglinkError):
    """A polynomial division that had to be exact left a remainder."""


class BoundExceededError(SinglinkError):
    """A configured size ceiling was exceeded."""


class WrongDimensionError(SinglinkError):
    """The operation is defined only for a specific number of variables."""


class UnsupportedDimensionError(SinglinkError):
    """Stratum incidence is implemented only for up to four variables."""


class ConsistencyError(SinglinkError):
    """Independently computed values disagree."""


class PolynomialSyntaxError(SinglinkError):
    """The polynomial expression could not be parsed."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class CancelledMonomialError(SinglinkError):
    """A monomial's coefficients cancel to zero.

    Supports are assumed generic, so a cancelled monomial is an input error
    rather than something to drop silently.
    """


class DuplicateMonomialWarning(UserWarning):
    """A monomial appeared more than once and the copies were merged."""
