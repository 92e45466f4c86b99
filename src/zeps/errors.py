"""Exception hierarchy shared by every module.

All errors raised on purpose derive from :class:`ZepsError`, so callers
can catch the package's failures in one clause while still
distinguishing the usual builtin categories (``ValueError`` for bad
inputs, ``ZeroDivisionError`` for degenerate denominators and poles).
"""


class ZepsError(Exception):
    """Base class for all errors raised by this package."""


class InputDomainError(ZepsError, ValueError):
    """An argument violates a documented precondition (range, arity, shape)."""


class UnsupportedDimensionError(ZepsError, ValueError):
    """The requested dimension lies outside the supported window."""


class DegenerateDenominatorError(ZepsError, ZeroDivisionError):
    """A denominator is identically zero (non-injective table, zero polynomial)."""


class EvaluationPoleError(ZepsError, ZeroDivisionError):
    """Numeric evaluation hit a pole of the expression."""


class MapSingularityError(ZepsError, ZeroDivisionError):
    """The bilinear map was applied at its singular point s = 2/T."""


class IdentityViolationError(ZepsError, ArithmeticError):
    """An exact identity the code relies on failed to hold: a defect, not bad input."""
