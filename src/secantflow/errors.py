"""Exception hierarchy.

Every failure path raises a subclass of :class:`SecantflowError` that names
the violated rule; ``module`` records which part of the package owns the
invariant so CLI diagnostics can point at it.
"""

from __future__ import annotations


class SecantflowError(Exception):
    """Base class for all package errors."""

    module = "secantflow"


class InvariantError(SecantflowError):
    """A re-derived identity failed; raised by :func:`invariant`, which,
    unlike ``assert``, stays in force under ``python -O``."""

    module = "internal invariant"


def invariant(ok: bool, message: str, *args) -> None:
    """Raise InvariantError(message % args) unless ok."""
    if not ok:
        raise InvariantError(message % args)


# -- curve ------------------------------------------------------------------

class CurveError(SecantflowError):
    module = "curve"


class NonSquarefreeError(CurveError):
    """The defining polynomial has a repeated root."""


class EvenDegreeError(CurveError):
    """The defining polynomial has even degree (two points at infinity)."""


class GenusTooSmallError(CurveError):
    """deg f < 5, so the genus is below 2."""


class UnsupportedSupportError(CurveError):
    """A divisor point is not on the curve or otherwise outside the model."""


class PoleAtPointError(CurveError):
    """Jet requested at a pole of the function."""


class WeierstrassPointError(CurveError):
    """Operation requested at a point with y = 0 (or at infinity) where the
    local expansion in x - x0 breaks down."""


class ZeroSectionError(CurveError):
    """Vanishing order of the zero function is undefined."""


# -- secant -----------------------------------------------------------------

class SecantError(SecantflowError):
    module = "secant"


class InadmissibleSupportError(SecantError):
    """Witness divisor support leaves the admissible affine locus."""


class BasisPoleCollisionError(SecantError):
    """A section basis element has a pole at a witness point."""


class DegenerateRankError(SecantError):
    """A jet matrix failed to have the rank the degree bound guarantees."""


class DimensionMismatchError(SecantError):
    """Vector and matrix shapes disagree, or planes from different ambients
    were combined."""


class BoundViolationError(SecantflowError):
    """A degree/budget bound required by a flow or secant construction was
    violated."""

    module = "secant"


class MorseBoundViolationError(BoundViolationError):
    module = "morse"


class ResolutionBoundViolationError(BoundViolationError):
    module = "resolution"


# -- localmodel -------------------------------------------------------------

class LocalModelError(SecantflowError):
    module = "localmodel"


class SmoothnessFailureError(LocalModelError):
    """The glued gauge product fails to extend across the puncture."""


class NegativeUExponentError(LocalModelError):
    """A scaling limit hit a negative exponent of the flow parameter."""


# -- resolution -------------------------------------------------------------

class ResolutionError(SecantflowError):
    module = "resolution"


class BudgetViolationError(ResolutionError):
    """A chain step or witness degree leaves the permitted range."""


class WitnessNotMinimalError(ResolutionError):
    """A class lies on a plane of a proper subdivisor of its witness."""


# -- cli --------------------------------------------------------------------

class MalformedInputError(SecantflowError):
    """Input JSON (or CLI argument) does not match the wire format."""

    module = "cli"

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field
