"""Exception hierarchy, the invariant check and the immutable base classes.

Every failure path raises a subclass of :class:`SecantflowError` that names
the violated rule; ``module`` records which part of the package owns the
invariant so CLI diagnostics can point at it.
"""

from __future__ import annotations

from operator import itemgetter


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


class FrozenValueError(AttributeError):
    """An assignment to, or a deletion of, an attribute of a Frozen."""


class Frozen:
    """Base class of the package's immutable objects."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenValueError(f"cannot assign to {name!r}")

    def __delattr__(self, name):
        raise FrozenValueError(f"cannot delete {name!r}")


def _getter(names):
    """From a value's ``__dict__`` (cheaper than getattr) to a field tuple."""
    get = itemgetter(*names)
    return get if len(names) > 1 else lambda d: (get(d),)


class Value(Frozen):
    """Base class of the package's immutable values.

    A subclass's annotations, in order, are its fields, and a class
    attribute of the same name is a field's default (defaults come last);
    every field takes part in equality, hashing and the repr.  What a value
    derives from its fields is a property, or is derived and checked by
    ``__post_init__``, or built on first use (a point's conjugate), and
    kept in the instance dict beside the kept hash; it is never a field.
    Each subclass is given plain functions, not generated code, and may
    not define its own: ``__init__`` (by position or keyword, then
    ``__post_init__`` if the class has one), ``__eq__`` within the class,
    ``__hash__`` (the hash of the field tuple, computed on first use and
    kept: values key caches) and ``__reduce__`` (through the constructor,
    so a copy or an unpickled value is checked and derived anew, and
    nothing kept, neither a conjugate nor a hash, which may mix in
    per-process string hashes, crosses a process).
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = vars(cls).keys() & {"__init__", "__eq__", "__hash__",
                                  "__reduce__"}
        if own:
            raise TypeError(f"{cls.__name__} may not define {sorted(own)}")
        names = cls._fields = tuple(cls.__annotations__)
        defaults = {n: vars(cls)[n] for n in names if n in vars(cls)}
        required, tail = len(names) - len(defaults), tuple(defaults.values())
        if any(n not in defaults for n in names[required:]):
            raise TypeError(f"{cls.__name__}: a field without a default "
                            "follows one with a default")
        n_fields, post = len(names), hasattr(cls, "__post_init__")
        values = _getter(names)

        def bind(args, kwargs):
            given = {**defaults, **dict(zip(names, args)), **kwargs}
            if (len(args) > n_fields or given.keys() != set(names)
                    or not kwargs.keys().isdisjoint(names[:len(args)])):
                raise TypeError(f"{cls.__name__}() takes the fields {names}")
            return [given[n] for n in names]

        def __init__(self, *args, **kwargs):
            if kwargs or not required <= len(args) <= n_fields:
                args = bind(args, kwargs)  # raises on a bad call
            elif len(args) < n_fields:
                args += tail[len(args) - required:]
            object.__setattr__(self, "__dict__", dict(zip(names, args)))
            if post:
                self.__post_init__()

        def __eq__(self, other):
            if self is other:
                return True
            if other.__class__ is not cls:
                return NotImplemented
            return values(self.__dict__) == values(other.__dict__)

        def __hash__(self):
            kept = self.__dict__
            if "_hash" not in kept:
                kept["_hash"] = hash(values(kept))
            return kept["_hash"]

        def __reduce__(self):
            return cls, values(self.__dict__)

        cls.__init__, cls.__eq__ = __init__, __eq__
        cls.__hash__, cls.__reduce__ = __hash__, __reduce__

    def __repr__(self):
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({shown})"


def replace(value: Value, **changes) -> Value:
    """The value with some fields changed, built (and so checked) anew."""
    args = [changes.pop(n, getattr(value, n)) for n in value._fields]
    if changes:
        raise TypeError(f"{type(value).__name__} has no fields {sorted(changes)}")
    return type(value)(*args)


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
