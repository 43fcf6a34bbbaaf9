"""Odd hyperelliptic curves, divisors, and exact Riemann-Roch spaces.

The model is y^2 = f(x) with deg f = 2g+1 >= 5 and f squarefree, so there
is a single point at infinity and the genus is g = (deg f - 1)/2.  The two
basic valuations at infinity are v(x) = -2 and v(y) = -(2g+1); since these
have opposite parity, v(a(x) + b(x) y) = min(-2 deg a, -2 deg b - (2g+1))
with no cancellation, which is what makes the dimension bookkeeping exact.

Functions on the curve are represented as (a(x) + b(x) y) / q(x).  Because
f is squarefree the ring Q[x][y]/(y^2 - f) is integrally closed, so every
function regular outside infinity and a prescribed set of affine fibres has
this shape with q supported on those fibres; Riemann-Roch spaces are cut
out of such candidates by exact jet conditions at the support points and
degree bounds at infinity, and the resulting basis is re-certified before
it is returned.  Every local computation at an affine point (the integer
condition rows, the certificate, ``jet``, ``valuation``) reads one
expansion of y, integers over one denominator certified against y^2 = f
to the order used, and expands a + b y on it in integers.  Each Taylor
expansion (of f for y, of a and b, of a denominator) is one raw pass,
``Poly.shift_numerators``: integers over one unreduced denominator, so no
canonical polynomial, with its gcd, is built only to be read.  A jet is
read in a local frame z^frame of a bundle (z = x - x0), so the Taylor
window of h z^frame takes one integer pass whatever the frame's sign,
and each of its coefficients is exact: an int where it is integral,
else a Fraction.  The certificate checks the bound div(h) + D >= 0
itself, not the exact valuation: at infinity by the degree formula above,
and at an affine place p by an order threshold, namely that a + b y
vanishes to order v_p(q) - D(p), read off the first terms of its
expansion (the norm a^2 - b^2 f is never formed); v_p(q) is
cross-checked against q's truncated Taylor shift.

Curves, points, divisors and functions are immutable values that key the
package's caches; each computes its hash once and keeps it.  A point also
keeps its conjugate, built on first use, and the conjugate keeps the
point, so the place pairs that Riemann-Roch reads are looked up by
identity.

Point admissibility (y^2 = f(x), and y != 0 on a support) is checked where
data enters: ``HyperellipticCurve.point`` when a point is made,
``validate_support`` in every function taking a divisor, witness or pool,
``serialize.point_from_json`` for every point the wire format lists,
and the y0^2 = f(x0) guard of ``series.sqrt_series`` wherever y is
expanded.  ``validate_support`` stays the one checkpoint for supports; it
remembers, per curve, the points it has passed (a bounded cache), so a
point drawn again from a checked pool is not evaluated again, while a
point that fails raises every time.  The per-point kernels (``y_series``,
``valuation``, ``jet``, ``resolution.section_order``) take a point of the
curve as a precondition and keep only their structural guards (infinity,
y = 0).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import lru_cache

from . import series
from .linalg import integer_kernel
from .errors import (
    EvenDegreeError,
    Frozen,
    GenusTooSmallError,
    NonSquarefreeError,
    PoleAtPointError,
    UnsupportedSupportError,
    Value,
    WeierstrassPointError,
    ZeroSectionError,
    invariant,
)
from .polynomials import Poly, Scalar, _frac


# ---------------------------------------------------------------------------
# points and curves
# ---------------------------------------------------------------------------

class CurvePoint(Value):
    """A closed point of the model: infinity, or an affine point (x0, y0)."""

    at_infinity: bool
    # infinity keeps 0, not None, whose hash varies by process before 3.12
    x: Fraction = Fraction(0)
    y: Fraction = Fraction(0)

    @classmethod
    def affine(cls, x0: Scalar, y0: Scalar) -> CurvePoint:
        return cls(False, _frac(x0), _frac(y0))

    def sort_key(self):
        return (not self.at_infinity, self.x, self.y)

    def conjugate(self) -> CurvePoint:
        """The hyperelliptic involution (x, y) -> (x, -y); fixes infinity.

        Built on first use and kept in the instance dict beside the kept
        hash, never as a field; the conjugate keeps this point in turn, so
        ``p.conjugate().conjugate() is p`` and a lookup of either is an
        identity hit."""
        kept = self.__dict__
        if "_conjugate" not in kept:
            if self.at_infinity:
                return self
            conj = CurvePoint(False, self.x, -self.y)
            kept["_conjugate"], conj.__dict__["_conjugate"] = conj, self
        return kept["_conjugate"]

    def __repr__(self) -> str:
        if self.at_infinity:
            return "CurvePoint(inf)"
        return f"CurvePoint({self.x}, {self.y})"


INF = CurvePoint(True)


class HyperellipticCurve(Value):
    """The curve y^2 = f(x), f squarefree of odd degree 2g+1 >= 5."""

    f: Poly

    @property
    def genus(self) -> int:
        return (self.f.degree - 1) // 2

    def is_on_curve(self, x0: Scalar, y0: Scalar) -> bool:
        x0, y0 = _frac(x0), _frac(y0)
        return y0 * y0 == self.f(x0)

    def point(self, x0: Scalar, y0: Scalar) -> CurvePoint:
        """Validated affine point constructor."""
        if not self.is_on_curve(x0, y0):
            raise UnsupportedSupportError(
                f"({x0}, {y0}) does not satisfy y^2 = f(x)")
        return CurvePoint.affine(x0, y0)

    def rational_fibre(self, x0: Scalar) -> tuple[CurvePoint, CurvePoint]:
        """The points (x0, y0), (x0, -y0) over x0 with y0 > 0 rational;
        WeierstrassPointError if f(x0) = 0, UnsupportedSupportError if
        f(x0) is not a rational square."""
        x0 = _frac(x0)
        fx = self.f(x0)
        if fx == 0:
            raise WeierstrassPointError(
                f"the fibre over x = {x0} is a Weierstrass point")
        # abs() keeps isqrt defined; a negative f(x0) fails the test below
        y0 = Fraction(math.isqrt(abs(fx.numerator)), math.isqrt(fx.denominator))
        if y0 * y0 != fx:
            raise UnsupportedSupportError(
                f"fibre over x = {x0} has no rational points")
        return CurvePoint.affine(x0, y0), CurvePoint.affine(x0, -y0)

    def canonical_divisor(self) -> Divisor:
        return Divisor({INF: 2 * self.genus - 2})

    def y_series(self, x0: Scalar, y0: Scalar, n: int) -> list[Fraction]:
        """Expansion of y in z = x - x0 at a curve point (x0, y0), y0 != 0,
        to order n >= 0: the Fraction view of the certified integer one."""
        if n < 0:
            raise ValueError(f"y-series order must be >= 0, got n = {n}")
        x0, y0 = _frac(x0), _frac(y0)
        if y0 == 0:
            raise WeierstrassPointError(
                f"x = {x0} is a Weierstrass point; z = x - x0 is not a local "
                "parameter for y there")
        if n == 0:
            return []
        Y, E = _y_series_cached(self, CurvePoint.affine(x0, y0), n)
        return [Fraction(c, E) for c in Y]


@lru_cache(maxsize=1024)
def _y_series_cached(curve: HyperellipticCurve, p: CurvePoint,
                     n: int) -> tuple[tuple[int, ...], int]:
    """The expansion of y at p = (x0, y0) to order n >= 1 as integer
    numerators Y over one positive denominator E, certified in integers:
    Y_0 = E y0 and Y^2 = E^2 f(x0 + z) mod z^n.  Keyed by the point, whose
    hash is kept; a failed check is not kept.  Every expansion at a point
    (jets, valuations, the Riemann-Roch rows and certificate) reads it."""
    x0, y0 = p.x, p.y
    fs, fd = curve.f.shift_numerators(x0, n)
    fs += [0] * (n - len(fs))
    ys = series.sqrt_series([Fraction(c, fd) for c in fs], y0, n)
    E = math.lcm(*(c.denominator for c in ys))
    Y = tuple(c.numerator * (E // c.denominator) for c in ys)
    ok = (len(Y) == n and Y[0] * y0.denominator == E * y0.numerator
          and all(sum(Y[i] * Y[t - i] for i in range(t + 1)) * fd
                  == E * E * fs[t] for t in range(n)))
    invariant(ok, "y-series at (%s, %s) is not a square root of f to order %d",
              x0, y0, n)
    return Y, E


def make_curve(coeffs: Iterable[Scalar]) -> HyperellipticCurve:
    """Build and validate a curve from the coefficients of f (low to high).

    Raises EvenDegreeError, GenusTooSmallError or NonSquarefreeError when
    the polynomial leaves the supported model.
    """
    f = Poly(coeffs)
    if f.degree < 1:
        raise GenusTooSmallError("f must be nonconstant")
    if f.degree % 2 == 0:
        raise EvenDegreeError(
            f"deg f = {f.degree} is even; the model needs one point at infinity")
    if f.degree < 5:
        raise GenusTooSmallError(f"deg f = {f.degree} < 5 gives genus < 2")
    if not f.is_squarefree():
        raise NonSquarefreeError("f has a repeated root")
    return HyperellipticCurve(f)


_STANDARD_F = {
    2: (4, 4, 0, 0, 0, 1),        # x^5 + 4x + 4
    3: (1, 1, 0, 0, 0, 0, 0, 1),  # x^7 + x + 1
}


def standard_curve(g: int) -> HyperellipticCurve:
    """A fixed squarefree curve of genus g, for identity cross-checks."""
    if g in _STANDARD_F:
        return make_curve(_STANDARD_F[g])
    for a, b in ((4, 4), (1, 1), (2, 1), (3, 1), (1, 2), (5, 3)):
        coeffs = [b, a] + [0] * (2 * g - 1) + [1]
        try:
            return make_curve(coeffs)
        except NonSquarefreeError:
            continue
    raise NonSquarefreeError(f"no standard curve found for genus {g}")


# ---------------------------------------------------------------------------
# divisors
# ---------------------------------------------------------------------------

class Divisor(Frozen):
    """A finite formal Z-combination of curve points.

    Immutable; multiplicities are ints, and zeros are dropped.  A dict
    from point to multiplicity is the one representation: ``coeff``,
    equality and the arithmetic read it.  The point order (by ``CurvePoint.sort_key``) is
    derived on the first ``items()``, hash or repr and kept.
    """

    __slots__ = ("_coeffs", "_items", "_hash")

    def __init__(self, coeffs: Mapping[CurvePoint, int] | Iterable[tuple[CurvePoint, int]] = ()):
        if isinstance(coeffs, Mapping):
            coeffs = coeffs.items()
        acc: dict[CurvePoint, int] = {}
        for p, m in coeffs:
            if type(m) is not int:
                raise TypeError(f"multiplicity {m!r} is not an int")
            acc[p] = acc.get(p, 0) + m
        self._fill(acc)

    @classmethod
    def _of_dict(cls, acc: dict[CurvePoint, int]) -> Divisor:
        """The divisor with integer multiplicities acc (zeros allowed),
        built without accumulating again."""
        D = object.__new__(cls)
        D._fill(acc)
        return D

    def _fill(self, acc: dict[CurvePoint, int]) -> None:
        object.__setattr__(self, "_coeffs", {p: m for p, m in acc.items() if m})
        object.__setattr__(self, "_items", None)
        object.__setattr__(self, "_hash", None)

    def __reduce__(self):
        # rebuilt through the constructor: the kept order and hash stay behind
        return Divisor, (self._coeffs,)

    @classmethod
    def zero(cls) -> Divisor:
        return cls(())

    @classmethod
    def of_point(cls, p: CurvePoint, m: int = 1) -> Divisor:
        return cls(((p, m),))

    def items(self) -> tuple[tuple[CurvePoint, int], ...]:
        if self._items is None:
            object.__setattr__(self, "_items", tuple(sorted(
                self._coeffs.items(), key=lambda t: t[0].sort_key())))
        return self._items

    def coeff(self, p: CurvePoint) -> int:
        return self._coeffs.get(p, 0)

    def support(self) -> tuple[CurvePoint, ...]:
        return tuple(p for p, _ in self.items())

    def affine_items(self) -> tuple[tuple[CurvePoint, int], ...]:
        return tuple((p, m) for p, m in self.items() if not p.at_infinity)

    @property
    def inf_coeff(self) -> int:
        return self.coeff(INF)

    @property
    def degree(self) -> int:
        return sum(self._coeffs.values())

    def is_effective(self) -> bool:
        return all(m > 0 for m in self._coeffs.values())

    def is_zero(self) -> bool:
        return not self._coeffs

    def __add__(self, other: Divisor) -> Divisor:
        acc = dict(self._coeffs)
        for p, m in other._coeffs.items():
            acc[p] = acc.get(p, 0) + m
        return Divisor._of_dict(acc)

    def __neg__(self) -> Divisor:
        return Divisor._of_dict({p: -m for p, m in self._coeffs.items()})

    def __sub__(self, other: Divisor) -> Divisor:
        acc = dict(self._coeffs)
        for p, m in other._coeffs.items():
            acc[p] = acc.get(p, 0) - m
        return Divisor._of_dict(acc)

    def __mul__(self, k: int) -> Divisor:
        if type(k) is not int:
            raise TypeError(f"scalar {k!r} is not an int")
        return Divisor._of_dict({p: k * m for p, m in self._coeffs.items()})

    __rmul__ = __mul__

    def __le__(self, other: Divisor) -> bool:
        mine, theirs = self._coeffs, other._coeffs
        return (all(m <= theirs.get(p, 0) for p, m in mine.items())
                and all(m >= 0 for p, m in theirs.items() if p not in mine))

    def gcd(self, other: Divisor) -> Divisor:
        """Pointwise minimum (largest divisor below both)."""
        mine, theirs = self._coeffs, other._coeffs
        return Divisor._of_dict({p: min(mine.get(p, 0), theirs.get(p, 0))
                                 for p in mine.keys() | theirs.keys()})

    def __eq__(self, other) -> bool:
        if isinstance(other, Divisor):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(("Divisor", self.items())))
        return self._hash

    def __repr__(self) -> str:
        if not self._coeffs:
            return "Divisor(0)"
        parts = []
        for p, m in self.items():
            at = "inf" if p.at_infinity else f"({p.x},{p.y})"
            parts.append(f"{m}*{at}")
        return "Divisor(" + " + ".join(parts) + ")"


def validate_support(curve: HyperellipticCurve, D: Divisor) -> None:
    """Check every affine support point is on the curve with y != 0.

    A point that passes is remembered per curve, so f is evaluated once
    per (curve, point); a point that fails raises every time.
    """
    for p, _ in D.affine_items():
        _check_point(curve, p)


@lru_cache(maxsize=1024)
def _check_point(curve: HyperellipticCurve, p: CurvePoint) -> None:
    # lru_cache keeps no entry for a call that raises
    if not curve.is_on_curve(p.x, p.y):
        raise UnsupportedSupportError(f"{p!r} is not on the curve")
    if p.y == 0:
        raise UnsupportedSupportError(
            f"{p!r} is a Weierstrass point; support must avoid y = 0")


# ---------------------------------------------------------------------------
# functions on the curve
# ---------------------------------------------------------------------------

class CurveFunction(Frozen):
    """An element (a(x) + b(x) y) / q(x) of the function field.

    The representation is canonical: q is monic and gcd(a, b, q) = 1, so
    equality of functions is equality of the triples.  The norm of the
    numerator is computed on first use and kept.
    """

    __slots__ = ("curve", "a", "b", "den", "_norm", "_hash")

    def __init__(self, curve: HyperellipticCurve, a: Poly, b: Poly,
                 den: Poly = Poly.one()):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if den.degree > 0:  # gcd with a nonzero constant is 1
            # gcd(den, a, b), with b consulted only when den and a share
            # a factor; a basis over its minimal denominator mostly does not
            g = den.gcd(a)
            if g.degree > 0:
                g = g.gcd(b)
                if g.degree > 0:
                    a, b, den = a // g, b // g, den // g
        lead = den.numerators[-1]
        if lead != den.denominator:  # the leading coefficient is not 1
            inv = Fraction(den.denominator, lead)
            a, b, den = a * inv, b * inv, den * inv
        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_norm", None)
        object.__setattr__(self, "_hash", None)

    def __reduce__(self):
        # rebuilt through the constructor, so the kept hash stays behind
        return CurveFunction, (self.curve, self.a, self.b, self.den)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, curve: HyperellipticCurve) -> CurveFunction:
        return cls(curve, Poly.zero(), Poly.zero())

    @classmethod
    def one(cls, curve: HyperellipticCurve) -> CurveFunction:
        return cls(curve, Poly.one(), Poly.zero())

    @classmethod
    def x(cls, curve: HyperellipticCurve) -> CurveFunction:
        return cls(curve, Poly.x(), Poly.zero())

    @classmethod
    def y(cls, curve: HyperellipticCurve) -> CurveFunction:
        return cls(curve, Poly.zero(), Poly.one())

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()

    def conjugate(self) -> CurveFunction:
        return CurveFunction(self.curve, self.a, -self.b, self.den)

    def norm_numerator(self) -> Poly:
        """The polynomial a^2 - b^2 f  (norm of the numerator a + b y)."""
        if self._norm is None:
            object.__setattr__(self, "_norm",
                               self.a * self.a - self.b * self.b * self.curve.f)
        return self._norm

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: CurveFunction) -> CurveFunction:
        self._check_same(other)
        a = self.a * other.den + other.a * self.den
        b = self.b * other.den + other.b * self.den
        return CurveFunction(self.curve, a, b, self.den * other.den)

    def __neg__(self) -> CurveFunction:
        return CurveFunction(self.curve, -self.a, -self.b, self.den)

    def __sub__(self, other: CurveFunction) -> CurveFunction:
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, CurveFunction):
            self._check_same(other)
            a = self.a * other.a + self.b * other.b * self.curve.f
            b = self.a * other.b + self.b * other.a
            return CurveFunction(self.curve, a, b, self.den * other.den)
        c = _frac(other)
        return CurveFunction(self.curve, self.a * c, self.b * c, self.den)

    __rmul__ = __mul__

    def inverse(self) -> CurveFunction:
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero function")
        # 1/(a+by) = (a-by)/(a^2-b^2 f)
        return CurveFunction(self.curve, self.a * self.den,
                             -self.b * self.den, self.norm_numerator())

    def _check_same(self, other: CurveFunction) -> None:
        if self.curve != other.curve:
            raise ValueError("functions live on different curves")

    def __eq__(self, other) -> bool:
        if isinstance(other, CurveFunction):
            return (self.curve == other.curve and self.a == other.a
                    and self.b == other.b and self.den == other.den)
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(
                ("CurveFunction", self.curve, self.a, self.b, self.den)))
        return self._hash

    def __repr__(self) -> str:
        num = f"{self.a!r} + ({self.b!r})*y"
        if self.den == Poly.one():
            return f"CurveFunction({num})"
        return f"CurveFunction(({num}) / ({self.den!r}))"


def _numerator_expansion(curve: HyperellipticCurve, h: CurveFunction,
                         p: CurvePoint, n: int,
                         reach: int = 0) -> tuple[list[int], int]:
    """a + b y at an affine point p of the curve in z = x - x0, to order
    n >= 1, as integer numerators N over one positive denominator S.

    With a(x0 + z) = A / Da, b(x0 + z) = B / Db (raw Taylor passes, not
    reduced) and y = Y / E, the term
    N_t = A_t Db E + Da sum_s B_s Y_(t-s) is over S = Da Db E (over Da when
    b = 0, which reads no y).  y is expanded to order max(n, reach), so
    checks at one place can share one y entry.
    """
    an, Da = h.a.shift_numerators(p.x, n)
    an += [0] * (n - len(an))
    if h.b.is_zero():
        return an, Da
    bn, Db = h.b.shift_numerators(p.x, n)
    Y, E = _y_series_cached(curve, p, max(n, reach))
    scale_a = Db * E
    return [an[t] * scale_a + Da * sum(
        bn[s] * Y[t - s] for s in range(min(t + 1, len(bn))))
        for t in range(n)], Da * Db * E


def valuation(curve: HyperellipticCurve, h: CurveFunction, p: CurvePoint) -> int:
    """Exact valuation of h at p (negative at a pole).

    p must be infinity or an affine non-Weierstrass point of the curve (a
    precondition); the zero function raises ZeroSectionError.
    """
    if h.is_zero():
        raise ZeroSectionError("the zero function has no valuation")
    if p.at_infinity:
        vals = []
        if not h.a.is_zero():
            vals.append(-2 * h.a.degree)
        if not h.b.is_zero():
            vals.append(-2 * h.b.degree - curve.f.degree)
        return min(vals) + 2 * h.den.degree
    if p.y == 0:
        raise WeierstrassPointError(
            f"valuation at the Weierstrass point x = {p.x} is not supported")
    norm = h.norm_numerator()
    if norm.is_zero():
        # a^2 = b^2 f with f squarefree of odd degree forces a = b = 0
        raise ZeroSectionError("degenerate representation of the zero function")
    bound = norm.root_multiplicity(p.x)
    N, _ = _numerator_expansion(curve, h, p, bound + 1)
    v_num = next((t for t, c in enumerate(N) if c), None)
    invariant(v_num is not None, "norm bound must expose the numerator valuation")
    return v_num - h.den.root_multiplicity(p.x)


def vanishing_order(curve: HyperellipticCurve, h: CurveFunction,
                    p: CurvePoint) -> int:
    """First nonzero jet index of h at p; PoleAtPointError if h has a pole."""
    v = valuation(curve, h, p)
    if v < 0:
        raise PoleAtPointError(f"pole of order {-v} at {p!r}")
    return v


class JetVector(Value):
    """Taylor coefficients (orders 0..order) of a function at an affine
    point, in a local frame z^frame of a bundle (frame 0: the function's
    own jet), z = x - x0.

    Every coefficient is exact: an int where it is integral, else a
    Fraction with denominator > 1.  These coefficients span the same
    functionals as residues against z^-1..z^-(order+1), up to an
    invertible antitriangular change, so they are the working
    representation of dual classes downstream.
    """

    point: CurvePoint
    values: tuple[int | Fraction, ...]

    @property
    def order(self) -> int:
        return len(self.values) - 1


def jet(curve: HyperellipticCurve, h: CurveFunction, p: CurvePoint,
        order: int, frame: int = 0) -> JetVector:
    """Jet of h z^frame at an affine point to the given order (inclusive),
    z = x - x0: the Taylor window of h read in the local frame z^-frame.

    p must be a point of the curve (a precondition).  Raises
    WeierstrassPointError at y = 0 or infinity (where z is not a
    parameter), PoleAtPointError when h z^frame is not regular at p.

    One integer pass: with a + b y = N / S (``_numerator_expansion``) and
    den(x0 + z) = z^v q(z) / Qd, h z^frame = z^-w N Qd / (S q) for
    w = v - frame.  N's first w terms must be 0 (else a pole); when w < 0
    the first -w coefficients are 0.  Past them, with s = max(w, 0),
    coefficient t is E_t / (S q0^(t+1)) for E_t = N_(s+t) Qd q0^t -
    sum_(i>=1) q_i q0^(i-1) E_(t-i), all in integers, and one divmod
    makes it an int when it is integral.
    """
    if order < 0:
        raise ValueError("jet order must be >= 0")
    if p.at_infinity:
        raise WeierstrassPointError("jets at infinity are not supported")
    if p.y == 0:
        raise WeierstrassPointError(
            f"jets at the Weierstrass point x = {p.x} are not supported")
    v = h.den.root_multiplicity(p.x) if h.den.degree else 0
    w = v - frame
    zeros = min(max(-w, 0), order + 1)
    s, n = max(w, 0), order + 1 - zeros
    vals: list = [0] * zeros
    if n:
        N, S = _numerator_expansion(curve, h, p, s + n)
        if any(N[:s]):
            raise PoleAtPointError(
                f"pole at {p!r}: the numerator vanishes to order below {w}")
        Q, scale = h.den.shift_numerators(p.x, v + n)
        q = Q[v:]
        q0, den = q[0], S * q[0]
        qs = [c * q0 ** i for i, c in enumerate(q[1:])]  # q_i q0^(i-1)
        E: list[int] = []
        for t in range(n):
            e = N[s + t] * scale - sum(
                c * E[t - i] for i, c in enumerate(qs[:t], 1))
            E.append(e)
            vals.append(_exact(e, den))
            scale, den = scale * q0, den * q0
    return JetVector(p, tuple(vals))


def _exact(num: int, den: int) -> int | Fraction:
    """num / den as an int when den divides num, else as a Fraction."""
    quo, rem = divmod(num, den)
    return Fraction(num, den) if rem else quo


# ---------------------------------------------------------------------------
# Riemann-Roch spaces
# ---------------------------------------------------------------------------

class SectionSpace(Value):
    """L(D) = {h : div(h) + D >= 0}, with an exact basis."""

    divisor: Divisor
    basis: tuple[CurveFunction, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def _fibres(D: Divisor) -> dict[Fraction, dict[CurvePoint, int]]:
    """Group affine support by x-coordinate: x0 -> {point: mult}."""
    out: dict[Fraction, dict[CurvePoint, int]] = {}
    for p, m in D.affine_items():
        out.setdefault(p.x, {})[p] = m
    return out


def riemann_roch_space(curve: HyperellipticCurve, D: Divisor) -> SectionSpace:
    """Compute L(D) exactly.

    Candidates are (a(x) + b(x) y)/q(x) with q the minimal monic
    denominator allowed by the affine part of D; degree bounds at infinity
    come from v(x) = -2, v(y) = -(2g+1), and the affine conditions are jet
    conditions on a + b y at each support point and its conjugate.  The
    kernel of that exact linear system is the basis.  Each returned basis
    element is re-certified at every place where it could have a pole, by
    the bound itself (see ``_certify_section_space``): the valuation at
    infinity, and at an affine place p that a + b y vanishes to order
    v_p(den) - D(p).  A basis element that breaks the bound raises
    InvariantError, under ``python -O`` too.

    Parameters
    ----------
    curve : HyperellipticCurve
    D : Divisor
        Support may include infinity and affine non-Weierstrass points,
        with arbitrary integer multiplicities.

    Returns
    -------
    SectionSpace
    """
    validate_support(curve, D)
    w = curve.f.degree  # 2g + 1
    n_inf = D.inf_coeff
    fibres = _fibres(D)

    # minimal denominator and required numerator vanishing per point
    q = Poly.one()
    conditions: list[tuple[CurvePoint, int]] = []  # (point, order)
    for x0, pts in sorted(fibres.items()):
        e0 = max(max(pts.values()), 0)
        if e0:
            q = q * Poly.linear_root(x0) ** e0
        p_ref = next(iter(pts))
        for p in (p_ref, p_ref.conjugate()):
            r = e0 - pts.get(p, 0)
            if r > 0:
                conditions.append((p, r))

    dq = q.degree
    a_max = (n_inf + 2 * dq) // 2 if n_inf + 2 * dq >= 0 else -1
    b_max = (n_inf + 2 * dq - w) // 2 if n_inf + 2 * dq - w >= 0 else -1
    na = a_max + 1
    nb = b_max + 1
    ncand = na + nb
    if ncand == 0:
        return SectionSpace(D, ())

    rows: list[list[int]] = []
    for p, r in conditions:
        rows += _condition_rows(curve, p, r, na, nb)

    basis = []
    for v in integer_kernel(rows, cols=ncand):
        lead = next(c for c in reversed(v) if c)  # its free column, > 0
        a = Poly.from_numerators(v[:na], lead)
        b = Poly.from_numerators(v[na:], lead)
        basis.append(CurveFunction(curve, a, b, q))
    space = SectionSpace(D, tuple(basis))
    _certify_section_space(curve, space)
    return space


def _condition_rows(curve: HyperellipticCurve, p: CurvePoint, r: int,
                    na: int, nb: int) -> list[list[int]]:
    """The r rows "a + b y vanishes to order r at p = (x0, y0)" on the
    coefficients of a (na of them) and b (nb), in integers.

    Row t holds the z^t coefficients of (x0 + z)^i and (x0 + z)^j y(z).
    With x0 = u/v, the column of (x0 + z)^(i+1) is (u + v z) times that of
    (x0 + z)^i over one more power of v, the recursion of the Taylor
    passes; y(z) = Y(z) / E.  Each row is put over v^(max(na, nb) - 1) E
    and divided by the gcd of its entries: the rational row scaled to a
    primitive integer row.  Scaling a row leaves its kernel, so the basis,
    unchanged.
    """
    Y, E = _y_series_cached(curve, p, r)
    u, v = p.x.numerator, p.x.denominator

    def powers(col, count):
        # col, (u + v z) col, (u + v z)^2 col, ...: count columns
        out = [col] if count else []
        while len(out) < count:
            col = [u * col[0]] + [u * c + v * prev
                                  for c, prev in zip(col[1:], col)]
            out.append(col)
        return out

    a_cols = powers([1] + [0] * (r - 1), na)
    b_cols = powers(list(Y), nb)
    top = max(na, nb) - 1
    if v == 1:
        a_cols = [[c * E for c in col] for col in a_cols]
    else:
        a_cols = [[c * E * v ** (top - i) for c in col]
                  for i, col in enumerate(a_cols)]
        b_cols = [[c * v ** (top - j) for c in col]
                  for j, col in enumerate(b_cols)]
    rows = []
    for row in zip(*a_cols, *b_cols):
        g = math.gcd(*row)
        rows.append([c // g for c in row] if g > 1 else list(row))
    return rows


def _certify_section_space(curve: HyperellipticCurve, space: SectionSpace) -> None:
    """Check div(h) + D >= 0 for each basis element, place by place.

    A candidate (a + b y)/q has poles only over the roots of q and at
    infinity, so checking the support of D, the conjugates of its affine
    support, and infinity is a complete certificate.  Each place checks the
    bound itself (``_within_bound``), not the exact valuation.  At an
    affine place every basis element reads one y-series, at the order the
    jet conditions imposed there.
    """
    D = space.divisor
    places = {INF}
    for p, _ in D.affine_items():
        places.add(p)
        places.add(p.conjugate())
    for h in space.basis:
        invariant(not h.is_zero(), "zero function in a Riemann-Roch basis")
    for p in places:
        m = D.coeff(p)
        reach = 0 if p.at_infinity else max(m, D.coeff(p.conjugate()), 0) - m
        for h in space.basis:
            invariant(_within_bound(curve, h, p, m, reach),
                      "basis element %r violates the divisor bound at %r",
                      h, p)


def _within_bound(curve: HyperellipticCurve, h: CurveFunction,
                  p: CurvePoint, m: int, reach: int = 0) -> bool:
    """Whether v_p(h) + m >= 0, for a nonzero h and a place p of the curve.

    At infinity this is ``valuation``.  At an affine point it is an order
    threshold: the numerator a + b y is regular there, so the bound holds
    exactly when a + b y vanishes to order k = v_p(den) - m, i.e. when
    k <= 0 or the first k terms of its integer expansion are 0; the norm
    a^2 - b^2 f, which the exact valuation needs, is never formed.
    """
    if p.at_infinity:
        return valuation(curve, h, p) + m >= 0
    k = _root_order(h.den, p.x) - m
    if k <= 0:
        return True
    N, _ = _numerator_expansion(curve, h, p, k, reach)
    return not any(N)


@lru_cache(maxsize=1024)
def _root_order(den: Poly, x0: Fraction) -> int:
    """den's root multiplicity at x0, checked against den's Taylor shift
    truncated just past it: the coefficients below it are zero and the one
    at it is not.  Kept per (den, x0), since the basis elements of a space
    share their denominator and a point shares its fibre with its
    conjugate; a check that fails is not kept and fails every time."""
    v = den.root_multiplicity(x0)
    taylor, _ = den.shift_numerators(x0, v + 1)
    invariant(len(taylor) == v + 1 and taylor[v] and not any(taylor[:v]),
              "root multiplicity %d of %r at x = %s disagrees with its "
              "Taylor shift", v, den, x0)
    return v


def h1_dim(curve: HyperellipticCurve, D: Divisor) -> int:
    """dim H^1(O(D)), computed as dim L(K - D) by duality."""
    return riemann_roch_space(curve, curve.canonical_divisor() - D).dim
