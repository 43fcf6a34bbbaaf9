"""Dense univariate polynomials over the rationals.

Coefficients are ``fractions.Fraction`` throughout the interface; nothing in
here (or in any module built on top) touches floating point.  The
representation is a trimmed tuple of coefficients in increasing degree
order, so polynomials are immutable and hashable and can key caches; each
polynomial computes its hash once and keeps it.

The hot kernels (the Taylor shift, root multiplicity, the product,
division with remainder and the gcd) run on cleared integer numerators:
the coefficients times the lcm of their denominators.  They build a
``Fraction`` only for each coefficient they return, so the arithmetic
stays exact without a gcd per operation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator, Union

Scalar = Union[int, Fraction]

# rational_roots tests every p/q with p | a0 and q | an (after clearing
# denominators).  With both ends at 20 bits and highly composite (720720,
# 240 divisors) that is about 0.7 s for a quartic on CPython 3.11, 2-core
# x86 host; each further bit costs about 1.5x, so wider input is refused.
ROOT_SEARCH_MAX_BITS = 20


def _frac(c: Scalar) -> Fraction:
    return c if isinstance(c, Fraction) else Fraction(c)


class Poly:
    """A polynomial ``c0 + c1*x + ... + cn*x**n`` with exact coefficients.

    >>> p = Poly([1, 0, 2])       # 1 + 2x^2
    >>> p(Fraction(1, 2))
    Fraction(3, 2)
    >>> (p * p).degree
    4
    """

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        # rebuilt through the constructor, so the kept hash stays behind
        return Poly, (self.coeffs,)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> Poly:
        return cls(())

    @classmethod
    def one(cls) -> Poly:
        return cls((1,))

    @classmethod
    def x(cls) -> Poly:
        return cls((0, 1))

    @classmethod
    def constant(cls, c: Scalar) -> Poly:
        return cls((c,))

    @classmethod
    def monomial(cls, n: int, c: Scalar = 1) -> Poly:
        return cls((0,) * n + (c,))

    @classmethod
    def linear_root(cls, x0: Scalar) -> Poly:
        """x - x0."""
        return cls((-_frac(x0), 1))

    # -- basic queries -------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, n: int) -> Fraction:
        if 0 <= n < len(self.coeffs):
            return self.coeffs[n]
        return Fraction(0)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coeffs)

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ZeroDivisionError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: Poly | Scalar) -> Poly:
        if not isinstance(other, Poly):
            other = Poly.constant(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[i] + other[i] for i in range(n)])

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: Poly | Scalar) -> Poly:
        return self + (-other if isinstance(other, Poly) else Poly.constant(other).__neg__())

    def __rsub__(self, other: Scalar) -> Poly:
        return Poly.constant(other) - self

    def __mul__(self, other: Poly | Scalar) -> Poly:
        if not isinstance(other, Poly):
            c = _frac(other)
            return Poly([a * c for a in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Poly.zero()
        xs, xden = self.integer_coeffs()
        ys, yden = other.integer_coeffs()
        out = [0] * (len(xs) + len(ys) - 1)
        for i, a in enumerate(xs):
            if a:
                for j, b in enumerate(ys):
                    out[i + j] += a * b
        den = xden * yden
        return Poly([Fraction(c, den) for c in out])

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly:
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out, base = Poly.one(), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __divmod__(self, other: Poly) -> tuple[Poly, Poly]:
        """Quotient and remainder, by integer pseudo-division of the
        cleared numerators; one Fraction is built per output coefficient."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if len(self.coeffs) < len(other.coeffs):
            return Poly.zero(), self
        xs, xden = self.integer_coeffs()
        ys, yden = other.integer_coeffs()
        quo, rem, s = _pseudo_divmod(xs, ys)
        # s * xs = quo * ys + rem, so self = quo * (yden / (s xden)) * other
        # + rem / (s xden)
        scale = s * xden
        return (Poly([Fraction(c * yden, scale) for c in quo]),
                Poly([Fraction(c, scale) for c in rem]))

    def __floordiv__(self, other: Poly) -> Poly:
        return divmod(self, other)[0]

    def __mod__(self, other: Poly) -> Poly:
        return divmod(self, other)[1]

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(("Poly", self.coeffs)))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- calculus and evaluation ---------------------------------------------

    def __call__(self, x0: Scalar) -> Fraction:
        """Evaluate by Horner's rule."""
        x0 = _frac(x0)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x0 + c
        return acc

    def derivative(self) -> Poly:
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def shift(self, x0: Scalar, n: int | None = None) -> Poly:
        """The polynomial ``p(x0 + z)`` as a polynomial in z (Taylor shift),
        truncated mod z^n when n is given; only n Horner passes run then."""
        if not self.coeffs:
            return self
        x0 = _frac(x0)
        ints, den = self.integer_coeffs()
        v = x0.denominator
        deg = len(ints) - 1
        scale = den * v ** deg
        out = []
        vk = 1
        for t in islice(_taylor_passes(ints, x0.numerator, v), n):
            out.append(Fraction(t * vk, scale))
            vk *= v
        return Poly(out)

    def root_multiplicity(self, x0: Scalar) -> int:
        """Multiplicity of x0 as a root (0 if not a root)."""
        x0 = _frac(x0)
        ints, _ = self.integer_coeffs()
        for k, t in enumerate(_taylor_passes(ints, x0.numerator, x0.denominator)):
            if t:
                return k
        raise ZeroDivisionError("every point is a root of the zero polynomial")

    # -- gcd and squarefreeness ----------------------------------------------

    def monic(self) -> Poly:
        if self.is_zero():
            return self
        lead = self.leading()
        return Poly([c / lead for c in self.coeffs])

    def gcd(self, other: Poly) -> Poly:
        """Monic gcd (zero only when both are zero), by the primitive
        remainder sequence of the cleared integer numerators (G. E.
        Collins, "Subresultants and reduced polynomial remainder
        sequences", J. ACM 14, 1967): each pseudo-remainder is divided by
        its content, so no Fraction is built until the monic result."""
        if self.is_zero() or other.is_zero():
            return (other if self.is_zero() else self).monic()
        a, b = self.integer_coeffs()[0], other.integer_coeffs()[0]
        if len(a) < len(b):
            a, b = b, a
        a, b = _primitive(a), _primitive(b)
        while len(b) > 1:
            a, b = b, _primitive(_pseudo_divmod(a, b)[1])
        if b:  # a nonzero constant remainder: the gcd is 1
            return Poly.one()
        lead = a[-1]
        return Poly([Fraction(c, lead) for c in a])

    def is_squarefree(self) -> bool:
        if self.is_zero():
            return False
        return self.gcd(self.derivative()).degree == 0

    def integer_coeffs(self) -> tuple[list[int], int]:
        """The coefficients times the lcm of their denominators, and that
        lcm (1 for the zero polynomial)."""
        den = math.lcm(*(c.denominator for c in self.coeffs))
        return [c.numerator * (den // c.denominator) for c in self.coeffs], den

    @property
    def coeff_bits(self) -> int:
        """Largest bit length among the integer coefficients."""
        return max((abs(c).bit_length() for c in self.integer_coeffs()[0]),
                   default=0)

    def rational_roots(self) -> list[tuple[Fraction, int]]:
        """All rational roots with multiplicities, sorted.

        Classical p/q search over divisors of the (integerized) constant and
        leading coefficients; complete for rational roots.  Its time grows
        like the product of the two divisor counts, so a polynomial above
        ROOT_SEARCH_MAX_BITS raises ValueError instead of searching.
        """
        if self.is_zero():
            raise ZeroDivisionError("zero polynomial")
        if self.coeff_bits > ROOT_SEARCH_MAX_BITS:
            raise ValueError(
                f"coefficients above {ROOT_SEARCH_MAX_BITS} bits are outside "
                "the rational-root search")
        p = self
        shift0 = 0
        while p[0] == 0 and p.degree > 0:
            p = Poly(p.coeffs[1:])
            shift0 += 1
        roots: list[tuple[Fraction, int]] = []
        if shift0:
            roots.append((Fraction(0), shift0))
        if p.degree > 0:
            ints, _ = p.integer_coeffs()
            a0, an = ints[0], ints[-1]
            seen = set()
            for pn in _divisors(abs(a0)):
                for qn in _divisors(abs(an)):
                    for cand in (Fraction(pn, qn), Fraction(-pn, qn)):
                        if cand in seen:
                            continue
                        seen.add(cand)
                        if p(cand) == 0:
                            roots.append((cand, p.root_multiplicity(cand)))
        roots.sort(key=lambda t: t[0])
        return roots

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x" if c != 1 else "x")
            else:
                parts.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return "Poly(" + " + ".join(parts) + ")"


def _taylor_passes(a: list[int], u: int, v: int) -> Iterator[int]:
    """Integer Taylor shift of sum a[i] x^i at x0 = u/v, in place on a.

    Each a[i] is first scaled by v^(deg - i); then pass k of the Horner
    (synthetic division) scheme finishes t_k, which is yielded at once, and
    sum a[i] (x0 + z)^i = sum_k t_k v^k z^k / v^deg.  A consumer that stops
    reading after k terms runs only k passes.
    """
    deg = len(a) - 1
    if v != 1:
        vp = v
        for i in range(deg - 1, -1, -1):
            a[i] *= vp
            vp *= v
    for k in range(deg):
        for j in range(deg - 1, k - 1, -1):
            a[j] += u * a[j + 1]
        yield a[k]
    if deg >= 0:
        yield a[deg]


def _pseudo_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int], int]:
    """Integer pseudo-division of trimmed coefficient lists, b nonzero:
    (q, r, s) with s * a = q * b + r, deg r < deg b, r trimmed.

    Each step cancels the leading term of r after scaling r (and the
    quotient so far) by lc(b) / gcd(lc(b), lead r) only, so s is 1 when
    every leading coefficient met is a multiple of lc(b).
    """
    r = list(a)
    db = len(b) - 1
    lc = b[-1]
    q = [0] * max(len(a) - db, 0)
    s = 1
    for k in range(len(a) - 1 - db, -1, -1):
        c = r.pop()
        if not c:
            continue
        g = math.gcd(c, lc)
        f, c = lc // g, c // g
        if f != 1:
            r = [f * x for x in r]
            q = [f * x for x in q]
            s *= f
        q[k] = c
        for j in range(db):
            r[k + j] -= c * b[j]
    while r and not r[-1]:
        r.pop()
    return q, r, s


def _primitive(a: list[int]) -> list[int]:
    """a divided by the gcd of its entries (the content)."""
    content = math.gcd(*a)
    return [x // content for x in a] if content > 1 else a


def _divisors(n: int) -> list[int]:
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)
