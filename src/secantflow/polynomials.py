"""Dense univariate polynomials over the rationals.

A polynomial is held as cleared integers: a trimmed tuple of integer
numerators in increasing degree order and one positive denominator, in
lowest terms (the gcd of the numerators and the denominator is 1), so
equal polynomials have equal representations.  Every operation (+, -,
scalar and polynomial products, evaluation, the Taylor shift, root
multiplicity, division with remainder, the gcd) runs on those integers.
Nothing in here, or in any module built on top, touches floating point.

Those integers are the whole polynomial; Fractions appear only at the
edges (the constructor takes them, evaluation returns one).  Polynomials are
immutable and hashable, so they can key caches; each computes its hash once
and keeps it, with the same value as ``hash(("Poly", numerators,
denominator))``, which agrees with ``==`` because the form is canonical.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import islice

from .errors import Frozen

Scalar = int | Fraction

# rational_roots tests every p/q with p | a0 and q | an (after clearing
# denominators).  With both ends at 20 bits and highly composite (720720,
# 240 divisors) that is about 0.7 s for a quartic on CPython 3.11, 2-core
# x86 host; each further bit costs about 1.5x, so wider input is refused.
ROOT_SEARCH_MAX_BITS = 20


def _frac(c: Scalar) -> Fraction:
    """An int (not a bool) or a Fraction as a Fraction; else TypeError."""
    if isinstance(c, Fraction):
        return c
    if type(c) is not int:
        raise TypeError(f"a scalar must be an int or a Fraction, got {c!r}")
    return Fraction(c)


_new = object.__new__
_set = object.__setattr__


def _of(nums: list[int], den: int) -> Poly:
    """The polynomial sum nums[i] x^i / den, den nonzero: trimmed and put
    in lowest terms with a positive denominator."""
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        den = 1
    elif den != 1:
        if den < 0:
            nums, den = [-c for c in nums], -den
        g = math.gcd(den, *nums)
        if g != 1:
            nums, den = [c // g for c in nums], den // g
    return _raw(tuple(nums), den)


def _raw(nums: tuple[int, ...], den: int) -> Poly:
    """A Poly from numerators and a denominator already in canonical form."""
    p = _new(Poly)
    _set(p, "numerators", nums)
    _set(p, "denominator", den)
    _set(p, "_hash", None)
    return p


class Poly(Frozen):
    """A polynomial ``c0 + c1*x + ... + cn*x**n`` with exact coefficients.

    ``numerators`` and ``denominator`` are the canonical integer form:
    ``ci = numerators[i] / denominator``.

    >>> p = Poly([1, 0, 2])       # 1 + 2x^2
    >>> p(Fraction(1, 2))
    Fraction(3, 2)
    >>> (p * p).degree
    4
    """

    __slots__ = ("numerators", "denominator", "_hash")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = list(coeffs)
        den = 1
        if any(type(c) is not int for c in cs):
            # lcm clearing of reduced fractions leaves no common factor
            # between the numerators and den, so no gcd is needed
            cs = [_frac(c) for c in cs]
            den = math.lcm(*(c.denominator for c in cs))
            cs = [c.numerator * (den // c.denominator) for c in cs]
        while cs and not cs[-1]:
            cs.pop()
        _set(self, "numerators", tuple(cs))
        _set(self, "denominator", den)
        _set(self, "_hash", None)

    def __reduce__(self):
        # rebuilt from its integers, so the kept hash stays behind
        return _of, (list(self.numerators), self.denominator)

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
    def from_numerators(cls, nums: Iterable[int], den: int = 1) -> Poly:
        """sum nums[i] x^i / den, for integers nums and den != 0."""
        return _of(list(nums), den)

    @classmethod
    def linear_root(cls, x0: Scalar) -> Poly:
        """x - x0."""
        x0 = _frac(x0)
        return _raw((-x0.numerator, x0.denominator), x0.denominator)

    # -- basic queries -------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.numerators) - 1

    def is_zero(self) -> bool:
        return not self.numerators

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: Poly | Scalar) -> Poly:
        if not isinstance(other, Poly):
            other = Poly.constant(other)
        xs, xd = self.numerators, self.denominator
        ys, yd = other.numerators, other.denominator
        if xd != yd:
            den = xd * yd // math.gcd(xd, yd)
            fx, fy = den // xd, den // yd
            xs = [c * fx for c in xs] if fx != 1 else xs
            ys = [c * fy for c in ys] if fy != 1 else ys
        else:
            den = xd
        if len(xs) < len(ys):
            xs, ys = ys, xs
        out = list(xs)
        for i, c in enumerate(ys):
            out[i] += c
        return _of(out, den)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return _raw(tuple(-c for c in self.numerators), self.denominator)

    def __sub__(self, other: Poly | Scalar) -> Poly:
        if not isinstance(other, Poly):
            other = Poly.constant(other)
        return self + (-other)

    def __rsub__(self, other: Scalar) -> Poly:
        return Poly.constant(other) - self

    def __mul__(self, other: Poly | Scalar) -> Poly:
        if not isinstance(other, Poly):
            c = _frac(other)
            return _of([a * c.numerator for a in self.numerators],
                       self.denominator * c.denominator)
        xs, ys = self.numerators, other.numerators
        if not xs or not ys:
            return Poly.zero()
        out = [0] * (len(xs) + len(ys) - 1)
        for i, a in enumerate(xs):
            if a:
                for j, b in enumerate(ys):
                    out[i + j] += a * b
        return _of(out, self.denominator * other.denominator)

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
        numerators."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if len(self.numerators) < len(other.numerators):
            return Poly.zero(), self
        quo, rem, s = _pseudo_divmod(self.numerators, other.numerators)
        # s xs = quo ys + rem, so self = quo yden / (s xden) * other
        # + rem / (s xden)
        scale = s * self.denominator
        yden = other.denominator
        return (_of([c * yden for c in quo] if yden != 1 else quo, scale),
                _of(rem, scale))

    def __floordiv__(self, other: Poly) -> Poly:
        return divmod(self, other)[0]

    def __mod__(self, other: Poly) -> Poly:
        return divmod(self, other)[1]

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return (self.numerators == other.numerators
                    and self.denominator == other.denominator)
        if isinstance(other, Fraction) or type(other) is int:
            return self == Poly.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            _set(self, "_hash", hash(("Poly", self.numerators,
                                      self.denominator)))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self.numerators)

    # -- calculus and evaluation ---------------------------------------------

    def __call__(self, x0: Scalar) -> Fraction:
        """Evaluate by Horner's rule on the numerators: at x0 = u/v the
        value is sum c_i u^i v^(deg - i) / (den v^deg)."""
        if not self.numerators:
            return Fraction(0)
        x0 = _frac(x0)
        u, v = x0.numerator, x0.denominator
        acc, vk = 0, 1
        if v == 1:
            for c in reversed(self.numerators):
                acc = acc * u + c
        else:
            for c in reversed(self.numerators):
                acc = acc * u + c * vk
                vk *= v
            vk //= v  # v^deg
        return Fraction(acc, self.denominator * vk)

    def derivative(self) -> Poly:
        return _of([i * c for i, c in enumerate(self.numerators)][1:],
                   self.denominator)

    def shift_numerators(self, x0: Scalar,
                         n: int | None = None) -> tuple[list[int], int]:
        """The Taylor shift ``p(x0 + z)`` mod z^n as integers T over S > 0,
        p(x0 + z) = sum T_k z^k / S, read straight off the Horner passes:
        min(n, deg + 1) terms (all of them when n is None; only that many
        passes run), neither trimmed nor put in lowest terms; ``shift``
        is its canonical form."""
        nums = self.numerators
        if not nums:
            return [], 1
        x0 = _frac(x0)
        v = x0.denominator
        passes = islice(_taylor_passes(list(nums), x0.numerator, v), n)
        if v == 1:
            return list(passes), self.denominator
        out = []
        vk = 1
        for t in passes:
            out.append(t * vk)
            vk *= v
        return out, self.denominator * v ** self.degree

    def shift(self, x0: Scalar, n: int | None = None) -> Poly:
        """The polynomial ``p(x0 + z)`` as a polynomial in z (Taylor shift),
        truncated mod z^n when n is given."""
        return _of(*self.shift_numerators(x0, n))

    def root_multiplicity(self, x0: Scalar) -> int:
        """Multiplicity of x0 as a root (0 if not a root)."""
        x0 = _frac(x0)
        for k, t in enumerate(_taylor_passes(list(self.numerators),
                                             x0.numerator, x0.denominator)):
            if t:
                return k
        raise ZeroDivisionError("every point is a root of the zero polynomial")

    # -- gcd and squarefreeness ----------------------------------------------

    def monic(self) -> Poly:
        if self.is_zero():
            return self
        return _of(list(self.numerators), self.numerators[-1])

    def gcd(self, other: Poly) -> Poly:
        """Monic gcd (zero only when both are zero), by the primitive
        remainder sequence of the numerators (G. E. Collins, "Subresultants
        and reduced polynomial remainder sequences", J. ACM 14, 1967): each
        pseudo-remainder is divided by its content."""
        if self.is_zero() or other.is_zero():
            return (other if self.is_zero() else self).monic()
        a, b = self.numerators, other.numerators
        if len(a) < len(b):
            a, b = b, a
        a, b = _primitive(a), _primitive(b)
        while len(b) > 1:
            a, b = b, _primitive(_pseudo_divmod(a, b)[1])
        if b:  # a nonzero constant remainder: the gcd is 1
            return Poly.one()
        return _of(list(a), a[-1])

    def is_squarefree(self) -> bool:
        if self.is_zero():
            return False
        return self.gcd(self.derivative()).degree == 0

    @property
    def coeff_bits(self) -> int:
        """Largest bit length among the integer numerators."""
        return max((abs(c).bit_length() for c in self.numerators), default=0)

    def rational_roots(self) -> list[tuple[Fraction, int]]:
        """All rational roots with multiplicities, sorted.

        Classical p/q search over divisors of the constant and leading
        numerators; complete for rational roots.  Its time grows like the
        product of the two divisor counts, so a polynomial above
        ROOT_SEARCH_MAX_BITS raises ValueError instead of searching.
        """
        if self.is_zero():
            raise ZeroDivisionError("zero polynomial")
        if self.coeff_bits > ROOT_SEARCH_MAX_BITS:
            raise ValueError(
                f"coefficients above {ROOT_SEARCH_MAX_BITS} bits are outside "
                "the rational-root search")
        nums = self.numerators
        shift0 = next(i for i, c in enumerate(nums) if c)
        roots: list[tuple[Fraction, int]] = []
        if shift0:
            roots.append((Fraction(0), shift0))
        if len(nums) - shift0 > 1:
            p = _of(list(nums[shift0:]), self.denominator)
            a0, an = p.numerators[0], p.numerators[-1]
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
        den = self.denominator
        for i, c in enumerate(Fraction(n, den) for n in self.numerators):
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
