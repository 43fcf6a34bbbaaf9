"""Truncated power series over the rationals.

A series truncated at order ``n`` is a plain list of ``n`` Fractions,
``[c0, c1, ..., c_{n-1}]`` standing for ``c0 + c1 z + ... + O(z^n)``.  All
operations take and return lists of the requested length.  The one
interesting operation is :func:`sqrt_series`, a Newton/Hensel lift of a
square root from an exact nonzero value at the origin; it is what expands
the y-coordinate of a hyperelliptic curve in the local parameter z = x - x0
at a point with y0 != 0.
"""

from __future__ import annotations

from fractions import Fraction

from .polynomials import Poly

Series = list  # list[Fraction], truncated


def shifted_poly(p: Poly, x0, n: int) -> Series:
    """First n coefficients of p(x0 + z)."""
    shifted = p.shift(x0, n).coeffs
    return list(shifted) + [Fraction(0)] * (n - len(shifted))


def add(a: Series, b: Series) -> Series:
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return out


def mul(a: Series, b: Series, n: int) -> Series:
    out = [Fraction(0)] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[: n - i]):
                if y:
                    out[i + j] += x * y
    return out


def inverse(a: Series, n: int) -> Series:
    """Multiplicative inverse, requiring a[0] != 0."""
    if not a or a[0] == 0:
        raise ZeroDivisionError("series unit part vanishes")
    inv0 = Fraction(1) / a[0]
    out = [inv0] + [Fraction(0)] * (n - 1)
    for k in range(1, n):
        s = Fraction(0)
        for i in range(1, min(k, len(a) - 1) + 1):
            s += a[i] * out[k - i]
        out[k] = -inv0 * s
    return out


def sqrt_series(a: Series, y0, n: int) -> Series:
    """The branch of sqrt(a) with value y0 at z = 0, to order n.

    Requires y0^2 == a[0] exactly and y0 != 0.  Newton lifting
    y <- (y + a/y)/2 doubles the correct order each step, so the loop
    runs O(log n) times.
    """
    y0 = Fraction(y0)
    if y0 == 0:
        raise ZeroDivisionError("square root lift needs a nonzero center value")
    if not a or a[0] != y0 * y0:
        raise ValueError("center value is not a square root of the constant term")
    y = [y0]
    prec = 1
    while prec < n:
        prec = min(2 * prec, n)
        quot = mul(a[:prec] + [Fraction(0)] * max(0, prec - len(a)), inverse(y, prec), prec)
        y = [(yi + qi) / 2 for yi, qi in zip(y + [Fraction(0)] * prec, quot)][:prec]
    return y[:n] + [Fraction(0)] * max(0, n - len(y))


def valuation(a: Series) -> int | None:
    """Index of the first nonzero coefficient, or None for an all-zero
    truncation (which only bounds the valuation from below)."""
    for i, c in enumerate(a):
        if c:
            return i
    return None


def divide(num: Series, den: Series, n: int) -> Series:
    """num/den to order n when the quotient is regular at 0.

    The denominator may vanish at the origin as long as the numerator
    vanishes at least to the same order (removable singularity); raises
    ZeroDivisionError when the quotient genuinely has a pole, which callers
    translate into their own error type.  Both inputs must carry enough
    terms: len >= n + valuation(den).
    """
    v = valuation(den)
    if v is None:
        raise ZeroDivisionError("division by a series that is zero to its precision")
    vn = valuation(num)
    if vn is None:
        # numerator vanishes to its whole precision: quotient is 0 to order n
        # provided the precision really covers it
        if len(num) >= n + v:
            return [Fraction(0)] * n
        raise ZeroDivisionError("insufficient numerator precision")
    if vn < v:
        raise ZeroDivisionError("pole: numerator vanishes less than denominator")
    return mul(num[v:], inverse(den[v:], n), n)
