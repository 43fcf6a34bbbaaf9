"""The square-root lift of a truncated power series over the rationals.

A series truncated at order ``n`` is a plain list of ``n`` Fractions,
``[c0, c1, ..., c_{n-1}]`` standing for ``c0 + c1 z + ... + O(z^n)``.
:func:`sqrt_series` lifts a square root from an exact nonzero value at the
origin; it is what expands the y-coordinate of a hyperelliptic curve in the
local parameter z = x - x0 at a point with y0 != 0.  ``curve`` certifies
the lift in integers and builds every other expansion on it.
"""

from __future__ import annotations

from fractions import Fraction


def sqrt_series(a: list, y0, n: int) -> list[Fraction]:
    """The branch of sqrt(a) with value y0 at z = 0, to order n.

    Requires y0^2 == a[0] exactly and y0 != 0.  Each term comes from the
    z^k coefficient of y^2 = a: 2 y0 y_k = a_k - sum_(0<i<k) y_i y_(k-i).
    """
    y0 = Fraction(y0)
    if y0 == 0:
        raise ZeroDivisionError("square root lift needs a nonzero center value")
    if not a or a[0] != y0 * y0:
        raise ValueError("center value is not a square root of the constant term")
    y = [y0]
    two_y0 = 2 * y0
    for k in range(1, n):
        # the sum is symmetric in i and k - i: twice its lower half
        cross = 2 * sum(y[i] * y[k - i] for i in range(1, (k + 1) // 2))
        if k % 2 == 0:
            cross += y[k // 2] ** 2
        y.append(((a[k] if k < len(a) else 0) - cross) / two_y0)
    return y[:n]
