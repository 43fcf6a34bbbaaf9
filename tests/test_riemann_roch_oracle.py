"""Riemann-Roch bases against a reference built on rational rows.

``riemann_roch_space`` builds its jet-condition rows over the integers and
reads the kernel with ``linalg.integer_kernel``.  The reference below builds
the same conditions cell by cell as Fractions, C(i, t) x0^(i - t) for a and
sum_s C(j, s) x0^(j - s) y_(t - s) for b, and takes the kernel through the
Fraction view ``nullspace``.  The two bases must be equal element by element.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from linalg_helpers import nullspace, poly_coeffs
from secantflow import (INF, CurveFunction, Divisor, Poly, h1_dim, make_curve,
                        riemann_roch_space)
from secantflow.curve import _y_series_cached


def reference_basis(curve, D: Divisor) -> tuple[CurveFunction, ...]:
    w = curve.f.degree
    fibres: dict = {}
    for p, m in D.affine_items():
        fibres.setdefault(p.x, {})[p.y] = m
    q = Poly.one()
    conditions = []
    for x0, ys in sorted(fibres.items()):
        e0 = max(max(ys.values()), 0)
        q = q * Poly.linear_root(x0) ** e0
        y_ref = next(iter(ys))
        for y0 in (y_ref, -y_ref):
            r = e0 - ys.get(y0, 0)
            if r > 0:
                conditions.append((x0, y0, r))
    top = D.inf_coeff + 2 * q.degree
    na = top // 2 + 1 if top >= 0 else 0
    nb = (top - w) // 2 + 1 if top - w >= 0 else 0
    if na + nb == 0:
        return ()
    rows = []
    for x0, y0, r in conditions:
        ys = curve.y_series(x0, y0, r)
        for t in range(r):
            row = [Fraction(math.comb(i, t)) * x0 ** (i - t) if t <= i
                   else Fraction(0) for i in range(na)]
            for j in range(nb):
                row.append(sum((Fraction(math.comb(j, s)) * x0 ** (j - s)
                                * ys[t - s] for s in range(min(j, t) + 1)),
                               Fraction(0)))
            rows.append(row)
    return tuple(CurveFunction(curve, Poly(v[:na]), Poly(v[na:]), q)
                 for v in nullspace(rows, cols=na + nb))


# y^2 = x^5 - 4x + 1: rational points over x = 1/4 (y = 1/32), 0, -1, 2
G2 = make_curve([1, -4, 0, 0, 0, 1])
G2_POINTS = [G2.point(x, s * y) for x, y in ((Fraction(1, 4), Fraction(1, 32)),
                                             (0, 1), (-1, 2), (2, 5))
             for s in (1, -1)]
# y^2 = 1 + x (x^2 - 1)(x^2 - 4)(x^2 - 9): points (x, +-1), x = 0, +-1, +-2, +-3
G3 = make_curve([1, -36, 0, 49, 0, -14, 0, 1])
G3_POINTS = [G3.point(x, s) for x in (0, 1, -1, 2, -2, 3, -3) for s in (1, -1)]
CURVES = {"genus 2": (G2, G2_POINTS), "genus 3": (G3, G3_POINTS)}


def assert_matches_reference(curve, D: Divisor) -> None:
    space = riemann_roch_space(curve, D)
    ref = reference_basis(curve, D)
    assert space.basis == ref, D
    assert [repr(h) for h in space.basis] == [repr(h) for h in ref]
    K_minus_D = curve.canonical_divisor() - D
    assert riemann_roch_space(curve, K_minus_D).basis == reference_basis(
        curve, K_minus_D)


@st.composite
def divisors(draw):
    name = draw(st.sampled_from(sorted(CURVES)))
    curve, points = CURVES[name]
    support = draw(st.lists(st.sampled_from(points), min_size=1, max_size=3,
                            unique=True))
    mults = draw(st.lists(st.integers(-3, 3).filter(bool),
                          min_size=len(support), max_size=len(support)))
    D = Divisor(dict(zip(support, mults)))
    return curve, D + Divisor({INF: draw(st.integers(-6, 10))})


@given(divisors())
@settings(max_examples=80, deadline=None)
def test_basis_matches_fraction_rows(case):
    """Random supports of one to three points with multiplicities -3..3,
    so negative, non-reduced and conjugate-pair divisors all occur."""
    assert_matches_reference(*case)


P14, P14_BAR = G2_POINTS[0], G2_POINTS[1]  # x0 = 1/4: rows scaled by 4^k


@pytest.mark.parametrize("curve, D", [
    (G2, Divisor({P14: 3, INF: 2})),                   # x0 = 1/4
    (G2, Divisor({P14: 2, P14_BAR: -1, INF: 4})),      # conjugate pair at 1/4
    (G2, Divisor({P14_BAR: -2, G2_POINTS[2]: 2, INF: 7})),
    (G2, Divisor({P14: 8})),                           # non-reduced, deep
    (G2, Divisor({P14: -3, INF: 9})),                  # negative only
    (G3, Divisor({G3_POINTS[2]: 2, G3_POINTS[3]: 2, INF: -1})),  # pair
    (G3, Divisor({G3_POINTS[4]: -2, G3_POINTS[8]: 3, INF: 3})),
    (G3, Divisor({G3_POINTS[0]: 6, G3_POINTS[13]: -1})),
], ids=["x0=1/4", "pair at 1/4", "mixed", "8 at 1/4", "negative",
        "g3 pair", "g3 mixed", "g3 deep"])
def test_named_divisors_match_fraction_rows(curve, D):
    assert_matches_reference(curve, D)
    assert (riemann_roch_space(curve, D).dim - h1_dim(curve, D)
            == D.degree - curve.genus + 1)


@pytest.mark.parametrize("p", [P14, P14_BAR, G3_POINTS[5]])
def test_integer_y_series_is_the_fraction_one(p):
    curve = G2 if p in G2_POINTS else G3
    Y, E = _y_series_cached(curve, p, 9)
    assert E > 0 and math.gcd(E, *Y) == 1
    assert [Fraction(c, E) for c in Y] == curve.y_series(p.x, p.y, 9)
    # against sympy: y0 sqrt(f(x0 + z) / y0^2), the branch through y0
    z = sympy.Symbol("z")
    x0, y0 = (sympy.Rational(c.numerator, c.denominator) for c in (p.x, p.y))
    f = sum(sympy.Rational(c.numerator, c.denominator) * (x0 + z) ** i
            for i, c in enumerate(poly_coeffs(curve.f)))
    ser = sympy.series(y0 * sympy.sqrt(f / y0 ** 2), z, 0, 9).removeO()
    assert [Fraction(c, E) for c in Y] == [
        Fraction(int(c.p), int(c.q)) for c in (ser.coeff(z, k) for k in range(9))]
