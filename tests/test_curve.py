"""Curve model, divisors, Riemann-Roch spaces, jets, valuations."""

from __future__ import annotations

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from linalg_helpers import poly_coeffs
from secantflow import (
    INF,
    CurveFunction,
    CurvePoint,
    Divisor,
    Poly,
    h1_dim,
    jet,
    make_curve,
    riemann_roch_space,
    standard_curve,
    valuation,
    vanishing_order,
)
from secantflow.curve import _within_bound
from secantflow.errors import (
    EvenDegreeError,
    GenusTooSmallError,
    NonSquarefreeError,
    PoleAtPointError,
    UnsupportedSupportError,
    WeierstrassPointError,
    ZeroSectionError,
)


@pytest.fixture(scope="module")
def g2():
    return make_curve([4, 4, 0, 0, 0, 1])  # y^2 = x^5 + 4x + 4


@pytest.fixture(scope="module")
def g3():
    return make_curve([1, 1, 0, 0, 0, 0, 0, 1])  # y^2 = x^7 + x + 1


# -- construction -----------------------------------------------------------

def test_genus():
    assert make_curve([-1, 0, 0, 0, 0, 1]).genus == 2
    assert make_curve([1, 1, 0, 0, 0, 0, 0, 1]).genus == 3


def test_rejects_non_squarefree():
    # x^5 - 2x^3 + x = x (x^2-1)^2
    with pytest.raises(NonSquarefreeError):
        make_curve([0, 1, 0, -2, 0, 1])


def test_rejects_even_degree():
    with pytest.raises(EvenDegreeError):
        make_curve([1, 0, 0, 0, 0, 0, 1])


def test_rejects_small_genus():
    with pytest.raises(GenusTooSmallError):
        make_curve([1, 0, 0, 1])
    with pytest.raises(GenusTooSmallError):
        make_curve([2])


def test_point_validation(g2):
    p = g2.point(0, 2)
    assert p.x == 0 and p.y == 2
    with pytest.raises(UnsupportedSupportError):
        g2.point(0, 3)


def test_standard_curves():
    assert standard_curve(2).f == Poly([4, 4, 0, 0, 0, 1])
    assert standard_curve(3).f == Poly([1, 1, 0, 0, 0, 0, 0, 1])
    assert standard_curve(4).genus == 4


# -- divisors ---------------------------------------------------------------

def test_divisor_arithmetic(g2):
    p = g2.point(0, 2)
    q = g2.point(1, 3)
    D = Divisor({p: 2, q: -1, INF: 3})
    assert D.degree == 4
    assert not D.is_effective()
    assert (D + Divisor({q: 1})).coeff(q) == 0
    assert (-D).degree == -4
    assert (2 * D).coeff(p) == 4
    assert D.coeff(CurvePoint.affine(5, 5)) == 0


def test_divisor_canonical_form(g2):
    p = g2.point(0, 2)
    assert Divisor({p: 0}) == Divisor.zero()
    assert Divisor({p: 1, INF: 2}) == Divisor([(INF, 2), (p, 1)])
    assert hash(Divisor({p: 1})) == hash(Divisor([(p, 2), (p, -1)]))


@pytest.mark.parametrize("m", [Fraction(3, 2), Fraction(2), 1.9, 2.0, True,
                               "2"])
def test_divisor_multiplicities_and_scalars_are_ints(g2, m):
    p = g2.point(0, 2)
    with pytest.raises(TypeError):
        Divisor({p: m})
    with pytest.raises(TypeError):
        Divisor([(p, 1), (INF, m)])
    with pytest.raises(TypeError):
        Divisor({p: 2}) * m
    with pytest.raises(TypeError):
        m * Divisor({p: 2})
    with pytest.raises(TypeError):
        riemann_roch_space(g2, Divisor({INF: m}))


def test_divisor_gcd_lcm(g2):
    p, q = g2.point(0, 2), g2.point(1, 3)
    D1 = Divisor({p: 2, q: 1})
    D2 = Divisor({p: 1, INF: 1})
    assert D1.gcd(D2) == Divisor({p: 1})
    assert D1.gcd(D2) <= D1 and D1.gcd(D2) <= D2


# infinity, two conjugate pairs and a lone point; Divisor does not validate
ORACLE_POINTS = (INF, CurvePoint.affine(0, 2), CurvePoint.affine(0, -2),
                 CurvePoint.affine(1, 3), CurvePoint.affine(1, -3),
                 CurvePoint.affine(Fraction(-1, 2), Fraction(3, 4)))
divisor_terms = st.lists(st.tuples(st.sampled_from(ORACLE_POINTS),
                                   st.integers(-3, 3)), max_size=8)


def _reference(terms) -> dict:
    out: dict = {}
    for p, m in terms:
        out[p] = out.get(p, 0) + m
    return {p: m for p, m in out.items() if m}


def _agrees(D: Divisor, ref: dict) -> None:
    assert D.items() == tuple(sorted(ref.items(),
                                     key=lambda t: t[0].sort_key()))
    assert [D.coeff(p) for p in ORACLE_POINTS] == [
        ref.get(p, 0) for p in ORACLE_POINTS]
    assert D.degree == sum(ref.values())
    assert D.is_zero() == (not ref)
    assert D.is_effective() == all(m > 0 for m in ref.values())


@given(divisor_terms, divisor_terms, st.integers(-3, 3))
@settings(max_examples=150, deadline=None)
def test_divisor_matches_dict_reference(a, b, k):
    D, E = Divisor(a), Divisor(b)
    ref_d, ref_e = _reference(a), _reference(b)
    both = ref_d.keys() | ref_e.keys()
    _agrees(D, ref_d)
    _agrees(E, ref_e)
    _agrees(D + E, _reference([*ref_d.items(), *ref_e.items()]))
    _agrees(D - E, _reference([*ref_d.items(),
                               *((p, -m) for p, m in ref_e.items())]))
    _agrees(-D, {p: -m for p, m in ref_d.items()})
    _agrees(k * D, _reference((p, k * m) for p, m in ref_d.items()))
    _agrees(D * k, _reference((p, k * m) for p, m in ref_d.items()))
    _agrees(D.gcd(E), _reference(
        (p, min(ref_d.get(p, 0), ref_e.get(p, 0))) for p in both))
    assert (D <= E) == all(ref_d.get(p, 0) <= ref_e.get(p, 0) for p in both)
    assert (D == E) == (ref_d == ref_e)
    # the same divisor reached along other paths hashes the same
    for other in (Divisor(ref_d), Divisor(reversed(a)), (D + E) - E,
                  (D - E) + E, -(-D), D + Divisor.zero(), D.gcd(D),
                  (2 * D) - D):
        assert other == D and hash(other) == hash(D)
    assert hash(D + E) == hash(E + D)


# -- Riemann-Roch spaces ----------------------------------------------------

def test_rr_zero_divisor(g2):
    S = riemann_roch_space(g2, Divisor.zero())
    assert S.dim == 1
    assert S.basis[0] == CurveFunction.one(g2)


def test_rr_five_infinity(g2):
    S = riemann_roch_space(g2, Divisor({INF: 5}))
    assert S.dim == 4
    mono = {(h.a, h.b) for h in S.basis}
    x = Poly.x()
    assert mono == {(Poly.one(), Poly.zero()), (x, Poly.zero()),
                    (x * x, Poly.zero()), (Poly.zero(), Poly.one())}


def test_rr_canonical(g2):
    S = riemann_roch_space(g2, g2.canonical_divisor())
    assert S.dim == 2
    assert {(h.a, h.b) for h in S.basis} == {
        (Poly.one(), Poly.zero()), (Poly.x(), Poly.zero())}


def test_rr_large_degree_exact(g2, g3):
    for curve in (g2, g3):
        g = curve.genus
        for n in range(2 * g - 1, 2 * g + 6):
            S = riemann_roch_space(curve, Divisor({INF: n}))
            assert S.dim == n - g + 1


def test_rr_rejects_weierstrass_support(g2):
    # find a rational Weierstrass point: x^5+4x+4 has root? use y=0 directly
    # no rational root here, so fabricate via UnsupportedSupport on a
    # non-curve point and a y=0 point on y^2 = x^5 - x (x=0 works)
    c = make_curve([0, -1, 0, 0, 0, 1])
    w = CurvePoint.affine(0, 0)
    with pytest.raises(UnsupportedSupportError):
        riemann_roch_space(c, Divisor({w: 1}))


def test_h1_examples(g2):
    assert h1_dim(g2, Divisor.zero()) == 2
    assert h1_dim(g2, Divisor({INF: -1})) == 2
    assert h1_dim(g2, Divisor({INF: -3})) == 4


def test_h1_vanishes_above_canonical(g2):
    for n in range(3, 9):
        assert h1_dim(g2, Divisor({INF: n})) == 0


def test_rr_identity_mixed_support(g2):
    g = g2.genus
    K = g2.canonical_divisor()
    p1 = g2.point(0, 2)
    p2 = g2.point(1, 3)
    checked = 0
    for n in range(-4, 6):
        for a in range(-2, 3):
            for b in range(-1, 3):
                D = Divisor({INF: n, p1: a, p2: b})
                h0 = riemann_roch_space(g2, D).dim
                h1 = riemann_roch_space(g2, K - D).dim
                assert h0 - h1 == D.degree - g + 1
                if D.degree < 0:
                    assert h0 == 0
                checked += 1
    assert checked == 200


def test_rr_conjugate_pair_support(g3):
    p = g3.point(0, 1)
    pc = p.conjugate()
    D = Divisor({p: 2, pc: 1, INF: 1})
    S = riemann_roch_space(g3, D)
    assert S.dim == max(D.degree - g3.genus + 1, 0) + h1_dim(g3, D)
    # every basis element really lies in L(D)
    for h in S.basis:
        for pt in (p, pc, INF):
            assert valuation(g3, h, pt) + D.coeff(pt) >= 0


def test_rr_class_invariance(g2):
    # h0 is invariant under D -> D + div(x - c) for c the x-coordinate of a
    # rational point: div(x-c) = p + conj(p) - 2*inf
    for c, yc in ((0, 2), (1, 3)):
        p = g2.point(c, yc)
        principal = Divisor({p: 1, p.conjugate(): 1, INF: -2})
        for n in range(0, 6):
            D = Divisor({INF: n})
            assert (riemann_roch_space(g2, D).dim
                    == riemann_roch_space(g2, D + principal).dim)


# -- jets and orders --------------------------------------------------------

def test_y_series_order_zero_and_negative():
    curve = make_curve([1, -1, 0, 0, 0, 1])  # y^2 = x^5 - x + 1
    assert curve.y_series(0, 1, 0) == []
    assert curve.y_series(0, 1, 3) == [1, Fraction(-1, 2), Fraction(-1, 8)]
    with pytest.raises(ValueError, match="n = -1"):
        curve.y_series(0, 1, -1)


def test_jet_constant(g2):
    p = g2.point(0, 2)
    j = jet(g2, CurveFunction.one(g2), p, 2)
    assert j.values == (1, 0, 0)
    assert j.order == 2 and len(j.values) == 3


def test_jet_x(g2):
    p = g2.point(0, 2)
    assert jet(g2, CurveFunction.x(g2), p, 1).values == (0, 1)


def test_jet_y_matches_implicit_differentiation(g2):
    p = g2.point(0, 2)
    assert jet(g2, CurveFunction.y(g2), p, 1).values == (2, 1)


def test_jet_y_higher_orders_sympy_oracle(g2, g3):
    # expand y = sqrt(f(x0+z)) with sympy and compare through order 5
    for curve, (x0, y0) in ((g2, (0, 2)), (g2, (1, 3)), (g3, (0, 1))):
        z = sympy.Symbol("z")
        f = sum(int(c) * (x0 + z) ** i
                for i, c in enumerate(poly_coeffs(curve.f)))
        ser = sympy.series(sympy.sqrt(f), z, 0, 6).removeO().expand()
        expected = tuple(
            Fraction(*sympy.Rational(ser.coeff(z, k)).as_numer_denom())
            for k in range(6))
        got = jet(curve, CurveFunction.y(curve), curve.point(x0, y0), 5).values
        assert got == expected


def test_jet_linearity(g2):
    p = g2.point(1, 3)
    x = CurveFunction.x(g2)
    y = CurveFunction.y(g2)
    s = x * Fraction(3, 2) + y * Fraction(-1, 5)
    js = jet(g2, s, p, 4).values
    jx = jet(g2, x, p, 4).values
    jy = jet(g2, y, p, 4).values
    assert js == tuple(Fraction(3, 2) * a - Fraction(1, 5) * b
                       for a, b in zip(jx, jy))


def test_function_canonical_form(g2):
    # (x^2 - x)/(2x - 2) = x/2: the common factor x - 1 is divided out and
    # the denominator made monic, so equal functions are equal values
    h = CurveFunction(g2, Poly([0, -1, 1]), Poly.zero(), Poly([-2, 2]))
    assert (h.a, h.b, h.den) == (Poly([0, Fraction(1, 2)]), Poly.zero(),
                                 Poly.one())
    half_x = CurveFunction.x(g2) * Fraction(1, 2)
    assert h == half_x and hash(h) == hash(half_x)


def test_jet_of_rational_function_with_cancellation(g2):
    # (x * (x-1)) / (x-1) = x as a function; jet at (1,3) must see through
    # the removable factor
    num = CurveFunction(g2, Poly([0, -1, 1]), Poly.zero(), Poly([-1, 1]))
    p = g2.point(1, 3)
    assert jet(g2, num, p, 2).values == (1, 1, 0)


def test_jet_pole_detected(g2):
    h = CurveFunction(g2, Poly.one(), Poly.zero(), Poly([-1, 1]))  # 1/(x-1)
    with pytest.raises(PoleAtPointError):
        jet(g2, h, g2.point(1, 3), 1)


def test_jet_removable_singularity(g2):
    # (y - 2)/x: y - 2 vanishes to order 1 at (0, 2), so the quotient is
    # regular there with y's jet shifted down; at (0, -2) it has a pole
    h = CurveFunction(g2, Poly([-2]), Poly.one(), Poly([0, 1]))
    y = jet(g2, CurveFunction.y(g2), g2.point(0, 2), 4).values
    assert jet(g2, h, g2.point(0, 2), 3).values == y[1:]
    with pytest.raises(PoleAtPointError):
        jet(g2, h, g2.point(0, -2), 3)


def test_jet_weierstrass_refused(g2):
    c = make_curve([0, -1, 0, 0, 0, 1])
    with pytest.raises(WeierstrassPointError):
        jet(c, CurveFunction.x(c), CurvePoint.affine(0, 0), 1)
    with pytest.raises(WeierstrassPointError):
        jet(g2, CurveFunction.x(g2), INF, 1)


def test_vanishing_order_examples(g2):
    p = g2.point(0, 2)
    x = CurveFunction.x(g2)
    assert vanishing_order(g2, x, p) == 1
    assert vanishing_order(g2, x * x, p) == 2
    h = CurveFunction(g2, Poly([1, 2]), Poly.one())  # 1 + 2x + y, nonzero at p
    cube = x * x * x * h
    assert vanishing_order(g2, cube, p) == 3


def test_vanishing_order_of_y_at_conjugate_points(g2):
    y = CurveFunction.y(g2)
    p = g2.point(0, 2)
    assert vanishing_order(g2, y, p) == 0
    assert vanishing_order(g2, y, p.conjugate()) == 0
    # y - 2 vanishes at (0,2) but not at (0,-2)
    s = y - CurveFunction.one(g2) * 2
    assert vanishing_order(g2, s, p) >= 1
    assert vanishing_order(g2, s, p.conjugate()) == 0


def test_zero_section_rejected(g2):
    with pytest.raises(ZeroSectionError):
        vanishing_order(g2, CurveFunction.zero(g2), g2.point(0, 2))


def test_valuation_at_infinity(g2):
    x = CurveFunction.x(g2)
    y = CurveFunction.y(g2)
    assert valuation(g2, x, INF) == -2
    assert valuation(g2, y, INF) == -5
    assert valuation(g2, x * x * y, INF) == -9
    assert valuation(g2, CurveFunction(g2, Poly.one(), Poly.zero(),
                                       Poly([0, 1])), INF) == 2


def _sympy_valuation(curve, h, x0: Fraction, y0: Fraction) -> int:
    """ord of h = (a + b y)/q at (x0, y0) from sympy alone: the first
    nonzero term of a(x0+z) + b(x0+z) y0 sqrt(f(x0+z)/y0^2), less the
    multiplicity of x0 as a root of q.  The norm a^2 - b^2 f bounds the
    numerator's order, so the series is expanded one term past it."""
    x, z = sympy.symbols("x z")
    X0 = sympy.Rational(x0.numerator, x0.denominator)
    Y0 = sympy.Rational(y0.numerator, y0.denominator)

    def expr(p):
        return sum((sympy.Rational(c.numerator, c.denominator) * x ** i
                    for i, c in enumerate(poly_coeffs(p))), sympy.Integer(0))

    def order(e):
        q, m = sympy.Poly(e, x), 0
        while q.eval(X0) == 0:
            q, m = sympy.div(q, sympy.Poly(x - X0, x))[0], m + 1
        return m

    a, b, f = expr(h.a), expr(h.b), expr(curve.f)
    n = order(sympy.expand(a ** 2 - b ** 2 * f)) + 1
    a, b, f = (e.subs(x, X0 + z) for e in (a, b, f))
    ser = sympy.expand(sympy.series(a + b * Y0 * sympy.sqrt(f / Y0 ** 2),
                                    z, 0, n).removeO())
    v_num = next(k for k in range(n) if ser.coeff(z, k) != 0)
    return v_num - order(expr(h.den))


# (f, x0, y0) on g2 and g3; (9/4, 269/32) exercises x0 = u/v with v > 1
VALUATION_POINTS = [((4, 4, 0, 0, 0, 1), 0, 2), ((4, 4, 0, 0, 0, 1), 1, 3),
                    ((4, 4, 0, 0, 0, 1), Fraction(9, 4), Fraction(269, 32)),
                    ((1, 1, 0, 0, 0, 0, 0, 1), 0, 1)]
small_polys = st.lists(st.fractions(-3, 3, max_denominator=4),
                       max_size=3).map(Poly)


@given(st.sampled_from(VALUATION_POINTS), small_polys, small_polys,
       small_polys, st.integers(0, 2), st.integers(1, 3), st.integers(0, 2),
       st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_valuation_matches_sympy_series(where, a0, b0, q0, i, m, j, k):
    """Random (a + b y)/q with planted zeros (x - x0)^i (y - t)^j, t the
    Taylor polynomial of y at p of degree m - 1, and a planted pole
    (x - x0)^-k: valuation at p and at its conjugate against sympy."""
    if (a0.is_zero() and b0.is_zero()) or q0.is_zero():
        return
    f, x0, y0 = where
    curve = make_curve(f)
    p = curve.point(x0, y0)
    lin = Poly.linear_root(p.x)
    t = Poly.zero()
    for c in reversed(curve.y_series(p.x, p.y, m)):
        t = t * lin + c
    num = CurveFunction(curve, a0 * lin ** i, b0 * lin ** i)
    for _ in range(j):
        num = num * CurveFunction(curve, -t, Poly.one())
    h = CurveFunction(curve, num.a, num.b, lin ** k * q0)
    for pt in (p, p.conjugate()):
        assert valuation(curve, h, pt) == _sympy_valuation(curve, h, pt.x, pt.y)


@given(st.sampled_from(VALUATION_POINTS), small_polys, small_polys,
       small_polys, st.integers(0, 2), st.integers(0, 3),
       st.integers(-4, 4), st.booleans())
@settings(max_examples=80, deadline=None)
def test_order_threshold_matches_valuation(where, a0, b0, q0, i, k, m, conj):
    """The certificate's order threshold at a place equals
    valuation(h, p) + m >= 0 on random (h, m, p): a planted zero
    (x - x0)^i and pole (x - x0)^-k, m of either sign, so functions outside
    L(m p) take the reject path; infinity too."""
    if (a0.is_zero() and b0.is_zero()) or q0.is_zero():
        return
    f, x0, y0 = where
    curve = make_curve(f)
    p = curve.point(x0, y0)
    lin = Poly.linear_root(p.x)
    h = CurveFunction(curve, a0 * lin ** i, b0 * lin ** i, lin ** k * q0)
    for pt in (p.conjugate() if conj else p, INF):
        expected = valuation(curve, h, pt) + m >= 0
        assert _within_bound(curve, h, pt, m) is expected


def test_order_threshold_rejects_outside_the_space(g2):
    p = g2.point(0, 2)
    one, x = CurveFunction.one(g2), CurveFunction.x(g2)
    assert _within_bound(g2, one, p, 0)
    assert not _within_bound(g2, one, p, -1)
    assert _within_bound(g2, x, p, -1)          # x vanishes once at (0, 2)
    assert not _within_bound(g2, x, p, -2)
    assert not _within_bound(g2, one * x.inverse(), p, 0)
    assert _within_bound(g2, one * x.inverse(), p.conjugate(), 1)
    assert not _within_bound(g2, x, INF, 1)     # a pole of order 2


def test_function_field_relation(g2):
    y = CurveFunction.y(g2)
    fx = CurveFunction(g2, g2.f, Poly.zero())
    assert y * y == fx
    assert y * y.inverse() == CurveFunction.one(g2)


# -- hypothesis properties --------------------------------------------------

mults = st.integers(min_value=-2, max_value=3)


@given(st.integers(-5, 8), mults, mults, mults)
@settings(max_examples=60, deadline=None)
def test_rr_identity_property(n, a, b, c):
    curve = standard_curve(2)
    p1 = curve.point(0, 2)
    p2 = curve.point(1, 3)
    D = Divisor({INF: n, p1: a, p1.conjugate(): b, p2: c})
    K = curve.canonical_divisor()
    h0 = riemann_roch_space(curve, D).dim
    h1 = riemann_roch_space(curve, K - D).dim
    assert h0 - h1 == D.degree - curve.genus + 1


@given(st.integers(0, 4), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_rr_monotone_property(n, extra):
    curve = standard_curve(2)
    p = curve.point(1, 3)
    D = Divisor({INF: n})
    E = D + Divisor({p: extra})
    dims = (riemann_roch_space(curve, D).dim, riemann_roch_space(curve, E).dim)
    assert dims[0] <= dims[1] <= dims[0] + extra
