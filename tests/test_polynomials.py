"""Polynomial arithmetic against sympy as an independent oracle."""

from __future__ import annotations

import copy
import math
import pickle
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from linalg_helpers import poly_coeffs
from secantflow.curve import CurvePoint
from secantflow.localmodel import LocalMatrix, LocalScalar
from secantflow.polynomials import Poly

X = sympy.Symbol("x")


def to_sympy(p: Poly):
    return sympy.Poly.from_list(
        [sympy.Rational(c.numerator, c.denominator)
         for c in reversed(poly_coeffs(p))] or [0],
        X, domain=sympy.QQ)


small_fracs = st.fractions(
    min_value=-5, max_value=5, max_denominator=6)
polys = st.lists(small_fracs, min_size=0, max_size=7).map(Poly)
centers = st.fractions(min_value=-4, max_value=4, max_denominator=7)
# denominators up to 10^6 for the integer product's lcm bookkeeping
wide_fracs = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                          max_denominator=10 ** 6)
wide_polys = st.lists(wide_fracs, min_size=0, max_size=6).map(Poly)


def sympy_coeffs(p) -> list[Fraction]:
    """Coefficients of a sympy polynomial, low to high, as Fractions."""
    return [Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())]


def test_trim_and_degree():
    assert Poly([1, 2, 0, 0]).degree == 1
    assert Poly([]).degree == -1
    assert Poly([0]).is_zero()
    assert Poly.monomial(3).degree == 3


def test_eval_horner():
    p = Poly([1, 0, 2])
    assert p(Fraction(1, 2)) == Fraction(3, 2)
    assert p(0) == 1


@given(polys | wide_polys, polys | wide_polys)
@settings(max_examples=150, deadline=None)
def test_mul_matches_sympy(p, q):
    r = p * q
    assert to_sympy(r) == to_sympy(p) * to_sympy(q)


@given(polys, polys)
@settings(max_examples=150, deadline=None)
def test_divmod_identity(p, q):
    if q.is_zero():
        with pytest.raises(ZeroDivisionError):
            divmod(p, q)
        return
    quo, rem = divmod(p, q)
    assert quo * q + rem == p
    assert rem.degree < q.degree or rem.is_zero()


@given(polys, polys)
@settings(max_examples=100, deadline=None)
def test_gcd_matches_sympy(p, q):
    if p.is_zero() and q.is_zero():
        return
    ours = to_sympy(p.gcd(q))
    theirs = sympy.Poly(sympy.gcd(to_sympy(p).as_expr(), to_sympy(q).as_expr()), X)
    # both monic (or constant) up to normalization
    assert ours.monic() == theirs.monic()


def _sympy_divmod(p: Poly, q: Poly):
    quo, rem = sympy.div(to_sympy(p), to_sympy(q))
    return Poly(sympy_coeffs(quo)), Poly(sympy_coeffs(rem))


def _sympy_gcd(p: Poly, q: Poly) -> Poly:
    g = sympy.gcd(to_sympy(p), to_sympy(q))
    return Poly(sympy_coeffs(g.monic() if not g.is_zero else g))


EDGE_POLYS = [Poly.zero(), Poly([3]), Poly([Fraction(-2, 7)]),
              Poly([Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3)]),
              Poly([0, 0, Fraction(-6, 5)]),
              Poly([-1, 0, Fraction(7, 2), Fraction(-7, 9)])]


@pytest.mark.parametrize("p", EDGE_POLYS)
@pytest.mark.parametrize("q", EDGE_POLYS)
def test_gcd_and_divmod_edge_cases_match_sympy(p, q):
    """Zero, constant and non-monic Fraction inputs, every ordered pair."""
    assert p.gcd(q) == _sympy_gcd(p, q)
    if q.is_zero():
        with pytest.raises(ZeroDivisionError):
            divmod(p, q)
    else:
        assert divmod(p, q) == _sympy_divmod(p, q)


@given(polys.filter(bool), polys | wide_polys, polys | wide_polys)
@settings(max_examples=120, deadline=None)
def test_gcd_and_divmod_with_planted_factor_match_sympy(c, p, q):
    """A common factor c planted in both arguments, so the remainder
    sequence runs past the first step; coefficients up to 10^6 in
    numerator and denominator."""
    cp, cq = c * p, c * q
    g = cp.gcd(cq)
    assert g == _sympy_gcd(cp, cq)
    assert g.is_zero() or poly_coeffs(g)[-1] == 1
    if not cq.is_zero():
        assert divmod(cp, cq) == _sympy_divmod(cp, cq)
    assert divmod(cp, c) == (p, Poly.zero())


@given(polys, small_fracs)
@settings(max_examples=100, deadline=None)
def test_shift_is_composition(p, x0):
    shifted = p.shift(x0)
    z = Fraction(3, 7)
    assert shifted(z) == p(x0 + z)


@given(polys, centers)
@settings(max_examples=150, deadline=None)
def test_shift_matches_sympy(p, x0):
    theirs = sympy_coeffs(to_sympy(p).shift(sympy.Rational(x0.numerator,
                                                           x0.denominator)))
    ours = poly_coeffs(p.shift(x0))
    assert ours == (theirs if any(theirs) else [])


@given(polys, centers)
@settings(max_examples=100, deadline=None)
def test_truncated_shift(p, x0):
    full = p.shift(x0)
    deg = max(p.degree, 0)
    for n in (0, 1, deg, deg + 1, deg + 3):
        assert p.shift(x0, n) == Poly(poly_coeffs(full)[:n])


int_polys = st.lists(st.integers(-9, 9), max_size=7).map(Poly)


@given(st.one_of(int_polys, polys), centers, st.data())
@settings(max_examples=200, deadline=None)
def test_shift_numerators_match_sympy(p, x0, data):
    """The raw core: min(n, deg + 1) integers over one positive integer,
    unreduced, equal as rationals to sympy's shift truncated mod z^n."""
    n = data.draw(st.none() | st.integers(0, max(p.degree, 0) + 2))
    T, S = p.shift_numerators(x0, n)
    assert type(S) is int and S > 0 and all(type(t) is int for t in T)
    theirs = sympy_coeffs(to_sympy(p).shift(sympy.Rational(x0.numerator,
                                                           x0.denominator)))
    want = theirs[:n] if not p.is_zero() else []
    assert [Fraction(t, S) for t in T] == want


@given(st.lists(small_fracs.filter(bool), min_size=1, max_size=3),
       centers, st.integers(0, 6))
@settings(max_examples=150, deadline=None)
def test_root_multiplicity_planted(cofactor_roots, x0, m):
    cofactor = Poly.one()
    for r in cofactor_roots:
        # roots x0 + r, never x0 itself
        cofactor = cofactor * Poly.linear_root(x0 + r)
    p = Poly.linear_root(x0) ** m * cofactor * Fraction(3, 7)
    assert p.root_multiplicity(x0) == m
    assert (p * p).root_multiplicity(x0) == 2 * m


def test_root_multiplicity():
    p = Poly.linear_root(2) ** 3 * Poly([1, 1])
    assert p.root_multiplicity(2) == 3
    assert p.root_multiplicity(-1) == 1
    assert p.root_multiplicity(5) == 0
    assert Poly([Fraction(1, 3)]).root_multiplicity(Fraction(1, 7)) == 0
    for x0 in (0, 2, Fraction(-5, 7)):
        with pytest.raises(ZeroDivisionError):
            Poly.zero().root_multiplicity(x0)


@pytest.mark.parametrize("coeffs, squarefree", [
    ([-1, 0, 0, 0, 0, 1], True),          # x^5 - 1
    ([0, 1, 0, -2, 0, 1], False),         # x(x^2-1)^2
    ([4, 4, 0, 0, 0, 1], True),           # x^5 + 4x + 4
    ([1, 1, 0, 0, 0, 0, 0, 1], True),     # x^7 + x + 1
])
def test_squarefree(coeffs, squarefree):
    assert Poly(coeffs).is_squarefree() is squarefree
    f = to_sympy(Poly(coeffs)).as_expr()
    oracle = sympy.degree(sympy.gcd(f, sympy.diff(f, X)), X) == 0
    assert oracle is squarefree


def test_rational_roots_complete():
    p = Poly.linear_root(Fraction(2, 3)) ** 2 * Poly.linear_root(-1) * Poly([1, 0, 1])
    roots = p.rational_roots()
    assert roots == [(Fraction(-1), 1), (Fraction(2, 3), 2)]


def test_rational_roots_zero_root():
    p = Poly.monomial(2) * Poly.linear_root(5)
    assert p.rational_roots() == [(Fraction(0), 2), (Fraction(5), 1)]


def test_rational_roots_refuses_wide_coefficients():
    edge = Poly([-(2 ** 20 - 1), 1])                 # 20 bits: searched
    assert edge.rational_roots() == [(Fraction(2 ** 20 - 1), 1)]
    assert Poly([1, Fraction(1, 2 ** 20)]).coeff_bits == 21
    with pytest.raises(ValueError):
        Poly([1, Fraction(1, 2 ** 20)]).rational_roots()


# -- the integer representation ---------------------------------------------

def assert_canonical(p: Poly) -> None:
    """Trimmed integer numerators over a positive denominator, in lowest
    terms."""
    nums, den = p.numerators, p.denominator
    assert type(den) is int and den > 0
    assert all(type(c) is int for c in nums)
    assert not nums or nums[-1] != 0
    assert math.gcd(den, *nums) == 1


scalars = small_fracs | st.integers(-20, 20)


def _rational(c) -> sympy.Rational:
    c = Fraction(c)
    return sympy.Rational(c.numerator, c.denominator)


@given(polys | wide_polys, polys | wide_polys, scalars)
@settings(max_examples=150, deadline=None)
def test_integer_arithmetic_matches_sympy(p, q, c):
    """+, -, negation, scalar products and sums, the derivative, monic and
    evaluation, each result in canonical integer form."""
    P, Q, C = to_sympy(p), to_sympy(q), _rational(c)
    cases = [(p + q, P + Q), (p - q, P - Q), (-p, -P), (p * c, P * C),
             (c * p, P * C), (p + c, P + C), (c - p, C - P),
             (p.derivative(), P.diff(X))]
    if not p.is_zero():
        cases.append((p.monic(), P.monic()))
    for ours, theirs in cases:
        assert_canonical(ours)
        assert to_sympy(ours) == sympy.Poly(theirs, X, domain=sympy.QQ)
    value = P.eval(C)
    assert p(c) == Fraction(int(value.p), int(value.q))
    assert p(Fraction(c)) == p(c)


@given(polys | wide_polys, st.integers(-30, 30).filter(bool))
@settings(max_examples=100, deadline=None)
def test_built_from_integers_or_fractions_alike(p, k):
    """The same polynomial from Fractions and from (scaled) integer
    numerators: equal, with the same hash, pickled and copied alike."""
    coeffs = poly_coeffs(p)
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) * k for c in coeffs]
    from_ints = Poly.from_numerators(ints, den * k)
    assert_canonical(p)
    assert_canonical(from_ints)
    assert from_ints == p and Poly(coeffs) == p
    assert hash(from_ints) == hash(p) == hash(("Poly", p.numerators,
                                               p.denominator))
    for other in (copy.copy(from_ints), copy.deepcopy(from_ints),
                  pickle.loads(pickle.dumps(from_ints))):
        assert_canonical(other)
        assert other == p and hash(other) == hash(p)


@pytest.mark.parametrize("p", [Poly([]), Poly([1, -2, 3]),
                               Poly([Fraction(1, 2), 0, Fraction(-5, 3)])])
def test_a_poly_is_only_its_integers(p):
    """No Fraction-valued second form: no coefficient view, no indexing or
    iteration, and one hash path over the integers at every denominator."""
    assert Poly.__slots__ == ("numerators", "denominator", "_hash")
    for name in ("coeffs", "_coeffs", "leading"):
        assert not hasattr(p, name)
    with pytest.raises(TypeError):
        iter(p)
    with pytest.raises(TypeError):
        p[0]
    assert hash(p) == hash(("Poly", p.numerators, p.denominator))


@pytest.mark.parametrize("c", [0.1, 0.5, 1.0, 0.0, "1/2", "0", True, False,
                               None])
def test_only_ints_and_fractions_are_scalars(c):
    for build in (lambda: Poly([c]), lambda: Poly([1, c, 1]),
                  lambda: Poly([1, c]), lambda: Poly([1]) * c,
                  lambda: Poly([1]) + c, lambda: Poly([1, 1])(c),
                  lambda: CurvePoint.affine(c, 1),
                  lambda: CurvePoint.affine(1, c),
                  lambda: LocalScalar.const(c),
                  lambda: LocalScalar.term(c, z=1),
                  lambda: LocalMatrix(((c, 0), (0, 1)))):
        with pytest.raises(TypeError):
            build()
    # comparing with a non-scalar answers, it does not raise
    assert (Poly([1]) == c) is False
    assert (LocalScalar.const(1) == c) is False


def test_integer_and_fraction_coefficients_compare_equal():
    ints = Poly([1, -2, 3])
    fracs = Poly([Fraction(1), Fraction(-2), Fraction(3)])
    assert ints == fracs and hash(ints) == hash(fracs)
    assert ints.denominator == fracs.denominator == 1
    half = Poly([Fraction(1, 2), Fraction(-1), Fraction(3, 2)])
    assert (half.numerators, half.denominator) == ((1, -2, 3), 2)
    assert half * 2 == ints and ints * Fraction(1, 2) == half
    assert Poly.from_numerators([2, -4, 6, 0], 4) == half
    assert Poly.from_numerators([-1, 2, -3], -2) == half
    assert Poly([0, 0]) == Poly.zero() == 0 and Poly([5]) == 5
    assert Poly.zero().denominator == 1
