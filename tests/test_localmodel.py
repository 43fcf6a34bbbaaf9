"""Local gauge model: bump-function scalars, glued gauges, flow limits."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secantflow.errors import NegativeUExponentError, SmoothnessFailureError
from secantflow.localmodel import (
    ONE,
    ZERO,
    LocalMatrix,
    LocalScalar,
    conjugated_higgs,
    dbar_eta,
    eta,
    flow_limit,
    flow_scaled,
    gauge_factors,
    glued_gauge,
    higgs_matrix,
    limit_vanishing_order,
    multi_point_limit,
    phi,
    product_smoothness,
    trivialization_check,
    u_exponents,
    u_pow,
    z_pow,
)

small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def scalars(max_terms=4):
    term = st.tuples(
        small_fracs,
        st.integers(-3, 3),   # z
        st.integers(0, 2),    # eta
        st.integers(-2, 2),   # u
        st.integers(0, 2),    # phi
        st.integers(0, 1),    # w
    )
    return st.lists(term, min_size=0, max_size=max_terms).map(
        lambda ts: sum(
            (LocalScalar.term(c, z=a, eta=b, u=k, phi=p, w=e)
             for c, a, b, k, p, e in ts),
            ZERO))


# -- scalar arithmetic ------------------------------------------------------

def test_string_forms():
    assert str(z_pow(4) * phi()) == "z^4*phi"
    assert str(-(u_pow(2) * LocalScalar.const(Fraction(2, 3)))) == "-2/3*u^2"
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(eta()) == "eta"
    assert str(dbar_eta()) == "w"
    assert str(z_pow(-1) * (eta() - ONE)) == "-z^-1 + z^-1*eta"


def test_dbar_square_is_zero():
    assert (dbar_eta() * dbar_eta()).is_zero()
    s = (eta() + dbar_eta()) * (phi() + dbar_eta())
    assert s == eta() * phi() + eta() * dbar_eta() + phi() * dbar_eta()


def test_dbar_is_a_derivation_on_eta_powers():
    e2 = eta() * eta()
    assert str(e2.dbar()) == "2*eta*w"
    assert phi().dbar().is_zero()
    assert z_pow(5).dbar().is_zero()


def test_subs_eta_kills_the_distributional_term():
    s = eta() * eta() + dbar_eta()
    assert s.subs_eta(Fraction(1)) == 1
    assert s.subs_eta(Fraction(0)) == 0
    assert s.subs_eta(Fraction(1, 2)) == Fraction(1, 4)


def test_u_limit_keeps_constant_and_rejects_poles():
    s = phi() + u_pow(2) * eta()
    assert s.u_limit() == phi()
    with pytest.raises(NegativeUExponentError):
        u_pow(-1).u_limit()


def test_negative_eta_phi_w_exponents_rejected():
    with pytest.raises(ValueError):
        LocalScalar.term(Fraction(1), eta=-1)
    with pytest.raises(ValueError):
        LocalScalar.term(Fraction(1), phi=-2)
    with pytest.raises(ValueError):
        LocalScalar.term(Fraction(1), w=-1)


@given(scalars(), scalars(), scalars())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a - a == ZERO
    assert a * ONE == a


@given(scalars(), scalars())
@settings(max_examples=60, deadline=None)
def test_dbar_leibniz(a, b):
    assert (a * b).dbar() == a.dbar() * b + a * b.dbar()


@given(scalars())
@settings(max_examples=60, deadline=None)
def test_subs_eta_is_a_ring_map(a):
    for v in (Fraction(0), Fraction(1), Fraction(1, 3)):
        assert (a * a).subs_eta(v) == a.subs_eta(v) * a.subs_eta(v)


# -- matrices ---------------------------------------------------------------

def test_matrix_inverse_round_trip():
    mat = glued_gauge(2)
    ident = LocalMatrix.identity()
    assert mat * mat.inverse() == ident
    assert mat.inverse() * mat == ident


def test_matrix_inverse_requires_monomial_determinant():
    bad = LocalMatrix(((ONE + eta(), ZERO), (ZERO, ONE)))
    with pytest.raises(ValueError):
        bad.inverse()
    with pytest.raises(ValueError):
        LocalMatrix(((ZERO, ZERO), (ZERO, ZERO))).inverse()


def test_matrix_entry_access_and_shape():
    mat = LocalMatrix.diag(z_pow(1), z_pow(-1))
    assert mat[0, 0] == z_pow(1)
    assert mat[1, 1] == z_pow(-1)
    assert mat[0, 1].is_zero()
    with pytest.raises(ValueError):
        LocalMatrix(((ONE,),))


# -- glued gauge ------------------------------------------------------------

def test_gauge_factors_fixed_form():
    g1, g2 = gauge_factors(3)
    assert str(g1) == "[[1, -z^-3 + z^-3*eta], [0, z^-3]]"
    assert str(g2) == "[[z^3, 0], [1 - eta, 1]]"


def test_glued_gauge_fixed_form():
    prod = glued_gauge(3)
    assert str(prod) == "[[z^3, -1 + eta], [1 - eta, 2*z^-3*eta - z^-3*eta^2]]"
    assert prod.det() == ONE


@pytest.mark.parametrize("m", range(1, 7))
def test_product_smoothness_report(m):
    rep = product_smoothness(m)
    assert rep.det_is_one
    assert rep.slice_regular
    assert rep.ok
    assert rep.eta0_slice == LocalMatrix(
        ((z_pow(m), -ONE), (ONE, ZERO)))
    assert rep.eta1_slice == LocalMatrix.diag(z_pow(m), z_pow(-m))


def test_order_must_be_positive():
    for fn in (gauge_factors, glued_gauge, product_smoothness,
               conjugated_higgs, flow_limit, trivialization_check):
        with pytest.raises(ValueError):
            fn(0)


# -- conjugated Higgs field and flow limit ----------------------------------

def test_conjugated_higgs_fixed_form():
    out = conjugated_higgs(3)
    assert str(out) == ("[[-z^3*phi + z^3*eta*phi, z^6*phi], "
                        "[-phi + 2*eta*phi - eta^2*phi, "
                        "z^3*phi - z^3*eta*phi]]")
    assert out.trace().is_zero()
    assert (out * out).is_zero()


@pytest.mark.parametrize("m", range(1, 7))
def test_scaled_u_exponents(m):
    assert u_exponents(m) == [[2, 0], [4, 2]]


@pytest.mark.parametrize("m", range(1, 7))
def test_flow_limit_and_vanishing_order(m):
    limit = flow_limit(m)
    assert limit == LocalMatrix(((ZERO, z_pow(2 * m) * phi()),
                                 (ZERO, ZERO)))
    assert limit_vanishing_order(m) == 2 * m


def test_flow_limit_drops_only_positive_u_terms():
    scaled = flow_scaled(2)
    assert scaled[0, 1] == z_pow(4) * phi()     # the u^0 survivor


def test_multi_point_limit_orders():
    assert multi_point_limit([1, 2, 3]) == [2, 4, 6]
    assert multi_point_limit([]) == []


def test_section_symbol_is_linear():
    two_phi = phi() + phi()
    assert flow_limit(2, two_phi) == LocalMatrix(
        ((ZERO, z_pow(4) * (phi() + phi())), (ZERO, ZERO)))
    assert higgs_matrix(two_phi)[0, 1] == two_phi
    assert limit_vanishing_order(2, two_phi) == 4
    assert multi_point_limit([1, 2], two_phi) == [2, 4]


# -- trivialization ---------------------------------------------------------

@pytest.mark.parametrize("m", range(1, 7))
def test_trivialization_steps(m):
    rep = trivialization_check(m)
    assert rep.rescale_step_ok
    assert rep.bump_step_ok
    assert rep.ok


def test_wrong_sign_bump_leaves_residual():
    # the bump gauge must use eta - 1, not 1 - eta; the wrong sign leaves
    # a residual 2w in the upper corner instead of cancelling.
    g_wrong = LocalMatrix(((ONE, ONE - eta()), (ZERO, ONE)))
    a = LocalMatrix(((ZERO, dbar_eta()), (ZERO, ZERO)))
    res = (g_wrong * a * g_wrong.inverse()
           - g_wrong.dbar() * g_wrong.inverse())
    assert str(res) == "[[0, 2*w], [0, 0]]"

    g_right = LocalMatrix(((ONE, eta() - ONE), (ZERO, ONE)))
    res = (g_right * a * g_right.inverse()
           - g_right.dbar() * g_right.inverse())
    assert res.is_zero()


def test_smoothness_failure_is_detectable():
    # a hand-built report path: feeding a gauge with the wrong eta = 1
    # twist would trip the slice test; here we just confirm the error
    # type is raised when the section disappears from a limit.
    with pytest.raises(SmoothnessFailureError):
        _raise_lost_section()


def _raise_lost_section():
    # simulate via the public surface: a zero section symbol loses the
    # off-diagonal entry of the limit.
    limit_vanishing_order(1, ZERO)
