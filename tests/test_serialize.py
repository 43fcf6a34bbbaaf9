"""JSON wire formats: round trips and rejection diagnostics."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secantflow import INF, CurveFunction, Divisor, Poly, make_curve
from secantflow import serialize as ser
from secantflow.errors import MalformedInputError
from secantflow.localmodel import ZERO, phi, z_pow


@pytest.fixture(scope="module")
def curve():
    return make_curve([1, -1, 0, 0, 0, 1])


# -- rationals ---------------------------------------------------------------

def test_frac_strings():
    assert ser.frac_to_str(Fraction(3)) == "3"
    assert ser.frac_to_str(Fraction(-2, 7)) == "-2/7"
    assert ser.frac_from_str("5/10") == Fraction(1, 2)
    assert ser.frac_from_str(4) == Fraction(4)


def test_frac_rejections_name_the_field():
    with pytest.raises(MalformedInputError) as e:
        ser.frac_from_str("x+1", field="coeff")
    assert "coeff" in str(e.value)
    with pytest.raises(MalformedInputError):
        ser.frac_from_str(1.5, field="coeff")


@given(st.fractions(max_denominator=10 ** 6))
@settings(max_examples=80, deadline=None)
def test_frac_round_trip(q):
    assert ser.frac_from_str(ser.frac_to_str(q)) == q


# -- polynomials and curves --------------------------------------------------

def test_poly_round_trip():
    p = Poly([Fraction(1, 2), Fraction(0), Fraction(-3)])
    assert ser.poly_from_list(ser.poly_to_list(p)) == p
    assert ser.poly_to_list(Poly.zero()) == []


def test_curve_round_trip(curve):
    obj = ser.curve_to_json(curve)
    assert obj == {"f": ["1", "-1", "0", "0", "0", "1"]}
    assert ser.curve_from_json(obj) == curve
    with pytest.raises(MalformedInputError):
        ser.curve_from_json({"coeffs": []})


# -- points and divisors -----------------------------------------------------

def test_point_round_trip(curve):
    p = curve.point(0, 1)
    assert ser.point_to_json(p) == {"x": "0", "y": "1"}
    assert ser.point_from_json(curve, {"x": "0", "y": "1"}) == p
    # infinity is a divisor's "inf", never a listed point
    with pytest.raises(MalformedInputError,
                       match='^point: an affine point needs "x" and "y"'):
        ser.point_from_json(curve, {"inf": True})


def test_point_must_lie_on_the_curve(curve):
    with pytest.raises(MalformedInputError,
                       match=r"^point: \(0, 2\) does not satisfy"):
        ser.point_from_json(curve, {"x": "0", "y": "2"})
    weierstrass = make_curve([0, 3, 0, 0, 0, 1])       # y^2 = x^5 + 3x
    with pytest.raises(MalformedInputError,
                       match=r"^points\[1\]: \(0, 0\) is a Weierstrass"):
        ser.point_from_json(weierstrass, {"x": "0", "y": "0"},
                            field="points[1]")


def test_divisor_round_trip(curve):
    D = (Divisor({INF: -2}) + Divisor.of_point(curve.point(0, 1), 3)
         + Divisor.of_point(curve.point(1, -1), 1))
    obj = ser.divisor_to_json(D)
    assert obj["inf"] == -2
    assert ser.divisor_from_json(curve, obj) == D
    assert ser.divisor_from_json(curve, {"inf": 0, "affine": []}).is_zero()


def test_divisor_rejects_malformed(curve):
    with pytest.raises(MalformedInputError):
        ser.divisor_from_json(curve, {"affine": "no"})
    with pytest.raises(MalformedInputError):
        ser.divisor_from_json(
            curve, {"inf": 0, "affine": [{"x": "0", "mult": 1}]})


def test_pool_round_trip(curve):
    pool = (curve.point(0, 1), curve.point(1, -1))
    obj = ser.pool_to_json(pool)
    assert obj == {"points": [{"x": "0", "y": "1"}, {"x": "1", "y": "-1"}]}
    assert ser.pool_from_json(curve, obj) == pool
    with pytest.raises(MalformedInputError,
                       match=r"^points\[2\]: repeats points\[0\]"):
        ser.pool_from_json(curve, {"points": [*obj["points"],
                                              {"x": "0", "y": "1"}]})


# -- functions and critical points -------------------------------------------

def test_function_round_trip(curve):
    h = CurveFunction(curve, Poly([1, 2]), Poly([3]), Poly([0, 1]))
    obj = ser.function_to_json(h)
    assert ser.function_from_json(curve, obj) == h
    # b and den are optional on input
    assert ser.function_from_json(curve, {"a": ["1"]}) == CurveFunction(
        curve, Poly([1]), Poly.zero())
    with pytest.raises(MalformedInputError):
        ser.function_from_json(curve, {"b": ["1"]})
    with pytest.raises(MalformedInputError):
        ser.function_from_json(curve, {"a": ["1"], "den": []})


def test_critical_point_round_trip(curve):
    from secantflow import make_critical_point
    top = make_critical_point(
        curve, Divisor({INF: 3}), Divisor({INF: -2}), Divisor({INF: 6}),
        CurveFunction(curve, Poly([1]), Poly.zero()))
    obj = ser.critical_point_to_json(top)
    assert obj["d"] == 3
    back = ser.critical_point_from_json(curve, obj)
    assert back == top


# -- symbolic entries --------------------------------------------------------

def test_local_entries():
    assert ser.local_entry_to_json(ZERO) == 0
    assert ser.local_entry_to_json(z_pow(4) * phi()) == "z^4*phi"


def test_matrix_and_class(curve):
    rows = [[Fraction(1), Fraction(1, 2)], [Fraction(0), Fraction(-3)]]
    assert ser.matrix_to_json(rows) == [["1", "1/2"], ["0", "-3"]]
