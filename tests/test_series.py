"""The square-root lift of a truncated series."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linalg_helpers import poly_coeffs
from secantflow import series
from secantflow.polynomials import Poly

small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@given(st.lists(small_fracs, min_size=1, max_size=7), small_fracs)
@settings(max_examples=120, deadline=None)
def test_sqrt_squares_back(a, y0):
    if y0 == 0:
        return
    # force the constant term to be an exact square
    a = [y0 * y0] + a[1:]
    n = 11
    y = series.sqrt_series(a, y0, n)
    assert len(y) == n
    sq = Poly(y) * Poly(y)

    def low_terms(p):  # the first n coefficients, zero past the degree
        return (poly_coeffs(p) + [Fraction(0)] * n)[:n]

    assert low_terms(sq) == low_terms(Poly(a))
    assert y[0] == y0


def test_sqrt_rejects_bad_center():
    with pytest.raises(ValueError):
        series.sqrt_series([Fraction(2)], Fraction(1), 4)
    with pytest.raises(ZeroDivisionError):
        series.sqrt_series([Fraction(0), Fraction(1)], Fraction(0), 4)
