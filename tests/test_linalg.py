"""Exact linear algebra cross-checked against sympy matrices."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from linalg_helpers import augment, column_span_intersection, matvec, nullspace
from secantflow import linalg
from secantflow.errors import InvariantError

small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=4)


def matrices(max_r=5, max_c=5):
    return st.integers(1, max_r).flatmap(
        lambda r: st.integers(1, max_c).flatmap(
            lambda c: st.lists(
                st.lists(small_fracs, min_size=c, max_size=c),
                min_size=r, max_size=r)))


def to_sympy(m):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                         for row in m])


wide_fracs = st.fractions(min_value=-1000, max_value=1000,
                          max_denominator=10**6)


@st.composite
def jet_shaped(draw):
    """Up to 8 x 12, denominators up to 10^6: either a product of a random
    r x k and k x c pair (rank at most k, often deficient) or a sparse
    random matrix, then some rows and columns zeroed."""
    r, c = draw(st.integers(1, 8)), draw(st.integers(1, 12))
    if draw(st.booleans()):
        k = draw(st.integers(0, min(r, c)))
        left = draw(st.lists(st.lists(wide_fracs, min_size=k, max_size=k),
                             min_size=r, max_size=r))
        right = draw(st.lists(st.lists(wide_fracs, min_size=c, max_size=c),
                              min_size=k, max_size=k))
        m = [[sum((row[t] * right[t][j] for t in range(k)), Fraction(0))
              for j in range(c)] for row in left]
    else:
        entry = st.one_of(st.just(Fraction(0)), wide_fracs)
        m = draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                          min_size=r, max_size=r))
    zero_rows = draw(st.sets(st.integers(0, r - 1)))
    zero_cols = draw(st.sets(st.integers(0, c - 1)))
    return [[Fraction(0) if i in zero_rows or j in zero_cols else x
             for j, x in enumerate(row)] for i, row in enumerate(m)]


def assert_rref_matches_sympy(m):
    rows, pivots, d = linalg.rref(m)
    expected, expected_pivots = to_sympy(m).rref()
    assert pivots == list(expected_pivots)
    assert d != 0 and all(type(x) is int for row in rows for x in row)
    assert len(rows) == len(m)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            assert x == d * expected[i, j], (i, j)


@given(jet_shaped())
@settings(max_examples=150, deadline=None)
def test_rref_is_a_multiple_of_sympy_rref(m):
    assert_rref_matches_sympy(m)


@pytest.mark.parametrize("m", [
    [[0, 0, 1], [0, 2, 3], [5, 0, 0]],            # every pivot needs a swap
    [[0, 0], [0, 0], [0, 7]],                     # zero column, zero rows
    [[1, 2, 3], [2, 4, 6], [0, 0, 1], [3, 1, 0]],  # deficient, then a swap
    [[Fraction(1, 999983), Fraction(2, 10**6)],
     [Fraction(-3, 7), Fraction(5, 999999)]],
], ids=["swaps", "zeros", "deficient", "large-denominators"])
def test_rref_concrete(m):
    assert_rref_matches_sympy([[Fraction(x) for x in row] for row in m])


class _OffByOne(int):
    """An int whose products and differences stay in this class and whose
    (exact) floor division comes out one too high."""

    def __mul__(self, other):
        return _OffByOne(int(self) * int(other))

    __rmul__ = __mul__

    def __sub__(self, other):
        return _OffByOne(int(self) - int(other))

    def __floordiv__(self, other):
        return int(self) // int(other) + 1


def test_rref_refuses_a_lost_common_pivot(monkeypatch):
    """Sylvester's exact divisions come out one too high, so the pivots
    no longer share one value: the common-pivot invariant must catch it."""
    monkeypatch.setattr(linalg, "_integral",
                        lambda v: [_OffByOne(x) for x in v])
    with pytest.raises(InvariantError, match="common pivot"):
        linalg.rref([[1, 2, 3], [4, 5, 6], [7, 8, 10]])


@given(st.one_of(matrices(), jet_shaped(), jet_shaped().map(
    lambda m: [[int(x * 6) for x in row] for row in m])))
@settings(max_examples=200, deadline=None)
def test_rank_matches_sympy(m):
    assert linalg.rank(m) == to_sympy(m).rank()
    assert linalg.rank(linalg.transpose(m)) == linalg.rank(m)


@pytest.mark.parametrize("m", [
    [[1, 2], [3, 4], [5, 6], [7, 9]],                   # tall
    [[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 0, 1]],         # wide
    [[1, 2, 3], [2, 4, 6], [3, 6, 9], [1, 0, 1]],       # deficient
    [[0, 0, 0], [1, 2, 3], [0, 0, 0]],                  # zero rows
    [[0, 1, 0], [0, 2, 5], [0, 3, 1], [0, 4, 0]],       # zero column
    [[0, 0], [0, 0]],
    [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1],
     [Fraction(-5, 7), Fraction(-10, 21)]],             # Fractions
    [[Fraction(2), 4], [1, 2]],                         # whole Fractions
    [[], []],                                           # no columns
    [],                                                 # no rows
], ids=["tall", "wide", "deficient", "zero-rows", "zero-column", "zero",
        "fractions", "whole-fractions", "no-columns", "empty"])
def test_rank_concrete(m):
    assert linalg.rank(m) == to_sympy(m).rank()
    assert linalg.rank(linalg.transpose(m)) == linalg.rank(m)


@given(matrices())
@settings(max_examples=120, deadline=None)
def test_nullspace_is_kernel_of_right_dimension(m):
    basis = nullspace(m)
    cols = len(m[0])
    assert len(basis) == cols - to_sympy(m).rank()
    for v in basis:
        assert all(x == 0 for x in matvec(m, v))
    if basis:
        assert linalg.rank(linalg.transpose(basis)) == len(basis)


@given(jet_shaped())
@settings(max_examples=150, deadline=None)
def test_integer_kernel_is_primitive_and_matches_sympy(m):
    kernel = linalg.integer_kernel(m)
    cols = len(m[0])
    assert len(kernel) == cols - to_sympy(m).rank()
    for v in kernel:
        assert len(v) == cols and all(type(x) is int for x in v)
        assert math.gcd(*v) == 1
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in m)
    if kernel:
        assert to_sympy(kernel).rank() == len(kernel)
    # nullspace is the same kernel, scaled to 1 at each free column
    assert [linalg.integral(v) for v in nullspace(m)] == kernel


def test_integer_kernel_of_no_rows_is_the_unit_basis():
    assert linalg.integer_kernel([], cols=3) == [[1, 0, 0], [0, 1, 0],
                                                 [0, 0, 1]]
    assert nullspace([], cols=2) == [[1, 0], [0, 1]]


def in_span_sympy(m, v):
    """The oracle for span membership: rank([m | v]) == rank(m)."""
    return (to_sympy(augment(m, [[x] for x in v])).rank()
            == to_sympy(m).rank())


def left_kernel(m):
    return nullspace(linalg.transpose(m))


@given(matrices(), st.data())
@settings(max_examples=100, deadline=None)
def test_left_kernel_annihilates_image(m, data):
    cols = len(m[0])
    x = data.draw(st.lists(small_fracs, min_size=cols, max_size=cols))
    b = matvec(m, x)
    assert in_span_sympy(m, b)
    kernel = left_kernel(m)
    assert len(kernel) == len(m) - to_sympy(m).rank()
    for a in kernel:
        assert sum(p * q for p, q in zip(a, b)) == 0


def test_left_kernel_detects_inconsistent():
    m = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(0)]]
    b = [Fraction(1), Fraction(2)]
    assert not in_span_sympy(m, b)
    assert any(sum(p * q for p, q in zip(a, b)) for a in left_kernel(m))


@given(st.lists(small_fracs, min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_integral_scales_to_integers(v):
    w = linalg.integral(v)
    assert all(type(x) is int for x in w)
    assert linalg.integral(w) == w    # integers are already cleared
    nonzero = [(a, b) for a, b in zip(v, w) if a]
    assert [a == 0 for a in v] == [b == 0 for b in w]
    if nonzero:
        scale = nonzero[0][1] / nonzero[0][0]
        assert scale > 0 and all(b == a * scale for a, b in nonzero)


@given(matrices(4, 3), matrices(4, 3))
@settings(max_examples=80, deadline=None)
def test_intersection_inside_both_spans(a, b):
    if len(a) != len(b):
        return
    inter = column_span_intersection(a, b)
    for v in inter:
        assert in_span_sympy(a, v)
        assert in_span_sympy(b, v)
    # dimension law: dim(A) + dim(B) = dim(A+B) + dim(A∩B)
    ra, rb = linalg.rank(a), linalg.rank(b)
    rsum = linalg.rank(augment(a, b))
    assert len(inter) == ra + rb - rsum


def test_intersection_concrete():
    a = linalg.transpose([[Fraction(1), Fraction(0), Fraction(0)],
                          [Fraction(0), Fraction(1), Fraction(0)]])
    b = linalg.transpose([[Fraction(0), Fraction(1), Fraction(0)],
                          [Fraction(0), Fraction(0), Fraction(1)]])
    inter = column_span_intersection(a, b)
    assert len(inter) == 1
    v = inter[0]
    assert v[0] == 0 and v[2] == 0 and v[1] != 0

