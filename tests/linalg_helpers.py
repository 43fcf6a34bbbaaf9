"""Fraction-vector helpers over ``secantflow.linalg`` for the tests.

The library answers every kernel and span question through
``linalg.integer_kernel`` and ``linalg.rref``, and holds a polynomial as
integers over one denominator; these are the Fraction views the tests
state their laws in.
"""

from __future__ import annotations

from fractions import Fraction

from secantflow.linalg import Matrix, Vector, integer_kernel, rref, transpose
from secantflow.polynomials import Poly

_ZERO = Fraction(0)


def poly_coeffs(p: Poly) -> list[Fraction]:
    """The coefficients of p, low to high, as Fractions."""
    return [Fraction(n, p.denominator) for n in p.numerators]


def nullspace(m: Matrix, cols: int | None = None) -> list[Vector]:
    """``integer_kernel`` as Fraction vectors, each scaled to 1 at its
    free column (its last nonzero entry)."""
    basis = []
    for v in integer_kernel(m, cols):
        lead = next(x for x in reversed(v) if x)
        basis.append([Fraction(x, lead) if x else _ZERO for x in v])
    return basis


def matvec(m: Matrix, v: Vector) -> Vector:
    return [sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in m]


def augment(a: Matrix, b: Matrix) -> Matrix:
    return [ra + rb for ra, rb in zip(a, b)]


def column_span_intersection(a: Matrix, b: Matrix) -> list[Vector]:
    """Basis of span(columns of a) ∩ span(columns of b).

    Solves a x = b y via the kernel of [a | -b] and reads off the a x part.
    """
    rows = len(a)
    if rows != len(b):
        raise ValueError("matrices must have equal row count")
    ca = len(a[0]) if rows and a[0] else 0
    neg_b = [[-x for x in row] for row in b]
    combined = augment(a, neg_b)
    inter = []
    for v in nullspace(combined):
        w = matvec(a, v[:ca])
        if any(w):
            inter.append(w)
    # the vectors w span the intersection; reduce to a basis
    if not inter:
        return []
    pivots = rref(transpose(inter))[1]
    return [inter[c] for c in pivots]
