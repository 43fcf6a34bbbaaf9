"""Exact linear algebra over the rationals.

Matrices are lists of rows of Fractions.  Everything reduces to one
fraction-exact Gaussian elimination; no pivoting heuristics are needed
because there is no roundoff.  These routines are deliberately small and
boring: the test suite cross-checks each of them against an independent
implementation.
"""

from __future__ import annotations

import math
from fractions import Fraction

Matrix = list  # list[list[Fraction]]
Vector = list  # list[Fraction]


def copy_matrix(m: Matrix) -> Matrix:
    return [list(row) for row in m]


def transpose(m: Matrix) -> Matrix:
    if not m:
        return []
    return [list(col) for col in zip(*m)]


def from_columns(cols: list[Vector]) -> Matrix:
    return transpose(cols)


def columns(m: Matrix) -> list[Vector]:
    return transpose(m)


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column indices."""
    a = copy_matrix(m)
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def nullspace(m: Matrix, cols: int | None = None) -> list[Vector]:
    """Basis of the right kernel {v : m v = 0} (vectors in Q^cols).

    ``cols`` must be supplied when m has no rows (the representation cannot
    carry a column count through an empty row list).
    """
    rows = len(m)
    if cols is None:
        cols = len(m[0]) if rows else 0
    if cols == 0:
        return []
    if rows == 0:
        return [[Fraction(int(i == j)) for i in range(cols)] for j in range(cols)]
    r, pivots = rref(m)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -r[i][fc]
        basis.append(v)
    return basis


def matvec(m: Matrix, v: Vector) -> Vector:
    return [sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in m]


def integral(v: Vector) -> list[int]:
    """v times the lcm of its denominators: integers on the same line
    through the origin, so dot products with v vanish together."""
    den = math.lcm(*(x.denominator for x in v))
    return [x.numerator * (den // x.denominator) for x in v]


def augment(a: Matrix, b: Matrix) -> Matrix:
    return [ra + rb for ra, rb in zip(a, b)]


def column_span_equal(a: Matrix, b: Matrix) -> bool:
    ra, rb = rank(a), rank(b)
    return ra == rb == rank(augment(a, b))


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
    r, pivots = rref(from_columns(inter))
    return [inter[c] for c in pivots]
