"""Exact linear algebra over the rationals.

Matrices are lists of rows of Fractions (or ints); each row is first
cleared of denominators, and everything else happens in integers.  Two
eliminations, each doing only what its caller needs:

- ``rank`` runs a forward fraction-free elimination, dividing each
  updated row by its content, and counts the pivots: no back
  substitution, no reduced form.
- ``rref`` is the full fraction-free Gauss-Jordan elimination, whose
  Bareiss update keeps every entry an integer (a minor of the input)
  without gcd normalisation (E. H. Bareiss, "Sylvester's identity and
  multistep integer-preserving Gaussian elimination", Math. Comp. 22,
  1968).  The right kernel is read straight off it as primitive integer
  vectors (``integer_kernel``): the Riemann-Roch basis uses it, and the
  secant planes' annihilators are defined as equal to it.

No pivoting heuristics are needed because there is no roundoff.  These
routines are deliberately small and boring: the test suite cross-checks
each of them against an independent implementation.
"""

from __future__ import annotations

import math

from .errors import invariant

Matrix = list  # list[list[Fraction]]
Vector = list  # list[Fraction]
_INT = {int}


def transpose(m: Matrix) -> Matrix:
    return [list(col) for col in zip(*m)]


def rref(m: Matrix) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free reduced row echelon form: (rows, pivots, d).

    ``rows`` is d times the RREF of m, in integers, and ``pivots`` lists
    the pivot column indices; d is nonzero and every pivot row carries d
    at its pivot.  Each step replaces every other row a[i] by
    (pv * a[i] - a[i][c] * a[r]) // prev, an exact division (Sylvester's
    identity), with pv the new pivot and prev the one before it.
    """
    a = [_integral(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        top = a[r]
        pv = top[c]
        for i in range(rows):
            if i == r:
                continue
            f = a[i][c]
            if f:
                a[i] = [(pv * x - f * y) // prev for x, y in zip(a[i], top)]
            elif pv != prev:
                a[i] = [pv * x // prev for x in a[i]]
        pivots.append(c)
        prev = pv
        r += 1
        if r == rows:
            break
    invariant(prev != 0 and all(a[i][c] == prev for i, c in enumerate(pivots)),
              "fraction-free elimination lost its common pivot %s", prev)
    return a, pivots, prev


def rank(m: Matrix) -> int:
    """Rank of m by forward elimination on its shorter side.

    Each row below a pivot with a nonzero entry in the pivot column is
    replaced by pv * row - f * top and divided by its content; a row
    with a zero there is left as it is, since scaling a row never
    changes the rank.
    """
    a = [_integral(row) for row in m]
    if a and len(a) > len(a[0]):
        a = transpose(a)
    rows = len(a)
    r = 0
    for c in range(len(a[0]) if rows else 0):
        pr = next((i for i in range(r, rows) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        top = a[r]
        pv = top[c]
        for i in range(r + 1, rows):
            f = a[i][c]
            if f:
                row = [pv * x - f * y for x, y in zip(a[i], top)]
                g = math.gcd(*row)
                a[i] = [x // g for x in row] if g > 1 else row
        r += 1
        if r == rows:
            break
    return r


def integer_kernel(m: Matrix, cols: int | None = None) -> list[list[int]]:
    """Basis of the right kernel {v : m v = 0}: per free column fc of
    rref(m) = (rows, pivots, d), d at fc and -rows[i][fc] at the i-th
    pivot, divided by the content signed like d.  Entry fc is then
    positive and the last nonzero one (rows vanish left of their pivot).

    ``cols`` must be supplied when m has no rows (the representation
    cannot carry a column count through an empty row list).
    """
    if cols is None:
        cols = len(m[0]) if m else 0
    if not m:
        return [[int(i == j) for i in range(cols)] for j in range(cols)]
    r, pivots, d = rref(m)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [0] * cols
        v[fc] = d
        for i, pc in enumerate(pivots):
            v[pc] = -r[i][fc]
        g = math.gcd(*v) if d > 0 else -math.gcd(*v)
        basis.append([x // g for x in v] if g != 1 else v)
    return basis


def integral(v: Vector) -> list[int]:
    """v times the lcm of its denominators: integers on the same line
    through the origin, so dot products with v vanish together."""
    return _integral(v)


def _integral(v: Vector) -> list[int]:
    # rank and rref clear their rows through this private name, so
    # per-call instrumentation of the public functions (perfbench/tracer.py)
    # records one span per elimination, not one more per row.
    if set(map(type, v)) == _INT:  # already cleared: annihilator rows
        return list(v)
    den = math.lcm(*(x.denominator for x in v))
    if den == 1:
        return [x.numerator for x in v]
    return [x.numerator * (den // x.denominator) for x in v]
