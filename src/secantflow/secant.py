"""Secant planes of the jet embedding into the extension space.

For a pair of line bundles with degrees d1 > d2 the curve embeds into the
projectivized extension space, which is dual to the space of sections of
the twist (L1 - L2 + K).  A degree-N effective divisor D spans a plane
there; concretely the plane is the column span of the n x N matrix whose
block at a point p of multiplicity k holds the jets of the section basis
at p through order k-1.  Residue functionals against z^-1..z^-k span the
same block, so ranks computed from jets are the ones the geometry dictates.

Each point's jets are computed once per pair, up to order d1 - d2 - 2,
the most any witness inside the degree bound needs, in the twist's local
frame at the point (one ``jet`` call per section), and kept as exact
columns, ints where integral.  A plane is exactly (curve, pair,
witness); where it is built it reads its columns off those blocks and
derives its annihilator, so however it is made it is checked.  Every query
goes through a plane's annihilator, the primitive integer rows spanning
the jet matrix's left kernel: a class lies on the plane when it pairs to
zero with every row, and two planes meet in dimension n - rank of their
stacked annihilators.  The planes are nested, the plane of D inside the
plane of D + p (the flag behind Bertram's resolution of secant
varieties: A. Bertram, "Moduli of rank-2 vector bundles, theta divisors,
and the geometry of curves in projective space", J. Diff. Geom. 35,
1992), so no plane eliminates its columns: its annihilator is its
parent's after one exact rank-one update by the one column the parent
lacks, cleared to integers there, and the same update checks the rank
law (rank = deg D).  The degree bound deg D < d1 - d2 keeps every jet
matrix of full rank N; within it, for
deg lcm(D1, D2) < d1 - d2, two planes meet exactly in the plane of the
pointwise gcd of their witnesses.  Both facts are verified per instance,
in integers, never assumed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement
from operator import mul

from . import linalg
from .curve import (
    Divisor,
    HyperellipticCurve,
    INF,
    SectionSpace,
    jet,
    riemann_roch_space,
    validate_support,
)
from .errors import (
    BasisPoleCollisionError,
    BoundViolationError,
    DegenerateRankError,
    DimensionMismatchError,
    InadmissibleSupportError,
    MalformedInputError,
    PoleAtPointError,
    Value,
)


class BundlePair(Value):
    """Degrees and divisor representatives of (L1, L2) and the twist M."""

    d1: int
    d2: int
    m: int
    L1_rep: Divisor
    L2_rep: Divisor
    M_rep: Divisor

    def __post_init__(self):
        if self.d1 <= self.d2:
            raise BoundViolationError(
                f"need d1 > d2, got d1 = {self.d1}, d2 = {self.d2}")
        if self.d1 > self.d2 + self.m:
            raise BoundViolationError(
                f"need d1 <= d2 + m, got d1 = {self.d1}, d2 + m = {self.d2 + self.m}")
        for name, deg, rep in (("L1", self.d1, self.L1_rep),
                               ("L2", self.d2, self.L2_rep),
                               ("M", self.m, self.M_rep)):
            if rep.degree != deg:
                raise DimensionMismatchError(
                    f"{name} representative has degree {rep.degree}, expected {deg}")

    @classmethod
    def at_infinity(cls, d1: int, d2: int, m: int) -> BundlePair:
        """Representatives supported at infinity: every affine rational
        point is then admissible as a witness."""
        return cls(d1, d2, m,
                   Divisor({INF: d1}), Divisor({INF: d2}), Divisor({INF: m}))

    @property
    def delta(self) -> int:
        """d1 - d2, the degree bound for secant planes."""
        return self.d1 - self.d2


class DualClass(Value):
    """A nonzero vector of coordinates in the basis dual to the section
    basis of the twist space; projectively, an extension class."""

    coords: tuple[Fraction, ...]

    def __post_init__(self):
        if any(isinstance(c, bool) or not isinstance(c, (int, Fraction))
               for c in self.coords):
            raise MalformedInputError(
                f"coords must be ints or Fractions, got {self.coords!r}",
                field="coords")
        if not any(self.coords):
            raise DimensionMismatchError("dual class must be nonzero")

    @property
    def n(self) -> int:
        return len(self.coords)

    def normalized(self) -> DualClass:
        """Scale so the first nonzero coordinate is 1."""
        lead = next(c for c in self.coords if c)
        return DualClass(tuple(Fraction(c, lead) for c in self.coords))

    @cached_property
    def integral(self) -> tuple[int, ...]:
        """The coordinates cleared of denominators: a class projectively
        equal to this one, in integers, computed on first use and kept."""
        return tuple(linalg.integral(self.coords))


class SecantPlane(Value):
    """The plane of a witness divisor's jet columns, for deg D < d1 - d2.

    A plane is exactly (curve, pair, witness).  ``__post_init__`` checks
    the degree bound and the witness and derives the rest, kept beside
    the kept hash, so a plane built directly, by ``replace``, by a copy
    or by unpickling is checked and consistent.  ``columns`` holds the N
    jet columns, exact (ints where integral, else Fractions).
    ``annihilator`` holds n - N primitive integer rows spanning the jet
    matrix's left kernel: by duality the sections of the twist vanishing
    on the witness, so a class lies on the plane exactly when every row
    pairs to zero with it.  It is the annihilator of the parent, D less
    one multiplicity of its last point, updated by the last column
    cleared to integers (see ``_annihilator_update``; the zero divisor's
    is the unit basis), and equals ``linalg.integer_kernel`` of the
    columns row for row.  The parent certified its own rank law, so rank
    deg D holds exactly when the new column pairs to nonzero with some
    parent row; DegenerateRankError otherwise (the degree bound rules it
    out; it is checked anyway).
    """

    curve: HyperellipticCurve
    pair: BundlePair
    witness: Divisor

    def __post_init__(self):
        curve, pair, D = self.curve, self.pair, self.witness
        if D.degree >= pair.delta:
            raise BoundViolationError(
                f"deg D = {D.degree} must stay below d1 - d2 = {pair.delta}")
        _validate_witness(curve, D)
        cols = tuple(_witness_columns(curve, pair, D))
        n = len(cols[0])
        parent = D - Divisor.of_point(D.items()[-1][0])
        if parent.is_zero():
            rows = tuple(tuple(int(i == j) for i in range(n))
                         for j in range(n))
        else:
            rows = secant_plane(curve, pair, parent).annihilator
        annihilator = _annihilator_update(rows, linalg.integral(cols[-1]))
        if annihilator is None:
            raise DegenerateRankError(f"jet matrix of {D!r} has rank "
                                      f"{D.degree - 1}, expected {D.degree}")
        self.__dict__.update(columns=cols, annihilator=annihilator)

    @property
    def n_rows(self) -> int:
        return len(self.columns[0])

    @property
    def rank(self) -> int:
        return self.witness.degree

    def matrix(self) -> list[list[int | Fraction]]:
        return linalg.transpose(self.columns)


@lru_cache(maxsize=128)
def twist_section_space(curve: HyperellipticCurve, pair: BundlePair) -> SectionSpace:
    """Basis of sections of (L1 - L2 + K), the space the jet columns are
    functionals on; dimension g - 1 + (d1 - d2) by duality."""
    D = pair.L1_rep - pair.L2_rep + curve.canonical_divisor()
    space = riemann_roch_space(curve, D)
    expected = curve.genus - 1 + pair.delta
    if space.dim != expected:
        raise DegenerateRankError(
            f"twist space has dimension {space.dim}, expected {expected}")
    return space


@lru_cache(maxsize=1024)
def _jet_block(curve: HyperellipticCurve, pair: BundlePair, point, order: int):
    """Columns (orders 0..order-1) of the jet block at one point, as a
    tuple of exact columns: ints where integral, else Fractions.

    Callers ask for max(mult, d1 - d2 - 1) orders and slice (see
    ``_witness_columns``): the jets through order k are a prefix of the
    jets through any higher order, and inside the degree bound no
    multiplicity exceeds d1 - d2 - 1, so one block per (pair, point)
    serves every witness.

    Jets are taken in a local frame of the twist bundle: when the
    representative divisor L1 - L2 + K carries the point with
    coefficient c, the frame is (x - x0)^(-c) and the jet of a section
    h is the Taylor window of h * (x - x0)^c, one ``jet`` call per basis
    element whatever the sign of c; for representatives supported away
    from the point (c = 0) it is the plain function jet of h.
    """
    space = twist_section_space(curve, pair)
    c = space.divisor.coeff(point)
    try:
        jets = [jet(curve, h, point, order - 1, c).values
                for h in space.basis]
    except PoleAtPointError as exc:
        raise BasisPoleCollisionError(
            f"a section basis element has a pole at ({point.x}, {point.y}); "
            "choose representatives supported away from the witness") from exc
    return tuple(zip(*jets))


def _witness_columns(curve: HyperellipticCurve, pair: BundlePair,
                     D: Divisor) -> list[tuple[int | Fraction, ...]]:
    """The jet columns of D, block by block in point order, sliced from
    each point's one jet block."""
    cols: list[tuple[int | Fraction, ...]] = []
    for p, mult in D.items():
        cols += _jet_block(curve, pair, p, max(mult, pair.delta - 1))[:mult]
    return cols


def _validate_witness(curve: HyperellipticCurve, D: Divisor) -> None:
    if D.is_zero() or not D.is_effective() or D.degree < 1:
        raise InadmissibleSupportError(
            f"witness must be effective of degree >= 1, got {D!r}")
    for p, _ in D.items():
        if p.at_infinity:
            raise InadmissibleSupportError("witness support must be affine")
        if p.y == 0:
            raise InadmissibleSupportError(
                f"witness point x = {p.x} is a Weierstrass point")
    validate_support(curve, D)


def embedding_matrix(curve: HyperellipticCurve, pair: BundlePair,
                     D: Divisor) -> list[list[int | Fraction]]:
    """The n x N jet matrix of D: column block at p holds jets of the
    section basis through order mult(p) - 1.

    Parameters
    ----------
    curve : HyperellipticCurve
    pair : BundlePair
    D : Divisor
        Effective, affine non-Weierstrass support, degree N >= 1.

    Returns
    -------
    list of rows, n x N.
    """
    _validate_witness(curve, D)
    return linalg.transpose(_witness_columns(curve, pair, D))


def point_class(curve: HyperellipticCurve, pair: BundlePair, p) -> DualClass:
    """Image of a curve point in the dual space (the N = 1 column)."""
    D = Divisor.of_point(p)
    _validate_witness(curve, D)
    (col,) = _witness_columns(curve, pair, D)
    return DualClass(col)


@lru_cache(maxsize=4096)
def secant_plane(curve: HyperellipticCurve, pair: BundlePair,
                 D: Divisor) -> SecantPlane:
    """The plane spanned by D, ``SecantPlane(curve, pair, D)``, built and
    checked once per (curve, pair, D) and then shared, parents included.
    A call that raises is not remembered, so bad input raises every time.
    """
    return SecantPlane(curve, pair, D)


def _annihilator_update(rows, w):
    """The rows of ``integer_kernel`` of a matrix with one more row w,
    given ``rows``, the matrix's own: None when w pairs to zero with
    every row (w adds no rank).

    With s_i = rows[i] . w and k the first i where s_i != 0, the new rows
    are s_k * rows[i] - s_i * rows[k] for i != k, each divided by its
    content signed like s_k.  The rows are ordered by free column, each
    positive at its own and zero at the others, so k's free column is the
    new pivot and every other row keeps its free column and its sign:
    the rows come out exactly as ``integer_kernel`` gives them.  A row
    with s_i = 0 is primitive already and stays as it is.
    """
    s = [sum(map(mul, row, w)) for row in rows]
    k = next((i for i, x in enumerate(s) if x), None)
    if k is None:
        return None
    sk, top = s[k], rows[k]
    out = []
    for i, (row, si) in enumerate(zip(rows, s)):
        if i == k:
            continue
        if si:
            v = [sk * x - si * y for x, y in zip(row, top)]
            g = math.gcd(*v) if sk > 0 else -math.gcd(*v)
            row = tuple(x // g for x in v)
        out.append(row)
    return tuple(out)


def plane_membership(e: DualClass, plane: SecantPlane) -> bool:
    """Exact test: does the class lie on the plane?  It does exactly when
    every row of the plane's annihilator pairs to zero with it."""
    if e.n != plane.n_rows:
        raise DimensionMismatchError(
            f"class has {e.n} coordinates, ambient has {plane.n_rows}")
    x = e.integral
    return not any(sum(map(mul, row, x)) for row in plane.annihilator)


def plane_intersection(p1: SecantPlane, p2: SecantPlane) -> SecantPlane | None:
    """The plane of E = gcd(D1, D2) (pointwise minimum), or None when the
    witnesses share no point, as the rank law implies while deg lcm(D1, D2)
    < d1 - d2; BoundViolationError past that bound, where wider planes
    may meet in more.  Verified in integers: the planes meet in dimension
    n - rank [A1; A2] of their stacked annihilators, which must be deg E,
    and E's columns, cleared to integers, pair to zero with both, so the
    planes are equal.  DegenerateRankError on any mismatch.
    """
    if p1.curve != p2.curve or p1.pair != p2.pair:
        raise DimensionMismatchError("planes live in different ambients")
    curve, pair = p1.curve, p1.pair
    E = p1.witness.gcd(p2.witness)
    lcm_degree = p1.witness.degree + p2.witness.degree - E.degree
    if lcm_degree >= pair.delta:
        raise BoundViolationError(
            f"deg lcm(D1, D2) = {lcm_degree} must stay below "
            f"d1 - d2 = {pair.delta}")
    stacked = [*p1.annihilator, *p2.annihilator]
    dim = p1.n_rows - linalg.rank(stacked)
    if dim != E.degree:
        raise DegenerateRankError(
            f"planes meet in dimension {dim}, not deg {E!r} = {E.degree}")
    if E.is_zero():
        return None
    plane_e = secant_plane(curve, pair, E)
    columns = [linalg.integral(col) for col in plane_e.columns]
    if any(sum(map(mul, row, x)) for row in stacked for x in columns):
        raise DegenerateRankError(
            f"the plane of {E!r} does not lie on both planes")
    return plane_e


class StratumResult(Value):
    """Least pool-witness degree of a class, with all minimal witnesses."""

    N: int
    witnesses: tuple[Divisor, ...]

    @property
    def unique(self) -> bool:
        return len(self.witnesses) == 1


def pool_divisors(pool, N: int) -> tuple[Divisor, ...]:
    """All effective degree-N divisors supported in the pool, in
    lexicographic pool order (deterministic).  Built once per (pool, N)
    and then shared."""
    return _pool_divisors(tuple(pool), N)


@lru_cache(maxsize=256)
def _pool_divisors(pool: tuple, N: int) -> tuple[Divisor, ...]:
    return tuple(Divisor([(pool[i], 1) for i in combo])
                 for combo in combinations_with_replacement(range(len(pool)), N))


def checked_pool(curve: HyperellipticCurve, pool) -> tuple:
    """The pool as a tuple, after checking its points are distinct,
    affine, on the curve and off y = 0."""
    pool = tuple(pool)
    if len(set(pool)) != len(pool):
        raise InadmissibleSupportError("pool points must be distinct")
    if any(p.at_infinity for p in pool):
        raise InadmissibleSupportError("pool points must be affine")
    validate_support(curve, Divisor([(p, 1) for p in pool]))
    return pool


def stratum_membership(curve: HyperellipticCurve, pair: BundlePair,
                       e: DualClass, pool, maxN: int) -> StratumResult | None:
    """Least N <= maxN with e on the plane of a degree-N pool divisor.

    Exhaustive lexicographic enumeration; returns every witness at the
    minimal degree and whether it is unique.  None when nothing up to
    maxN contains the class.  maxN must stay below d1 - d2 so membership
    is governed by the rank law.
    """
    if maxN >= pair.delta:
        raise BoundViolationError(
            f"maxN = {maxN} must stay below d1 - d2 = {pair.delta}")
    if maxN < 1:
        raise BoundViolationError("maxN must be >= 1")
    pool = checked_pool(curve, pool)
    for N in range(1, maxN + 1):
        hits = [D for D in pool_divisors(pool, N)
                if plane_membership(e, secant_plane(curve, pair, D))]
        if hits:
            return StratumResult(N, tuple(hits))
    return None


def minimal_pool_witness(curve: HyperellipticCurve, pair: BundlePair,
                         e: DualClass, D: Divisor, pool: tuple) -> bool:
    """Is D a minimal pool witness of e?  The pool has passed
    ``checked_pool``; a bad witness raises (its plane is built first).
    The planes are nested, so a class on no pool plane one degree below D
    is on none lower: this accepts what ``stratum_membership`` returns."""
    plane = secant_plane(curve, pair, D)
    lower = pool_divisors(pool, D.degree - 1) if D.degree > 1 else ()
    return (all(p in pool for p, _ in D.items()) and plane_membership(e, plane)
            and not any(plane_membership(e, secant_plane(curve, pair, E))
                        for E in lower))
