"""Secant planes of the twist embedding: rank law, intersections, strata."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.ring_series import rs_mul, rs_series_inversion
from sympy.polys.rings import ring

from linalg_helpers import poly_coeffs
from secantflow import (
    INF,
    BundlePair,
    CurveFunction,
    CurvePoint,
    Divisor,
    DualClass,
    Poly,
    SecantPlane,
    StratumResult,
    embedding_matrix,
    jet,
    linalg,
    make_curve,
    plane_intersection,
    plane_membership,
    point_class,
    pool_divisors,
    secant,
    secant_plane,
    standard_curve,
    stratum_membership,
    twist_section_space,
)
from secantflow.errors import (
    BoundViolationError,
    DegenerateRankError,
    DimensionMismatchError,
    InadmissibleSupportError,
    MalformedInputError,
    PoleAtPointError,
    UnsupportedSupportError,
    replace,
)


@pytest.fixture(scope="module")
def g2():
    return standard_curve(2)  # y^2 = x^5 + 4x + 4


@pytest.fixture(scope="module")
def pts(g2):
    return {
        "p": g2.point(0, 2), "pbar": g2.point(0, -2),
        "q": g2.point(1, 3), "qbar": g2.point(1, -3),
    }


@pytest.fixture(scope="module")
def pair():
    return BundlePair.at_infinity(5, 0, 5)


# -- pair validation --------------------------------------------------------

def test_pair_degree_window():
    with pytest.raises(BoundViolationError):
        BundlePair.at_infinity(2, 2, 3)       # needs d1 > d2
    with pytest.raises(BoundViolationError):
        BundlePair.at_infinity(6, 0, 5)       # needs d1 <= d2 + m
    assert BundlePair.at_infinity(5, 0, 5).delta == 5


def test_pair_representative_degrees_checked(g2):
    p = g2.point(0, 2)
    with pytest.raises(DimensionMismatchError):
        BundlePair(5, 0, 5, Divisor.of_point(p),  # degree 1, claims 5
                   Divisor.zero(), Divisor({INF: 5}))


def test_dual_class_must_be_nonzero():
    with pytest.raises(DimensionMismatchError):
        DualClass((Fraction(0), Fraction(0)))
    e = DualClass((Fraction(2), Fraction(4)))
    assert e.normalized().coords == (Fraction(1), Fraction(2))


def test_integer_dual_class_normalizes_exactly():
    # int coordinates once divided with "/" and became floats, which
    # DualClass refuses
    e = DualClass((0, 2, 4))
    assert e.normalized().coords == (0, 1, 2)
    assert all(isinstance(c, Fraction) for c in e.normalized().coords)
    assert e.normalized() == DualClass((0, Fraction(-1, 3),
                                        Fraction(-2, 3))).normalized()
    assert e.normalized() != DualClass((0, 1, 3)).normalized()


def test_dual_class_keeps_its_integral_coordinates():
    e = DualClass((Fraction(1, 2), Fraction(-2, 3), 0))
    assert e.integral == (3, -4, 0)
    assert e.integral is e.integral       # cleared once, then kept
    assert e == DualClass(e.coords) and hash(e) == hash(DualClass(e.coords))


# -- ambient dimension ------------------------------------------------------

def test_ambient_dimension(g2, pair):
    # dim L(L1 - L2 + K) = delta + g - 1 on the stable range
    space = twist_section_space(g2, pair)
    assert len(space.basis) == pair.delta + g2.genus - 1 == 6


def test_ambient_dimension_across_pairs(g2):
    for d1, d2, m in [(3, 0, 3), (4, 1, 4), (5, 2, 4), (6, 0, 7)]:
        pair = BundlePair.at_infinity(d1, d2, m)
        space = twist_section_space(g2, pair)
        assert len(space.basis) == pair.delta + g2.genus - 1


# -- rank law ---------------------------------------------------------------

def test_rank_equals_degree_over_pool(g2, pair, pts):
    pool = list(pts.values())
    for N in range(1, pair.delta):
        for D in pool_divisors(pool, N):
            plane = secant_plane(g2, pair, D)
            assert plane.rank == N
            assert linalg.rank(plane.matrix()) == N


def test_rank_law_with_repeated_points(g2, pair, pts):
    D = Divisor.of_point(pts["p"], 2) + Divisor.of_point(pts["q"])
    assert secant_plane(g2, pair, D).rank == 3
    assert secant_plane(g2, pair, Divisor.of_point(pts["p"], 4)).rank == 4


def test_degree_bound_enforced(g2, pair, pts):
    with pytest.raises(BoundViolationError):
        secant_plane(g2, pair, Divisor.of_point(pts["p"], pair.delta))


def test_a_plane_derives_its_columns_however_it_is_made(g2, pair, pts):
    """A plane is exactly (curve, pair, witness): moved to another witness
    by ``replace``, then copied or pickled, it derives that witness's
    columns and annihilator and answers membership as its own plane."""
    p, pbar, q = (Divisor.of_point(pts[k]) for k in ("p", "pbar", "q"))
    D2 = p + q + q
    want = secant_plane(g2, pair, D2)
    moved = replace(secant_plane(g2, pair, p + pbar), witness=D2)
    classes = [point_class(g2, pair, x) for x in pts.values()]
    classes += [DualClass(tuple(map(sum, zip(*plane.columns))))
                for plane in (want, secant_plane(g2, pair, p + pbar))]
    for plane in (moved, copy.copy(moved),
                  pickle.loads(pickle.dumps(moved))):
        assert plane == want and hash(plane) == hash(want)
        assert plane.columns == want.columns
        assert plane.annihilator == want.annihilator
        assert ([plane_membership(e, plane) for e in classes]
                == [plane_membership(e, want) for e in classes])


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the two sides must fail alike
        return type(exc), str(exc)


@pytest.mark.parametrize("bad", ["out_of_bound", "weierstrass",
                                 "off_the_curve", "not_effective", "zero"])
def test_a_directly_built_plane_refuses_what_secant_plane_refuses(
        g2, pair, pts, bad):
    curve = g2
    if bad == "out_of_bound":
        D = Divisor.of_point(pts["p"], pair.delta)
    elif bad == "weierstrass":
        curve = make_curve([0, -4, 0, 0, 0, 1])  # (0, 0) on y^2 = x^5 - 4x
        D = Divisor.of_point(curve.point(0, 0))
    elif bad == "off_the_curve":
        D = Divisor.of_point(pts["p"]) + Divisor.of_point(
            CurvePoint.affine(0, 3))
    elif bad == "not_effective":
        D = Divisor.of_point(pts["p"], 2) - Divisor.of_point(pts["q"])
    else:
        D = Divisor.zero()
    expected = {"out_of_bound": BoundViolationError,
                "off_the_curve": UnsupportedSupportError}.get(
                    bad, InadmissibleSupportError)
    refused = _outcome(secant_plane, curve, pair, D)
    assert refused[0] is expected
    assert _outcome(SecantPlane, curve, pair, D) == refused


# -- witness validation -----------------------------------------------------

def test_witness_must_be_affine(g2, pair):
    with pytest.raises(InadmissibleSupportError):
        secant_plane(g2, pair, Divisor({INF: 1}))


def test_witness_must_be_effective(g2, pair, pts):
    with pytest.raises(InadmissibleSupportError):
        secant_plane(g2, pair, Divisor.of_point(pts["p"], -1))
    with pytest.raises(InadmissibleSupportError):
        secant_plane(g2, pair, Divisor.zero())


def test_witness_avoids_weierstrass_points(pair):
    c = make_curve([0, -4, 0, 0, 0, 1])  # y^2 = x^5 - 4x, (0, 0) on curve
    with pytest.raises(InadmissibleSupportError):
        secant_plane(c, pair, Divisor.of_point(c.point(0, 0)))


def test_membership_dimension_check(g2, pair, pts):
    plane = secant_plane(g2, pair, Divisor.of_point(pts["p"]))
    with pytest.raises(DimensionMismatchError):
        plane_membership(DualClass((Fraction(1), Fraction(2))), plane)


@pytest.mark.parametrize("bad", [0.5, 1.0, True, "1", None])
def test_dual_class_coords_must_be_exact(g2, pair, pts, bad):
    plane = secant_plane(g2, pair, Divisor.of_point(pts["p"]))
    rest = (Fraction(0),) * (plane.n_rows - 1)
    with pytest.raises(MalformedInputError) as err:
        plane_membership(DualClass((bad,) + rest), plane)
    assert err.value.field == "coords"
    # ints and Fractions are exact and accepted
    assert plane_membership(DualClass((1,) + rest), plane) in (True, False)


# -- point classes and membership -------------------------------------------

def test_point_class_lies_on_exactly_its_planes(g2, pair, pts):
    p, q, r = pts["p"], pts["q"], pts["pbar"]
    e = point_class(g2, pair, p)
    on = secant_plane(g2, pair, Divisor.of_point(p) + Divisor.of_point(q))
    off = secant_plane(g2, pair, Divisor.of_point(q) + Divisor.of_point(r))
    assert plane_membership(e, on)
    assert not plane_membership(e, off)


def test_conjugate_points_give_independent_classes(g2, pair, pts):
    e = point_class(g2, pair, pts["p"])
    ebar = point_class(g2, pair, pts["pbar"])
    assert e.normalized() != ebar.normalized()


# -- intersections ----------------------------------------------------------

def test_intersection_is_gcd_plane(g2, pair, pts):
    p, q, r = pts["p"], pts["q"], pts["pbar"]
    pl1 = secant_plane(g2, pair, Divisor.of_point(p) + Divisor.of_point(q))
    pl2 = secant_plane(g2, pair, Divisor.of_point(p) + Divisor.of_point(r))
    inter = plane_intersection(pl1, pl2)
    assert inter.witness == Divisor.of_point(p)
    assert inter.rank == 1


def test_disjoint_witnesses_meet_trivially(g2, pair, pts):
    pl1 = secant_plane(g2, pair,
                       Divisor.of_point(pts["p"]) + Divisor.of_point(pts["q"]))
    pl2 = secant_plane(g2, pair, Divisor.of_point(pts["pbar"]))
    assert plane_intersection(pl1, pl2) is None


def test_nested_witness_intersection(g2, pair, pts):
    p, q = pts["p"], pts["q"]
    big = secant_plane(g2, pair, Divisor.of_point(p, 2) + Divisor.of_point(q))
    small = secant_plane(g2, pair, Divisor.of_point(p) + Divisor.of_point(q))
    inter = plane_intersection(big, small)
    assert inter.witness == Divisor.of_point(p) + Divisor.of_point(q)


def test_intersection_over_all_pool_pairs(g2, pair, pts):
    pool = list(pts.values())
    planes = [secant_plane(g2, pair, D) for D in pool_divisors(pool, 2)]
    for pl1, pl2 in combinations(planes, 2):
        inter = plane_intersection(pl1, pl2)
        gcd = pl1.witness.gcd(pl2.witness)
        if gcd.is_zero():
            assert inter is None
        else:
            assert inter.witness == gcd


def test_intersection_requires_same_ambient(g2, pts):
    pl1 = secant_plane(g2, BundlePair.at_infinity(5, 0, 5),
                       Divisor.of_point(pts["p"]))
    pl2 = secant_plane(g2, BundlePair.at_infinity(4, 0, 4),
                       Divisor.of_point(pts["p"]))
    with pytest.raises(DimensionMismatchError):
        plane_intersection(pl1, pl2)


# -- the identity checks can fail -------------------------------------------

def test_rank_law_failure_raises(monkeypatch, g2, pair, pts):
    D = Divisor.of_point(pts["p"]) + Divisor.of_point(pts["q"])
    first = D.items()[0][0]
    block = secant._jet_block
    # every point reads the first point's jets, so D's last column repeats
    # the one before it; the parent, the first point, keeps its own plane
    monkeypatch.setattr(secant, "_jet_block", lambda curve, pair, point,
                        order: block(curve, pair, first, order))
    with pytest.raises(DegenerateRankError, match="rank 1, expected 2"):
        # past the plane cache, so the check runs on this call
        secant_plane.__wrapped__(g2, pair, D)


def test_a_directly_built_plane_checks_the_rank_law(monkeypatch, g2, pair,
                                                   pts):
    """A jet block whose second column repeats its first: the plane of 2p,
    built directly, fails the rank law (``python -O`` alike, see
    ``test_invariants``)."""
    block = secant._jet_block.__wrapped__

    def repeated(curve, pair, point, order):
        cols = block(curve, pair, point, order)
        return (cols[0], *cols[:-1])

    secant_plane.cache_clear()
    monkeypatch.setattr(secant, "_jet_block", repeated)
    try:
        with pytest.raises(DegenerateRankError, match="rank 1, expected 2"):
            SecantPlane(g2, pair, Divisor.of_point(pts["p"], 2))
    finally:
        secant_plane.cache_clear()


def test_twist_space_of_the_wrong_dimension_raises(monkeypatch, g2, pair):
    exact = secant.riemann_roch_space

    def short(curve, D):  # L(D) less its last basis element
        space = exact(curve, D)
        return replace(space, basis=space.basis[:-1])

    twist_section_space.cache_clear()
    monkeypatch.setattr(secant, "riemann_roch_space", short)
    try:
        with pytest.raises(DegenerateRankError, match="twist space"):
            twist_section_space(g2, pair)
    finally:
        twist_section_space.cache_clear()


def _planes_through_p(g2, pair, pts):
    # built before any patch, the gcd plane of p included
    p = Divisor.of_point(pts["p"])
    secant_plane(g2, pair, p)
    return (secant_plane(g2, pair, p + Divisor.of_point(pts["q"])),
            secant_plane(g2, pair, p + Divisor.of_point(pts["pbar"])))


def test_intersection_dimension_mismatch_raises(monkeypatch, g2, pair, pts):
    pl1, pl2 = _planes_through_p(g2, pair, pts)
    monkeypatch.setattr(linalg, "rank", lambda m: len(m))
    with pytest.raises(DegenerateRankError, match="meet in dimension"):
        plane_intersection(pl1, pl2)


def test_intersection_containment_failure_raises(monkeypatch, g2, pair, pts):
    pl1, pl2 = _planes_through_p(g2, pair, pts)
    q = Divisor.of_point(pts["q"])    # on pl1 only, of the right degree
    monkeypatch.setattr(Divisor, "gcd", lambda self, other: q)
    with pytest.raises(DegenerateRankError, match="does not lie on both"):
        plane_intersection(pl1, pl2)


# -- twisted representatives ------------------------------------------------

def test_rank_law_with_point_in_representative(g2, pts):
    # L1 carries part of its degree at an affine witness point, so the
    # jet columns there must be taken in the shifted local frame.
    p = pts["p"]
    pair = BundlePair(5, 0, 5,
                      Divisor({INF: 3}) + Divisor.of_point(p, 2),
                      Divisor.zero(), Divisor({INF: 5}))
    assert len(twist_section_space(g2, pair).basis) == 6
    for D in [Divisor.of_point(p),
              Divisor.of_point(p, 2) + Divisor.of_point(pts["q"]),
              Divisor.of_point(pts["q"]) + Divisor.of_point(pts["qbar"]),
              Divisor.of_point(p, 3) + Divisor.of_point(pts["pbar"])]:
        assert secant_plane(g2, pair, D).rank == D.degree


def test_rank_law_with_pole_in_representative(g2, pts):
    p = pts["p"]
    pair = BundlePair(5, 0, 5,
                      Divisor({INF: 7}) + Divisor.of_point(p, -2),
                      Divisor.zero(), Divisor({INF: 5}))
    assert len(twist_section_space(g2, pair).basis) == 6
    for D in [Divisor.of_point(p),
              Divisor.of_point(p, 2) + Divisor.of_point(pts["q"]),
              Divisor.of_point(pts["pbar"], 2) + Divisor.of_point(pts["q"], 2)]:
        assert secant_plane(g2, pair, D).rank == D.degree


def test_twisted_intersection_still_gcd(g2, pts):
    p, q, r = pts["p"], pts["q"], pts["pbar"]
    pair = BundlePair(5, 0, 5,
                      Divisor({INF: 3}) + Divisor.of_point(p, 2),
                      Divisor.zero(), Divisor({INF: 5}))
    pl1 = secant_plane(g2, pair, Divisor.of_point(p) + Divisor.of_point(q))
    pl2 = secant_plane(g2, pair, Divisor.of_point(p) + Divisor.of_point(r))
    assert plane_intersection(pl1, pl2).witness == Divisor.of_point(p)


# -- strata -----------------------------------------------------------------

def test_stratum_of_point_class(g2, pair, pts):
    pool = list(pts.values())
    res = stratum_membership(g2, pair, point_class(g2, pair, pts["p"]),
                             pool, 3)
    assert res == StratumResult(1, (Divisor.of_point(pts["p"]),))
    assert res.unique


def test_stratum_of_a_chord_class(g2, pair, pts):
    pool = list(pts.values())
    e1 = point_class(g2, pair, pts["p"])
    e2 = point_class(g2, pair, pts["q"])
    mid = DualClass(tuple(a + b for a, b in zip(e1.coords, e2.coords)))
    res = stratum_membership(g2, pair, mid, pool, 3)
    assert res.N == 2
    assert res.witnesses == (
        Divisor.of_point(pts["p"]) + Divisor.of_point(pts["q"]),)
    assert res.unique


def test_stratum_of_a_generic_class(g2, pair, pts):
    gen = DualClass(tuple(Fraction(k) for k in (1, 2, 3, 4, 5, 6)))
    assert stratum_membership(g2, pair, gen, list(pts.values()), 2) is None


def test_stratum_bounds(g2, pair, pts):
    pool = list(pts.values())
    e = point_class(g2, pair, pts["p"])
    with pytest.raises(BoundViolationError):
        stratum_membership(g2, pair, e, pool, pair.delta)
    with pytest.raises(BoundViolationError):
        stratum_membership(g2, pair, e, pool, 0)
    with pytest.raises(InadmissibleSupportError):
        stratum_membership(g2, pair, e, pool + [pts["p"]], 2)


def test_pool_divisors_enumeration(g2, pts):
    pool = [pts["p"], pts["q"]]
    assert [D.degree for D in pool_divisors(pool, 2)] == [2, 2, 2]
    assert len(list(pool_divisors(pool, 3))) == 4  # multisets of size 3


# -- rank law as a property -------------------------------------------------

@given(st.data())
@settings(max_examples=30, deadline=None)
def test_rank_law_on_sampled_witnesses(data):
    curve = standard_curve(2)
    pair = BundlePair.at_infinity(6, 1, 6)
    pool = [curve.point(0, 2), curve.point(0, -2),
            curve.point(1, 3), curve.point(1, -3)]
    n = data.draw(st.integers(1, pair.delta - 1))
    idx = data.draw(st.lists(st.integers(0, len(pool) - 1),
                             min_size=n, max_size=n))
    D = Divisor([(pool[i], 1) for i in idx])
    assert secant_plane(curve, pair, D).rank == n


# -- membership through the annihilator, against sympy -----------------------

ORACLE_CURVE = make_curve([1, 4, 0, -5, 0, 1])  # y^2 = 1 + x(x^2-1)(x^2-4)
ORACLE_POOL = [ORACLE_CURVE.point(x, y)
               for x, y in ((0, 1), (1, -1), (-1, 1), (2, 1), (-2, -1))]
small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def _l1_styles(p, q):
    """L1 of degree d at infinity, partly at two pool points, and with a
    pole at a pool point."""
    return (
        lambda d: Divisor({INF: d}),
        lambda d: (Divisor({INF: d - 2}) + Divisor.of_point(p)
                   + Divisor.of_point(q)),
        lambda d: Divisor({INF: d + 2}) + Divisor.of_point(p, -2),
    )


def _on_plane_sympy(mat, coords):
    m = sympy.Matrix(mat)
    return m.row_join(sympy.Matrix(coords)).rank() == m.rank()


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_membership_agrees_with_sympy_rank(data):
    curve, pool = ORACLE_CURVE, ORACLE_POOL
    delta = data.draw(st.integers(5, 6))
    make_l1 = data.draw(st.sampled_from(_l1_styles(pool[0], pool[1])))
    pair = BundlePair(delta, 0, delta, make_l1(delta), Divisor.zero(),
                      Divisor({INF: delta}))
    N = data.draw(st.integers(1, delta - 1))
    idx = data.draw(st.lists(st.integers(0, len(pool) - 1),
                             min_size=N, max_size=N))
    D = Divisor([(pool[i], 1) for i in idx])
    plane = secant_plane(curve, pair, D)
    mat, n = plane.matrix(), plane.n_rows

    assert len(plane.annihilator) == n - N
    for row in plane.annihilator:
        for col in zip(*mat):
            assert sum(a * b for a, b in zip(row, col)) == 0

    weights = data.draw(st.lists(small_fracs, min_size=N, max_size=N)
                        .filter(any))
    inside = tuple(sum(w * x for w, x in zip(weights, row)) for row in mat)
    outside = tuple(data.draw(st.lists(small_fracs, min_size=n, max_size=n)
                              .filter(any)))
    for coords in (inside, outside):
        assert (plane_membership(DualClass(coords), plane)
                == _on_plane_sympy(mat, coords))
    assert plane_membership(DualClass(inside), plane)

    assert secant_plane(curve, pair, D) is plane
    bad = D - Divisor.of_point(pool[idx[0]], N + 1)  # not effective
    for _ in range(2):
        with pytest.raises(InadmissibleSupportError):
            secant_plane(curve, pair, bad)


# -- intersections through the annihilators, against sympy -------------------

@given(st.data())
@settings(max_examples=100, deadline=None)
def test_intersection_agrees_with_sympy_rank(data):
    curve, pool = ORACLE_CURVE, ORACLE_POOL
    delta = data.draw(st.integers(5, 6))
    make_l1 = data.draw(st.sampled_from(_l1_styles(pool[0], pool[1])))
    pair = BundlePair(delta, 0, delta, make_l1(delta), Divisor.zero(),
                      Divisor({INF: delta}))
    kind = data.draw(st.sampled_from(["disjoint", "nested", "shared"]))

    def draw_idx(choices, least, most=delta - 1):
        n = data.draw(st.integers(least, most))
        return data.draw(st.lists(st.sampled_from(choices), min_size=n,
                                  max_size=n))

    everything = range(len(pool))
    if kind == "disjoint":
        left = sorted(data.draw(st.sets(st.sampled_from(everything),
                                        min_size=1, max_size=len(pool) - 1)))
        right = [i for i in everything if i not in left]
        idx1, idx2 = draw_idx(left, 1), draw_idx(right, 1)
    elif kind == "nested":
        idx1 = draw_idx(everything, 2)
        idx2 = idx1[:data.draw(st.integers(1, len(idx1) - 1))]
    else:
        common = data.draw(st.sampled_from(everything))
        idx1, idx2 = ([common, *draw_idx(everything, 0, delta - 2)]
                      for _ in range(2))
    if data.draw(st.booleans()):
        idx1, idx2 = idx2, idx1
    pl1, pl2 = (secant_plane(curve, pair, Divisor([(pool[i], 1) for i in idx]))
                for idx in (idx1, idx2))

    a, b = sympy.Matrix(pl1.matrix()), sympy.Matrix(pl2.matrix())
    dim = a.rank() + b.rank() - a.row_join(b).rank()
    gcd = pl1.witness.gcd(pl2.witness)
    if pl1.rank + pl2.rank - gcd.degree >= delta:
        # past the bound on the lcm the planes may meet in more than the
        # gcd plane: the precondition is refused, whatever they meet in
        with pytest.raises(BoundViolationError):
            plane_intersection(pl1, pl2)
        return
    # the lcm of the witnesses is inside the degree bound too, where its
    # plane has full rank and the planes meet in the gcd plane
    assert dim == gcd.degree
    inter = plane_intersection(pl1, pl2)
    if dim == 0:
        assert inter is None and gcd.is_zero()
    else:
        assert inter is secant_plane(curve, pair, gcd)
        assert inter.rank == dim


def test_intersection_past_the_lcm_bound_is_refused():
    # deg lcm = 7 >= delta = 5: these planes (dims 3 and 4 in a
    # 6-dimensional ambient) meet in dimension 1 although the witnesses
    # share no point, so the precondition is refused, not the gcd identity
    curve, pool = ORACLE_CURVE, ORACLE_POOL
    D1 = Divisor.of_point(curve.point(0, 1), 3)
    D2 = Divisor.of_point(curve.point(-1, 1), 4)
    for make_l1 in _l1_styles(pool[0], pool[1]):
        pair = BundlePair(5, 0, 5, make_l1(5), Divisor.zero(),
                          Divisor({INF: 5}))
        pl1, pl2 = secant_plane(curve, pair, D1), secant_plane(curve, pair, D2)
        with pytest.raises(BoundViolationError, match="lcm"):
            plane_intersection(pl1, pl2)
        with pytest.raises(BoundViolationError, match="lcm"):
            plane_intersection(pl2, pl1)


# -- one jet block per (pair, point), one update per plane -------------------

ORACLE_POINTS = [ORACLE_CURVE.point(x, y)
                 for x in (0, 1, -1, 2, -2) for y in (1, -1)]
small_polys = st.lists(small_fracs, max_size=4).map(Poly)

# Jets from sympy alone: y = y0 sqrt(f(x0 + z) / y0^2), the branch through
# y0, by sympy's series, then (a + b y) / q in its power series ring
Z_RING, Z = ring("z", sympy.QQ)
ORACLE_Y_ORDER = 12


def _sympy_rational(c: Fraction):
    return sympy.Rational(c.numerator, c.denominator)


def _sympy_shift(p: Poly, x0: Fraction):
    x = sympy.Symbol("x")
    coeffs = [_sympy_rational(c) for c in reversed(poly_coeffs(p))] or [0]
    return Z_RING.from_list(sympy.Poly(coeffs, x).shift(
        _sympy_rational(x0)).all_coeffs())


@lru_cache(maxsize=None)
def _sympy_y(x0: Fraction, y0: Fraction):
    z = sympy.Symbol("z")
    f = sum(_sympy_rational(c) * (_sympy_rational(x0) + z) ** i
            for i, c in enumerate(poly_coeffs(ORACLE_CURVE.f)))
    y0 = _sympy_rational(y0)
    return Z_RING(sympy.series(y0 * sympy.sqrt(f / y0 ** 2), z, 0,
                               ORACLE_Y_ORDER).removeO())


def _sympy_jet(h: CurveFunction, p, n: int,
               frame: int = 0) -> list[Fraction] | None:
    """The first n terms of (a + b y)/q times z^frame at p in z = x - x0,
    or None when that has a pole there."""
    a, b, q = (_sympy_shift(e, p.x) for e in (h.a, h.b, h.den))
    v = min(k for (k,) in q.monoms())
    w = max(v - frame, 0)  # the numerator's terms that must vanish
    assert n + w <= ORACLE_Y_ORDER
    num = a + rs_mul(b, _sympy_y(p.x, p.y), Z, n + w)
    num *= Z ** max(frame - v, 0)
    terms = dict(num.terms())
    if any(terms.get((k,), 0) for k in range(w)):
        return None
    quo = rs_mul(num.quo(Z ** w), rs_series_inversion(q.quo(Z ** v), Z, n),
                 Z, n)
    terms = dict(quo.terms())
    return [Fraction(int(c.numerator), int(c.denominator))
            for c in (terms.get((k,), 0) for k in range(n))]


def _is_exact(x) -> bool:
    """The exact-entry rule: an int, or a Fraction that is not one."""
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_jet_blocks_slice_and_clear_exactly(data):
    curve = ORACLE_CURVE
    pool = [ORACLE_POINTS[i] for i in data.draw(st.lists(
        st.integers(0, len(ORACLE_POINTS) - 1), min_size=4, max_size=6,
        unique=True))]
    delta = data.draw(st.integers(5, 7))
    make_l1 = data.draw(st.sampled_from(_l1_styles(pool[0], pool[1])))
    pair = BundlePair(delta, 0, delta, make_l1(delta), Divisor.zero(),
                      Divisor({INF: delta}))
    basis = twist_section_space(curve, pair).basis
    h = CurveFunction(curve, data.draw(small_polys), data.draw(small_polys))
    for p in pool:
        cols = secant._jet_block(curve, pair, p, delta - 1)
        for k in range(1, delta):
            assert cols[:k] == secant._jet_block.__wrapped__(
                curve, pair, p, k)
        assert all(_is_exact(x) for col in cols for x in col)
        # every basis element, with a denominator or without; a pole at p
        # raises
        for f in (h, *basis):
            n = delta - 1
            ref = _sympy_jet(f, p, n + 1)
            if ref is None:
                with pytest.raises(PoleAtPointError):
                    jet(curve, f, p, n)
                continue
            got = jet(curve, f, p, n).values
            assert list(got) == ref
            assert all(_is_exact(x) for x in got)

    N = data.draw(st.integers(1, delta - 1))
    idx = data.draw(st.lists(st.integers(0, len(pool) - 1),
                             min_size=N, max_size=N))
    plane = secant_plane(curve, pair, Divisor([(pool[i], 1) for i in idx]))
    assert plane.annihilator == tuple(map(tuple, linalg.integer_kernel(
        [list(col) for col in plane.columns])))


small_nonzero_polys = st.lists(small_fracs, min_size=1, max_size=3).map(
    Poly).filter(lambda r: not r.is_zero())


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_framed_jets_agree_with_sympy(data):
    # h z^frame for a denominator with a root of order k at x0 (fewer once
    # h is in lowest terms): answered while the pole's order is at most
    # the frame, PoleAtPointError past it
    curve = ORACLE_CURVE
    p = data.draw(st.sampled_from(ORACLE_POINTS))
    frame = data.draw(st.integers(-3, 3))
    order = data.draw(st.integers(0, 3))
    den = (Poly.linear_root(p.x) ** data.draw(st.integers(0, 3))
           * data.draw(small_nonzero_polys))
    h = CurveFunction(curve, data.draw(small_polys), data.draw(small_polys),
                      den)
    ref = _sympy_jet(h, p, order + 1, frame)
    if ref is None:
        with pytest.raises(PoleAtPointError):
            jet(curve, h, p, order, frame)
        return
    got = jet(curve, h, p, order, frame)
    assert got.point == p and list(got.values) == ref
    assert all(_is_exact(x) for x in got.values)
    if frame == 0:
        assert got == jet(curve, h, p, order)


def test_jet_weighs_each_denominator_term_by_its_power_of_q0():
    # 1/(x + 2) at (0, 1): q0 = 2, so a wrong power of q0 in the
    # recursion changes every coefficient past the first
    curve = make_curve([1, -1, 0, 0, 0, 1])  # y^2 = x^5 - x + 1
    h = CurveFunction(curve, Poly.one(), Poly.zero(), Poly([2, 1]))
    got = jet(curve, h, curve.point(0, 1), 3).values
    assert got == (Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8),
                   Fraction(-1, 16))


@pytest.mark.parametrize("k", range(4))
def test_framed_jet_answers_poles_up_to_its_frame(k):
    # y / z^k has a pole of order exactly k at every point of the pool
    curve = ORACLE_CURVE
    for p in ORACLE_POINTS:
        h = CurveFunction(curve, Poly.zero(), Poly.one(),
                          Poly.linear_root(p.x) ** k)
        for frame in range(-3, 4):
            if frame < k:
                with pytest.raises(PoleAtPointError):
                    jet(curve, h, p, 3, frame)
                continue
            got = jet(curve, h, p, 3, frame).values
            assert list(got) == _sympy_jet(h, p, 4, frame)
            assert got[:frame - k] == (0,) * min(frame - k, 4)
            if frame - k < 4:
                assert got[frame - k] == p.y


def _old_jet_block(curve, pair, point, order):
    """The jet block without frames, the oracle: the jets of the product
    h (x - x0)^c for c > 0, a window of h's own longer jet for c <= 0."""
    space = twist_section_space(curve, pair)
    c = space.divisor.coeff(point)
    if c > 0:
        shift = CurveFunction(curve, Poly.linear_root(point.x) ** c,
                              Poly.zero())
        jets = [jet(curve, h * shift, point, order - 1).values
                for h in space.basis]
    else:
        jets = [jet(curve, h, point, order - 1 - c).values[-c:]
                for h in space.basis]
    return tuple(tuple(j[k] for j in jets) for k in range(order))


@pytest.mark.parametrize("style", range(3))
def test_jet_block_is_the_old_construction(style):
    curve, pool = ORACLE_CURVE, ORACLE_POOL
    seen = set()
    for delta in (5, 6, 7):
        pair = BundlePair(delta, 0, delta,
                          _l1_styles(pool[0], pool[1])[style](delta),
                          Divisor.zero(), Divisor({INF: delta}))
        divisor = twist_section_space(curve, pair).divisor
        for p in ORACLE_POINTS:
            seen.add((divisor.coeff(p) > 0) - (divisor.coeff(p) < 0))
            for order in (1, delta - 1):
                block = secant._jet_block.__wrapped__(curve, pair, p, order)
                assert block == _old_jet_block(curve, pair, p, order)
                assert all(_is_exact(x) for col in block for x in col)
    # the three styles reach every sign of the twist's coefficient
    assert seen == ({0} if style == 0 else {-1, 0} if style == 2 else {0, 1})


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_annihilator_update_matches_integer_kernel(data):
    # planes built in shuffled order from a cleared cache, so a parent is
    # sometimes built on demand by its child and sometimes first
    curve = ORACLE_CURVE
    pool = [ORACLE_POINTS[i] for i in data.draw(st.lists(
        st.integers(0, len(ORACLE_POINTS) - 1), min_size=4, max_size=6,
        unique=True))]
    delta = data.draw(st.integers(5, 7))
    make_l1 = data.draw(st.sampled_from(_l1_styles(pool[0], pool[1])))
    pair = BundlePair(delta, 0, delta, make_l1(delta), Divisor.zero(),
                      Divisor({INF: delta}))
    n = twist_section_space(curve, pair).dim
    witnesses = [Divisor([(p, 1) for p in data.draw(st.lists(
        st.sampled_from(pool), min_size=N, max_size=N))])
        for N in range(1, delta) for _ in range(2)]
    secant_plane.cache_clear()
    for D in data.draw(st.permutations(witnesses)):
        plane = secant_plane(curve, pair, D)
        assert plane.annihilator == tuple(map(tuple, linalg.integer_kernel(
            [linalg.integral(col) for col in plane.columns])))
        assert len(plane.annihilator) == n - D.degree


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_plane_matrix_embedding_matrix_and_point_class_agree(data):
    # the three read the same jet columns; a plane is exactly (curve,
    # pair, witness), and one built directly derives the same columns
    curve = ORACLE_CURVE
    pool = [ORACLE_POINTS[i] for i in data.draw(st.lists(
        st.integers(0, len(ORACLE_POINTS) - 1), min_size=2, max_size=5,
        unique=True))]
    delta = data.draw(st.integers(4, 7))
    make_l1 = data.draw(st.sampled_from(_l1_styles(pool[0], pool[1])))
    pair = BundlePair(delta, 0, delta, make_l1(delta), Divisor.zero(),
                      Divisor({INF: delta}))
    N = data.draw(st.integers(1, delta - 1))
    D = Divisor([(p, 1) for p in data.draw(st.lists(
        st.sampled_from(pool), min_size=N, max_size=N))])
    plane = secant_plane(curve, pair, D)
    mat = plane.matrix()
    assert mat == embedding_matrix(curve, pair, D)
    assert all(_is_exact(x) for row in mat for x in row)
    start = 0
    for p, mult in D.items():
        assert [row[start] for row in mat] == list(
            point_class(curve, pair, p).coords)
        start += mult
    assert start == D.degree

    direct = SecantPlane(curve, pair, D)
    assert direct == plane and hash(direct) == hash(plane)
    assert repr(direct) == repr(plane)
    assert direct.columns == plane.columns
    assert direct.annihilator == plane.annihilator


@pytest.mark.parametrize("style", range(3))
def test_plane_builds_cost_one_jet_block_per_point(monkeypatch, style):
    curve, pool = ORACLE_CURVE, ORACLE_POOL
    pair = BundlePair(6, 0, 6, _l1_styles(pool[0], pool[1])[style](6),
                      Divisor.zero(), Divisor({INF: 6}))
    dim = twist_section_space(curve, pair).dim
    secant_plane.cache_clear()
    secant._jet_block.cache_clear()
    calls = []

    def counted(*args):
        calls.append(args)
        return jet(*args)

    monkeypatch.setattr(secant, "jet", counted)
    for N in range(1, pair.delta):
        for D in pool_divisors(pool, N):
            assert secant_plane(curve, pair, D).rank == N
    assert secant._jet_block.cache_info().misses == len(pool)
    assert len(calls) <= len(pool) * dim


# -- minimal pool witnesses, against the exhaustive search --------------------

@given(st.data())
@settings(max_examples=100, deadline=None)
def test_minimal_pool_witness_agrees_with_the_search(data):
    """D is a minimal pool witness of e exactly when the exhaustive search
    up to deg D returns D at degree deg D; ``minimal_pool_witness`` looks
    one degree below D only."""
    curve = ORACLE_CURVE
    delta = data.draw(st.integers(5, 7))
    make_l1 = data.draw(st.sampled_from(
        _l1_styles(ORACLE_POOL[0], ORACLE_POOL[1])))
    pair = BundlePair(delta, 0, delta, make_l1(delta), Divisor.zero(),
                      Divisor({INF: delta}))
    # ORACLE_POOL holds five points; ORACLE_POINTS, with its conjugates,
    # gives pools of six and points outside every pool
    pool = tuple(data.draw(st.lists(st.sampled_from(ORACLE_POINTS),
                                    min_size=3, max_size=6, unique=True)))

    def pool_divisor(least):
        n = data.draw(st.integers(least, delta - 1))
        return Divisor([(data.draw(st.sampled_from(pool)), 1)
                        for _ in range(n)])

    def column_sum(D):
        return tuple(map(sum, zip(*secant_plane(curve, pair, D).columns)))

    D = pool_divisor(1)
    if data.draw(st.booleans()):
        # one point moved off the pool
        outside = [p for p in ORACLE_POINTS if p not in pool]
        D = (D - Divisor.of_point(D.items()[0][0])
             + Divisor.of_point(data.draw(st.sampled_from(outside))))
    kind = data.draw(st.sampled_from(
        ["column_sum", "point", "two_planes", "generic"]))
    if kind == "column_sum":
        coords = column_sum(D)
    elif kind == "point":
        coords = point_class(curve, pair, data.draw(st.sampled_from(pool))
                             ).coords
    elif kind == "two_planes":
        coords = tuple(a + b for a, b in zip(column_sum(pool_divisor(1)),
                                             column_sum(pool_divisor(1))))
    else:
        coords = tuple(data.draw(st.lists(small_fracs, min_size=delta + 1,
                                          max_size=delta + 1)))
    if not any(coords):
        return
    e = DualClass(coords)
    res = stratum_membership(curve, pair, e, pool, D.degree)
    expected = (res is not None and res.N == D.degree
                and D in res.witnesses)
    assert secant.minimal_pool_witness(
        curve, pair, e, D, secant.checked_pool(curve, pool)) == expected
