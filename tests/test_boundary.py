"""Point admissibility is checked where data enters.

Every public function that takes a divisor, a witness or a pool rejects an
off-curve point and a Weierstrass point itself, so the per-point kernels
behind it (y_series, valuation, jet) need not check again.
"""

from __future__ import annotations

import pytest

from secantflow import (
    INF,
    BundlePair,
    CurveFunction,
    CurvePoint,
    Divisor,
    Poly,
    commuting_check,
    embedding_matrix,
    enumerate_chains,
    h1_dim,
    make_critical_point,
    make_curve,
    point_class,
    riemann_roch_space,
    secant_plane,
    stratum_membership,
    upward_targets,
)
from secantflow.errors import SecantflowError

CURVE = make_curve([0, 3, 0, 0, 0, 1])      # y^2 = x^5 + 3x
GOOD, OTHER = CURVE.point(1, 2), CURVE.point(1, -2)
BAD = {"off_curve": CurvePoint.affine(1, 3),
       "weierstrass": CurvePoint.affine(0, 0)}
PAIR = BundlePair.at_infinity(5, 0, 5)
ONE = CurveFunction(CURVE, Poly([1]), Poly.zero())


def top():
    return make_critical_point(CURVE, Divisor({INF: 3}), Divisor({INF: -2}),
                               Divisor({INF: 6}), ONE)


ENTRY_POINTS = {
    "riemann_roch_space": lambda b: riemann_roch_space(
        CURVE, Divisor.of_point(b)),
    "h1_dim": lambda b: h1_dim(CURVE, Divisor.of_point(b)),
    "secant_plane": lambda b: secant_plane(CURVE, PAIR, Divisor.of_point(b)),
    "embedding_matrix": lambda b: embedding_matrix(
        CURVE, PAIR, Divisor.of_point(b)),
    "point_class": lambda b: point_class(CURVE, PAIR, b),
    "stratum_membership": lambda b: stratum_membership(
        CURVE, PAIR, point_class(CURVE, PAIR, GOOD), [GOOD, b], 1),
    "make_critical_point": lambda b: make_critical_point(
        CURVE, Divisor({INF: 3}), Divisor({INF: -3, b: 1}),
        Divisor({INF: 6}), ONE),
    "upward_targets": lambda b: upward_targets(CURVE, top(), [GOOD, b]),
    "enumerate_chains": lambda b: enumerate_chains(CURVE, top(), 2,
                                                   [GOOD, b]),
    "commuting_check": lambda b: commuting_check(CURVE, top(), 2, [GOOD, b]),
}


@pytest.mark.parametrize("kind", sorted(BAD))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_rejects_inadmissible_point(entry, kind):
    with pytest.raises(SecantflowError):
        ENTRY_POINTS[entry](BAD[kind])


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_accepts_admissible_point(entry):
    # the same call with a point of the curve goes through, so the
    # rejections above come from the point alone
    ENTRY_POINTS[entry](OTHER)
