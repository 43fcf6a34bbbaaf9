"""Broken flow lines, downward limits, and the resolution diagram."""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction

import pytest

from secantflow import (
    INF,
    BundlePair,
    ChainRecord,
    CriticalPointData,
    CurveFunction,
    Divisor,
    DualClass,
    FlowLinePoint,
    G_map,
    P_morse,
    P_sec,
    Poly,
    commuting_check,
    downward_limit,
    embedding_matrix,
    enumerate_chains,
    flow_line_point,
    make_critical_point,
    make_curve,
    point_class,
    pool_divisors,
    secant,
    secant_plane,
    section_order,
    standard_curve,
    upward_targets,
)
from secantflow.errors import (
    BoundViolationError,
    DegenerateRankError,
    InadmissibleSupportError,
    MalformedInputError,
    UnsupportedSupportError,
    WeierstrassPointError,
    WitnessNotMinimalError,
    ZeroSectionError,
    replace,
)
from secantflow import cli, resolution, serialize


@pytest.fixture(scope="module")
def curve():
    return make_curve([1, -1, 0, 0, 0, 1])  # y^2 = x^5 - x + 1


@pytest.fixture(scope="module")
def pool(curve):
    return [curve.point(0, 1), curve.point(0, -1),
            curve.point(1, 1), curve.point(1, -1),
            curve.point(-1, 1), curve.point(-1, -1)]


@pytest.fixture(scope="module")
def one(curve):
    return CurveFunction(curve, Poly([1]), Poly.zero())


@pytest.fixture(scope="module")
def top(curve, one):
    # degE = 1, degM = 6; top level u = 3 = d_max
    return make_critical_point(curve, Divisor({INF: 3}), Divisor({INF: -2}),
                               Divisor({INF: 6}), one)


def with_phases(chain, phases):
    """The same chain with the given per-step phases."""
    points = zip(chain.points, phases, strict=True)
    return ChainRecord(chain.top,
                       tuple(replace(x, phase=q) for x, q in points))


def class_with_witness(curve, pair, D):
    """A class on the plane of D involving every column (generic there)."""
    mat = embedding_matrix(curve, pair, D)
    cols = list(zip(*mat))
    return DualClass(tuple(sum(col[i] for col in cols)
                           for i in range(len(mat))))


# -- critical point validation ----------------------------------------------

def test_critical_point_degrees(top):
    assert top._fields == ("pair", "phi")
    assert (top.d, top.degE, top.degM, top.pair.delta) == (3, 1, 6, 5)
    assert top.bundle_divisor() == Divisor({INF: 1})
    assert top.pair == BundlePair.at_infinity(3, -2, 6)


def test_twist_over_the_budget_is_refused(top, pool):
    """A twist is a pair (d1 - deg D, d2 + deg D), so its level window is
    the budget 2 deg D < d1 - d2 = 5."""
    p = pool[0]
    limit = top.twisted(Divisor.of_point(p, 2))
    assert limit.pair == BundlePair(1, 0, 6, Divisor({INF: 3, p: -2}),
                                    Divisor({INF: -2, p: 2}),
                                    Divisor({INF: 6}))
    assert limit.phi is top.phi
    with pytest.raises(BoundViolationError, match="need d1 > d2"):
        top.twisted(Divisor.of_point(p, 3))


def test_zero_section_rejected(curve):
    zero = CurveFunction(curve, Poly.zero(), Poly.zero())
    with pytest.raises(ZeroSectionError):
        make_critical_point(curve, Divisor({INF: 3}), Divisor({INF: -2}),
                            Divisor({INF: 6}), zero)


def test_level_window_enforced(curve, one):
    # 2d <= degE: level not above the minimum
    with pytest.raises(BoundViolationError):
        make_critical_point(curve, Divisor.zero(), Divisor({INF: 1}),
                            Divisor({INF: 6}), one)
    # degE + degM - 2d < 0: section bundle has negative degree
    with pytest.raises(BoundViolationError):
        make_critical_point(curve, Divisor({INF: 5}), Divisor({INF: -4}),
                            Divisor({INF: 2}), one)


def test_irrational_pole_support_rejected(curve):
    h = CurveFunction(curve, Poly([1]), Poly.zero(), Poly([-2, 0, 1]))
    with pytest.raises(UnsupportedSupportError):
        make_critical_point(curve, Divisor({INF: 3}), Divisor({INF: -2}),
                            Divisor({INF: 10}), h)


def test_weierstrass_pole_fibre_rejected():
    c = make_curve([0, -4, 0, 0, 0, 1])  # f(0) = 0
    h = CurveFunction(c, Poly([1]), Poly.zero(), Poly([0, 1]))
    with pytest.raises(WeierstrassPointError):
        make_critical_point(c, Divisor({INF: 3}), Divisor({INF: -2}),
                            Divisor({INF: 10}), h)


def test_irrational_pole_fibre_rejected():
    c = standard_curve(2)                # f(2) = 44, not a square
    h = CurveFunction(c, Poly([1]), Poly.zero(), Poly([-2, 1]))
    with pytest.raises(UnsupportedSupportError):
        make_critical_point(c, Divisor({INF: 3}), Divisor({INF: -2}),
                            Divisor({INF: 10}), h)


def test_negative_pole_fibre_rejected(curve):
    # f(-2) = -29 < 0 on y^2 = x^5 - x + 1: no rational points over x = -2
    h = CurveFunction(curve, Poly([1]), Poly.zero(), Poly([2, 1]))
    with pytest.raises(UnsupportedSupportError,
                       match="fibre over x = -2 has no rational points"):
        make_critical_point(curve, Divisor({INF: 3}), Divisor({INF: -2}),
                            Divisor({INF: 10}), h)


def test_section_effectivity_enforced():
    c = standard_curve(2)                # f(0) = 4: rational fibre (0, ±2)
    h = CurveFunction(c, Poly([1]), Poly.zero(), Poly([0, 1]))  # 1/x
    with pytest.raises(MalformedInputError):
        make_critical_point(c, Divisor({INF: 3}), Divisor({INF: -2}),
                            Divisor({INF: 6}), h)


def test_section_order_reads_the_bundle_frame(curve, top, pool):
    # phi = 1 has no zeros of its own; the order at a pool point is the
    # bundle coefficient there, which is 0 at the top.
    assert section_order(curve, top, pool[0]) == 0
    assert section_order(curve, top, INF) == 1


# -- flow line points --------------------------------------------------------

def test_flow_line_point_validation(curve, top, pool):
    pair = top.pair
    p = pool[0]
    x = flow_line_point(curve, pair, point_class(curve, pair, p),
                        Divisor.of_point(p), pool)
    assert x.phase == Fraction(0)
    assert x.erased().phase is None
    with pytest.raises(MalformedInputError):
        FlowLinePoint(x.cls, Divisor.zero())
    with pytest.raises(MalformedInputError):
        FlowLinePoint(x.cls, x.witness, Fraction(3, 2))


def test_flow_line_point_rejects_off_plane_class(curve, top, pool):
    pair = top.pair
    cls = point_class(curve, pair, pool[0])
    with pytest.raises(WitnessNotMinimalError):
        flow_line_point(curve, pair, cls, Divisor.of_point(pool[2]), pool)


def test_flow_line_point_rejects_non_minimal_witness(curve, top, pool):
    pair = top.pair
    cls = point_class(curve, pair, pool[0])
    fat = Divisor.of_point(pool[0]) + Divisor.of_point(pool[2])
    with pytest.raises(WitnessNotMinimalError):
        flow_line_point(curve, pair, cls, fat, pool)


def test_flow_line_point_rejects_a_witness_off_the_pool(curve, top, pool):
    # the class lies on its witness's plane, but the witness is no pool
    # divisor
    pair = top.pair
    cls = point_class(curve, pair, pool[4])
    with pytest.raises(WitnessNotMinimalError):
        flow_line_point(curve, pair, cls, Divisor.of_point(pool[4]),
                        pool[:4])


# -- downward limits ---------------------------------------------------------

def test_downward_limit_single_point(curve, top, pool):
    pair = top.pair
    p = pool[0]
    x = flow_line_point(curve, pair, point_class(curve, pair, p),
                        Divisor.of_point(p), pool)
    limit = downward_limit(curve, top, x)
    assert limit.d == 2
    assert limit.pair.L1_rep == top.pair.L1_rep - Divisor.of_point(p)
    assert limit.pair.L2_rep == top.pair.L2_rep + Divisor.of_point(p)
    assert limit.pair.M_rep == top.pair.M_rep
    assert section_order(curve, limit, p) == section_order(curve, top, p) + 2


def test_downward_limit_double_point(curve, top, pool):
    pair = top.pair
    p = pool[0]
    D = Divisor.of_point(p, 2)
    x = flow_line_point(curve, pair, class_with_witness(curve, pair, D),
                        D, pool)
    limit = downward_limit(curve, top, x)
    assert limit.d == 1
    assert section_order(curve, limit, p) == section_order(curve, top, p) + 4


def test_downward_limit_budget(curve, top, pool):
    pair = top.pair
    D = Divisor.of_point(pool[0], 3)   # 2 deg = 6 >= delta = 5
    x = FlowLinePoint(class_with_witness(curve, pair, D), D)
    with pytest.raises(BoundViolationError, match="need d1 > d2"):
        downward_limit(curve, top, x)


def test_downward_limit_requires_minimal_witness(curve, top, pool):
    pair = top.pair
    cls = point_class(curve, pair, pool[0])
    fat = Divisor.of_point(pool[0]) + Divisor.of_point(pool[2])
    with pytest.raises(WitnessNotMinimalError):
        downward_limit(curve, top, FlowLinePoint(cls, fat))


def test_downward_limit_refuses_a_class_off_the_witness_plane(curve, top,
                                                              pool):
    """The class of pool[4] lies on no plane of pool[0] + pool[2], so the
    lower-degree clause cannot catch it: the plane clause itself must."""
    pair = top.pair
    cls = point_class(curve, pair, pool[4])
    D = Divisor.of_point(pool[0]) + Divisor.of_point(pool[2])
    with pytest.raises(WitnessNotMinimalError, match="not a minimal witness"):
        downward_limit(curve, top, FlowLinePoint(cls, D))


def test_downward_limit_validates_its_top(curve):
    # (1 + y)/x = (1 - x^4)/(1 - y) has a pole only at p = (0, 1) (simple)
    # and at infinity (order 3, absorbed by the bundle divisor 3*inf)
    phi = CurveFunction(curve, Poly([1]), Poly([1]), Poly([0, 1]))
    L1, L2, M = Divisor({INF: 3}), Divisor({INF: -2}), Divisor({INF: 8})
    with pytest.raises(MalformedInputError, match="^phi: "):
        make_critical_point(curve, L1, L2, M, phi)
    raw = CriticalPointData(BundlePair.at_infinity(3, -2, 8), phi)
    p = curve.point(0, 1)
    x = FlowLinePoint(point_class(curve, raw.pair, p), Divisor.of_point(p))
    # the twist would gain a double zero at p and hide the pole
    with pytest.raises(MalformedInputError, match="^phi: "):
        downward_limit(curve, raw, x)


# -- upward targets ----------------------------------------------------------

def test_upward_targets_relists_the_used_witness(curve, top, pool):
    pair = top.pair
    p = pool[0]
    x = flow_line_point(curve, pair, point_class(curve, pair, p),
                        Divisor.of_point(p), pool)
    bottom = downward_limit(curve, top, x)
    ups = upward_targets(curve, bottom, pool)
    assert ups == [(Divisor.of_point(p), 3)]


def test_upward_targets_respect_section_divisibility(curve, one, pool):
    # a deeper bottom: twist by p twice; then only multiples of p up to
    # the order cap and the level window qualify
    p = pool[0]
    bottom = make_critical_point(
        curve, Divisor({INF: 3}) - Divisor.of_point(p, 2),
        Divisor({INF: -2}) + Divisor.of_point(p, 2), Divisor({INF: 6}), one)
    ups = upward_targets(curve, bottom, pool)
    assert ups == [(Divisor.of_point(p), 2),
                   (Divisor.of_point(p, 2), 3)]


def test_upward_targets_validate_the_bottom(curve):
    # x^2/(x - 1) has simple poles on the fibre over x = 1, which the
    # bundle divisor L2 - L1 + M = 3*inf does not absorb
    phi = CurveFunction(curve, Poly([0, 0, 1]), Poly.zero(), Poly([-1, 1]))
    L1, L2, M = Divisor({INF: 2}), Divisor({INF: -1}), Divisor({INF: 6})
    with pytest.raises(MalformedInputError, match="^phi: "):
        make_critical_point(curve, L1, L2, M, phi)
    raw = CriticalPointData(BundlePair.at_infinity(2, -1, 6), phi)
    with pytest.raises(MalformedInputError, match="^phi: "):
        upward_targets(curve, raw, [curve.point(0, 1), curve.point(1, 1)])


def test_upward_targets_level_window(curve, one, pool):
    # at the top level no flow line can arrive from above
    top_level = make_critical_point(curve, Divisor({INF: 3}),
                                    Divisor({INF: -2}), Divisor({INF: 6}),
                                    one)
    assert upward_targets(curve, top_level, pool) == []


# -- chain records -----------------------------------------------------------

def test_chain_bookkeeping(curve, top, pool, criterion_7_runs):
    chain = enumerate_chains(curve, top, 2, pool)[0]
    assert chain.budget == 1
    assert chain.bottom.d == 2
    assert chain.levels() == [2]
    assert [w.degree for w in chain.witnesses()] == [1]
    # the levels and the budget read the points; the limits are derived
    for run_top, ell, run_pool, expected in criterion_7_runs.values():
        chains = enumerate_chains(curve, run_top, ell, run_pool)
        assert len(chains) == expected
        for c in chains:
            assert c.levels() == [data.d for _, data in c.steps]
            assert c.budget == run_top.d - c.bottom.d == run_top.d - ell
            assert c.bottom == c.steps[-1][1]
            assert c.witnesses() == [x.witness for x in c.points]


def test_chain_requires_steps(curve, top, pool):
    with pytest.raises(MalformedInputError) as err:
        ChainRecord(top, ())
    assert err.value.field == "points"
    # a step is its flow-line point alone, never a (point, limit) pair
    (step,) = enumerate_chains(curve, top, 2, pool)[0].steps
    for entry in (step, step[1], None):
        with pytest.raises(MalformedInputError) as err:
            ChainRecord(top, (step[0], entry))
        assert err.value.field == "points"


def test_with_phases(curve, top, pool):
    chain = enumerate_chains(curve, top, 1, pool)[0]
    phased = with_phases(chain, [Fraction(1, 3)] * len(chain.points))
    assert all(x.phase == Fraction(1, 3) for x in phased.points)
    # a phase moves no limit, and erasing the phases forgets them
    assert ([data for _, data in phased.steps]
            == [data for _, data in chain.steps])
    assert G_map(phased) == G_map(chain) != phased


@pytest.mark.parametrize("phase", [0.1, 0.0, True, False, "1/3", 1j])
def test_phase_must_be_exact(curve, top, pool, phase):
    chain = enumerate_chains(curve, top, 2, pool)[0]
    with pytest.raises(MalformedInputError) as err:
        with_phases(chain, [phase])
    assert err.value.field == "phase"
    x = chain.points[0]
    with pytest.raises(MalformedInputError):
        FlowLinePoint(x.cls, x.witness, phase)
    assert with_phases(chain, [0]).points[0].phase == 0



@pytest.mark.parametrize("bad", [None, 4, "top"])
def test_chain_top_must_be_a_critical_point(curve, top, pool, bad):
    x = enumerate_chains(curve, top, 2, pool)[0].points[0]
    with pytest.raises(MalformedInputError) as err:
        ChainRecord(bad, (x,))
    assert err.value.field == "top"
    assert ChainRecord(top, (x,)).levels() == [top.d - x.witness.degree]

# -- enumeration -------------------------------------------------------------

def test_enumerate_budget_one(curve, top, pool):
    chains = enumerate_chains(curve, top, 2, pool)
    assert len(chains) == 6
    assert all(c.budget == 1 and c.bottom.d == 2 for c in chains)
    assert {c.steps[0][0].witness for c in chains} == {
        Divisor.of_point(p) for p in pool}


def test_enumerate_budget_two(curve, top, pool):
    chains = enumerate_chains(curve, top, 1, pool)
    shapes = Counter(tuple(x.witness.degree for x, _ in c.steps)
                     for c in chains)
    assert len(chains) == 57
    assert dict(shapes) == {(1, 1): 36, (2,): 21}


def test_enumerate_budget_three(curve, one):
    pool4 = [curve.point(0, 1), curve.point(0, -1),
             curve.point(1, 1), curve.point(1, -1)]
    top = make_critical_point(curve, Divisor({INF: 4}), Divisor({INF: -3}),
                              Divisor({INF: 8}), one)
    chains = enumerate_chains(curve, top, 1, pool4)
    shapes = Counter(tuple(x.witness.degree for x, _ in c.steps)
                     for c in chains)
    assert len(chains) == 164
    assert dict(shapes) == {(1, 1, 1): 64, (1, 2): 40, (2, 1): 40, (3,): 20}


def test_enumerate_level_windows(curve, top, pool):
    with pytest.raises(BoundViolationError):
        enumerate_chains(curve, top, 5, pool)     # outside the range
    with pytest.raises(BoundViolationError):
        enumerate_chains(curve, top, 3, pool)     # needs ell < u


def test_enumerate_rejects_bad_pool(curve, top, pool):
    with pytest.raises(InadmissibleSupportError):
        enumerate_chains(curve, top, 2, pool + [pool[0]])


def test_chains_twist_consistently(curve, top, pool):
    for chain in enumerate_chains(curve, top, 1, pool):
        level = top
        for x, data in chain.steps:
            assert data.pair.L1_rep == level.pair.L1_rep - x.witness
            assert data.pair.L2_rep == level.pair.L2_rep + x.witness
            assert data.d == level.d - x.witness.degree
            for p, mult in x.witness.items():
                assert section_order(curve, data, p) >= 2 * mult
            level = data


# -- projections and the diagram ---------------------------------------------

def test_projection_maps(curve, top, pool):
    chain = enumerate_chains(curve, top, 1, pool)[0]
    erased = G_map(chain)
    assert all(x.phase is None for x, _ in erased.steps)
    first = P_morse(chain)
    assert first.phase == Fraction(0)
    sec = P_sec(chain)
    assert sec == first.erased()


def test_commuting_square_budget_two(curve, top, pool):
    rep = commuting_check(curve, top, 1, pool)
    assert rep.ok
    assert (rep.chains, rep.first_steps) == (57, 27)
    assert rep.commute_failures == 0 and rep.fibre_failures == 0


def test_fibres_count_continuations(curve, top, pool):
    # every first step of degree n at level 3 - n must carry as many
    # chains as the inner enumeration from its limit
    chains = enumerate_chains(curve, top, 1, pool)
    groups: dict = {}
    for c in chains:
        x = c.steps[0][0]
        groups.setdefault((x.cls, x.witness), []).append(c)
    for group in groups.values():
        inner = group[0].steps[0][1]
        if inner.d == 1:
            assert len(group) == 1
        else:
            assert len(group) == len(enumerate_chains(curve, inner, 1, pool))


# -- the chain DAG against a plain recursive walk -----------------------------

def reference_walk(curve, top, ell, pool):
    """Every chain's steps by plain recursion, with no memo of nodes: each
    node is re-expanded on every path that reaches it."""
    pool = tuple(pool)

    def walk(node):
        if node.d == ell:
            yield ()
            return
        if 2 * node.d >= node.degE + node.degM:
            return
        for n in range(1, node.d - ell + 1):
            for D in pool_divisors(pool, n):
                cls = resolution._canonical_class(curve, node.pair, D, pool)
                x = FlowLinePoint(cls, D)
                limit = downward_limit(curve, node, x)
                for rest in walk(limit):
                    yield ((x, limit),) + rest

    return list(walk(top))


@pytest.fixture(scope="module")
def criterion_7_runs(curve, one, pool, top):
    top_b = make_critical_point(curve, Divisor({INF: 4}), Divisor({INF: -3}),
                                Divisor({INF: 8}), one)
    return {"budget_1": (top, 2, pool, 6), "budget_2": (top, 1, pool, 57),
            "budget_3": (top_b, 1, pool[:4], 164)}


@pytest.mark.parametrize("run", ["budget_1", "budget_2", "budget_3"])
def test_enumeration_matches_reference_walk(curve, criterion_7_runs, run):
    top, ell, pool, expected = criterion_7_runs[run]
    chains = enumerate_chains(curve, top, ell, pool)
    reference = reference_walk(curve, top, ell, pool)
    assert len(reference) == expected
    # witnesses, classes, phases and limits, step by step, in order
    assert [c.steps for c in chains] == reference


def chain_dag(curve, top, ell, pool):
    enumerate_chains(curve, top, ell, pool)
    return resolution._continuations(curve, top, ell, tuple(pool))


@pytest.mark.parametrize("run", ["budget_1", "budget_2", "budget_3"])
def test_canonical_class_is_the_column_sum(curve, criterion_7_runs, run):
    """On every edge of the DAG the class is the plain sum of the witness
    plane's columns, and the witness is its unique minimal pool witness."""
    top, ell, pool, _ = criterion_7_runs[run]
    edges = 0
    for node, (steps, _) in chain_dag(curve, top, ell, pool).items():
        pair = node.pair
        for x, _ in steps:
            D = x.witness
            plane = secant_plane(curve, pair, D)
            assert x.cls.coords == tuple(sum(row) for row in plane.matrix())
            res = secant.stratum_membership(curve, pair, x.cls, pool,
                                            D.degree)
            assert res == secant.StratumResult(D.degree, (D,)) and res.unique
            edges += 1
    assert edges > 0


# the witness, and the plane whose column sum stands in for its class
WRONG_COLUMN_SUMS = {
    # the class of pool[1] is off the plane of pool[0]
    "off_its_plane": ((0,), (1,)),
    # the class of pool[0] lies on the plane of pool[0] + pool[2], and on
    # the degree-1 plane of pool[0] too
    "on_a_lower_plane": ((0, 2), (0,)),
}


@pytest.mark.parametrize("case", sorted(WRONG_COLUMN_SUMS))
def test_canonical_class_checks_its_witness(monkeypatch, curve, top, pool,
                                            case):
    witness, summed = (Divisor([(pool[i], 1) for i in idx])
                       for idx in WRONG_COLUMN_SUMS[case])
    pair = top.pair
    plane = secant_plane(curve, pair, summed)
    monkeypatch.setattr(resolution, "secant_plane", lambda *args: plane)
    with pytest.raises(DegenerateRankError):
        resolution._canonical_class.__wrapped__(curve, pair, witness,
                                                tuple(pool))


@pytest.mark.parametrize("run", ["budget_1", "budget_2", "budget_3"])
def test_dag_counts_match_reference_walk(curve, criterion_7_runs, run):
    top, ell, pool, expected = criterion_7_runs[run]
    dag = chain_dag(curve, top, ell, pool)
    assert dag[top][1] == expected
    for node, (_, count) in dag.items():
        assert count == len(reference_walk(curve, node, ell, pool)), node


@pytest.mark.parametrize("run", ["budget_1", "budget_2", "budget_3"])
def test_cold_dag_build_takes_one_limit_per_edge(monkeypatch, curve,
                                                 criterion_7_runs, run):
    top, ell, pool, _ = criterion_7_runs[run]
    calls = []
    twist = resolution._witness_twist

    def counted(*args):
        calls.append(args)
        return twist(*args)

    resolution._continuations.cache_clear()
    monkeypatch.setattr(resolution, "_witness_twist", counted)
    dag = chain_dag(curve, top, ell, pool)
    assert len(calls) == sum(len(steps) for steps, _ in dag.values())
    assert {(node, x.witness) for node, (steps, _) in dag.items()
            for x, _ in steps} == {(node, D) for node, D in calls}


def test_cold_dag_build_validates_only_its_top(curve, criterion_7_runs):
    top, ell, pool, _ = criterion_7_runs["budget_3"]
    resolution._continuations.cache_clear()
    resolution._validate_critical_point.cache_clear()
    dag = chain_dag(curve, top, ell, pool)
    info = resolution._validate_critical_point.cache_info()
    assert len(dag) > 1
    assert (info.misses, info.hits) == (1, 0)


def test_cold_dag_build_rechecks_no_edge(monkeypatch, curve,
                                         criterion_7_runs):
    """Each edge's certificate is the canonical class's
    ``minimal_pool_witness``, which tests its planes inside ``secant``
    (``resolution`` imports no membership test): the DAG does not take
    the public limit."""
    top, ell, pool, expected = criterion_7_runs["budget_3"]

    def refused(*args):
        raise AssertionError("the DAG re-checked an edge")

    resolution._continuations.cache_clear()
    monkeypatch.setattr(resolution, "downward_limit", refused)
    assert len(enumerate_chains(curve, top, ell, pool)) == expected
    rep = commuting_check(curve, top, ell, pool)
    assert rep.chains == expected and rep.ok


def test_dag_budget_invariant_fires_below_the_level_range(curve, one, pool):
    """Below the level range a witness outgrows the budget; the twisted
    pair's window refuses it (the query's range check never lets it
    happen)."""
    top = make_critical_point(curve, Divisor({INF: 4}), Divisor({INF: -3}),
                              Divisor({INF: 8}), one)
    with pytest.raises(BoundViolationError, match="need d1 > d2"):
        resolution._continuations.__wrapped__(curve, top, 0, tuple(pool[:4]))


@pytest.mark.parametrize("run", ["budget_1", "budget_2", "budget_3"])
def test_warm_diagram_check_builds_first_steps_only(monkeypatch, curve,
                                                    criterion_7_runs, run):
    top, ell, pool, expected = criterion_7_runs[run]
    chain_dag(curve, top, ell, pool)
    built = []
    check = ChainRecord.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(ChainRecord, "__post_init__", counted)
    rep = commuting_check(curve, top, ell, pool)
    assert rep.chains == expected and rep.ok
    assert all(len(c.points) == 1 for c in built)
    assert len(built) <= 2 * rep.first_steps


@pytest.mark.parametrize("run", ["budget_1", "budget_2", "budget_3"])
def test_warm_chain_path_twists_nothing(monkeypatch, curve, criterion_7_runs,
                                        run):
    """Records hold points, and levels read witness degrees: on a warm DAG
    the enumeration, the diagram check and the JSON form twist nothing."""
    top, ell, pool, expected = criterion_7_runs[run]
    chain_dag(curve, top, ell, pool)
    calls = []
    twist = CriticalPointData.twisted

    def counted(self, D):
        calls.append(D)
        return twist(self, D)

    monkeypatch.setattr(CriticalPointData, "twisted", counted)
    chains = enumerate_chains(curve, top, ell, pool)
    rep = commuting_check(curve, top, ell, pool)
    out = [serialize.chain_to_json(c) for c in chains]
    assert len(out) == rep.chains == expected and rep.ok
    assert calls == []
    # reading a record's limits is what twists: once per step
    chains[-1].steps
    assert calls == chains[-1].witnesses()


@pytest.mark.parametrize("run", ["budget_1", "budget_3"])
def test_one_shot_pool(curve, criterion_7_runs, run):
    top, ell, pool, _ = criterion_7_runs[run]
    assert (enumerate_chains(curve, top, ell, iter(pool))
            == enumerate_chains(curve, top, ell, pool))
    assert (commuting_check(curve, top, ell, iter(pool))
            == commuting_check(curve, top, ell, pool))


# -- the diagram check can fail ------------------------------------------------

@pytest.fixture()
def one_first_step(monkeypatch, curve, top, pool):
    """P_morse broken: every chain is sent to the first chain's first step."""
    first = P_morse(enumerate_chains(curve, top, 2, pool)[0])
    monkeypatch.setattr(resolution, "P_morse", lambda chain: first)


def test_commuting_check_reports_failures(curve, top, pool, one_first_step):
    rep = commuting_check(curve, top, 2, pool)
    assert not rep.ok
    assert (rep.chains, rep.first_steps) == (6, 1)
    assert rep.commute_failures == 5 and rep.fibre_failures >= 1


def test_cli_exits_one_on_diagram_failure(tmp_path, capsys, curve, top, pool,
                                          one_first_step):
    paths = {}
    for name, payload in [("curve", serialize.curve_to_json(curve)),
                          ("top", serialize.critical_point_to_json(top)),
                          ("pool", serialize.pool_to_json(pool))]:
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(payload))
    code = cli.main(["chains", "--curve", str(paths["curve"]),
                     "--top", str(paths["top"]), "--ell", "2",
                     "--pool", str(paths["pool"]), "--check-diagram"])
    assert code == 1
    diagram = json.loads(capsys.readouterr().out)["diagram"]
    assert diagram["ok"] is False and diagram["fibre_failures"] >= 1
