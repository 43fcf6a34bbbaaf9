"""Acceptance gate: one test per documented guarantee, exact tolerances.

Every check here is all-or-nothing (no numerical slack); each test prints
a single PASS/FAIL summary line (visible with pytest -s).
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, product

import pytest

from linalg_helpers import column_span_intersection
from secantflow import (
    INF,
    BundlePair,
    CurveFunction,
    Divisor,
    DualClass,
    ModuliParams,
    Poly,
    commuting_check,
    downward_limit,
    enumerate_chains,
    fibre_dim_crosscheck,
    flow_line_point,
    h1_dim,
    linalg,
    make_critical_point,
    make_curve,
    morse_index,
    plane_intersection,
    pool_divisors,
    riemann_roch_space,
    secant_plane,
    section_order,
    smale_check,
    standard_curve,
    stratum_codim,
    unstable_fibre_dim,
    upward_targets,
)
from secantflow.localmodel import (
    ONE,
    ZERO,
    LocalMatrix,
    flow_limit,
    limit_vanishing_order,
    phi,
    product_smoothness,
    z_pow,
)
from secantflow.secant import embedding_matrix


@contextmanager
def criterion(number, label, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} [FAIL] {label}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, (
        f"criterion {number} exceeded its {budget_s}s budget: {elapsed:.1f}s")
    print(f"criterion {number} [PASS] {label} ({elapsed:.1f}s)")


def g2_pool(curve):
    return [curve.point(x, y) for x, y in [(0, 2), (0, -2), (1, 3), (1, -3)]]


def g3_pool(curve):
    return [curve.point(x, y) for x, y in [(0, 1), (0, -1)]]


def generic_class_on(curve, pair, D):
    mat = embedding_matrix(curve, pair, D)
    cols = list(zip(*mat))
    return DualClass(tuple(sum(c[i] for c in cols) for i in range(len(mat))))


def test_criterion_1_riemann_roch_identity():
    with criterion(1, "euler identity h0(D) - h0(K-D) = deg D - g + 1",
                   budget_s=30):
        count = 0
        for curve, pool in [(standard_curve(2), None),
                            (standard_curve(3), None)]:
            pts = (g2_pool(curve) if curve.genus == 2 else g3_pool(curve))
            seen = set()
            for grid in [(0, 1, 2), (-1, 0, 1)]:
                for k in (-5, -3, -1, 0, 1, 3):
                    for vec in product(grid, repeat=len(pts)):
                        D = Divisor({INF: k}) + Divisor(list(zip(pts, vec)))
                        if not -5 <= D.degree <= 10 or D in seen:
                            continue
                        seen.add(D)
                        lhs = (riemann_roch_space(curve, D).dim
                               - h1_dim(curve, D))
                        assert lhs == D.degree - curve.genus + 1, (D, lhs)
                        count += 1
        assert count >= 200, count


def test_criterion_2_secant_rank_law():
    with criterion(2, "jet matrix rank = witness degree for all N < d1-d2",
                   budget_s=60):
        g2, g3 = standard_curve(2), standard_curve(3)
        p2, q2 = g2.point(0, 2), g2.point(1, 3)
        p3 = g3.point(0, 1)
        # representative styles: all at infinity, part of L1 at a pool
        # point, and a pole of L1 at a pool point (both local-frame
        # branches of the jet computation)
        configs = [
            (g2, g2_pool(g2), [
                lambda d: Divisor({INF: d}),
                lambda d: (Divisor({INF: d - 2}) + Divisor.of_point(p2)
                           + Divisor.of_point(q2)),
                lambda d: Divisor({INF: d + 2}) + Divisor.of_point(p2, -2),
            ]),
            (g3, g3_pool(g3), [
                lambda d: Divisor({INF: d}),
                lambda d: Divisor({INF: d - 1}) + Divisor.of_point(p3),
            ]),
        ]
        count = 0
        for curve, pool, rep_makers in configs:
            for delta in (4, 5, 6):
                for make_L1 in rep_makers:
                    pair = BundlePair(delta, 0, delta, make_L1(delta),
                                      Divisor.zero(), Divisor({INF: delta}))
                    for N in range(1, delta):
                        for D in pool_divisors(pool, N):
                            plane = secant_plane(curve, pair, D)
                            assert plane.rank == N
                            assert linalg.rank(plane.matrix()) == N
                            count += 1
        assert count >= 500, count


def test_criterion_3_intersection_law():
    with criterion(3, "span intersection dimension = deg gcd(D1, D2)",
                   budget_s=60):
        curve = standard_curve(2)
        pair = BundlePair.at_infinity(5, 0, 5)
        pool = g2_pool(curve)
        small = [D for N in (1, 2) for D in pool_divisors(pool, N)]
        deg3 = list(pool_divisors(pool, 3))
        pairs = list(combinations(small, 2))
        pairs += [(D1, D2) for D1 in deg3 for D2 in small if D2.degree == 1]
        count = 0
        for D1, D2 in pairs:
            pl1 = secant_plane(curve, pair, D1)
            pl2 = secant_plane(curve, pair, D2)
            gcd = D1.gcd(D2)
            inter_basis = column_span_intersection(
                pl1.matrix(), pl2.matrix())
            assert len(inter_basis) == gcd.degree, (D1, D2)
            inter = plane_intersection(pl1, pl2)
            assert (inter is None) == gcd.is_zero()
            if inter is not None:
                assert inter.witness == gcd
            count += 1
        assert count >= 100, count


def test_criterion_4_index_identities():
    with criterion(4, "stratum codim = Morse index; fibre dim = h1",
                   budget_s=5):
        curves = {2: standard_curve(2), 3: standard_curve(3)}
        for g, degE, degM in product((2, 3), (0, 1), range(2, 9)):
            params = ModuliParams(g, degE, degM)
            levels = list(params.level_range())
            for u in levels:
                for ell in levels:
                    if ell < u:
                        assert (stratum_codim(params, ell, u)
                                == morse_index(params, ell))
            assert smale_check(params).ok
            rows = fibre_dim_crosscheck(params, curve=curves[g], rng=None)
            assert rows and all(r["ok"] for r in rows)
            for d in levels:
                assert 2 * unstable_fibre_dim(params, d) == morse_index(
                    params, d)


def test_criterion_5_local_model():
    with criterion(5, "det = 1, unimodular eta slices, flow limit z^(2m) phi",
                   budget_s=2):
        for m in range(1, 9):
            report = product_smoothness(m)
            assert report.det_is_one and report.ok
            assert report.eta0_slice == LocalMatrix(
                ((z_pow(m), -ONE), (ONE, ZERO)))
            assert report.eta1_slice == LocalMatrix.diag(z_pow(m), z_pow(-m))
            limit = flow_limit(m)
            assert limit == LocalMatrix(
                ((ZERO, z_pow(2 * m) * phi()), (ZERO, ZERO)))
            assert limit_vanishing_order(m) == 2 * m


def test_criterion_6_downward_upward_consistency():
    with criterion(6, "flow limits gain order 2*mult and are re-listed "
                      "upward", budget_s=60):
        curve = make_curve([1, -1, 0, 0, 0, 1])
        pool = [curve.point(x, y) for x, y in
                [(0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)]]
        rng = random.Random(20260822)
        done = 0
        while done < 50:
            u = rng.randint(2, 4)
            degE = rng.randint(0, 1)
            degM = 2 * u - degE + rng.randint(1, 4)
            delta = 2 * u - degE
            degD = rng.randint(1, (delta - 1) // 2)
            D = Divisor([(rng.choice(pool), 1) for _ in range(degD)])
            k = rng.randint(0, min(2, (degE + degM - 2 * u) // 2))
            section = CurveFunction(curve, Poly([0] * k + [1]), Poly.zero())
            top = make_critical_point(curve, Divisor({INF: u}),
                                      Divisor({INF: degE - u}),
                                      Divisor({INF: degM}), section)
            x = flow_line_point(curve, top.pair(),
                                generic_class_on(curve, top.pair(), D),
                                D, pool)
            before = {p: section_order(curve, top, p) for p, _ in D.items()}
            limit = downward_limit(curve, top, x)
            for p, mult in D.items():
                assert (section_order(curve, limit, p)
                        == before[p] + 2 * mult), (top, D, p)
            assert (D, u) in upward_targets(curve, limit, pool), (
                top, D)
            done += 1
        assert done >= 50


def test_criterion_7_resolution_diagram():
    with criterion(7, "projections commute and fibre counts recurse, "
                      "budgets 1..3", budget_s=120):
        curve = make_curve([1, -1, 0, 0, 0, 1])
        pool6 = [curve.point(x, y) for x, y in
                 [(0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)]]
        pool4 = pool6[:4]
        one = CurveFunction(curve, Poly([1]), Poly.zero())
        top_a = make_critical_point(curve, Divisor({INF: 3}),
                                    Divisor({INF: -2}), Divisor({INF: 6}),
                                    one)
        top_b = make_critical_point(curve, Divisor({INF: 4}),
                                    Divisor({INF: -3}), Divisor({INF: 8}),
                                    one)
        runs = [
            (top_a, 2, pool6, 6),      # budget 1
            (top_a, 1, pool6, 57),     # budget 2
            (top_b, 1, pool4, 164),    # budget 3
        ]
        for top, ell, pool, expected in runs:
            assert len(enumerate_chains(curve, top, ell, pool)) == expected
            report = commuting_check(curve, top, ell, pool)
            assert report.ok, report
            assert report.chains == expected
            assert report.commute_failures == 0
            assert report.fibre_failures == 0


def test_criterion_8_cli_determinism(tmp_path):
    with criterion(8, "repeated seeded CLI runs are byte-identical",
                   budget_s=60):
        curve = tmp_path / "curve.json"
        curve.write_text(json.dumps({"f": ["1", "-1", "0", "0", "0", "1"]}))
        top = tmp_path / "top.json"
        top.write_text(json.dumps(
            {"L1": {"inf": 3, "affine": []}, "L2": {"inf": -2, "affine": []},
             "M": {"inf": 6, "affine": []},
             "phi": {"a": ["1"], "b": [], "den": ["1"]}}))
        pool = tmp_path / "pool.json"
        pool.write_text(json.dumps({"points": [
            {"x": "0", "y": "1"}, {"x": "0", "y": "-1"},
            {"x": "1", "y": "1"}, {"x": "1", "y": "-1"},
            {"x": "-1", "y": "1"}, {"x": "-1", "y": "-1"}]}))
        commands = [
            ["verify-identities", "--g", "2", "--degE", "1", "--degM", "6",
             "--seed", "7"],
            ["local-model", "--m", "3"],
            ["chains", "--curve", str(curve), "--top", str(top),
             "--ell", "1", "--pool", str(pool), "--seed", "7"],
        ]
        for args in commands:
            outs = set()
            for _ in range(2):
                res = subprocess.run([sys.executable, "-m", "secantflow",
                                      *args], capture_output=True)
                assert res.returncode == 0, (args, res.stderr)
                outs.add(res.stdout)
            assert len(outs) == 1, f"output of {args[0]} varies across runs"
            payload = json.loads(outs.pop())
            assert payload["schema_version"] == 1
