"""The identity checks stay in force under ``python -O``.

Each case breaks one step behind an acceptance check with a monkeypatch
(or, for the chain DAG's budget, asks below the level range) and runs
the check's core call in a ``python -O`` subprocess, where every
``assert`` statement would be stripped; InvariantError must still be
raised.  The secant identities (the rank law, criterion 2, and the gcd
intersection, criterion 3) report a broken step as DegenerateRankError,
under ``-O`` alike.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import secantflow
from secantflow import cli, localmodel

PRELUDE = """\
import sys
if not sys.flags.optimize:
    sys.exit(3)
from secantflow import *
"""

# The last term of every y-series lift is off by one: the certificate of
# the expansion of y, which every local computation reads, must catch it.
PERTURBED_Y = """\
import secantflow.curve as c
exact = c.series.sqrt_series
def perturbed(a, y0, n):
    ys = list(exact(a, y0, n))
    ys[-1] += 1
    return ys
c.series.sqrt_series = perturbed
curve = make_curve([1, -1, 0, 0, 0, 1])
"""

CASES = {
    "criterion_1_section_certificate": """\
import secantflow.curve as c
c.valuation = lambda curve, h, p: -100
riemann_roch_space(standard_curve(2), Divisor({INF: 5}))
""",
    "criterion_1_integer_shift": """\
Poly.root_multiplicity = lambda self, x0: 0
curve = make_curve([1, -1, 0, 0, 0, 1])
riemann_roch_space(curve, Divisor({INF: 3, curve.point(0, 1): 2,
                                   curve.point(1, -1): -1}))
""",
    "criterion_1_order_threshold": """\
import secantflow.curve as c
c.integer_kernel = lambda rows, cols: [[1] + [0] * (cols - 1)]
curve = make_curve([1, -1, 0, 0, 0, 1])
riemann_roch_space(curve, Divisor({INF: 4, curve.point(0, 1): -1}))
""",
    "criterion_1_y_series_square": PERTURBED_Y + """\
riemann_roch_space(curve, Divisor({INF: 6, curve.point(0, 1): -2}))
""",
    "criterion_1_y_series_square_jet": PERTURBED_Y + """\
jet(curve, CurveFunction.y(curve), curve.point(0, 1), 3)
""",
    "criterion_4_codim_two_ways": """\
import secantflow.morse as m
m.unstable_fibre_dim = lambda params, d: 0
stratum_codim(ModuliParams(2, 1, 6), 1, 3)
""",
    "criterion_5_conjugation_keeps_trace": """\
import secantflow.localmodel as lm
lm.LocalMatrix.trace = lambda self: lm.ONE
flow_limit(2)
""",
    "criterion_6_order_gain": """\
curve = make_curve([1, -1, 0, 0, 0, 1])
one = CurveFunction(curve, Poly([1]), Poly.zero())
top = make_critical_point(curve, Divisor({INF: 3}), Divisor({INF: -2}),
                          Divisor({INF: 6}), one)
p = curve.point(0, 1)
x = FlowLinePoint(point_class(curve, top.pair(), p), Divisor.of_point(p))
CriticalPointData.twisted = lambda self, D: CriticalPointData(
    self.L1_rep - D, self.L2_rep, self.M_rep, self.phi)
downward_limit(curve, top, x)
""",
    "criterion_6_twist_keeps_phi": """\
curve = make_curve([1, -1, 0, 0, 0, 1])
one = CurveFunction(curve, Poly([1]), Poly.zero())
top = make_critical_point(curve, Divisor({INF: 3}), Divisor({INF: -2}),
                          Divisor({INF: 6}), one)
p = curve.point(0, 1)
x = FlowLinePoint(point_class(curve, top.pair(), p), Divisor.of_point(p))
two = CurveFunction(curve, Poly([2]), Poly.zero())
CriticalPointData.twisted = lambda self, D: CriticalPointData(
    self.L1_rep - D, self.L2_rep + D, self.M_rep, two)
downward_limit(curve, top, x)
""",
    "criterion_7_memoized_chain_step": """\
curve = make_curve([1, -1, 0, 0, 0, 1])
one = CurveFunction(curve, Poly([1]), Poly.zero())
top = make_critical_point(curve, Divisor({INF: 3}), Divisor({INF: -2}),
                          Divisor({INF: 6}), one)
pool = [curve.point(0, 1), curve.point(1, 1)]
CriticalPointData.twisted = lambda self, D: CriticalPointData(
    self.L1_rep - D, self.L2_rep, self.M_rep, self.phi)
enumerate_chains(curve, top, 2, pool)
""",
    # no patch: a DAG asked for a level below the range meets a witness
    # outside the secant bound, which the query's range check keeps out
    "criterion_7_dag_budget": """\
import secantflow.resolution as r
curve = make_curve([1, -1, 0, 0, 0, 1])
one = CurveFunction(curve, Poly([1]), Poly.zero())
top = make_critical_point(curve, Divisor({INF: 4}), Divisor({INF: -3}),
                          Divisor({INF: 8}), one)
pool = (curve.point(0, 1), curve.point(0, -1), curve.point(1, 1))
r._continuations.__wrapped__(curve, top, 0, pool)
""",
}


# Planes built before the patch, so only the intersection check can fire:
# those of p + q and p + r, whose witnesses meet in p, and that of p.
PLANES = """\
import secantflow.linalg as la
curve = make_curve([1, -1, 0, 0, 0, 1])
pair = BundlePair.at_infinity(5, 0, 5)
p, q, r = curve.point(0, 1), curve.point(1, 1), curve.point(-1, 1)
pl1 = secant_plane(curve, pair, Divisor.of_point(p) + Divisor.of_point(q))
pl2 = secant_plane(curve, pair, Divisor.of_point(p) + Divisor.of_point(r))
secant_plane(curve, pair, Divisor.of_point(p))
"""

# case -> (code, what the message names)
IDENTITY_CASES = {
    "criterion_2_rank_law": ("""\
import secantflow.secant as s
curve = make_curve([1, -1, 0, 0, 0, 1])
pair = BundlePair.at_infinity(5, 0, 5)
D = Divisor.of_point(curve.point(0, 1)) + Divisor.of_point(curve.point(1, 1))
first, block = D.items()[0][0], s._jet_block
# every point reads the first point's jets: the last column repeats
s._jet_block = lambda curve, pair, point, order: block(curve, pair, first,
                                                       order)
secant_plane(curve, pair, D)
""", "has rank 1, expected 2"),
    "criterion_2_rank_law_direct": ("""\
import secantflow.secant as s
curve = make_curve([1, -1, 0, 0, 0, 1])
pair = BundlePair.at_infinity(5, 0, 5)
block = s._jet_block.__wrapped__
# a jet block whose second column repeats its first, read by a plane
# built directly
s._jet_block = lambda curve, pair, point, order: (
    lambda cols: (cols[0], *cols[:-1]))(block(curve, pair, point, order))
SecantPlane(curve, pair, Divisor.of_point(curve.point(0, 1), 2))
""", "has rank 1, expected 2"),
    "criterion_3_intersection_dimension": (PLANES + """\
la.rank = lambda m: len(m)
plane_intersection(pl1, pl2)
""", "meet in dimension"),
    "criterion_3_intersection_containment": (PLANES + """\
Divisor.gcd = lambda self, other: Divisor.of_point(q)
plane_intersection(pl1, pl2)
""", "does not lie on both planes"),
}


def _stderr_under_optimize(code: str) -> str:
    src = str(Path(secantflow.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src if not path else src + os.pathsep + path}
    res = subprocess.run([sys.executable, "-O", "-c", PRELUDE + code],
                         capture_output=True, text=True, env=env, timeout=60)
    assert res.returncode == 1, res.stderr
    return res.stderr


@pytest.mark.parametrize("case", sorted(CASES))
def test_invariant_fires_under_optimize(case):
    err = _stderr_under_optimize(CASES[case])
    last = err.strip().splitlines()[-1]
    assert last.startswith("secantflow.errors.InvariantError: "), err


@pytest.mark.parametrize("case", sorted(IDENTITY_CASES))
def test_secant_identity_fires_under_optimize(case):
    code, message = IDENTITY_CASES[case]
    err = _stderr_under_optimize(code)
    last = err.strip().splitlines()[-1]
    assert last.startswith("secantflow.errors.DegenerateRankError: "), err
    assert message in last, err


def test_cli_reports_invariant_failure(monkeypatch, capsys):
    monkeypatch.setattr(localmodel.LocalMatrix, "trace",
                        lambda self: localmodel.ONE)
    assert cli.main(["local-model", "--m", "3"]) == 1
    assert capsys.readouterr().err == (
        "property failure [internal invariant]: "
        "conjugation must preserve the zero trace\n")
