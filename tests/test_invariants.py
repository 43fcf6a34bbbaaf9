"""The identity checks stay in force under ``python -O``.

Each case breaks one step behind an acceptance check with a monkeypatch
and runs the check's core call in a ``python -O`` subprocess, where every
``assert`` statement would be stripped; InvariantError must still be
raised.
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
c.nullspace = lambda rows, cols: [[1] + [0] * (cols - 1)]
curve = make_curve([1, -1, 0, 0, 0, 1])
riemann_roch_space(curve, Divisor({INF: 4, curve.point(0, 1): -1}))
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
import secantflow.resolution as r
curve = make_curve([1, -1, 0, 0, 0, 1])
one = CurveFunction(curve, Poly([1]), Poly.zero())
top = make_critical_point(curve, Divisor({INF: 3}), Divisor({INF: -2}),
                          Divisor({INF: 6}), one)
p = curve.point(0, 1)
x = FlowLinePoint(point_class(curve, top.pair(), p), Divisor.of_point(p))
r.section_order = lambda curve, data, p: 0
downward_limit(curve, top, x)
""",
    "criterion_7_memoized_chain_step": """\
import secantflow.resolution as r
curve = make_curve([1, -1, 0, 0, 0, 1])
one = CurveFunction(curve, Poly([1]), Poly.zero())
top = make_critical_point(curve, Divisor({INF: 3}), Divisor({INF: -2}),
                          Divisor({INF: 6}), one)
pool = [curve.point(0, 1), curve.point(1, 1)]
r.section_order = lambda curve, data, p: 0
enumerate_chains(curve, top, 2, pool)
""",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_invariant_fires_under_optimize(case):
    src = str(Path(secantflow.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src if not path else src + os.pathsep + path}
    res = subprocess.run([sys.executable, "-O", "-c", PRELUDE + CASES[case]],
                         capture_output=True, text=True, env=env, timeout=60)
    assert res.returncode == 1, res.stderr
    last = res.stderr.strip().splitlines()[-1]
    assert last.startswith("secantflow.errors.InvariantError: "), res.stderr


def test_cli_reports_invariant_failure(monkeypatch, capsys):
    monkeypatch.setattr(localmodel.LocalMatrix, "trace",
                        lambda self: localmodel.ONE)
    assert cli.main(["local-model", "--m", "3"]) == 1
    assert capsys.readouterr().err == (
        "property failure [internal invariant]: "
        "conjugation must preserve the zero trace\n")
