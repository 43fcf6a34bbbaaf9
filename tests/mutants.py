"""Mutants that must die: each check shown to be load-bearing.

Each entry breaks one check of the package by replacing an exact piece
of its source, and names the tests that must fail on the broken copy.
For every entry, the runner copies ``src/`` to a temporary directory,
applies the one mutant there (the old text must occur exactly once, so a
refactor that moves the code fails loudly instead of skipping the
mutant), checks that ``secantflow`` imports from the copy, and runs the
named tests against it.  A named test that passes is a survivor.

Run it from anywhere (pytest does not collect this file)::

    python tests/mutants.py

It exits 0 when every mutant is applied and killed by each of its tests,
and 1 otherwise.  A check added later adds its mutant here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    file: str           # under src/secantflow/
    old: str            # exact text, occurring once
    new: str
    tests: tuple        # test ids, each of which must fail


R = "tests/test_resolution.py::"
S = "tests/test_secant.py::"
OPTIMIZED = "tests/test_invariants.py::test_invariant_fires_under_optimize"

MUTANTS = (
    # the chain step's order gain, in the one twist the DAG and
    # downward_limit share, and the one section it reads at both levels
    Mutant("resolution.py",
           "invariant(gained == 2 * mult,",
           "invariant(True,",
           (f"{OPTIMIZED}[criterion_6_order_gain]",
            f"{OPTIMIZED}[criterion_7_memoized_chain_step]")),
    Mutant("resolution.py",
           "invariant(limit.phi is top.phi,",
           "invariant(True,",
           (f"{OPTIMIZED}[criterion_6_twist_keeps_phi]",)),
    # the DAG's certificate: D is the column sum's minimal pool witness
    Mutant("resolution.py",
           "if not minimal_pool_witness(curve, pair, e, D, pool):",
           "if False:",
           (R + "test_canonical_class_checks_its_witness",)),
    # the certificate's three clauses: a pool divisor, the class on its
    # plane, and on no pool plane one degree below (downward_limit's
    # minimality is this rule, over its witness's own support)
    Mutant("secant.py",
           "return (all(p in pool for p, _ in D.items()) and",
           "return (True and",
           (R + "test_flow_line_point_rejects_a_witness_off_the_pool",)),
    Mutant("secant.py",
           "and plane_membership(e, plane)",
           "and True",
           (R + "test_flow_line_point_rejects_off_plane_class",
            R + "test_downward_limit_refuses_a_class_off_the_witness_plane")),
    Mutant("secant.py",
           "and not any(plane_membership(e, secant_plane(curve, pair, E))",
           "and not any(False",
           (R + "test_flow_line_point_rejects_non_minimal_witness",
            R + "test_downward_limit_requires_minimal_witness")),
    # the DAG's budget, which its level range implies
    Mutant("resolution.py",
           'invariant(2 * n < node.delta, "witness outside the secant bound")',
           "pass",
           (R + "test_dag_budget_invariant_fires_below_the_level_range",
            f"{OPTIMIZED}[criterion_7_dag_budget]")),
    # downward_limit's own checks: top and budget (its minimality is the
    # certificate's, above; the order gain is the first entry)
    Mutant("resolution.py",
           "    _validate_critical_point(curve, top)\n    D = x.witness",
           "    D = x.witness",
           (R + "test_downward_limit_validates_its_top",)),
    Mutant("resolution.py",
           "if 2 * D.degree >= top.delta:",
           "if False:",
           (R + "test_downward_limit_budget",)),
    # a plane, however it is built, keeps the degree bound and the rank law
    Mutant("secant.py",
           "if D.degree >= pair.delta:",
           "if False:",
           (S + "test_degree_bound_enforced",)),
    Mutant("secant.py",
           "if annihilator is None:",
           "if False:",
           (S + "test_a_directly_built_plane_checks_the_rank_law",
            S + "test_rank_law_failure_raises")),
    # Bareiss keeps one common pivot down the diagonal
    Mutant("linalg.py",
           "invariant(prev != 0 and all(a[i][c] == prev "
           "for i, c in enumerate(pivots)),",
           "invariant(True,",
           ("tests/test_linalg.py::test_rref_refuses_a_lost_common_pivot",)),
    # a twist's section space has the dimension Riemann-Roch gives
    Mutant("secant.py",
           "if space.dim != expected:",
           "if False:",
           (S + "test_twist_space_of_the_wrong_dimension_raises",)),
    # a chain record's limits are twisted from the limit before
    Mutant("resolution.py",
           "data = data.twisted(x.witness)",
           "data = self.top.twisted(x.witness)",
           (R + "test_enumeration_matches_reference_walk",
            R + "test_chain_bookkeeping")),
    # a chain record holds a critical point and flow-line points
    Mutant("resolution.py",
           "if not isinstance(self.top, CriticalPointData):",
           "if False:",
           (R + "test_chain_top_must_be_a_critical_point",)),
    Mutant("resolution.py",
           "if not all(isinstance(x, FlowLinePoint) for x in self.points):",
           "if False:",
           (R + "test_chain_requires_steps",)),
    # a jet is read in the twist's frame, refuses a pole and weighs each
    # term of the denominator's expansion by its power of q0
    Mutant("curve.py",
           "w = v - frame\n",
           "w = v\n",
           (S + "test_framed_jets_agree_with_sympy",
            S + "test_framed_jet_answers_poles_up_to_its_frame",
            S + "test_jet_block_is_the_old_construction")),
    Mutant("curve.py",
           "if any(N[:s]):",
           "if False:",
           (S + "test_framed_jets_agree_with_sympy",
            S + "test_framed_jet_answers_poles_up_to_its_frame")),
    Mutant("curve.py",
           "qs = [c * q0 ** i for i, c in enumerate(q[1:])]",
           "qs = [c * q0 ** (i + 1) for i, c in enumerate(q[1:])]",
           (S + "test_framed_jets_agree_with_sympy",)),
    # the Riemann-Roch certificate's bound, at infinity and at an affine
    # place, and the two checks of the Taylor passes it reads
    Mutant("curve.py",
           "return valuation(curve, h, p) + m >= 0",
           "return True",
           (f"{OPTIMIZED}[criterion_1_section_certificate]",)),
    Mutant("curve.py",
           "return not any(N)",
           "return True",
           (f"{OPTIMIZED}[criterion_1_order_threshold]",
            "tests/test_curve.py::"
            "test_order_threshold_rejects_outside_the_space")),
    Mutant("curve.py",
           "invariant(len(taylor) == v + 1 and taylor[v] and "
           "not any(taylor[:v]),",
           "invariant(True,",
           (f"{OPTIMIZED}[criterion_1_integer_shift]",)),
    Mutant("curve.py",
           "== E * E * fs[t] for t in range(n)))",
           "== E * E * fs[t] or True for t in range(n)))",
           (f"{OPTIMIZED}[criterion_1_y_series_square]",)),
    # a top's "d" is the integer deg L1
    Mutant("serialize.py",
           "if type(d) is not int or d != L1.degree:",
           "if False:",
           ("tests/test_boundary.py::"
            "test_top_level_other_than_deg_L1_exits_two",)),
)


def _failed(output: str) -> set[str]:
    """The ids pytest's short summary (-rfE) reports failed or errored."""
    ids = set()
    for line in output.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("FAILED", "ERROR"):
            ids.add(rest.split(" - ")[0].strip())
    return ids


def _killed_by(test: str, failed: set[str]) -> bool:
    return any(f == test or f.startswith(test + "[") for f in failed)


def run(mutant: Mutant) -> list[str]:
    """The problems with one mutant: empty when it is applied and every
    named test fails."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns(
            "__pycache__", "*.egg-info"))
        target = src / "secantflow" / mutant.file
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return [f"not applied: the old text occurs "
                    f"{text.count(mutant.old)} times in {mutant.file}"]
        target.write_text(text.replace(mutant.old, mutant.new),
                          encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(src),
               "PYTHONDONTWRITEBYTECODE": "1"}
        where = subprocess.run(
            [sys.executable, "-c",
             "import secantflow; print(secantflow.__file__)"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        module = Path(where.stdout.strip() or ".").resolve()
        if where.returncode != 0 or not module.is_relative_to(src.resolve()):
            return [f"not applied: secantflow imports from {module}, "
                    f"not from the copy {src}"]
        res = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE",
             "-p", "no:cacheprovider", *mutant.tests],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
        if res.returncode not in (0, 1):
            return [f"pytest exited {res.returncode}:\n{res.stdout}"
                    f"{res.stderr}"]
        failed = _failed(res.stdout)
        return [f"survived {test}" for test in mutant.tests
                if not _killed_by(test, failed)]


def main() -> int:
    bad = 0
    for i, mutant in enumerate(MUTANTS):
        started = time.perf_counter()
        problems = run(mutant)
        took = time.perf_counter() - started
        first = mutant.old.strip().splitlines()[0]
        print(f"[{i}] {mutant.file}: {first!r}: "
              f"{'killed' if not problems else 'FAILED'} ({took:.1f} s)")
        for problem in problems:
            print(f"    {problem}")
        bad += bool(problems)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
