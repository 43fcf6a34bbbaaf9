"""Broken flow lines between critical levels and their chain combinatorics.

A critical point is a split bundle with a nilpotent off-diagonal field,
held here as divisor representatives plus one rational function reused as
the section across every twist; it is validated where it enters, once
per curve.  A flow line leaving it is recorded by the dual class of its
initial condition with the minimal secant witness of that class; the
downward limit is the witness twist (``CriticalPointData.twisted``), valid
by construction, and the section reappears with a double zero along it.

Chains of such steps are the strata of the iterated-blowup picture: the
paths of one DAG of critical points per query, each node expanded once and
holding its edges and the number of chains below it; one certificate per
edge, that its class lies on its witness's plane and on no pool plane one
degree below.  A record keeps its top and its flow-line points; its limits
are the successive witness twists, derived when read and never stored.
``commuting_check`` verifies that projecting to the first secant point
commutes with erasing the circle phases, together with the exact
fibre-counting law of the first-step projection.  It checks the top's
first-step edges, each weighted by its chain count, which assumes
``P_morse`` and ``P_sec`` read only a chain's first step.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from .curve import (INF, CurveFunction, CurvePoint, Divisor,
                    HyperellipticCurve, valuation,
                    validate_support)
from .errors import (BudgetViolationError, DegenerateRankError,
                     MalformedInputError, ResolutionBoundViolationError,
                     UnsupportedSupportError, Value, WitnessNotMinimalError,
                     ZeroSectionError, invariant, replace)
from .morse import ModuliParams
from .secant import (BundlePair, DualClass, checked_pool,
                     minimal_pool_witness, pool_divisors, secant_plane)


class FlowLinePoint(Value):
    """Initial condition of a flow line: dual class, minimal witness,
    and the circle phase (None once the phase has been erased)."""

    cls: DualClass
    witness: Divisor
    phase: Fraction | None = Fraction(0)

    def __post_init__(self):
        if self.witness.degree < 1:
            raise MalformedInputError("witness must have degree >= 1",
                                      field="witness")
        if self.phase is None:
            return
        if (isinstance(self.phase, bool)
                or not isinstance(self.phase, (int, Fraction))):
            raise MalformedInputError(
                f"phase must be an int or a Fraction, got {self.phase!r}",
                field="phase")
        if not (0 <= self.phase < 1):
            raise MalformedInputError("phase must lie in [0, 1)",
                                      field="phase")

    def erased(self) -> FlowLinePoint:
        return replace(self, phase=None)


def flow_line_point(curve: HyperellipticCurve, pair: BundlePair,
                    cls: DualClass, witness: Divisor, pool,
                    phase: Fraction | None = Fraction(0)) -> FlowLinePoint:
    """Build a FlowLinePoint after checking the witness really is a
    minimal secant witness of the class over the pool: a pool divisor whose
    plane holds the class, which no pool plane one degree below does."""
    if not minimal_pool_witness(curve, pair, cls, witness,
                                checked_pool(curve, pool)):
        raise WitnessNotMinimalError(
            f"{witness!r} is not a minimal pool witness of the class")
    return FlowLinePoint(cls, witness, phase)


class CriticalPointData(Value):
    """A split critical point via divisor representatives.

    phi is one fixed rational function; at level d it is read as a
    section of the line bundle with divisor L2 - L1 + M, and after a
    twist by a witness the same function is simply reread against the
    shifted divisor.
    """

    L1_rep: Divisor
    L2_rep: Divisor
    M_rep: Divisor
    phi: CurveFunction

    @property
    def d(self) -> int:
        return self.L1_rep.degree

    @property
    def degE(self) -> int:
        return self.L1_rep.degree + self.L2_rep.degree

    @property
    def degM(self) -> int:
        return self.M_rep.degree

    @property
    def delta(self) -> int:
        return self.L1_rep.degree - self.L2_rep.degree

    def bundle_divisor(self) -> Divisor:
        return self.L2_rep - self.L1_rep + self.M_rep

    def pair(self) -> BundlePair:
        return BundlePair(self.L1_rep.degree, self.L2_rep.degree, self.degM,
                          self.L1_rep, self.L2_rep, self.M_rep)

    def params(self, curve: HyperellipticCurve) -> ModuliParams:
        return ModuliParams(curve.genus, self.degE, self.degM)

    def twisted(self, D: Divisor) -> CriticalPointData:
        """The witness twist: D moves from L1 to L2, one level per degree."""
        return CriticalPointData(self.L1_rep - D, self.L2_rep + D, self.M_rep,
                                 self.phi)


def section_order(curve: HyperellipticCurve, data: CriticalPointData,
                  p: CurvePoint) -> int:
    """Vanishing order at p of phi read as a section at this level; p is
    infinity or a point of the curve off y = 0 (a precondition).  The
    bundle divisor L2 - L1 + M is read at p alone, not built."""
    return (valuation(curve, data.phi, p) + data.L2_rep.coeff(p)
            - data.L1_rep.coeff(p) + data.M_rep.coeff(p))


def _pole_fibre_points(curve: HyperellipticCurve,
                      h: CurveFunction) -> list[CurvePoint]:
    """The affine points lying over the denominator's roots.

    Every root must be rational with a nonzero rational-square fibre,
    otherwise effectivity cannot be certified over the rationals.
    """
    if h.den.degree == 0:
        return []
    roots = h.den.rational_roots()
    if sum(m for _, m in roots) != h.den.degree:
        raise UnsupportedSupportError(
            "denominator has irrational roots; poles are not representable")
    return [p for x0, _ in roots for p in curve.rational_fibre(x0)]


@lru_cache(maxsize=1024)
def _validate_critical_point(curve: HyperellipticCurve,
                             data: CriticalPointData) -> None:
    # remembered per curve once it passes; lru_cache keeps no failure
    if data.phi.is_zero():
        raise ZeroSectionError("phi must be a nonzero section")
    if 2 * data.d <= data.degE:
        raise ResolutionBoundViolationError(
            f"level d = {data.d} is not above degE/2 = {data.degE}/2")
    if data.degE + data.degM - 2 * data.d < 0:
        raise ResolutionBoundViolationError(
            f"level d = {data.d} leaves the section bundle with negative degree")
    for rep in (data.L1_rep, data.L2_rep, data.M_rep):
        validate_support(curve, rep)
    B = data.bundle_divisor()
    checks = set(_pole_fibre_points(curve, data.phi))
    checks.update(p for p, c in B.affine_items() if c < 0)
    for p in checks:
        if section_order(curve, data, p) < 0:
            raise MalformedInputError(
                f"phi is not regular as a section at {p!r}", field="phi")
    if section_order(curve, data, INF) < 0:
        raise MalformedInputError(
            "phi is not regular as a section at infinity", field="phi")


def make_critical_point(curve: HyperellipticCurve, L1_rep: Divisor,
                        L2_rep: Divisor, M_rep: Divisor,
                        phi: CurveFunction) -> CriticalPointData:
    """Validated constructor: checks the level is nonminimal and that the
    vanishing divisor of phi as a section is effective."""
    data = CriticalPointData(L1_rep, L2_rep, M_rep, phi)
    _validate_critical_point(curve, data)
    return data


# ---------------------------------------------------------------------------
# single flow-line steps
# ---------------------------------------------------------------------------

def _witness_twist(top: CriticalPointData, D: Divisor) -> CriticalPointData:
    """``top.twisted(D)``, whose section gains a zero of order exactly
    2 * mult at each point of D: phi is the same function at both levels,
    so the gain is that of the bundle divisor L2 - L1 + M alone."""
    limit = top.twisted(D)
    invariant(limit.phi is top.phi, "the twist replaced phi")
    for p, mult in D.items():
        gained = (limit.L2_rep.coeff(p) - limit.L1_rep.coeff(p)
                  + limit.M_rep.coeff(p) - top.L2_rep.coeff(p)
                  + top.L1_rep.coeff(p) - top.M_rep.coeff(p))
        invariant(gained == 2 * mult, "order at %r gained %d, not %d",
                  p, gained, 2 * mult)
    return limit


def downward_limit(curve: HyperellipticCurve, top: CriticalPointData,
                   x: FlowLinePoint) -> CriticalPointData:
    """The critical point the flow line from x converges to: the checked
    witness twist ``_witness_twist(top, D)``, after the budget check and
    the one minimality rule, ``minimal_pool_witness`` over D's own support
    (the chain DAG's certificate proves both per edge).

    Only top is validated.  Its limit is then valid: for n = deg D,
    2(d - n) - degE = delta - 2n > 0; the bundle divisor only gains 2D,
    so phi stays regular; the supports stay among validated points.
    """
    _validate_critical_point(curve, top)
    D = x.witness  # FlowLinePoint guarantees deg D >= 1
    if 2 * D.degree >= top.delta:
        raise BudgetViolationError(
            f"deg D = {D.degree} must stay below (d1 - d2)/2 = {top.delta}/2")
    if not minimal_pool_witness(curve, top.pair(), x.cls, D, D.support()):
        raise WitnessNotMinimalError(
            f"{D!r} is not a minimal witness of the class")
    return _witness_twist(top, D)


def upward_targets(curve: HyperellipticCurve, bottom: CriticalPointData,
                   pool):
    """All pool witnesses of flow lines arriving at bottom from above.

    A divisor qualifies when twice it is dominated by the section's
    vanishing divisor and its degree keeps the source level strictly
    below (degE + degM)/2.  Returns (D, source level) pairs in
    (degree, pool) lexicographic order.
    """
    params = bottom.params(curve)
    ell = bottom.d
    if not params.in_range(ell):
        raise ResolutionBoundViolationError(
            f"level {ell} is outside {params.level_range()}")
    pool = checked_pool(curve, pool)
    cap = {p: section_order(curve, bottom, p) // 2 for p in pool}
    out = []
    max_deg = (params.degE + params.degM - 2 * ell - 1) // 2
    for n in range(1, max_deg + 1):
        for D in pool_divisors(pool, n):
            if all(mult <= cap[p] for p, mult in D.items()):
                out.append((D, ell + n))
    return out


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------

class ChainRecord(Value):
    """A broken flow line: the top critical point and the flow-line
    points of its steps, in order.  Each step's limit is the witness twist
    of the one before (``CriticalPointData.twisted``), derived on demand
    and never stored, so a record cannot contradict itself."""

    top: CriticalPointData
    points: tuple

    def __post_init__(self):
        if not isinstance(self.top, CriticalPointData):
            raise MalformedInputError(
                f"top must be a CriticalPointData, got {self.top!r}",
                field="top")
        if not self.points:
            raise MalformedInputError("a chain needs at least one step",
                                      field="points")
        if not all(isinstance(x, FlowLinePoint) for x in self.points):
            raise MalformedInputError("every step must be a FlowLinePoint",
                                      field="points")

    @property
    def steps(self) -> tuple:
        """The (flow-line point, limit) pairs, each limit twisted from the
        one before."""
        steps, data = [], self.top
        for x in self.points:
            data = data.twisted(x.witness)
            steps.append((x, data))
        return tuple(steps)

    @property
    def bottom(self) -> CriticalPointData:
        return self.steps[-1][1]

    @property
    def budget(self) -> int:
        return sum(x.witness.degree for x in self.points)

    def witnesses(self) -> list[Divisor]:
        return [x.witness for x in self.points]

    def levels(self) -> list[int]:
        """The level reached after each step: deg D >= 1, so they fall."""
        return [self.top.d - n for n in accumulate(
            x.witness.degree for x in self.points)]


@lru_cache(maxsize=1024)
def _canonical_class(curve: HyperellipticCurve, pair: BundlePair,
                     D: Divisor, pool: tuple) -> DualClass:
    """The class whose minimal pool witness is exactly D: the plain sum of
    the columns of D's jet matrix.

    A chain step has 2 deg D < delta, so for a pool divisor D'' of degree
    at most deg D the gcd identity applies to lcm(D, D''): were the sum on
    plane(D''), it would lie on plane(gcd(D, D'')), spanned by a proper
    subset of D's columns, against the rank law (its coordinates in D's
    columns are unique, and all of them are 1).  ``minimal_pool_witness``
    checks this, so minimality is verified, not assumed.
    """
    plane = secant_plane(curve, pair, D)
    e = DualClass(tuple(map(sum, zip(*plane.columns))))
    if not minimal_pool_witness(curve, pair, e, D, pool):
        raise DegenerateRankError(
            f"{D!r} is not a minimal witness of its plane's column sum")
    return e


@lru_cache(maxsize=256)
def _continuations(curve: HyperellipticCurve, top: CriticalPointData,
                   ell: int, pool: tuple) -> dict:
    """The chain DAG from top down to level ell: node -> (steps, count).

    A node's steps are its (flow-line point, limit) edges in lexicographic
    order, with canonical classes; its count is the number of step
    sequences from it down to ell (1 at ell, 0 where no flow line may
    arrive).  Each node is expanded once; the DAG is one cache entry.
    One certificate per edge, ``minimal_pool_witness`` in
    ``_canonical_class``, and one ``_witness_twist``: nodes below the top
    are valid by construction.
    """
    dag: dict = {}

    def expand(node: CriticalPointData) -> int:
        if node in dag:
            return dag[node][1]
        steps = []
        count = 1 if node.d == ell else 0
        if node.d > ell and 2 * node.d < node.degE + node.degM:
            pair = node.pair()
            for n in range(1, node.d - ell + 1):
                invariant(2 * n < node.delta, "witness outside the secant bound")
                for D in pool_divisors(pool, n):
                    x = FlowLinePoint(_canonical_class(curve, pair, D, pool), D)
                    limit = _witness_twist(node, D)
                    steps.append((x, limit))
                    count += expand(limit)
        dag[node] = (tuple(steps), count)
        return count

    expand(top)
    return dag


def _chain_dag(curve: HyperellipticCurve, top: CriticalPointData, ell: int,
               pool) -> dict:
    """The checked query's chain DAG: u and ell in the level range with
    ell < u, an admissible pool and a valid top critical point."""
    params = top.params(curve)
    u = top.d
    for name, level in (("u", u), ("ell", ell)):
        if not params.in_range(level):
            raise ResolutionBoundViolationError(
                f"{name} = {level} is outside {params.level_range()}")
    if ell >= u:
        raise ResolutionBoundViolationError(
            f"need ell < u, got ell = {ell}, u = {u}")
    pool = checked_pool(curve, pool)
    _validate_critical_point(curve, top)
    return _continuations(curve, top, ell, pool)


def enumerate_chains(curve: HyperellipticCurve, top: CriticalPointData,
                     ell: int, pool) -> list[ChainRecord]:
    """All broken flow lines from the top level down to level ell with
    witnesses drawn from the pool, phases set to zero.

    Compositions of the budget u - ell into pool divisors, in
    lexicographic order: the paths of the chain DAG.  Each step carries
    the canonical class of its witness, and its limit gains a double zero
    of the section along the witness (checked by ``_witness_twist``).
    """
    dag = _chain_dag(curve, top, ell, pool)

    def paths(node: CriticalPointData):
        if node.d == ell:
            yield ()
        for x, limit in dag[node][0]:
            for rest in paths(limit):
                yield (x,) + rest

    return [ChainRecord(top, points) for points in paths(top)]


# ---------------------------------------------------------------------------
# the resolution maps and the diagram
# ---------------------------------------------------------------------------

def G_map(chain: ChainRecord) -> ChainRecord:
    """Phase erasure, step by step: the product of the circle-bundle
    projections."""
    return ChainRecord(chain.top, tuple(x.erased() for x in chain.points))


def P_morse(chain: ChainRecord) -> FlowLinePoint:
    """Projection to the first flow line emanating from the top."""
    return chain.points[0]


def P_sec(chain: ChainRecord) -> FlowLinePoint:
    """Projection to the first step's secant point: its class and witness,
    phase erased."""
    return chain.points[0].erased()


class CommutingReport(Value):
    chains: int
    first_steps: int
    commute_failures: int
    fibre_failures: int

    @property
    def ok(self) -> bool:
        return self.commute_failures == 0 and self.fibre_failures == 0


def commuting_check(curve: HyperellipticCurve, top: CriticalPointData,
                    ell: int, pool) -> CommutingReport:
    """Exhaustive diagram check, run on the top's first-step edges.

    ``P_morse`` and ``P_sec`` read only the first step, so each edge is
    checked once on its one-step chain and weighted by its chain count.
    Projecting after phase erasure must agree with erasing the phase of
    the first-step projection; and the chains sharing a first-step
    projection must number the chains below that step's downward limit.
    """
    dag = _chain_dag(curve, top, ell, pool)
    commute_failures = 0
    groups: dict = {}
    for x, limit in dag[top][0]:
        count = dag[limit][1]
        chain = ChainRecord(top, (x,))
        first = P_morse(chain)
        if P_sec(G_map(chain)) != first.erased():
            commute_failures += count
        key = (first.cls, first.witness, first.phase)
        groups.setdefault(key, [limit, 0])[1] += count
    fibre_failures = sum(total != dag[limit][1]
                         for limit, total in groups.values())
    return CommutingReport(dag[top][1], len(groups),
                           commute_failures, fibre_failures)
