"""Broken flow lines between critical levels and their chain combinatorics.

A critical point is a split bundle with a nilpotent off-diagonal field,
held here as divisor representatives plus one rational function reused as
the section across every twist.  A flow line leaving it is recorded by
the dual class of its initial condition together with the minimal secant
witness of that class; the downward limit twists the two summands by the
witness and the section reappears with a double zero along it.

Chains of such steps are the strata of the iterated-blowup picture: the
paths of a DAG of critical points, each node expanded once.
``commuting_check`` verifies on every enumerated chain that projecting to
the first secant point commutes with erasing the circle phases, together
with the exact fibre-counting law of the first-step projection.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

from .curve import (INF, CurveFunction, CurvePoint, Divisor,
                    HyperellipticCurve, hash_once, valuation,
                    validate_support)
from .errors import (BudgetViolationError, DegenerateRankError,
                     MalformedInputError, ResolutionBoundViolationError,
                     UnsupportedSupportError, WitnessNotMinimalError,
                     ZeroSectionError, invariant)
from .morse import ModuliParams
from .secant import (BundlePair, DualClass, checked_pool, plane_membership,
                     pool_divisors, secant_plane, stratum_membership,
                     stratum_search)


@dataclass(frozen=True)
class FlowLinePoint:
    """Initial condition of a flow line: dual class, minimal witness,
    and the circle phase (None once the phase has been erased)."""

    cls: DualClass
    witness: Divisor
    phase: Fraction | None = Fraction(0)

    def __post_init__(self):
        if self.witness.degree < 1:
            raise MalformedInputError("witness must have degree >= 1",
                                      field="witness")
        if self.phase is not None and not (0 <= self.phase < 1):
            raise MalformedInputError("phase must lie in [0, 1)",
                                      field="phase")

    def erased(self) -> FlowLinePoint:
        return replace(self, phase=None)


def flow_line_point(curve: HyperellipticCurve, pair: BundlePair,
                    cls: DualClass, witness: Divisor, pool,
                    phase: Fraction | None = Fraction(0)) -> FlowLinePoint:
    """Build a FlowLinePoint after checking the witness really is a
    minimal secant witness of the class over the pool."""
    plane = secant_plane(curve, pair, witness)
    if not plane_membership(cls, plane):
        raise WitnessNotMinimalError(
            "the class does not lie on the witness plane")
    res = stratum_membership(curve, pair, cls, tuple(pool), witness.degree)
    if res is None or res.N < witness.degree or witness not in res.witnesses:
        raise WitnessNotMinimalError(
            f"{witness!r} is not a minimal pool witness of the class")
    return FlowLinePoint(cls, witness, phase)


@hash_once
@dataclass(frozen=True)
class CriticalPointData:
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
    d: int

    def __post_init__(self):
        if self.d != self.L1_rep.degree:
            raise MalformedInputError(
                f"d = {self.d} but deg L1 = {self.L1_rep.degree}", field="d")

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


def section_order(curve: HyperellipticCurve, data: CriticalPointData,
                  p: CurvePoint) -> int:
    """Vanishing order at p of phi read as a section at this level; p is
    infinity or a point of the curve off y = 0 (a precondition)."""
    return valuation(curve, data.phi, p) + data.bundle_divisor().coeff(p)


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


def _validate_critical_point(curve: HyperellipticCurve,
                             data: CriticalPointData) -> None:
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
    data = CriticalPointData(L1_rep, L2_rep, M_rep, phi, L1_rep.degree)
    _validate_critical_point(curve, data)
    return data


# ---------------------------------------------------------------------------
# single flow-line steps
# ---------------------------------------------------------------------------

def downward_limit(curve: HyperellipticCurve, top: CriticalPointData,
                   x: FlowLinePoint) -> CriticalPointData:
    """The critical point the flow line from x converges to.

    The witness D moves from the first summand to the second; the same
    rational function, reread against the shifted bundle divisor, gains a
    zero of order exactly 2 * mult at each witness point, and that gain
    is verified here through the valuation arithmetic.
    """
    D = x.witness  # FlowLinePoint guarantees deg D >= 1
    if 2 * D.degree >= top.delta:
        raise BudgetViolationError(
            f"deg D = {D.degree} must stay below (d1 - d2)/2 = {top.delta}/2")
    pair = top.pair()
    plane = secant_plane(curve, pair, D)
    if not plane_membership(x.cls, plane):
        raise WitnessNotMinimalError(
            "the class does not lie on the witness plane")
    for p, _ in D.items():
        sub = D - Divisor.of_point(p)
        if not sub.is_zero() and plane_membership(
                x.cls, secant_plane(curve, pair, sub)):
            raise WitnessNotMinimalError(
                f"the witness is not minimal: drop {p!r} and the class "
                "still lies on the plane")
    before = {p: section_order(curve, top, p) for p, _ in D.items()}
    limit = CriticalPointData(top.L1_rep - D, top.L2_rep + D, top.M_rep,
                              top.phi, top.d - D.degree)
    _validate_critical_point(curve, limit)
    for p, mult in D.items():
        gained = section_order(curve, limit, p)
        invariant(gained == before[p] + 2 * mult,
                  "order at %r went %d -> %d, not +%d",
                  p, before[p], gained, 2 * mult)
    return limit


def upward_targets(curve: HyperellipticCurve, bottom: CriticalPointData,
                   params: ModuliParams | None, pool):
    """All pool witnesses of flow lines arriving at bottom from above.

    A divisor qualifies when twice it is dominated by the section's
    vanishing divisor and its degree keeps the source level strictly
    below (degE + degM)/2.  Returns (D, source level) pairs in
    (degree, pool) lexicographic order.
    """
    if params is None:
        params = bottom.params(curve)
    if params.degE != bottom.degE or params.degM != bottom.degM:
        raise MalformedInputError(
            "params disagree with the critical point's degrees",
            field="params")
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

@dataclass(frozen=True)
class ChainRecord:
    """A broken flow line: the top critical point and the list of
    (flow-line point, limit critical point) steps."""

    top: CriticalPointData
    steps: tuple

    def __post_init__(self):
        if not self.steps:
            raise MalformedInputError("a chain needs at least one step",
                                      field="steps")
        prev = self.top
        for x, data in self.steps:
            D = x.witness
            if data.d >= prev.d:
                raise MalformedInputError(
                    f"levels must strictly decrease, got {prev.d} -> {data.d}",
                    field="steps")
            if (data.L1_rep != prev.L1_rep - D or
                    data.L2_rep != prev.L2_rep + D or
                    data.M_rep != prev.M_rep or
                    data.d != prev.d - D.degree):
                raise MalformedInputError(
                    "step data is not the witness twist of its predecessor",
                    field="steps")
            prev = data

    @property
    def bottom(self) -> CriticalPointData:
        return self.steps[-1][1]

    @property
    def budget(self) -> int:
        return self.top.d - self.bottom.d

    def witnesses(self) -> list[Divisor]:
        return [x.witness for x, _ in self.steps]

    def levels(self) -> list[int]:
        return [data.d for _, data in self.steps]


def with_phases(chain: ChainRecord, phases) -> ChainRecord:
    """The same chain with the given per-step phases."""
    phases = list(phases)
    if len(phases) != len(chain.steps):
        raise MalformedInputError("one phase per step", field="phases")
    steps = tuple((replace(x, phase=q), data)
                  for (x, data), q in zip(chain.steps, phases))
    return ChainRecord(chain.top, steps)


@lru_cache(maxsize=1024)
def _canonical_class(curve: HyperellipticCurve, pair: BundlePair,
                     D: Divisor, pool: tuple) -> DualClass:
    """A deterministic class whose minimal pool witness is exactly D.

    Weighted column sums of the jet matrix with weights t^j; the first t
    whose class passes the stratum test is taken.  The test is the
    membership search itself, so minimality is verified, not assumed.
    """
    plane = secant_plane(curve, pair, D)
    mat = plane.matrix()
    N = D.degree
    for t in range(1, 51):
        coords = tuple(sum(mat[i][j] * t ** j for j in range(N))
                       for i in range(len(mat)))
        if not any(coords):
            continue
        cand = DualClass(coords)
        res = stratum_search(curve, pair, cand, pool, N)
        if res is not None and res.N == N and D in res.witnesses:
            return cand
    raise DegenerateRankError(
        f"no class with minimal witness {D!r} found on its plane")


@lru_cache(maxsize=256)
def _continuations(curve: HyperellipticCurve, node: CriticalPointData,
                   ell: int, pool: tuple) -> tuple:
    """Every step sequence from node down to level ell, in lexicographic
    order: ((),) at ell itself, () when no flow line may arrive at node's
    level.  Each step is a flow-line point with its witness's canonical
    class and its downward limit, whose section is checked to vanish to
    order >= 2 * mult at each witness point (automatic for limits of
    downward flows).  Expanded once per (curve, node, ell, pool); every
    path and fibre count through the node shares the result.
    """
    if node.d == ell:
        return ((),)
    if 2 * node.d >= node.degE + node.degM:
        return ()
    pair = node.pair()
    out = []
    for n in range(1, node.d - ell + 1):
        invariant(2 * n < node.delta, "witness outside the secant bound")
        for D in pool_divisors(pool, n):
            x = FlowLinePoint(_canonical_class(curve, pair, D, pool), D)
            limit = downward_limit(curve, node, x)
            for p, mult in D.items():
                invariant(section_order(curve, limit, p) >= 2 * mult,
                          "section lost its double zero at %r", p)
            out.extend(((x, limit),) + rest
                       for rest in _continuations(curve, limit, ell, pool))
    return tuple(out)


def enumerate_chains(curve: HyperellipticCurve, top: CriticalPointData,
                     ell: int, pool) -> list[ChainRecord]:
    """All broken flow lines from the top level down to level ell with
    witnesses drawn from the pool, phases set to zero.

    Compositions of the budget u - ell into pool divisors, in
    lexicographic order; each step carries the canonical class of its
    witness, the arrival criterion is enforced, and the divisibility of
    the section at each arrival is checked (it holds automatically for
    limits of downward flows).
    """
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
    return [ChainRecord(top, steps)
            for steps in _continuations(curve, top, ell, pool)]


# ---------------------------------------------------------------------------
# the resolution maps and the diagram
# ---------------------------------------------------------------------------

def G_map(chain: ChainRecord) -> ChainRecord:
    """Phase erasure, step by step: the product of the circle-bundle
    projections."""
    return ChainRecord(chain.top,
                       tuple((x.erased(), data) for x, data in chain.steps))


def P_morse(chain: ChainRecord) -> FlowLinePoint:
    """Projection to the first flow line emanating from the top."""
    return chain.steps[0][0]


@dataclass(frozen=True)
class SecantPoint:
    """A phase-free secant datum: dual class plus witness."""

    cls: DualClass
    witness: Divisor


def P_sec(chain: ChainRecord) -> SecantPoint:
    """Projection to the first step's secant point, phase forgotten."""
    x = chain.steps[0][0]
    return SecantPoint(x.cls, x.witness)


@dataclass(frozen=True)
class CommutingReport:
    chains: int
    first_steps: int
    commute_failures: int
    fibre_failures: int

    @property
    def ok(self) -> bool:
        return self.commute_failures == 0 and self.fibre_failures == 0


def commuting_check(curve: HyperellipticCurve, top: CriticalPointData,
                    ell: int, pool) -> CommutingReport:
    """Exhaustive diagram check over the enumerated chains.

    For each chain, projecting after phase erasure must agree with
    erasing the phase of the first-step projection; and the number of
    chains sharing a first step must equal the chain count from that
    step's downward limit, counting the empty continuation once.
    """
    pool = tuple(pool)
    chains = enumerate_chains(curve, top, ell, pool)
    commute_failures = 0
    groups: dict = {}
    for c in chains:
        lhs = P_sec(G_map(c))
        first = P_morse(c)
        rhs = SecantPoint(first.erased().cls, first.erased().witness)
        if lhs != rhs:
            commute_failures += 1
        groups.setdefault((first.cls, first.witness, first.phase),
                          []).append(c)
    fibre_failures = sum(
        len(group) != len(_continuations(curve, group[0].steps[0][1], ell,
                                         pool))
        for group in groups.values())
    return CommutingReport(len(chains), len(groups),
                           commute_failures, fibre_failures)
