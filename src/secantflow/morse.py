"""Critical sets, Morse indices, stratum codimensions, closure posets.

All pure integer arithmetic.  A rank-2 pair (E, phi) of degree degE twisted
by a degree-degM line bundle has nonminimal critical sets indexed by the
integers d = deg L1 with degE/2 < d <= (degE + degM)/2, plus the minimum
(the semistable locus), which is kept as an opaque marker.  The key
identity, checked everywhere it appears, is that the real codimension of a
level-l stratum in a level-u unstable set equals the Morse index of level
l and is independent of u.
"""

from __future__ import annotations

from .curve import Divisor, HyperellipticCurve, INF, h1_dim, standard_curve
from .errors import (MorseBoundViolationError, UnsupportedSupportError,
                     Value, WeierstrassPointError, invariant)


class ModuliParams(Value):
    g: int
    degE: int
    degM: int
    fixed_determinant: bool = False

    def __post_init__(self):
        if self.g < 2:
            raise MorseBoundViolationError(f"genus {self.g} < 2")
        if self.degM <= 0:
            raise MorseBoundViolationError(f"twist degree {self.degM} must be positive")

    @property
    def coprime(self) -> bool:
        """Whether rank and degree are coprime (degE odd); when false the
        minimum is singular and stays an opaque marker."""
        return self.degE % 2 != 0

    @property
    def d_min(self) -> int:
        """Smallest nonminimal critical level: least integer > degE/2."""
        return self.degE // 2 + 1

    @property
    def d_max(self) -> int:
        """Largest critical level: floor((degE + degM)/2)."""
        return (self.degE + self.degM) // 2

    def level_range(self) -> range:
        return range(self.d_min, self.d_max + 1)

    def in_range(self, d: int) -> bool:
        return self.d_min <= d <= self.d_max


class CriticalSet(Value):
    """One critical set: the minimum marker or a nonminimal level d."""

    d: int
    index_real: int
    dim_cplx: int | None
    f_rank_order: int
    is_minimum: bool = False


def _require_level(params: ModuliParams, d: int) -> None:
    if not params.in_range(d):
        raise MorseBoundViolationError(
            f"d = {d} outside critical range ({params.d_min}..{params.d_max})")


def morse_index(params: ModuliParams, d: int) -> int:
    """Real Morse index 2g - 2 + 2(2d - degE) of the level-d critical set."""
    _require_level(params, d)
    return 2 * params.g - 2 + 2 * (2 * d - params.degE)


def unstable_fibre_dim(params: ModuliParams, d: int) -> int:
    """Complex dimension g - 1 + (2d - degE) of the space of extensions
    the unstable fibre is built from; equals half the Morse index."""
    _require_level(params, d)
    return params.g - 1 + 2 * d - params.degE


def critical_dim(params: ModuliParams, d: int) -> int:
    """Complex dimension of the nonminimal critical set at level d."""
    _require_level(params, d)
    base = params.degE - 2 * d + params.degM
    return base + (0 if params.fixed_determinant else params.g)


def critical_range(params: ModuliParams) -> list[CriticalSet]:
    """The minimum marker followed by all nonminimal critical sets,
    ordered by d (equivalently by d1 - d2)."""
    sets = [CriticalSet(d=0, index_real=0, dim_cplx=None, f_rank_order=0,
                        is_minimum=True)]
    for k, d in enumerate(params.level_range(), start=1):
        sets.append(CriticalSet(
            d=d,
            index_real=morse_index(params, d),
            dim_cplx=critical_dim(params, d),
            f_rank_order=k,
        ))
    return sets


def stratum_codim(params: ModuliParams, ell: int, u: int) -> int:
    """Real codimension of the level-ell stratum inside the level-u
    unstable set.

    Evaluated two ways and checked equal: the closed form
    2(g - 1 - degE + 2 ell), and the fibrewise count (projectivized
    extension space dimension minus secant-variety dimension, doubled;
    the bundle directions cancel).
    """
    if not (2 * ell > params.degE):
        raise MorseBoundViolationError(f"ell = {ell} must exceed degE/2")
    if not (ell < u):
        raise MorseBoundViolationError(f"need ell < u, got ell = {ell}, u = {u}")
    if not params.in_range(u):
        raise MorseBoundViolationError(f"u = {u} outside critical range")
    closed = 2 * (params.g - 1 - params.degE + 2 * ell)
    ambient_proj = unstable_fibre_dim(params, u) - 1      # dim P(H^1)
    secant = 2 * (u - ell) - 1                            # dim Sec_{u-ell}
    fibrewise = 2 * (ambient_proj - secant)
    invariant(closed == fibrewise, "codimension %d != fibrewise count %d",
              closed, fibrewise)
    return closed


class StratPoset(Value):
    """Closure order on the strata of one unstable set."""

    u: int
    strata: tuple[int, ...]  # 0 (the open stratum) plus levels below u


def strat_poset(params: ModuliParams, u: int) -> StratPoset:
    """Stratification of the level-u unstable set: the open stratum 0 and
    one stratum per intermediate critical level below u."""
    _require_level(params, u)
    return StratPoset(u, (0,) + tuple(ell for ell in params.level_range()
                                      if ell < u))


class SmaleRow(Value):
    ell: int
    u: int
    codim: int
    index: int

    @property
    def ok(self) -> bool:
        return self.codim == self.index


class SmaleReport(Value):
    params: ModuliParams
    rows: tuple[SmaleRow, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)


def smale_check(params: ModuliParams) -> SmaleReport:
    """Codimension = index for every pair of nonminimal levels ell < u.

    This is the dimension identity behind transversality of the
    stratification; vacuously true when the range has one level.
    """
    rows = []
    for u in params.level_range():
        for ell in params.level_range():
            if ell < u:
                rows.append(SmaleRow(ell, u, stratum_codim(params, ell, u),
                                     morse_index(params, ell)))
    return SmaleReport(params, tuple(rows))


def representative_divisor(curve: HyperellipticCurve, deg: int,
                           twists: list[tuple] = ()) -> Divisor:
    """A divisor of the given degree: infinity coefficient balanced
    against optional (point, mult) affine contributions."""
    aff = Divisor(list(twists))
    return Divisor({INF: deg - aff.degree}) + aff


def fibre_dim_crosscheck(params: ModuliParams, curve: HyperellipticCurve | None = None,
                         rng=None, samples: int = 2) -> list[dict]:
    """Compare unstable_fibre_dim with h^1 of explicit divisor
    representatives of L1* L2 (degree degE - 2d < 0) on a curve of the
    right genus.

    With an rng, each level additionally checks `samples` representatives
    with randomized affine support; all must agree with the formula
    (degree < 0 makes h^1 depend on the degree alone).
    """
    if samples < 0:
        raise MorseBoundViolationError(f"samples = {samples} must be >= 0")
    if curve is None:
        curve = standard_curve(params.g)
    pool = _small_points(curve)
    rows = []
    for d in params.level_range():
        expected = unstable_fibre_dim(params, d)
        deg = params.degE - 2 * d
        reps = [representative_divisor(curve, deg)]
        if pool:
            p = pool[0]
            reps.append(representative_divisor(
                curve, deg, [(p, 1), (p.conjugate(), 1)]))
        if rng is not None and pool:
            for _ in range(samples):
                twists = [(q, rng.randrange(-2, 3)) for q in
                          rng.sample(pool, min(2, len(pool)))]
                reps.append(representative_divisor(curve, deg, twists))
        for rep in reps:
            got = h1_dim(curve, rep)
            rows.append({"d": d, "divisor": rep, "h1": got,
                         "formula": expected, "ok": got == expected})
    return rows


def _small_points(curve: HyperellipticCurve) -> list:
    """Rational points with small x and y != 0, for representative twists."""
    pts = []
    for xn in range(-3, 4):
        try:
            pts.extend(curve.rational_fibre(xn))
        except (UnsupportedSupportError, WeierstrassPointError):
            continue
    return pts
