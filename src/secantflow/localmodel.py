"""Exact symbolic check of the singular-gauge flow-limit computation.

Scalars are finite sums  c * z^a * eta^b * u^k * phi^p * w^e  with exact
rational c; z is the local coordinate (Laurent exponents allowed), eta the
bump-function value treated as an indeterminate, u = e^{-t} the flow
parameter (Laurent internally, but a limit with surviving negative powers
is an error), phi the formal Higgs coefficient and w the antiholomorphic
derivative of eta, nilpotent of order two (second derivatives are never
needed, and products of bump derivatives at the same point vanish in the
identities being checked).

Smoothness of the glued gauge transformation is verified the way the
region argument runs: substitute eta = 0 on the patch containing z = 0 and
check no negative z-powers survive; substitute eta = 1 off the bump and
recognize the pure Hecke twist.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (Frozen, NegativeUExponentError, SmoothnessFailureError,
                     Value, invariant)
from .polynomials import Scalar, _frac

Key = tuple[int, int, int, int, int]  # (z, eta, u, phi, w) exponents


class LocalScalar(Frozen):
    """A canonical finite sum of monomial terms."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Key, Fraction] | None = None):
        # a dict's keys are unique already: sort once, dropping zero
        # terms and w^2 = 0
        object.__setattr__(self, "terms", {
            k: c for k, c in sorted((terms or {}).items()) if c and k[4] < 2})

    def __reduce__(self):
        return LocalScalar, (self.terms,)

    # -- constructors -------------------------------------------------------

    @classmethod
    def term(cls, c: Scalar = 1, z: int = 0, eta: int = 0, u: int = 0,
             phi: int = 0, w: int = 0) -> LocalScalar:
        if eta < 0 or phi < 0 or w < 0:
            raise ValueError("eta, phi, w exponents must be nonnegative")
        return cls({(z, eta, u, phi, w): _frac(c)})

    @classmethod
    def const(cls, c: Scalar) -> LocalScalar:
        return cls.term(c)

    @classmethod
    def zero(cls) -> LocalScalar:
        return cls({})

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def z_order(self) -> int | None:
        """Least z-exponent over the terms; None for the zero scalar."""
        if not self.terms:
            return None
        return min(k[0] for k in self.terms)

    def depends_on_eta(self) -> bool:
        return any(k[1] > 0 or k[4] > 0 for k in self.terms)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: LocalScalar) -> LocalScalar:
        acc = dict(self.terms)
        for k, c in other.terms.items():
            acc[k] = acc[k] + c if k in acc else c
        return LocalScalar(acc)

    def __neg__(self) -> LocalScalar:
        return LocalScalar({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: LocalScalar) -> LocalScalar:
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, LocalScalar):
            acc: dict[Key, Fraction] = {}
            for (z1, b1, k1, p1, w1), c1 in self.terms.items():
                for (z2, b2, k2, p2, w2), c2 in other.terms.items():
                    if w1 + w2 >= 2:
                        continue
                    key = (z1 + z2, b1 + b2, k1 + k2, p1 + p2, w1 + w2)
                    c = c1 * c2
                    acc[key] = acc[key] + c if key in acc else c
            return LocalScalar(acc)
        c = _frac(other)
        return LocalScalar({k: v * c for k, v in self.terms.items()})

    __rmul__ = __mul__

    # -- substitutions and limits -------------------------------------------

    def subs_eta(self, value: Scalar) -> LocalScalar:
        """Evaluate the bump indeterminate (its derivative w becomes 0)."""
        value = _frac(value)
        acc: dict[Key, Fraction] = {}
        for (z, b, k, p, w), c in self.terms.items():
            if w:
                continue
            key = (z, 0, k, p, 0)
            c *= value ** b
            acc[key] = acc[key] + c if key in acc else c
        return LocalScalar(acc)

    def u_limit(self) -> LocalScalar:
        """The u -> 0 limit: positive powers vanish, negative ones are
        an error (NegativeUExponent)."""
        for (z, b, k, p, w), c in self.terms.items():
            if k < 0:
                raise NegativeUExponentError(
                    f"term with u^{k} has no u -> 0 limit")
        return LocalScalar({(z, b, 0, p, w): c
                            for (z, b, k, p, w), c in self.terms.items()
                            if k == 0})

    def dbar(self) -> LocalScalar:
        """Antiholomorphic derivative: kills z, u, phi; eta^b -> b eta^(b-1) w."""
        acc: dict[Key, Fraction] = {}
        for (z, b, k, p, w), c in self.terms.items():
            if b == 0:
                continue
            key = (z, b - 1, k, p, w + 1)
            c *= b
            acc[key] = acc[key] + c if key in acc else c
        return LocalScalar(acc)

    # -- comparison and display ---------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, LocalScalar):
            return self.terms == other.terms
        if isinstance(other, Fraction) or type(other) is int:
            return self == LocalScalar.const(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("LocalScalar", tuple(self.terms.items())))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for (z, b, k, p, w), c in self.terms.items():
            syms = []
            for name, e in (("z", z), ("eta", b), ("u", k), ("phi", p), ("w", w)):
                if e == 0:
                    continue
                syms.append(name if e == 1 else f"{name}^{e}")
            if not syms or abs(c) != 1:
                syms.insert(0, str(abs(c)))
            body = "*".join(syms)
            chunks.append((c < 0, body))
        out = ("-" if chunks[0][0] else "") + chunks[0][1]
        for neg, body in chunks[1:]:
            out += (" - " if neg else " + ") + body
        return out

    def __repr__(self) -> str:
        return f"LocalScalar({self})"


ZERO = LocalScalar.zero()
ONE = LocalScalar.const(1)


def z_pow(a: int) -> LocalScalar:
    return LocalScalar.term(1, z=a)


def eta() -> LocalScalar:
    return LocalScalar.term(1, eta=1)


def u_pow(k: int) -> LocalScalar:
    return LocalScalar.term(1, u=k)


def phi() -> LocalScalar:
    return LocalScalar.term(1, phi=1)


def dbar_eta() -> LocalScalar:
    return LocalScalar.term(1, w=1)


class LocalMatrix(Frozen):
    """A 2x2 matrix of LocalScalars."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(_coerce(e) for e in r) for r in rows)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValueError("LocalMatrix is 2x2")
        object.__setattr__(self, "rows", rows)

    def __reduce__(self):
        return LocalMatrix, (self.rows,)

    @classmethod
    def identity(cls) -> LocalMatrix:
        return cls(((ONE, ZERO), (ZERO, ONE)))

    @classmethod
    def diag(cls, a, b) -> LocalMatrix:
        return cls(((a, ZERO), (ZERO, b)))

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __mul__(self, other):
        if isinstance(other, LocalMatrix):
            a, b = self.rows, other.rows
            return LocalMatrix(tuple(
                tuple(a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in (0, 1))
                for i in (0, 1)))
        return LocalMatrix(tuple(tuple(e * other for e in r) for r in self.rows))

    __rmul__ = __mul__

    def __add__(self, other: LocalMatrix) -> LocalMatrix:
        return LocalMatrix(tuple(
            tuple(self.rows[i][j] + other.rows[i][j] for j in (0, 1))
            for i in (0, 1)))

    def __sub__(self, other: LocalMatrix) -> LocalMatrix:
        return LocalMatrix(tuple(
            tuple(self.rows[i][j] - other.rows[i][j] for j in (0, 1))
            for i in (0, 1)))

    def det(self) -> LocalScalar:
        a, b = self.rows
        return a[0] * b[1] - a[1] * b[0]

    def trace(self) -> LocalScalar:
        return self.rows[0][0] + self.rows[1][1]

    def is_zero(self) -> bool:
        return all(e.is_zero() for r in self.rows for e in r)

    def map(self, fn) -> LocalMatrix:
        return LocalMatrix(tuple(tuple(fn(e) for e in r) for r in self.rows))

    def subs_eta(self, value: Scalar) -> LocalMatrix:
        return self.map(lambda e: e.subs_eta(value))

    def u_limit(self) -> LocalMatrix:
        return self.map(LocalScalar.u_limit)

    def dbar(self) -> LocalMatrix:
        return self.map(LocalScalar.dbar)

    def inverse(self) -> LocalMatrix:
        """Adjugate divided by the determinant; supported when det is a
        single monomial in z and u alone (all the gauges used here)."""
        d = self.det()
        if len(d.terms) != 1:
            raise ValueError(f"inverse needs a monomial determinant, got {d}")
        ((z, b, k, p, w), c), = d.terms.items()
        if b or p or w:
            raise ValueError(f"determinant {d} is not invertible")
        scale = LocalScalar.term(Fraction(1) / c, z=-z, u=-k)
        a, r2 = self.rows
        adj = LocalMatrix(((r2[1], -a[1]), (-r2[0], a[0])))
        return adj * scale

    def __eq__(self, other) -> bool:
        if isinstance(other, LocalMatrix):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("LocalMatrix", self.rows))

    def __str__(self) -> str:
        return "[[%s, %s], [%s, %s]]" % tuple(
            str(e) for r in self.rows for e in r)

    def __repr__(self) -> str:
        return f"LocalMatrix({self})"


def _coerce(e) -> LocalScalar:
    if isinstance(e, LocalScalar):
        return e
    return LocalScalar.const(e)


# ---------------------------------------------------------------------------
# the gauge computation
# ---------------------------------------------------------------------------

def _require_order(m: int) -> None:
    if m < 1:
        raise ValueError("the modification order m must be >= 1")


def gauge_factors(m: int) -> tuple[LocalMatrix, LocalMatrix]:
    """The two singular gauge factors of order m.

    g1 meromorphically trivializes the modified bundle on the punctured
    disc; g2 undoes the twist outside the bump region.
    """
    _require_order(m)
    e = eta()
    g1 = LocalMatrix(((ONE, z_pow(-m) * (e - ONE)),
                      (ZERO, z_pow(-m))))
    g2 = LocalMatrix(((z_pow(m), ZERO),
                      (ONE - e, ONE)))
    return g1, g2


class SmoothnessReport(Value):
    m: int
    product: LocalMatrix
    eta0_slice: LocalMatrix
    eta1_slice: LocalMatrix
    det_is_one: bool
    slice_regular: bool

    @property
    def ok(self) -> bool:
        return self.det_is_one and self.slice_regular


def glued_gauge(m: int) -> LocalMatrix:
    g1, g2 = gauge_factors(m)
    return g2 * g1


def product_smoothness(m: int) -> SmoothnessReport:
    """Verify the glued gauge g2*g1 extends across z = 0.

    On the region containing the puncture the bump vanishes; substituting
    eta = 0 must give exactly [[z^m, -1], [1, 0]]: unimodular with only
    nonnegative z-powers.  Away from the bump (eta = 1) the product is the
    bare twist diag(z^m, z^-m).  The determinant is 1 identically.
    """
    prod = glued_gauge(m)
    det_ok = prod.det() == ONE
    slice0 = prod.subs_eta(0)
    expected0 = LocalMatrix(((z_pow(m), LocalScalar.const(-1)),
                             (ONE, ZERO)))
    regular = (slice0 == expected0 and
               all(e.is_zero() or e.z_order() >= 0
                   for r in slice0.rows for e in r))
    slice1 = prod.subs_eta(1)
    twist = LocalMatrix.diag(z_pow(m), z_pow(-m))
    report = SmoothnessReport(m, prod, slice0, slice1, det_ok, regular)
    if not det_ok:
        raise SmoothnessFailureError(f"det(g2 g1) = {prod.det()} != 1")
    if not regular:
        raise SmoothnessFailureError(
            f"eta = 0 slice {slice0} is not the expected unimodular matrix")
    if slice1 != twist:
        raise SmoothnessFailureError(
            f"eta = 1 slice {slice1} is not the bare twist {twist}")
    return report


def higgs_matrix(phi_sym: LocalScalar | None = None) -> LocalMatrix:
    """The nilpotent local Higgs field [[0, phi], [0, 0]]."""
    if phi_sym is None:
        phi_sym = phi()
    return LocalMatrix(((ZERO, phi_sym), (ZERO, ZERO)))


def conjugated_higgs(m: int,
                     phi_sym: LocalScalar | None = None) -> LocalMatrix:
    """(g2 g1) Phi (g2 g1)^{-1}, computed symbolically.

    The determinant of the glued gauge is 1, so the inverse is the
    adjugate and every entry stays polynomial in the generators.  The
    section symbol defaults to the formal generator phi.
    """
    _require_order(m)
    p = glued_gauge(m)
    out = p * higgs_matrix(phi_sym) * p.inverse()
    invariant(out.trace().is_zero(), "conjugation must preserve the zero trace")
    invariant((out * out).is_zero(), "conjugation must preserve nilpotency")
    return out


def flow_scaled(m: int, phi_sym: LocalScalar | None = None) -> LocalMatrix:
    """The conjugated Higgs field carried along the diagonal flow frame:
    u^2 * diag(u^-1, u) * conj * diag(u, u^-1)."""
    conj = conjugated_higgs(m, phi_sym)
    left = LocalMatrix.diag(u_pow(-1), u_pow(1))
    right = LocalMatrix.diag(u_pow(1), u_pow(-1))
    return (left * conj * right) * u_pow(2)


def u_exponents(m: int, phi_sym: LocalScalar | None = None
                ) -> list[list[int | None]]:
    """The unique u-exponent of each scaled entry (None for zero entries)."""
    scaled = flow_scaled(m, phi_sym)
    out = []
    for r in scaled.rows:
        row = []
        for e in r:
            if e.is_zero():
                row.append(None)
            else:
                exps = {k[2] for k in e.terms}
                invariant(len(exps) == 1, "mixed u-exponents in %s", e)
                row.append(exps.pop())
        out.append(row)
    return out


def flow_limit(m: int, phi_sym: LocalScalar | None = None) -> LocalMatrix:
    """The u -> 0 limit of the scaled Higgs field.

    Always [[0, z^(2m) phi], [0, 0]]: the section reappears with an extra
    zero of order 2m, and the bump indeterminate must be gone from the
    limit (checked).
    """
    limit = flow_scaled(m, phi_sym).u_limit()
    invariant(not any(e.depends_on_eta() for r in limit.rows for e in r),
              "flow limit must not depend on the bump function")
    return limit


def limit_vanishing_order(m: int,
                          phi_sym: LocalScalar | None = None) -> int:
    """z-order of the surviving off-diagonal entry; equals 2m for the
    formal section symbol."""
    entry = flow_limit(m, phi_sym)[0, 1]
    if entry.is_zero():
        raise SmoothnessFailureError("flow limit lost the section entirely")
    return entry.z_order()


def multi_point_limit(multiplicities,
                      phi_sym: LocalScalar | None = None) -> list[int]:
    """Vanishing orders of the limit at each point of a divisor, computed
    independently per point in its own coordinate patch."""
    return [limit_vanishing_order(m, phi_sym) for m in multiplicities]


class TrivializationReport(Value):
    bump_step_ok: bool
    rescale_step_ok: bool

    @property
    def ok(self) -> bool:
        return self.bump_step_ok and self.rescale_step_ok


def trivialization_check(m: int) -> TrivializationReport:
    """The two steps that make the modified holomorphic structure trivial.

    Rescale step: conjugating [[0, w z^-m], [0, 0]] by the meromorphic
    diag(1, z^-m) (no dbar term: it is holomorphic in the bump variable)
    gives [[0, w], [0, 0]].  Bump step: the unipotent [[1, eta-1], [0, 1]]
    then absorbs it completely: g A g^{-1} - (dbar g) g^{-1} = 0.  The
    off-diagonal sign is forced; the opposite one leaves a residual.
    """
    _require_order(m)
    w = dbar_eta()
    a0 = LocalMatrix(((ZERO, w * z_pow(-m)), (ZERO, ZERO)))
    resc = LocalMatrix.diag(ONE, z_pow(-m))
    a1 = resc * a0 * resc.inverse()
    rescale_ok = a1 == LocalMatrix(((ZERO, w), (ZERO, ZERO)))

    g = LocalMatrix(((ONE, eta() - ONE), (ZERO, ONE)))
    residual = g * a1 * g.inverse() - g.dbar() * g.inverse()
    bump_ok = residual.is_zero()
    return TrivializationReport(bump_ok, rescale_ok)
