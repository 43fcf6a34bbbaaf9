"""JSON wire formats: exact rationals as strings, divisors and curves as
small dictionaries.

Every rational travels as "p/q" (or "p" when integral) so nothing is ever
rounded.  Readers raise MalformedInputError with the offending field named;
writers produce plain dict/list/str structures ready for json.dumps.
"""

from __future__ import annotations

from fractions import Fraction

from .curve import (INF, CurveFunction, CurvePoint, Divisor,
                    HyperellipticCurve, make_curve)
from .errors import MalformedInputError
from .polynomials import ROOT_SEARCH_MAX_BITS, Poly


def frac_to_str(q) -> str:
    """q as "p/q", or "p" when integral; a part too long for the readers
    (and for CPython's int-to-str limit) is refused, naming the output."""
    q = Fraction(q)
    n, d = q.numerator, q.denominator
    if abs(n) >= _TOO_LONG or d >= _TOO_LONG:
        raise MalformedInputError(
            f"the answer has a numerator or denominator of more than "
            f"{MAX_DIGITS} digits and cannot be written", field="output")
    return str(n) if d == 1 else f"{n}/{d}"


# CPython converts at most MAX_DIGITS digits between int and str by default
# (sys.int_info.default_max_str_digits), so a rational whose numerator or
# denominator is longer could not be written back in the plain "p/q" form;
# the reader refuses it.  A decimal exponent ("1e4300") above MAX_EXPONENT
# is refused before it is expanded: 10^4299 is the largest power of ten
# with at most MAX_DIGITS digits.  Parsing "1e4300" takes 0.07 ms;
# "1e1000000" takes 0.26 s and "1e10000000" 12.6 s (CPython 3.11, 2-core
# x86 host), and the cost grows faster than the exponent.
# A string longer than MAX_LENGTH is refused before it is parsed: that
# is room for two MAX_DIGITS-digit numbers with their signs, a slash or a
# point, an exponent and some whitespace.  Fraction expands a decimal
# "0.000...1" to 10^len(decimals) before the digit limit applies, so a
# 10^6-digit decimal took 0.29 s to refuse, and the cost grows faster
# than the length.
MAX_DIGITS = 4300
MAX_EXPONENT = MAX_DIGITS - 1
MAX_LENGTH = 2 * MAX_DIGITS + 32
_TOO_LONG = 10 ** MAX_DIGITS

# A divisor whose multiplicities add up to more than MAX_DIVISOR_WEIGHT in
# absolute value is refused: the cost of L(D) grows steeply with the
# multiplicity at an affine point.  On y^2 = x^5 - x + 1, L(n*(0, 1)) with
# its h^1 takes 0.6 s at n = 50, 2.5 s at 64, 4.3 s at 70 and 44 s at 100
# (most of it in the elimination's row scaling and in the gcd that puts
# each basis element in lowest terms), while L(800*inf) takes 0.17 s and
# L(3200*inf) 2.2 s and 118 MB (CPython 3.11, 2-core x86 host).  Split
# over two or three points the 64 cost 1.1 s and 0.9 s; a multiplicity
# of -64 costs about the same as 64.
MAX_DIVISOR_WEIGHT = 64


def frac_from_str(s, field: str = "value") -> Fraction:
    if isinstance(s, bool) or not isinstance(s, (int, str)):
        raise MalformedInputError(
            f"expected a rational string, got {s!r}", field=field)
    if isinstance(s, int):
        q = Fraction(s)
    elif len(s) > MAX_LENGTH:
        raise MalformedInputError(
            f"rational string of {len(s)} characters is longer than "
            f"{MAX_LENGTH}", field=field)
    else:
        _, marker, exponent = s.upper().partition("E")
        digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
        if marker and digits.isdecimal() and (
                len(digits) > len(str(MAX_EXPONENT))
                or int(digits) > MAX_EXPONENT):
            raise MalformedInputError(
                f"exponent of {s[:40]!r} is above {MAX_EXPONENT} in "
                "absolute value", field=field)
        try:
            q = Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedInputError(
                f"cannot parse rational {s[:40]!r}: {exc}",
                field=field) from exc
    if abs(q.numerator) >= _TOO_LONG or q.denominator >= _TOO_LONG:
        raise MalformedInputError(
            f"numerator or denominator has more than {MAX_DIGITS} digits",
            field=field)
    return q


def poly_to_list(p: Poly) -> list[str]:
    return [frac_to_str(Fraction(n, p.denominator)) for n in p.numerators]


def _coeffs_from_list(obj, field: str) -> list[Fraction]:
    if not isinstance(obj, list):
        raise MalformedInputError(
            f"expected a coefficient list, got {obj!r}", field=field)
    return [frac_from_str(c, field=f"{field}[{i}]")
            for i, c in enumerate(obj)]


def poly_from_list(obj, field: str = "poly") -> Poly:
    return Poly(_coeffs_from_list(obj, field))


def curve_to_json(curve: HyperellipticCurve) -> dict:
    return {"f": poly_to_list(curve.f)}


def curve_from_json(obj) -> HyperellipticCurve:
    if not isinstance(obj, dict) or "f" not in obj:
        raise MalformedInputError('curve file needs an "f" coefficient list',
                                  field="f")
    return make_curve(_coeffs_from_list(obj["f"], "f"))


def point_to_json(p: CurvePoint) -> dict:
    return {"x": frac_to_str(p.x), "y": frac_to_str(p.y)}


def point_from_json(curve: HyperellipticCurve, obj,
                    field: str = "point") -> CurvePoint:
    """The affine point of the curve off y = 0 that obj names: the only
    points the wire format lists (a divisor carries infinity in "inf")."""
    if not isinstance(obj, dict):
        raise MalformedInputError(f"expected a point object, got {obj!r}",
                                  field=field)
    if "x" not in obj or "y" not in obj:
        raise MalformedInputError('an affine point needs "x" and "y"',
                                  field=field)
    x = frac_from_str(obj["x"], field=f"{field}.x")
    y = frac_from_str(obj["y"], field=f"{field}.y")
    if not curve.is_on_curve(x, y):
        raise MalformedInputError(f"({x}, {y}) does not satisfy y^2 = f(x)",
                                  field=field)
    if y == 0:
        raise MalformedInputError(
            f"({x}, 0) is a Weierstrass point; support must avoid y = 0",
            field=field)
    return CurvePoint.affine(x, y)


def divisor_to_json(D: Divisor) -> dict:
    return {
        "inf": D.inf_coeff,
        "affine": [{"x": frac_to_str(p.x), "y": frac_to_str(p.y),
                    "mult": mult} for p, mult in D.affine_items()],
    }


def divisor_from_json(curve: HyperellipticCurve, obj,
                      field: str = "divisor") -> Divisor:
    if not isinstance(obj, dict):
        raise MalformedInputError(f"expected a divisor object, got {obj!r}",
                                  field=field)
    coeffs: list[tuple[CurvePoint, int]] = []
    inf = obj.get("inf", 0)
    if isinstance(inf, bool) or not isinstance(inf, int):
        raise MalformedInputError('"inf" must be an integer',
                                  field=f"{field}.inf")
    if inf:
        coeffs.append((INF, inf))
    entries = obj.get("affine", [])
    if not isinstance(entries, list):
        raise MalformedInputError('"affine" must be a list',
                                  field=f"{field}.affine")
    weight = abs(inf)
    for i, entry in enumerate(entries):
        here = f"{field}.affine[{i}]"
        if not isinstance(entry, dict):
            raise MalformedInputError("expected a point entry", field=here)
        mult = entry.get("mult", 1)
        if isinstance(mult, bool) or not isinstance(mult, int) or mult == 0:
            raise MalformedInputError('"mult" must be a nonzero integer',
                                      field=f"{here}.mult")
        weight += abs(mult)
        if weight > MAX_DIVISOR_WEIGHT:
            break  # refused below, before any further point is read
        p = point_from_json(curve, entry, field=here)
        coeffs.append((p, mult))
    if weight > MAX_DIVISOR_WEIGHT:
        raise MalformedInputError(
            f"multiplicities add up to more than {MAX_DIVISOR_WEIGHT} in "
            "absolute value", field=field)
    return Divisor(coeffs)


def pool_from_json(curve: HyperellipticCurve, obj) -> tuple[CurvePoint, ...]:
    if not isinstance(obj, dict) or "points" not in obj:
        raise MalformedInputError('pool file needs a "points" list',
                                  field="points")
    pts = obj["points"]
    if not isinstance(pts, list) or not pts:
        raise MalformedInputError('"points" must be a nonempty list',
                                  field="points")
    first: dict[CurvePoint, int] = {}
    for j, obj in enumerate(pts):
        p = point_from_json(curve, obj, field=f"points[{j}]")
        if p in first:
            raise MalformedInputError(
                f"repeats points[{first[p]}]; pool points must be distinct",
                field=f"points[{j}]")
        first[p] = j
    return tuple(first)


def pool_to_json(pool) -> dict:
    return {"points": [point_to_json(p) for p in pool]}


def function_to_json(h: CurveFunction) -> dict:
    return {"a": poly_to_list(h.a), "b": poly_to_list(h.b),
            "den": poly_to_list(h.den)}


def function_from_json(curve: HyperellipticCurve, obj,
                       field: str = "phi") -> CurveFunction:
    if not isinstance(obj, dict) or "a" not in obj:
        raise MalformedInputError(
            'a function needs "a" (and optionally "b", "den") coefficient '
            "lists", field=field)
    a = poly_from_list(obj["a"], field=f"{field}.a")
    b = poly_from_list(obj.get("b", []), field=f"{field}.b")
    den = poly_from_list(obj.get("den", ["1"]), field=f"{field}.den")
    if den.is_zero():
        raise MalformedInputError("denominator must be nonzero",
                                  field=f"{field}.den")
    if den.coeff_bits > ROOT_SEARCH_MAX_BITS:
        raise MalformedInputError(
            f"coefficients above {ROOT_SEARCH_MAX_BITS} bits (after clearing "
            "denominators) are refused: the poles are found by searching "
            "their divisors", field=f"{field}.den")
    return CurveFunction(curve, a, b, den)


def critical_point_to_json(data) -> dict:
    return {"L1": divisor_to_json(data.L1_rep),
            "L2": divisor_to_json(data.L2_rep),
            "M": divisor_to_json(data.M_rep),
            "phi": function_to_json(data.phi),
            "d": data.d}


def critical_point_from_json(curve: HyperellipticCurve, obj):
    from .resolution import make_critical_point
    if not isinstance(obj, dict):
        raise MalformedInputError("expected a critical-point object",
                                  field="top")
    for key in ("L1", "L2", "M", "phi"):
        if key not in obj:
            raise MalformedInputError(f'critical point needs "{key}"',
                                      field=key)
    L1 = divisor_from_json(curve, obj["L1"], field="L1")
    d = obj.get("d", L1.degree)  # optional: the level deg L1, if given
    if type(d) is not int or d != L1.degree:
        raise MalformedInputError(
            f'"d" must be the integer deg L1 = {L1.degree}', field="d")
    return make_critical_point(
        curve, L1,
        divisor_from_json(curve, obj["L2"], field="L2"),
        divisor_from_json(curve, obj["M"], field="M"),
        function_from_json(curve, obj["phi"], field="phi"))


def matrix_to_json(rows) -> list[list[str]]:
    return [[frac_to_str(e) for e in row] for row in rows]


def class_to_json(cls) -> list[str]:
    return [frac_to_str(c) for c in cls.coords]


def local_entry_to_json(s):
    """A symbolic scalar: numeric 0 when zero, else its string form."""
    return 0 if s.is_zero() else str(s)


def local_matrix_to_json(m) -> list[list]:
    return [[local_entry_to_json(e) for e in row] for row in m.rows]


def chain_to_json(chain) -> dict:
    steps = []
    for x, d in zip(chain.points, chain.levels()):
        steps.append({
            "witness": divisor_to_json(x.witness),
            "class": class_to_json(x.cls),
            "phase": None if x.phase is None else frac_to_str(x.phase),
            "critical_d": d,
        })
    return {"top_d": chain.top.d, "steps": steps}
