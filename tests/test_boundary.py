"""Point admissibility and the wire format are checked where data enters.

Every public function that takes a divisor, a witness or a pool rejects an
off-curve point and a Weierstrass point itself, so the per-point kernels
behind it (y_series, valuation, jet) need not check again.  At the JSON
boundary, a rational with a runaway decimal exponent, a number with more
digits than CPython converts to and from str (bare or quoted), a string
too long to hold two such numbers, a JSON boolean standing for a number
and a divisor whose multiplicities weigh more than the cap exit 2 at
once, naming the field; so do ``secant-matrix``'s degree flags above the
same cap, a ``local-model`` modification order below 1, and any flag the
library would refuse (``--g``, ``--degM``, ``--samples``, ``--d1``,
``--ell``), naming the flag.  An answer with a number too long to write exits 2 naming
``output``, with nothing written.  A listed point (a divisor's
``affine`` entry, a pool's ``points`` entry) is an affine point of the
curve off y = 0, distinct from the pool's other points; any other exits
2 naming the entry.  A top's optional ``"d"`` other than the integer
deg L1 exits 2 naming ``d``.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

import pytest

from secantflow import (
    INF,
    BundlePair,
    CurveFunction,
    CurvePoint,
    Divisor,
    Poly,
    commuting_check,
    embedding_matrix,
    enumerate_chains,
    h1_dim,
    make_critical_point,
    make_curve,
    point_class,
    riemann_roch_space,
    secant_plane,
    stratum_membership,
    upward_targets,
)
from secantflow import cli
from secantflow.errors import SecantflowError
from secantflow.serialize import (MAX_DIGITS, MAX_DIVISOR_WEIGHT,
                                  MAX_EXPONENT, frac_from_str)

CURVE = make_curve([0, 3, 0, 0, 0, 1])      # y^2 = x^5 + 3x
GOOD, OTHER = CURVE.point(1, 2), CURVE.point(1, -2)
BAD = {"off_curve": CurvePoint.affine(1, 3),
       "weierstrass": CurvePoint.affine(0, 0)}
PAIR = BundlePair.at_infinity(5, 0, 5)
ONE = CurveFunction(CURVE, Poly([1]), Poly.zero())


def top():
    return make_critical_point(CURVE, Divisor({INF: 3}), Divisor({INF: -2}),
                               Divisor({INF: 6}), ONE)


ENTRY_POINTS = {
    "riemann_roch_space": lambda b: riemann_roch_space(
        CURVE, Divisor.of_point(b)),
    "h1_dim": lambda b: h1_dim(CURVE, Divisor.of_point(b)),
    "secant_plane": lambda b: secant_plane(CURVE, PAIR, Divisor.of_point(b)),
    "embedding_matrix": lambda b: embedding_matrix(
        CURVE, PAIR, Divisor.of_point(b)),
    "point_class": lambda b: point_class(CURVE, PAIR, b),
    "stratum_membership": lambda b: stratum_membership(
        CURVE, PAIR, point_class(CURVE, PAIR, GOOD), [GOOD, b], 1),
    "make_critical_point": lambda b: make_critical_point(
        CURVE, Divisor({INF: 3}), Divisor({INF: -3, b: 1}),
        Divisor({INF: 6}), ONE),
    "upward_targets": lambda b: upward_targets(CURVE, top(), [GOOD, b]),
    "enumerate_chains": lambda b: enumerate_chains(CURVE, top(), 2,
                                                   [GOOD, b]),
    "commuting_check": lambda b: commuting_check(CURVE, top(), 2, [GOOD, b]),
}


@pytest.mark.parametrize("kind", sorted(BAD))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_rejects_inadmissible_point(entry, kind):
    with pytest.raises(SecantflowError):
        ENTRY_POINTS[entry](BAD[kind])


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_accepts_admissible_point(entry):
    # the same call with a point of the curve goes through, so the
    # rejections above come from the point alone
    ENTRY_POINTS[entry](OTHER)


# -- bounded input at the JSON boundary --------------------------------------

G2 = ["1", "-1", "0", "0", "0", "1"]                     # y^2 = x^5 - x + 1
DIV = {"inf": 5, "affine": [{"x": "0", "y": "1", "mult": 1}]}
LONG = "7" * 5000
DECIMAL = "0." + "0" * 10 ** 6 + "1"    # a 10^6-digit decimal
BARE = "bare " + LONG    # written unquoted: a JSON number of 5,000 digits

MALFORMED = {
    # (curve, divisor, field named in the diagnostic)
    "huge_exponent": ({"f": ["1e10000000", *G2[1:]]}, DIV, "f[0]"),
    "huge_negative_exponent": (
        {"f": G2},
        {"inf": 5, "affine": [{"x": "1e-99999999", "y": "1"}]},
        "divisor.affine[0].x"),
    "exponent_above_cap": ({"f": [*G2[:5], "1E+4301"]}, DIV, "f[5]"),
    "exponent_past_digit_limit": ({"f": [*G2[:5], "1e4300"]}, DIV, "f[5]"),
    "mantissa_past_digit_limit": ({"f": [*G2[:5], "12e4299"]}, DIV, "f[5]"),
    "denominator_past_digit_limit": (
        {"f": G2},
        {"inf": 5, "affine": [{"x": "0.01e-4299", "y": "1"}]},
        "divisor.affine[0].x"),
    "long_digit_string": ({"f": [LONG, *G2[1:]]}, DIV, "f[0]"),
    "long_decimal": ({"f": [*G2[:5], DECIMAL]}, DIV, "f[5]"),
    "long_bare_coefficient": ({"f": [BARE, *G2[1:]]}, DIV, "f[0]"),
    "long_bare_inf": ({"f": G2}, {"inf": BARE, "affine": []}, "divisor.inf"),
    "long_bare_mult": (
        {"f": G2},
        {"inf": 5, "affine": [{"x": "0", "y": "1", "mult": BARE}]},
        "divisor.affine[0].mult"),
    "boolean_coefficient": ({"f": [True, *G2[1:]]}, DIV, "f[0]"),
    "boolean_inf": ({"f": G2}, {"inf": True, "affine": []}, "divisor.inf"),
    "boolean_mult": (
        {"f": G2},
        {"inf": 5, "affine": [{"x": "0", "y": "1", "mult": True}]},
        "divisor.affine[0].mult"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_wire_input_exits_two_naming_the_field(tmp_path, capsys, case):
    curve, divisor, field = MALFORMED[case]
    paths = []
    for name, payload in (("curve", curve), ("divisor", divisor)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload).replace(json.dumps(BARE), LONG))
        paths.append(str(path))
    started = time.perf_counter()
    code = cli.main(["rr-space", "--curve", paths[0], "--divisor", paths[1]])
    assert time.perf_counter() - started < 1
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err.startswith(f"input error [cli]: {field}: "), out.err


def test_numbers_at_the_digit_limit_round_trip(tmp_path, capsys):
    top = "9" * MAX_DIGITS
    assert frac_from_str(f"1/{top}") == Fraction(1, 10 ** MAX_DIGITS - 1)
    curve, divisor = tmp_path / "curve.json", tmp_path / "divisor.json"
    curve.write_text('{"f": [%s, "-1", "0", "0", "0", "1"]}' % top)
    divisor.write_text('{"inf": 4}')
    assert cli.main(["rr-space", "--curve", str(curve),
                     "--divisor", str(divisor)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["curve"]["f"][0] == top and out["dim"] == 3


@pytest.mark.parametrize("emit", ["json", "csv"])
def test_answer_too_long_to_write_exits_two_naming_the_output(tmp_path,
                                                             capsys, emit):
    """Every input number fits the digit limit, but a basis element of
    L(4*inf + 3*(0, y0)) on y^2 = x^5 - x + y0^2 does not."""
    y0 = 10 ** 2000 + 7
    curve, divisor = tmp_path / "curve.json", tmp_path / "divisor.json"
    curve.write_text(json.dumps({"f": [str(y0 * y0), "-1", "0", "0", "0",
                                       "1"]}))
    divisor.write_text(json.dumps(
        {"inf": 4, "affine": [{"x": "0", "y": str(y0), "mult": 3}]}))
    code = cli.main(["rr-space", "--curve", str(curve),
                     "--divisor", str(divisor), "--emit", emit])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err.startswith("input error [cli]: output: "), out.err
    assert str(MAX_DIGITS) in out.err


def test_long_strings_are_refused_before_parsing():
    # refused in time linear in the length: Fraction would expand the
    # decimal to 10^len first, super-linear in the length
    for digits in (10 ** 6, 10 ** 7):
        decimal = "0." + "0" * digits + "1"
        started = time.perf_counter()
        with pytest.raises(SecantflowError, match="characters is longer"):
            frac_from_str(decimal)
        assert time.perf_counter() - started < 0.1
    top, bottom = "9" * MAX_DIGITS, "8" * MAX_DIGITS
    assert frac_from_str(f" -{top}/{bottom} ") == Fraction(-int(top),
                                                         int(bottom))


def test_exponent_at_the_cap_is_read():
    assert frac_from_str(f"1e{MAX_EXPONENT}") == 10 ** MAX_EXPONENT
    assert frac_from_str(f"-3e-{MAX_EXPONENT}") == Fraction(-3, 10 ** MAX_EXPONENT)
    assert frac_from_str("25e-1") == Fraction(5, 2)


W = MAX_DIVISOR_WEIGHT
POOL = {"points": [{"x": "0", "y": "1"}, {"x": "1", "y": "1"}]}
OVERWEIGHT = {
    # (subcommand and options, file flag, payload, field named); one past
    # the cap, so without it each command would run and exit 0 or fail
    # elsewhere within seconds
    "rr_space_inf": (["rr-space"], "--divisor", {"inf": W + 1}, "divisor"),
    "rr_space_mixed": (
        ["rr-space"], "--divisor",
        {"inf": 1 - W, "affine": [{"x": "0", "y": "1", "mult": 2}]},
        "divisor"),
    "secant_matrix": (
        ["secant-matrix", "--d1", "5", "--d2", "0", "--m", "5"], "--divisor",
        {"affine": [{"x": "0", "y": "1", "mult": 3},
                    {"x": "1", "y": "1", "mult": W - 2}]}, "divisor"),
    "chains_top": (
        ["chains", "--ell", "1"], "--top",
        {"L1": {"inf": 3}, "L2": {"inf": -2}, "M": {"inf": W + 1},
         "phi": {"a": ["1"]}}, "M"),
}


@pytest.mark.parametrize("case", sorted(OVERWEIGHT))
def test_overweight_divisor_exits_two_naming_the_field(tmp_path, capsys,
                                                       case):
    argv, flag, payload, field = OVERWEIGHT[case]
    for name, obj in (("curve", {"f": G2}), ("input", payload),
                      ("pool", POOL)):
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    args = [*argv, "--curve", str(tmp_path / "curve.json"),
            flag, str(tmp_path / "input.json")]
    if argv[0] == "chains":
        args += ["--pool", str(tmp_path / "pool.json")]
    started = time.perf_counter()
    code = cli.main(args)
    assert time.perf_counter() - started < 1
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err.startswith(f"input error [cli]: {field}: multiplicities "
                              f"add up to more than {W}"), out.err


def test_divisor_at_the_weight_cap_is_read(tmp_path, capsys):
    curve, divisor = tmp_path / "curve.json", tmp_path / "divisor.json"
    curve.write_text(json.dumps({"f": G2}))
    divisor.write_text(json.dumps(
        {"inf": W - 1, "affine": [{"x": "0", "y": "-1", "mult": -1}]}))
    assert cli.main(["rr-space", "--curve", str(curve),
                     "--divisor", str(divisor)]) == 0
    assert json.loads(capsys.readouterr().out)["degree"] == W - 2


# secant-matrix builds its representatives {INF: d} from --d1, --d2 and
# --m, so each flag is held to the divisor weight cap; d1 - d2 <= m then
# bounds d1 - d2, the jet order, by the cap too
PAST_THE_CAP = {
    "d1": ("--d1", [W + 1, 0, W]),
    "d2": ("--d2", [0, -W - 1, W]),
    "m": ("--m", [5, 0, W + 1]),
}


def _secant_matrix(tmp_path, d1, d2, m):
    curve, divisor = tmp_path / "curve.json", tmp_path / "divisor.json"
    curve.write_text(json.dumps({"f": G2}))
    divisor.write_text(json.dumps(
        {"affine": [{"x": "0", "y": "1", "mult": 2},
                    {"x": "1", "y": "1", "mult": 1}]}))
    return cli.main(["secant-matrix", "--curve", str(curve),
                     "--divisor", str(divisor), "--d1", str(d1),
                     "--d2", str(d2), "--m", str(m)])


@pytest.mark.parametrize("case", sorted(PAST_THE_CAP))
def test_secant_matrix_flag_past_the_cap_exits_two(tmp_path, capsys, case):
    flag, (d1, d2, m) = PAST_THE_CAP[case]
    started = time.perf_counter()
    code = _secant_matrix(tmp_path, d1, d2, m)
    assert time.perf_counter() - started < 1
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err.startswith(f"input error [cli]: {flag}: must be at most "
                              f"{W} in absolute value"), out.err


def test_secant_matrix_flags_at_the_cap_are_read(tmp_path, capsys):
    assert _secant_matrix(tmp_path, W, 0, W) == 0
    out = json.loads(capsys.readouterr().out)
    # the twist space has dimension g - 1 + (d1 - d2): W + 1 rows here,
    # and 2 at d1 - d2 = 1, which bounds the rank of the 3 columns
    assert out["rank"] == 3 and len(out["matrix"]) == W + 1
    assert _secant_matrix(tmp_path, 1 - W, -W, W) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["rank"] == 2 and len(out["matrix"]) == 2


@pytest.mark.parametrize("emit", ["json", "csv"])
@pytest.mark.parametrize("m", [0, -3])
def test_local_model_order_below_one_exits_two(capsys, m, emit):
    code = cli.main(["local-model", "--m", str(m), "--emit", emit])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err.startswith("input error [cli]: --m: "), out.err


# a flag the library would refuse is refused by name before any work:
# (argv, the files of the chains runs, the flag named)
REFUSED_FLAGS = {
    "critical_sets_genus": (["critical-sets", "--g", "1", "--degE", "1",
                             "--degM", "6"], "--g"),
    "critical_sets_twist": (["critical-sets", "--g", "2", "--degE", "1",
                             "--degM", "0"], "--degM"),
    "verify_identities_twist": (["verify-identities", "--g", "2", "--degE",
                                 "1", "--degM", "-2"], "--degM"),
    "verify_identities_samples": (["verify-identities", "--g", "2", "--degE",
                                   "1", "--degM", "6", "--samples", "-1"],
                                  "--samples"),
    "secant_matrix_d1_not_above_d2": (["secant-matrix", "--d1", "5", "--d2",
                                       "5", "--m", "5"], "--d1"),
    "secant_matrix_d1_past_d2_plus_m": (["secant-matrix", "--d1", "3",
                                         "--d2", "0", "--m", "1"], "--d1"),
    # the top (3, -2, 6) has level range 1..3 and u = 3
    "chains_ell_outside_the_range": (["chains", "--ell", "9"], "--ell"),
    "chains_ell_at_the_top": (["chains", "--ell", "3"], "--ell"),
}


@pytest.mark.parametrize("case", sorted(REFUSED_FLAGS))
def test_refused_flag_exits_two_naming_it(tmp_path, capsys, case):
    argv, flag = REFUSED_FLAGS[case]
    files = {"chains": {"curve": {"f": G2}, "top": TOP_JSON, "pool": POOL},
             "secant-matrix": {"curve": {"f": G2},
                               "divisor": {"affine": [{"x": "0", "y": "1"}]}},
             }.get(argv[0], {})
    args = list(argv)
    for name, obj in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        args += [f"--{name}", str(path)]
    code = cli.main(args)
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err.startswith(f"input error [cli]: {flag}: "), out.err


# -- listed points ------------------------------------------------------------

W0 = ["0", "3", "0", "0", "0", "1"]          # y^2 = x^5 + 3x: (0, 0) is on it
TOP_JSON = {"L1": {"inf": 3}, "L2": {"inf": -2}, "M": {"inf": 6},
            "phi": {"a": ["1"]}}
OFF_CURVE = {"x": "0", "y": "2"}
AT_INFINITY = {"inf": True, "mult": 2}
SECANT = ["secant-matrix", "--d1", "5", "--d2", "0", "--m", "5"]
LISTED_POINTS = {
    # (subcommand and options, curve, file flag, payload, field named)
    "rr_space_off_curve": (
        ["rr-space"], G2, "--divisor",
        {"inf": 5, "affine": [OFF_CURVE]}, "divisor.affine[0]"),
    "rr_space_weierstrass": (
        ["rr-space"], W0, "--divisor",
        {"inf": 5, "affine": [{"x": "1", "y": "2"}, {"x": "0", "y": "0"}]},
        "divisor.affine[1]"),
    "rr_space_infinity_entry": (
        ["rr-space"], G2, "--divisor",
        {"inf": 3, "affine": [AT_INFINITY]}, "divisor.affine[0]"),
    "secant_matrix_off_curve": (
        SECANT, G2, "--divisor",
        {"affine": [{"x": "0", "y": "1"}, OFF_CURVE]}, "divisor.affine[1]"),
    "secant_matrix_weierstrass": (
        SECANT, W0, "--divisor",
        {"affine": [{"x": "0", "y": "0"}]}, "divisor.affine[0]"),
    "secant_matrix_infinity_entry": (
        SECANT, G2, "--divisor", {"affine": [AT_INFINITY]},
        "divisor.affine[0]"),
    "chains_top_off_curve": (
        ["chains"], G2, "--top",
        {**TOP_JSON, "L1": {"inf": 2, "affine": [OFF_CURVE]}},
        "L1.affine[0]"),
    "chains_top_infinity_entry": (
        ["chains"], G2, "--top",
        {**TOP_JSON, "L1": {"inf": 1, "affine": [AT_INFINITY]}},
        "L1.affine[0]"),
    "chains_pool_off_curve": (
        ["chains"], G2, "--pool",
        {"points": [{"x": "0", "y": "1"}, OFF_CURVE]}, "points[1]"),
    "chains_pool_weierstrass": (
        ["chains"], W0, "--pool",
        {"points": [{"x": "1", "y": "2"}, {"x": "0", "y": "0"}]},
        "points[1]"),
    "chains_pool_infinity": (
        ["chains"], G2, "--pool",
        {"points": [{"x": "0", "y": "1"}, {"inf": True}]}, "points[1]"),
    "chains_pool_repeated": (
        ["chains"], G2, "--pool",
        {"points": [{"x": "0", "y": "1"}, {"x": "1", "y": "1"},
                    {"x": "0", "y": "1"}]}, "points[2]"),
}


@pytest.mark.parametrize("case", sorted(LISTED_POINTS))
def test_inadmissible_listed_point_exits_two_naming_it(tmp_path, capsys,
                                                       case):
    argv, f, flag, payload, field = LISTED_POINTS[case]
    files = {"--curve": {"f": f}, flag: payload}
    if argv[0] == "chains":
        files = {"--top": TOP_JSON, "--pool": POOL, **files}
        argv = [*argv, "--ell", "1"]
    args = list(argv)
    for name, obj in files.items():
        path = tmp_path / f"{name[2:]}.json"
        path.write_text(json.dumps(obj))
        args += [name, str(path)]
    started = time.perf_counter()
    code = cli.main(args)
    assert time.perf_counter() - started < 1
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err.startswith(f"input error [cli]: {field}: "), out.err


# a top's "d" is optional; when given it must be its level, deg L1 = 3
LEVELS = {"other_level": 99, "next_level": 2, "word": "x",
          "numeric_string": "3", "boolean": True, "float": 3.0,
          "null": None, "long_bare": BARE}


def _chains_with_top(tmp_path, top):
    args = ["chains", "--ell", "1"]
    for name, obj in (("curve", {"f": G2}), ("top", top), ("pool", POOL)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj).replace(json.dumps(BARE), LONG))
        args += [f"--{name}", str(path)]
    return cli.main(args)


@pytest.mark.parametrize("case", sorted(LEVELS))
def test_top_level_other_than_deg_L1_exits_two(tmp_path, capsys, case):
    code = _chains_with_top(tmp_path, {**TOP_JSON, "d": LEVELS[case]})
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err.startswith('input error [cli]: d: "d" must be the '
                              "integer deg L1 = 3"), out.err


def test_top_level_equal_to_deg_L1_is_read(tmp_path, capsys):
    outputs = []
    for top in (TOP_JSON, {**TOP_JSON, "d": 3}):
        assert _chains_with_top(tmp_path, top) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["top"]["d"] == 3
