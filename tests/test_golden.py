"""Golden output: ``rr-space``, ``secant-matrix``, ``chains
--check-diagram`` and ``local-model`` JSON and CSV stdout, byte for byte.

The expected bytes under ``tests/golden/rr_space`` pin the Riemann-Roch
bases (their normal form included) for a fixed set of criterion-1
divisors: negative and non-reduced multiplicities, a conjugate pair over
one fibre, a space of dimension 0, a genus-3 curve, and a point with
non-integral x (the general Taylor path, and polynomials written over a
denominator other than 1).  Any change to
how L(D) is computed or normalised must leave these bytes alone.

The bytes under ``tests/golden/secant_matrix`` and ``tests/golden/chains``
pin the plane path: jet matrices with their ranks (repeated points, a
conjugate pair, genus 3), and broken flow lines with the commuting-diagram
and fibre-count report, whose classes and minimal witnesses come from
secant-plane membership tests.

The bytes under ``tests/golden/local_model`` pin the symbolic gauge
computation (its products, slices, conjugated Higgs field and scaled
limit, each entry in the canonical term order of ``LocalScalar``) for
modification orders 2 and 3.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from secantflow import cli

GOLDEN = Path(__file__).parent / "golden"

G2 = {"f": ["1", "-1", "0", "0", "0", "1"]}              # y^2 = x^5 - x + 1
G3 = {"f": ["1", "-36", "0", "49", "0", "-14", "0", "1"]}
# y^2 = 1 + x(x^2 - 1)(x^2 - 4)(x^2 - 9), genus 3
G2_HALF = {"f": ["31/32", "0", "0", "0", "0", "1"]}
# y^2 = x^5 + 31/32, through (1/2, 1) and (1/2, -1): the one curve here
# whose points have a non-integral x


def _pt(x, y, mult):
    return {"x": str(x), "y": str(y), "mult": mult}


def _pool(*points):
    return {"points": [{"x": str(x), "y": str(y)} for x, y in points]}


CASES = {
    "negative": (G2, {"inf": 6, "affine": [_pt(0, 1, -1), _pt(1, -1, -2)]}),
    "non_reduced": (G2, {"inf": 2, "affine": [_pt(0, 1, 3)]}),
    "conjugate_pair": (G2, {"inf": 1, "affine": [_pt(1, 1, 2),
                                                 _pt(1, -1, 2)]}),
    "mixed_fibre": (G2, {"inf": 2, "affine": [_pt(0, 1, 3), _pt(0, -1, -1),
                                              _pt(-1, 1, 1)]}),
    "empty_space": (G2, {"inf": -1, "affine": [_pt(1, 1, 1)]}),
    "genus_3": (G3, {"inf": 4, "affine": [_pt(2, 1, 2), _pt(-1, -1, -1),
                                          _pt(3, 1, 1), _pt(3, -1, 1)]}),
    # den = (x - 1/2)^2, a polynomial over denominator 4
    "non_integral": (G2_HALF, {"inf": 1, "affine": [_pt("1/2", 1, 2),
                                                    _pt("1/2", -1, -1)]}),
}

# (curve, divisor, d1, d2, m)
SECANT_CASES = {
    "single_point": (G2, {"affine": [_pt(0, 1, 1)]}, 5, 0, 5),
    "fat_point": (G2, {"affine": [_pt(0, 1, 2), _pt(1, 1, 1)]}, 5, 0, 5),
    "conjugate_pair": (G2, {"affine": [_pt(1, 1, 2), _pt(1, -1, 2)]},
                       6, 1, 6),
    "genus_3": (G3, {"affine": [_pt(2, 1, 1), _pt(3, -1, 2),
                                _pt(-1, 1, 1)]}, 6, 0, 6),
    "non_integral": (G2_HALF, {"affine": [_pt("1/2", 1, 2),
                                          _pt("1/2", -1, 1)]}, 5, 0, 5),
}

TOP = {"L1": {"inf": 3, "affine": []}, "L2": {"inf": -2, "affine": []},
       "M": {"inf": 6, "affine": []},
       "phi": {"a": ["1"], "b": [], "den": ["1"]}}
POOL_6 = _pool((0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1))

# modification orders of local-model
LOCAL_MODEL_CASES = (2, 3)

# (curve, top, pool, ell)
CHAINS_CASES = {
    "pool6_ell2": (G2, TOP, POOL_6, 2),
    "pool4_ell1": (G2, TOP, {"points": POOL_6["points"][:4]}, 1),
    "genus_3": (G3, TOP, _pool((0, 1), (1, -1), (2, 1)), 1),
}


def cli_stdout(tmp_path, capsys, payloads: dict, argv: list[str]) -> str:
    """Run the CLI in process with each payload written to its own file;
    "{name}" in argv stands for that file's path."""
    paths = {}
    for name, payload in payloads.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        paths[name] = str(path)
    code = cli.main([arg.format(**paths) for arg in argv])
    out = capsys.readouterr()
    assert code == 0, out.err
    return out.out


def rr_space_stdout(tmp_path, capsys, case: str, emit: str) -> str:
    curve, divisor = CASES[case]
    return cli_stdout(tmp_path, capsys, {"curve": curve, "divisor": divisor},
                      ["rr-space", "--curve", "{curve}",
                       "--divisor", "{divisor}", "--emit", emit])


def secant_matrix_stdout(tmp_path, capsys, case: str, emit: str) -> str:
    curve, divisor, d1, d2, m = SECANT_CASES[case]
    return cli_stdout(tmp_path, capsys, {"curve": curve, "divisor": divisor},
                      ["secant-matrix", "--curve", "{curve}",
                       "--divisor", "{divisor}", "--d1", str(d1),
                       "--d2", str(d2), "--m", str(m), "--emit", emit])


def chains_stdout(tmp_path, capsys, case: str, emit: str) -> str:
    curve, top, pool, ell = CHAINS_CASES[case]
    return cli_stdout(tmp_path, capsys,
                      {"curve": curve, "top": top, "pool": pool},
                      ["chains", "--curve", "{curve}", "--top", "{top}",
                       "--pool", "{pool}", "--ell", str(ell),
                       "--check-diagram", "--emit", emit])


# budget 4 below (5, -4, 10) on the six-point pool, as the CI chains step
# writes it: 4,803 chains, the first run whose lower stratum has degree 3.
# Its output (6.9 MB of JSON) is pinned by SHA-256, not stored.
TOP_BUDGET_4 = {"L1": {"inf": 5}, "L2": {"inf": -4}, "M": {"inf": 10},
                "phi": {"a": ["1"]}}
BUDGET_4_SHA256 = {
    "json": "6c54e3d77710d0709c2f6bc9fd1d44273c369b16b8886e0fbbd5c453b57bfda2",
    "csv": "584c608a3578b64409375009a7fde52f25cfcb48c1e39e8a40b02478a41ed4e4",
}


def local_model_stdout(tmp_path, capsys, m: int, emit: str) -> str:
    return cli_stdout(tmp_path, capsys, {},
                      ["local-model", "--m", str(m), "--emit", emit])


@pytest.mark.parametrize("emit", ["json", "csv"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_rr_space_output_is_pinned(tmp_path, capsys, case, emit):
    expected = (GOLDEN / "rr_space" / f"{case}.{emit}").read_text(
        encoding="utf-8")
    assert rr_space_stdout(tmp_path, capsys, case, emit) == expected


@pytest.mark.parametrize("emit", ["json", "csv"])
@pytest.mark.parametrize("case", sorted(SECANT_CASES))
def test_secant_matrix_output_is_pinned(tmp_path, capsys, case, emit):
    expected = (GOLDEN / "secant_matrix" / f"{case}.{emit}").read_text(
        encoding="utf-8")
    assert secant_matrix_stdout(tmp_path, capsys, case, emit) == expected


@pytest.mark.parametrize("emit", ["json", "csv"])
@pytest.mark.parametrize("case", sorted(CHAINS_CASES))
def test_chains_output_is_pinned(tmp_path, capsys, case, emit):
    expected = (GOLDEN / "chains" / f"{case}.{emit}").read_text(
        encoding="utf-8")
    assert chains_stdout(tmp_path, capsys, case, emit) == expected


@pytest.mark.parametrize("emit", ["json", "csv"])
@pytest.mark.parametrize("m", LOCAL_MODEL_CASES)
def test_local_model_output_is_pinned(tmp_path, capsys, m, emit):
    expected = (GOLDEN / "local_model" / f"m{m}.{emit}").read_text(
        encoding="utf-8")
    assert local_model_stdout(tmp_path, capsys, m, emit) == expected


@pytest.mark.parametrize("emit", ["json", "csv"])
def test_budget_4_chains_output_is_pinned(tmp_path, capsys, emit):
    out = cli_stdout(tmp_path, capsys,
                     {"curve": G2, "top": TOP_BUDGET_4, "pool": POOL_6},
                     ["chains", "--curve", "{curve}", "--top", "{top}",
                      "--pool", "{pool}", "--ell", "1", "--check-diagram",
                      "--emit", emit])
    assert hashlib.sha256(out.encode()).hexdigest() == BUDGET_4_SHA256[emit]
