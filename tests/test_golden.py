"""Golden output: ``rr-space`` JSON and CSV stdout, byte for byte.

The expected bytes under ``tests/golden/rr_space`` pin the Riemann-Roch
bases (their normal form included) for a fixed set of criterion-1
divisors: negative and non-reduced multiplicities, a conjugate pair over
one fibre, a space of dimension 0, and a genus-3 curve.  Any change to
how L(D) is computed or normalised must leave these bytes alone.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from secantflow import cli

GOLDEN = Path(__file__).parent / "golden" / "rr_space"

G2 = {"f": ["1", "-1", "0", "0", "0", "1"]}              # y^2 = x^5 - x + 1
G3 = {"f": ["1", "-36", "0", "49", "0", "-14", "0", "1"]}
# y^2 = 1 + x(x^2 - 1)(x^2 - 4)(x^2 - 9), genus 3


def _pt(x, y, mult):
    return {"x": str(x), "y": str(y), "mult": mult}


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
}


def rr_space_stdout(tmp_path, capsys, case: str, emit: str) -> str:
    curve, divisor = CASES[case]
    paths = []
    for name, payload in (("curve", curve), ("divisor", divisor)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        paths.append(str(path))
    code = cli.main(["rr-space", "--curve", paths[0], "--divisor", paths[1],
                     "--emit", emit])
    out = capsys.readouterr()
    assert code == 0, out.err
    return out.out


@pytest.mark.parametrize("emit", ["json", "csv"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_rr_space_output_is_pinned(tmp_path, capsys, case, emit):
    expected = (GOLDEN / f"{case}.{emit}").read_text(encoding="utf-8")
    assert rr_space_stdout(tmp_path, capsys, case, emit) == expected
