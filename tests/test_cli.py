"""Command-line interface: wire formats, determinism, exit codes."""

from __future__ import annotations

import json
import subprocess
import sys
import time

import pytest

CURVE_G2 = {"f": ["1", "-1", "0", "0", "0", "1"]}       # y^2 = x^5 - x + 1
DIV_5INF = {"inf": 5, "affine": []}
DIV_PQ = {"inf": 0, "affine": [{"x": "0", "y": "1", "mult": 2},
                               {"x": "1", "y": "1", "mult": 1}]}
POOL_6 = {"points": [{"x": "0", "y": "1"}, {"x": "0", "y": "-1"},
                     {"x": "1", "y": "1"}, {"x": "1", "y": "-1"},
                     {"x": "-1", "y": "1"}, {"x": "-1", "y": "-1"}]}
TOP = {"L1": {"inf": 3, "affine": []}, "L2": {"inf": -2, "affine": []},
       "M": {"inf": 6, "affine": []},
       "phi": {"a": ["1"], "b": [], "den": ["1"]}}


def run_cli(*args, env=None):
    cmd = [sys.executable, "-m", "secantflow", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, payload in [("curve", CURVE_G2), ("div5", DIV_5INF),
                          ("divpq", DIV_PQ), ("pool", POOL_6),
                          ("top", TOP)]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(payload))
        paths[name] = str(p)
    return paths


# -- payload shape -----------------------------------------------------------

def test_rr_space_payload(files):
    res = run_cli("rr-space", "--curve", files["curve"],
                  "--divisor", files["div5"])
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["schema_version"] == 1
    assert out["seed"] == 0
    assert out["command"] == "rr-space"
    assert out["dim"] == 4 and out["h1"] == 0 and out["degree"] == 5
    assert out["euler_identity_ok"]
    assert out["basis"][0] == {"a": ["1"], "b": [], "den": ["1"]}
    assert {"a": [], "b": ["1"], "den": ["1"]} in out["basis"]


def test_secant_matrix_payload(files):
    res = run_cli("secant-matrix", "--curve", files["curve"],
                  "--d1", "5", "--d2", "0", "--m", "5",
                  "--divisor", files["divpq"])
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["rank"] == 3
    assert len(out["matrix"]) == 6          # ambient rows
    assert len(out["matrix"][0]) == 3       # one column per witness degree
    assert all(isinstance(v, str) for row in out["matrix"] for v in row)


def test_critical_sets_payload(files):
    res = run_cli("critical-sets", "--g", "2", "--degE", "1", "--degM", "6")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["level_range"] == [1, 3]          # [d_min, d_max]
    assert out["coprime"] is True
    assert out["critical_sets"] == [
        {"d": 0, "index_real": 0, "dim_cplx": None, "f_rank_order": 0,
         "is_minimum": True},
        {"d": 1, "index_real": 4, "dim_cplx": 7, "f_rank_order": 1,
         "is_minimum": False},
        {"d": 2, "index_real": 8, "dim_cplx": 5, "f_rank_order": 2,
         "is_minimum": False},
        {"d": 3, "index_real": 12, "dim_cplx": 3, "f_rank_order": 3,
         "is_minimum": False},
    ]


def test_verify_identities_payload():
    res = run_cli("verify-identities", "--g", "2", "--degE", "1",
                  "--degM", "6", "--samples", "1")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["ok"] is True
    assert all(r["kind"] == "codim_index" and r["ok"]
               for r in out["codim_equals_index"])
    assert all(r["kind"] == "fibre_dim" and r["lhs"] == r["rhs"]
               for r in out["fibre_dim_crosscheck"])
    assert {(r["ell"], r["u"]) for r in out["codim_equals_index"]} == {
        (1, 2), (1, 3), (2, 3)}


def test_local_model_payload():
    res = run_cli("local-model", "--m", "2")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["ok"] is True
    assert out["det"] == "1"
    assert out["limit"] == [[0, "z^4*phi"], [0, 0]]
    assert out["vanishing_order"] == 4
    assert out["eta0_slice"] == [["z^2", "-1"], ["1", 0]]
    assert out["eta1_slice"] == [["z^2", 0], [0, "z^-2"]]
    assert out["trivialization"] == {"bump_step_ok": True,
                                     "rescale_step_ok": True}


def test_chains_payload(files):
    res = run_cli("chains", "--curve", files["curve"], "--top", files["top"],
                  "--ell", "2", "--pool", files["pool"])
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["count"] == 6
    assert len(out["chains"]) == 6
    step = out["chains"][0]["steps"][0]
    assert step["critical_d"] == 2 and step["phase"] == "0"
    assert out["chains"][0]["top_d"] == 3


def test_chains_with_diagram_check(files):
    res = run_cli("chains", "--curve", files["curve"], "--top", files["top"],
                  "--ell", "1", "--pool", files["pool"], "--check-diagram")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["count"] == 57
    assert out["diagram"]["ok"] is True
    assert out["diagram"]["chains"] == 57
    assert out["diagram"]["first_steps"] == 27


def test_pool_from_environment(files, monkeypatch):
    import os
    env = dict(os.environ, SECANTFLOW_POOL=files["pool"])
    res = run_cli("chains", "--curve", files["curve"], "--top", files["top"],
                  "--ell", "2", env=env)
    assert res.returncode == 0
    assert json.loads(res.stdout)["count"] == 6


def test_missing_pool_is_an_input_error(files):
    import os
    env = {k: v for k, v in os.environ.items() if k != "SECANTFLOW_POOL"}
    res = run_cli("chains", "--curve", files["curve"], "--top", files["top"],
                  "--ell", "2", env=env)
    assert res.returncode == 2


# -- determinism -------------------------------------------------------------

def test_repeated_runs_are_byte_identical():
    a = run_cli("verify-identities", "--g", "2", "--degE", "1",
                "--degM", "4", "--seed", "11")
    b = run_cli("verify-identities", "--g", "2", "--degE", "1",
                "--degM", "4", "--seed", "11")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    c = run_cli("verify-identities", "--g", "2", "--degE", "1",
                "--degM", "4", "--seed", "12")
    assert json.loads(c.stdout)["seed"] == 12


def test_chain_runs_are_byte_identical(files):
    a = run_cli("chains", "--curve", files["curve"], "--top", files["top"],
                "--ell", "1", "--pool", files["pool"])
    b = run_cli("chains", "--curve", files["curve"], "--top", files["top"],
                "--ell", "1", "--pool", files["pool"])
    assert a.stdout == b.stdout and a.returncode == 0


def test_json_output_is_sorted_and_newline_terminated(files):
    res = run_cli("rr-space", "--curve", files["curve"],
                  "--divisor", files["div5"])
    assert res.stdout.endswith("\n")
    out = json.loads(res.stdout)
    assert list(out) == sorted(out)


# -- csv emission ------------------------------------------------------------

def test_critical_sets_csv():
    res = run_cli("critical-sets", "--g", "2", "--degE", "1", "--degM", "6",
                  "--emit", "csv")
    assert res.returncode == 0
    lines = res.stdout.strip().split("\n")
    assert lines[0] == "d,index_real,dim_cplx,f_rank_order,is_minimum"
    assert lines[1] == "0,0,,0,True"
    assert lines[2] == "1,4,7,1,False"
    assert len(lines) == 5


def test_verify_identities_csv():
    res = run_cli("verify-identities", "--g", "2", "--degE", "1",
                  "--degM", "4", "--emit", "csv")
    assert res.returncode == 0
    header = res.stdout.split("\n", 1)[0]
    assert header.startswith("kind,")


# -- exit codes --------------------------------------------------------------

def test_exit_zero_on_success(files):
    assert run_cli("local-model", "--m", "1").returncode == 0


def test_exit_two_on_malformed_input(files, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = run_cli("rr-space", "--curve", str(bad),
                  "--divisor", files["div5"])
    assert res.returncode == 2
    assert "input error" in res.stderr


@pytest.mark.parametrize("field", ["curve", "divisor", "top", "pool"])
def test_exit_two_on_undecodable_input_naming_its_field(files, tmp_path,
                                                        field):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff" + json.dumps(CURVE_G2).encode())
    paths = {**files, field: str(bad)}
    if field in ("curve", "divisor"):
        args = ["rr-space", "--curve", paths["curve"],
                "--divisor", paths["div5"] if field == "curve" else str(bad)]
    else:
        args = ["chains", "--curve", files["curve"], "--top", paths["top"],
                "--ell", "2", "--pool", paths["pool"]]
    res = run_cli(*args)
    assert res.returncode == 2
    assert res.stderr == (f"input error [cli]: {field}: {field} file {bad} "
                          "is not UTF-8 text: invalid start byte\n")


def test_exit_two_on_missing_file(files):
    res = run_cli("rr-space", "--curve", "/nonexistent/c.json",
                  "--divisor", files["div5"])
    assert res.returncode == 2
    assert "input error" in res.stderr


def test_exit_two_on_invalid_curve(files, tmp_path):
    bad = tmp_path / "even.json"
    bad.write_text(json.dumps({"f": ["1", "0", "1"]}))
    res = run_cli("rr-space", "--curve", str(bad),
                  "--divisor", files["div5"])
    assert res.returncode == 2


def test_exit_two_on_out_of_range_level(files):
    res = run_cli("chains", "--curve", files["curve"], "--top", files["top"],
                  "--ell", "5", "--pool", files["pool"])
    assert res.returncode == 2
    assert res.stderr.startswith("input error [cli]: --ell: ")


OFF_CURVE = {"x": "2", "y": "3", "mult": 1}             # f(2) = 31


@pytest.mark.parametrize("where", ["divisor", "pool", "top"])
def test_exit_two_on_off_curve_point(files, tmp_path, where):
    payload = {"divisor": {"inf": 0, "affine": [OFF_CURVE]},
               "pool": {"points": POOL_6["points"][:1] + [OFF_CURVE]},
               "top": {**TOP, "L1": {"inf": 2, "affine": [OFF_CURVE]}}}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload[where]))
    if where == "divisor":
        args = ["rr-space", "--curve", files["curve"], "--divisor", str(bad)]
    else:
        paths = {"top": files["top"], "pool": files["pool"], where: str(bad)}
        args = ["chains", "--curve", files["curve"], "--top", paths["top"],
                "--ell", "2", "--pool", paths["pool"]]
    field = {"divisor": "divisor.affine[0]", "pool": "points[1]",
             "top": "L1.affine[0]"}[where]
    res = run_cli(*args)
    assert res.returncode == 2
    assert res.stderr == (f"input error [cli]: {field}: (2, 3) does not "
                          "satisfy y^2 = f(x)\n")


def test_exit_two_on_pole_over_negative_fibre(files, tmp_path):
    # phi = 1/(x + 2) and f(-2) = -29: no rational points over x = -2
    top = tmp_path / "top.json"
    top.write_text(json.dumps(
        {**TOP, "M": {"inf": 10, "affine": []},
         "phi": {"a": ["1"], "b": [], "den": ["2", "1"]}}))
    res = run_cli("chains", "--curve", files["curve"], "--top", str(top),
                  "--ell", "2", "--pool", files["pool"])
    assert res.returncode == 2
    assert res.stderr == ("input error [curve]: fibre over x = -2 has no "
                          "rational points\n")


def test_exit_two_on_oversized_pole_coefficients(files, tmp_path):
    # a 19-digit constant term would send the pole search into ~10^9
    # trial divisions; it is refused before any curve work starts
    top = tmp_path / "top.json"
    top.write_text(json.dumps(
        {**TOP, "phi": {"a": ["1"], "b": [],
                        "den": ["1000000000000000003", "1"]}}))
    started = time.perf_counter()
    res = run_cli("chains", "--curve", files["curve"], "--top", str(top),
                  "--ell", "1", "--pool", files["pool"])
    assert time.perf_counter() - started < 5
    assert res.returncode == 2
    assert res.stderr.startswith("input error [cli]: phi.den: coefficients "
                                 "above 20 bits")


def test_exit_two_on_negative_samples():
    res = run_cli("verify-identities", "--g", "2", "--degE", "1",
                  "--degM", "6", "--samples", "-1")
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == ("input error [cli]: --samples: must be at least 0, "
                          "got -1\n")


def test_exit_two_on_unknown_subcommand():
    assert run_cli("not-a-command").returncode == 2


def test_module_entry_points_match(files):
    alt = subprocess.run([sys.executable, "-m", "secantflow.cli",
                          "local-model", "--m", "1"],
                         capture_output=True, text=True)
    main = run_cli("local-model", "--m", "1")
    assert alt.stdout == main.stdout and alt.returncode == 0
