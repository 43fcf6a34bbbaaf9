"""Command-line interface: every module behind one binary.

Subcommands emit self-describing JSON (schema_version included, rationals
as exact "p/q" strings, key order sorted) or, with --emit csv, a flat
table.  Exit codes: 0 all checks passed, 1 a verified property failed,
2 malformed input or usage.  Output depends only on the arguments and
the seed, byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys
from collections.abc import Iterable

from . import linalg, serialize as ser
from .curve import h1_dim, riemann_roch_space
from .errors import (DegenerateRankError, InvariantError, MalformedInputError,
                     SecantflowError, SmoothnessFailureError)
from .localmodel import (conjugated_higgs, flow_limit, gauge_factors,
                         limit_vanishing_order, product_smoothness,
                         trivialization_check, u_exponents)
from .morse import (ModuliParams, critical_range, fibre_dim_crosscheck,
                    smale_check)
from .resolution import commuting_check, enumerate_chains
from .secant import BundlePair, embedding_matrix

SCHEMA_VERSION = 1


def _json_int(text: str):
    # An integer literal longer than int() converts from str (4,300 digits
    # by default) stays a string, so the field that reads it refuses it by
    # name; json itself would raise a bare ValueError.
    try:
        return int(text)
    except ValueError:
        return text


def _load_json(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_int=_json_int)
    except OSError as exc:
        raise MalformedInputError(f"cannot read {what} file {path}: {exc}",
                                  field=what) from exc
    except json.JSONDecodeError as exc:
        raise MalformedInputError(
            f"{what} file {path} is not valid JSON "
            f"(line {exc.lineno}, column {exc.colno}): {exc.msg}",
            field=what) from exc
    except UnicodeDecodeError as exc:
        raise MalformedInputError(f"{what} file {path} is not UTF-8 text: "
                                  f"{exc.reason}", field=what) from exc


def _emit(args, payload: dict, table: Iterable[dict],
          columns: list[str]) -> None:
    if args.emit == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        for row in table:
            writer.writerow([row.get(c, "") for c in columns])
    else:
        payload = {"schema_version": SCHEMA_VERSION, "seed": args.seed,
                   **payload}
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _cell(value) -> str:
    if isinstance(value, (list, dict)):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    if value is None:
        return ""
    return str(value)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _moduli_params(args) -> ModuliParams:
    """The moduli parameters of --g, --degE, --degM and --fixed-det, with
    --g and --degM checked by name first."""
    if args.g < 2:
        raise MalformedInputError(f"genus must be at least 2, got {args.g}",
                                  field="--g")
    if args.degM < 1:
        raise MalformedInputError(
            f"twist degree must be positive, got {args.degM}", field="--degM")
    return ModuliParams(args.g, args.degE, args.degM, args.fixed_det)


def cmd_critical_sets(args) -> int:
    params = _moduli_params(args)
    rows = []
    for c in critical_range(params):
        rows.append({"d": c.d, "index_real": c.index_real,
                     "dim_cplx": c.dim_cplx, "f_rank_order": c.f_rank_order,
                     "is_minimum": c.is_minimum})
    payload = {
        "command": "critical-sets",
        "params": {"g": params.g, "degE": params.degE, "degM": params.degM,
                   "fixed_determinant": params.fixed_determinant},
        "coprime": params.coprime,
        "level_range": [params.d_min, params.d_max],
        "critical_sets": rows,
    }
    table = [{k: _cell(v) for k, v in r.items()} for r in rows]
    _emit(args, payload, table,
          ["d", "index_real", "dim_cplx", "f_rank_order", "is_minimum"])
    return 0


def cmd_verify_identities(args) -> int:
    params = _moduli_params(args)
    if args.samples < 0:
        raise MalformedInputError(
            f"must be at least 0, got {args.samples}", field="--samples")
    report = smale_check(params)
    rng = random.Random(args.seed)
    fibre = fibre_dim_crosscheck(params, rng=rng, samples=args.samples)
    srows = [{"kind": "codim_index", "ell": r.ell, "u": r.u,
              "lhs": r.codim, "rhs": r.index, "ok": r.ok}
             for r in report.rows]
    frows = [{"kind": "fibre_dim", "d": r["d"],
              "divisor": ser.divisor_to_json(r["divisor"]),
              "lhs": r["h1"], "rhs": r["formula"], "ok": r["ok"]}
             for r in fibre]
    ok = all(r["ok"] for r in srows + frows)
    payload = {
        "command": "verify-identities",
        "params": {"g": params.g, "degE": params.degE, "degM": params.degM,
                   "fixed_determinant": params.fixed_determinant},
        "codim_equals_index": srows,
        "fibre_dim_crosscheck": frows,
        "ok": ok,
    }
    columns = ["kind", "ell", "u", "d", "divisor", "lhs", "rhs", "ok"]
    table = [{k: _cell(v) for k, v in r.items()} for r in srows + frows]
    _emit(args, payload, table, columns)
    return 0 if ok else 1


def cmd_secant_matrix(args) -> int:
    # the flags build the representatives {INF: d} themselves, so they
    # carry the weight cap a JSON divisor is held to
    for flag in ("d1", "d2", "m"):
        value = getattr(args, flag)
        if abs(value) > ser.MAX_DIVISOR_WEIGHT:
            raise MalformedInputError(
                f"must be at most {ser.MAX_DIVISOR_WEIGHT} in absolute "
                f"value, got {value}", field=f"--{flag}")
    if args.d1 <= args.d2:
        raise MalformedInputError(
            f"must exceed --d2 = {args.d2}, got {args.d1}", field="--d1")
    if args.d1 > args.d2 + args.m:
        raise MalformedInputError(
            f"must be at most --d2 + --m = {args.d2 + args.m}, got {args.d1}",
            field="--d1")
    curve = ser.curve_from_json(_load_json(args.curve, "curve"))
    D = ser.divisor_from_json(curve, _load_json(args.divisor, "divisor"))
    pair = BundlePair.at_infinity(args.d1, args.d2, args.m)
    mat = embedding_matrix(curve, pair, D)
    payload = {
        "command": "secant-matrix",
        "curve": ser.curve_to_json(curve),
        "pair": {"d1": pair.d1, "d2": pair.d2, "m": pair.m},
        "divisor": ser.divisor_to_json(D),
        "rank": linalg.rank(mat),
        "matrix": ser.matrix_to_json(mat),
    }
    table = [{"row": i,
              **{f"c{j}": ser.frac_to_str(e) for j, e in enumerate(row)}}
             for i, row in enumerate(mat)]
    columns = ["row"] + [f"c{j}" for j in range(len(mat[0]) if mat else 0)]
    _emit(args, payload, table, columns)
    return 0


def cmd_local_model(args) -> int:
    m = args.m
    if m < 1:
        raise MalformedInputError(f"must be at least 1, got {m}", field="--m")
    g1, g2 = gauge_factors(m)
    smooth = product_smoothness(m)
    conj = conjugated_higgs(m)
    limit = flow_limit(m)
    triv = trivialization_check(m)
    ok = smooth.ok and triv.ok
    payload = {
        "command": "local-model",
        "m": m,
        "g1": ser.local_matrix_to_json(g1),
        "g2": ser.local_matrix_to_json(g2),
        "product": ser.local_matrix_to_json(smooth.product),
        "det": ser.local_entry_to_json(smooth.product.det()),
        "eta0_slice": ser.local_matrix_to_json(smooth.eta0_slice),
        "eta1_slice": ser.local_matrix_to_json(smooth.eta1_slice),
        "conjugated_higgs": ser.local_matrix_to_json(conj),
        "u_exponents": u_exponents(m),
        "limit": ser.local_matrix_to_json(limit),
        "vanishing_order": limit_vanishing_order(m),
        "trivialization": {"bump_step_ok": triv.bump_step_ok,
                           "rescale_step_ok": triv.rescale_step_ok},
        "ok": ok,
    }
    table = []
    for name, mat in (("g1", g1), ("g2", g2), ("product", smooth.product),
                      ("eta0_slice", smooth.eta0_slice),
                      ("eta1_slice", smooth.eta1_slice),
                      ("conjugated_higgs", conj), ("limit", limit)):
        for i in (0, 1):
            for j in (0, 1):
                table.append({"slot": f"{name}[{i}][{j}]",
                              "value": _cell(ser.local_entry_to_json(
                                  mat[i, j]))})
    _emit(args, payload, table, ["slot", "value"])
    return 0 if ok else 1


def cmd_chains(args) -> int:
    curve = ser.curve_from_json(_load_json(args.curve, "curve"))
    top = ser.critical_point_from_json(curve, _load_json(args.top, "top"))
    levels = top.params(curve).level_range()
    if args.ell not in levels or args.ell >= top.d:
        raise MalformedInputError(
            f"must lie in the level range {levels.start}..{levels.stop - 1} "
            f"below the top's level u = {top.d}, got {args.ell}",
            field="--ell")
    pool_path = args.pool or os.environ.get("SECANTFLOW_POOL")
    if not pool_path:
        raise MalformedInputError(
            "no pool file given and SECANTFLOW_POOL is not set", field="pool")
    pool = ser.pool_from_json(curve, _load_json(pool_path, "pool"))
    chains = enumerate_chains(curve, top, args.ell, pool)
    payload = {
        "command": "chains",
        "curve": ser.curve_to_json(curve),
        "top": ser.critical_point_to_json(top),
        "ell": args.ell,
        "pool": ser.pool_to_json(pool),
        "count": len(chains),
        "chains": [ser.chain_to_json(c) for c in chains],
    }
    code = 0
    if args.check_diagram:
        rep = commuting_check(curve, top, args.ell, pool)
        payload["diagram"] = {
            "chains": rep.chains, "first_steps": rep.first_steps,
            "commute_failures": rep.commute_failures,
            "fibre_failures": rep.fibre_failures, "ok": rep.ok,
        }
        if not rep.ok:
            code = 1
    table = ({"chain": ci, "step": si,
              "witness": _cell(step["witness"]),
              "class": _cell(step["class"]),
              "phase": _cell(step["phase"]),
              "critical_d": step["critical_d"]}
             for ci, c in enumerate(payload["chains"])
             for si, step in enumerate(c["steps"]))
    _emit(args, payload, table,
          ["chain", "step", "witness", "class", "phase", "critical_d"])
    return code


def cmd_rr_space(args) -> int:
    curve = ser.curve_from_json(_load_json(args.curve, "curve"))
    D = ser.divisor_from_json(curve, _load_json(args.divisor, "divisor"))
    space = riemann_roch_space(curve, D)
    h1 = h1_dim(curve, D)
    euler_ok = space.dim - h1 == D.degree - curve.genus + 1
    payload = {
        "command": "rr-space",
        "curve": ser.curve_to_json(curve),
        "genus": curve.genus,
        "divisor": ser.divisor_to_json(D),
        "degree": D.degree,
        "dim": space.dim,
        "h1": h1,
        "euler_identity_ok": euler_ok,
        "basis": [ser.function_to_json(h) for h in space.basis],
    }
    table = [{"i": i, "a": _cell(ser.poly_to_list(h.a)),
              "b": _cell(ser.poly_to_list(h.b)),
              "den": _cell(ser.poly_to_list(h.den))}
             for i, h in enumerate(space.basis)]
    _emit(args, payload, table, ["i", "a", "b", "den"])
    return 0 if euler_ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--emit", choices=("json", "csv"), default="json",
                        help="output format (default json)")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for randomized sweeps (default 0)")

    parser = argparse.ArgumentParser(
        prog="secantflow",
        description="Exact computations for flow lines, secant planes and "
                    "critical-set bookkeeping on odd hyperelliptic curves.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("critical-sets", parents=[common],
                       help="enumerate critical sets with indices and "
                            "dimensions")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--degE", type=int, required=True)
    p.add_argument("--degM", type=int, required=True)
    p.add_argument("--fixed-det", dest="fixed_det", action="store_true")
    p.set_defaults(func=cmd_critical_sets)

    p = sub.add_parser("verify-identities", parents=[common],
                       help="codimension = index table and h^1 fibre-"
                            "dimension crosschecks")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--degE", type=int, required=True)
    p.add_argument("--degM", type=int, required=True)
    p.add_argument("--fixed-det", dest="fixed_det", action="store_true")
    p.add_argument("--samples", type=int, default=2,
                   help="random representatives per level (default 2)")
    p.set_defaults(func=cmd_verify_identities)

    p = sub.add_parser("secant-matrix", parents=[common],
                       help="jet matrix and rank of a witness divisor")
    p.add_argument("--curve", required=True, help="curve JSON file")
    p.add_argument("--d1", type=int, required=True)
    p.add_argument("--d2", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--divisor", required=True, help="divisor JSON file")
    p.set_defaults(func=cmd_secant_matrix)

    p = sub.add_parser("local-model", parents=[common],
                       help="symbolic gauge product, smoothness slices and "
                            "the scaled flow limit")
    p.add_argument("--m", type=int, required=True,
                   help="modification order (>= 1)")
    p.set_defaults(func=cmd_local_model)

    p = sub.add_parser("chains", parents=[common],
                       help="enumerate broken flow lines below a critical "
                            "point")
    p.add_argument("--curve", required=True, help="curve JSON file")
    p.add_argument("--top", required=True, help="critical-point JSON file")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--pool", help="pool JSON file (default: $SECANTFLOW_POOL)")
    p.add_argument("--check-diagram", dest="check_diagram",
                   action="store_true",
                   help="also run the commuting-diagram and fibre-count "
                        "checks")
    p.set_defaults(func=cmd_chains)

    p = sub.add_parser("rr-space", parents=[common],
                       help="basis of the space of sections of a divisor")
    p.add_argument("--curve", required=True, help="curve JSON file")
    p.add_argument("--divisor", required=True, help="divisor JSON file")
    p.set_defaults(func=cmd_rr_space)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DegenerateRankError, SmoothnessFailureError, InvariantError) as exc:
        sys.stderr.write(
            f"property failure [{exc.module}]: {exc}\n")
        return 1
    except SecantflowError as exc:
        sys.stderr.write(f"input error [{exc.module}]: {exc}\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
