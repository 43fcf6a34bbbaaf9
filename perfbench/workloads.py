"""Seeded inputs and checked, timed solves for the four benchmark workloads.

Every input is drawn from ``random.Random("<workload>:<seed>")``, so one
seed always gives the same inputs.  The program sees only the generated inputs.  Library
functions are reached through the ``secantflow`` package attributes (never
imported by name here), so the tracer's wrappers apply to this module too.

A solve returns ``(attempted, failed, op_ms, errors)``: one latency per
operation in milliseconds, and every failed correctness gate counted
against the operations attempted.  No gate skips a sample.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import time
from itertools import combinations, product

import secantflow as sf
from secantflow import linalg

WORKLOADS = ("chains", "rr_sweep", "secant_planes", "cli")

CHAINS_EXPECTED = 164  # top (4, -3, 8), ell = 1, 4-point pool: any seed
CLI_CHAINS_EXPECTED = 4  # top (3, -2, 6), ell = 2, 4-point pool: budget 1

_X_G2 = (0, 1, -1, 2, -2)
_X_G3 = _X_G2 + (3, -3)


# ---------------------------------------------------------------------------
# seeded curves and points
# ---------------------------------------------------------------------------

def seeded_curves(rng: random.Random):
    """y^2 = c^2 + k x(x^2-1)(x^2-4), and its genus-3 sibling with the
    extra factor (x^2-9) in the product.

    Both carry the rational points (x, +-c) over the roots of the product,
    none of them Weierstrass.  c and k stay small so the cost per seed
    varies little.
    """
    while True:
        c, k = rng.randint(1, 3), rng.randint(1, 3)
        try:
            g2 = sf.make_curve([c * c, 4 * k, 0, -5 * k, 0, k])
            g3 = sf.make_curve([c * c, -36 * k, 0, 49 * k, 0, -14 * k, 0, k])
        except sf.errors.NonSquarefreeError:
            continue
        return c, g2, g3


def curve_points(curve, c: int, xs) -> list:
    return [curve.point(x, s * c) for x in xs for s in (1, -1)]


def _sample_pool(rng: random.Random, points: list, n: int) -> list:
    return [points[i] for i in sorted(rng.sample(range(len(points)), n))]


def _fibre_pool(rng: random.Random, points: list, xs) -> list:
    """One point over each of ``xs``, with seeded signs.  Which x-values a
    pool uses changes the size of the numbers and so the cost; fixing them
    keeps the cost from varying with the seed."""
    return [rng.choice([p for p in points if p.x == x]) for x in xs]


# (support size, includes a conjugate pair): every seed gets the same mix,
# because the support size sets most of a divisor's cost.  The two-point
# shapes are the middle three fifths, so the median latency falls inside
# one shape's range instead of between two.
RR_SHAPES = ((1, False), (2, False), (2, True), (2, False), (3, True))


def sweep_divisor(rng: random.Random, points: list, size: int,
                  conj_pair: bool):
    """A divisor of degree -5..10 supported on ``size`` pool points over
    distinct x, or with one conjugate pair, with multiplicities -2..2
    (negative and non-reduced)."""
    fibres = sorted({p.x for p in points})
    chosen = _fibre_pool(rng, points,
                         rng.sample(fibres, size - 1 if conj_pair else size))
    if conj_pair:
        chosen.append(chosen[0].conjugate())
    aff = sf.Divisor({p: rng.choice((-2, -1, 1, 2)) for p in chosen})
    inf = rng.randint(-5 - aff.degree, 10 - aff.degree)
    return aff + sf.Divisor({sf.INF: inf})


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

RR_DIVISORS_PER_CURVE = 230


def build(workload: str, seed: int, workdir=None):
    """The inputs of one workload for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    c, g2, g3 = seeded_curves(rng)
    pts2 = curve_points(g2, c, _X_G2)
    if workload == "chains":
        one = sf.CurveFunction(g2, sf.Poly([1]), sf.Poly.zero())
        top = sf.make_critical_point(g2, sf.Divisor({sf.INF: 4}),
                                     sf.Divisor({sf.INF: -3}),
                                     sf.Divisor({sf.INF: 8}), one)
        return g2, top, 1, _fibre_pool(rng, pts2, (0, 1, -1, 2))
    if workload == "rr_sweep":
        pts3 = curve_points(g3, c, _X_G3)
        cases = []
        for curve, pts in ((g2, pts2), (g3, pts3)):
            seen = set()
            while len(seen) < RR_DIVISORS_PER_CURVE:
                shape = RR_SHAPES[len(seen) % len(RR_SHAPES)]
                D = sweep_divisor(rng, pts, *shape)
                if D not in seen:
                    seen.add(D)
                    cases.append((curve, D))
        return cases
    if workload == "secant_planes":
        return g2, _fibre_pool(rng, pts2, _X_G2)
    if workload == "cli":
        return cli_invocations(rng, seed, g2, pts2, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def _rep_styles(pool):
    """L1 representatives of degree d: all at infinity, partly at two pool
    points, and a pole at a pool point (both local-frame jet branches)."""
    p, q = pool[0], pool[1]
    return (
        lambda d: sf.Divisor({sf.INF: d}),
        lambda d: (sf.Divisor({sf.INF: d - 2}) + sf.Divisor.of_point(p)
                   + sf.Divisor.of_point(q)),
        lambda d: sf.Divisor({sf.INF: d + 2}) + sf.Divisor.of_point(p, -2),
    )


def cli_invocations(rng, seed, curve, pts, workdir) -> list[list[str]]:
    """Arguments for one cycle through the six subcommands, each emitted
    as JSON and as CSV; writes the input files into ``workdir``."""
    def write(name, payload):
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(payload, sort_keys=True))
        return str(path)

    from secantflow import serialize as ser

    curve_f = write("curve", ser.curve_to_json(curve))
    rr_div = write("rr_divisor",
                   ser.divisor_to_json(sweep_divisor(rng, pts, 2, False)))
    witness = sf.Divisor({p: rng.randint(1, 2) for p in rng.sample(pts, 2)})
    sec_div = write("witness", ser.divisor_to_json(witness))
    top = write("top", {"L1": {"inf": 3, "affine": []},
                        "L2": {"inf": -2, "affine": []},
                        "M": {"inf": 6, "affine": []},
                        "phi": {"a": ["1"], "b": [], "den": ["1"]}})
    pool = write("pool", ser.pool_to_json(_sample_pool(rng, pts, 4)))
    g, degE = rng.choice((2, 3)), rng.randint(0, 1)
    commands = [
        ["critical-sets", "--g", str(g), "--degE", str(degE),
         "--degM", str(rng.randint(4, 8))],
        ["verify-identities", "--g", "2", "--degE", "1", "--degM", "6",
         "--samples", "2", "--seed", str(seed)],
        ["rr-space", "--curve", curve_f, "--divisor", rr_div],
        ["secant-matrix", "--curve", curve_f, "--d1", "5", "--d2", "0",
         "--m", "5", "--divisor", sec_div],
        ["local-model", "--m", "2"],
        ["chains", "--curve", curve_f, "--top", top, "--ell", "2",
         "--pool", pool, "--check-diagram"],
    ]
    return [cmd + ["--emit", emit] for cmd in commands
            for emit in ("json", "csv")]


# ---------------------------------------------------------------------------
# solves
# ---------------------------------------------------------------------------

class _Ops:
    """Times operations and counts the ones whose gate fails."""

    def __init__(self):
        self.op_ms: list[float] = []
        self.failed = 0
        self.errors: list[str] = []

    def run(self, fn, *args) -> None:
        t0 = time.perf_counter()
        try:
            ok = fn(*args)
        except Exception as exc:  # a raising operation is a failed one
            ok = False
            self._note(f"{fn.__name__}: {exc!r:.300}")
        self.op_ms.append((time.perf_counter() - t0) * 1e3)
        if not ok:
            self.failed += 1
            self._note(f"{fn.__name__}: gate failed on {args[-2:]!r:.300}")

    def _note(self, msg: str) -> None:
        if len(self.errors) < 5:
            self.errors.append(msg)


def _chains_op(curve, top, ell, pool) -> bool:
    chains = sf.enumerate_chains(curve, top, ell, pool)
    report = sf.commuting_check(curve, top, ell, pool)
    return (len(chains) == CHAINS_EXPECTED and report.ok
            and report.chains == CHAINS_EXPECTED)


def _rr_op(curve, D) -> bool:
    space = sf.riemann_roch_space(curve, D)
    return space.dim - sf.h1_dim(curve, D) == D.degree - curve.genus + 1


def _plane_op(planes, curve, pair, D) -> bool:
    plane = sf.secant_plane(curve, pair, D)
    planes[pair, D] = plane
    return (plane.rank == D.degree
            and linalg.rank(plane.matrix()) == D.degree)


def _intersection_op(planes, pair, D1, D2) -> bool:
    gcd = D1.gcd(D2)
    inter = sf.plane_intersection(planes[pair, D1], planes[pair, D2])
    if inter is None:
        return gcd.is_zero()
    return inter.witness == gcd and inter.rank == gcd.degree


def solve(workload: str, inputs):
    """Run every operation of one repetition through its gate."""
    ops = _Ops()
    if workload == "chains":
        ops.run(_chains_op, *inputs)
    elif workload == "rr_sweep":
        for curve, D in inputs:
            ops.run(_rr_op, curve, D)
    elif workload == "secant_planes":
        curve, pool = inputs
        planes: dict = {}
        for delta, make_L1 in product((5, 6, 7), _rep_styles(pool)):
            pair = sf.BundlePair(delta, 0, delta, make_L1(delta),
                                 sf.Divisor.zero(),
                                 sf.Divisor({sf.INF: delta}))
            for N in range(1, delta):
                for D in sf.pool_divisors(pool, N):
                    ops.run(_plane_op, planes, curve, pair, D)
        pair6 = sf.BundlePair.at_infinity(6, 0, 6)
        small = [*sf.pool_divisors(pool, 1), *sf.pool_divisors(pool, 2)]
        deg3 = list(sf.pool_divisors(pool, 3))
        for D1, D2 in [*combinations(small, 2), *product(deg3, small)]:
            ops.run(_intersection_op, planes, pair6, D1, D2)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return len(ops.op_ms), ops.failed, ops.op_ms, ops.errors


def run_cli_cycle(invocations, command):
    """One cold process per invocation, one after another.  Returns the
    latencies and, per invocation, the exit code and the SHA-256 of stdout;
    the caller compares them with the reference bytes."""
    op_ms, outputs = [], []
    for argv in invocations:
        t0 = time.perf_counter()
        res = subprocess.run([*command, *argv], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, timeout=60)
        op_ms.append((time.perf_counter() - t0) * 1e3)
        outputs.append([res.returncode, hashlib.sha256(res.stdout).hexdigest()])
    return op_ms, outputs


def cli_reference(invocations):
    """In-process ``cli.main`` output for each invocation, with the
    answers in the JSON outputs checked.  Returns ([code, sha256] per
    invocation, list of failed checks)."""
    import contextlib
    import io

    from secantflow import cli

    refs, problems = [], []
    for argv in invocations:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        out = buf.getvalue()
        refs.append([code, hashlib.sha256(out.encode()).hexdigest()])
        if code != 0 or not out:
            problems.append(f"{argv[0]} exited {code}")
        elif argv[-1] == "json" and not _json_answer_ok(json.loads(out)):
            problems.append(f"{argv[0]}: wrong answer")
    return refs, problems


def _json_answer_ok(out: dict) -> bool:
    cmd = out["command"]
    if cmd == "chains":
        return (out["count"] == CLI_CHAINS_EXPECTED and out["diagram"]["ok"]
                and out["diagram"]["chains"] == CLI_CHAINS_EXPECTED)
    if cmd == "rr-space":
        return (out["euler_identity_ok"] and out["dim"] - out["h1"]
                == out["degree"] - out["genus"] + 1)
    if cmd == "secant-matrix":
        return out["rank"] == sum(p["mult"] for p in out["divisor"]["affine"])
    if cmd in ("local-model", "verify-identities"):
        return out["ok"] is True
    return bool(out["critical_sets"])
