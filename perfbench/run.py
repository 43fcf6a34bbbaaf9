"""secantflow benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Every timed repetition is a fresh interpreter (one closed-loop
caller, one child process at a time), because the program's lru caches
would otherwise make later repetitions warm.  Bytecode caching stays on.

``--trace 0`` repeats the untraced solve until ``--seconds`` are spent and
prints the end-to-end metrics; ``--trace 1`` runs one untraced and one
traced solve and prints the per-layer metrics, with the tracing overhead.
The last stdout line is the JSON result; the line before it gives the run's
context (Python, nproc, load average, sample counts, tail percentile).
See NOTES.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKDIR = ROOT / ".perfbench_work"

WORKLOADS = ("chains", "rr_sweep", "secant_planes", "cli")
# The tail: the highest round percentile with at least ten distinct
# operations of one repetition beyond it (460 in rr_sweep, 3,401 in
# secant_planes).  A chains or cli repetition has too few, so theirs is p90
# of all the run's samples.
TAIL_PERCENTILE = {"chains": 90.0, "rr_sweep": 97.5, "secant_planes": 99.0,
                   "cli": 90.0}
SETUP_PROBES = 10
TRACE_PAIRS = 2
RUN_LIMIT_S = 170.0

END_TO_END = ("solve_s", "setup_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")
UNITS = {"solve_s": "s", "setup_s": "s", "op_p50_ms": "ms",
         "op_tail_ms": "ms", "peak_rss_mb": "MB"}
# metric -> (trace summary section, span name); ratios and times follow.
PER_LAYER_COUNTS = {
    "linalg.rref.calls": ("calls", "linalg.rref"),
    "linalg.rref.cells": ("cells", "linalg.rref"),
    "linalg.in_column_span.calls": ("calls", "linalg.in_column_span"),
    "linalg.nullspace.calls": ("calls", "linalg.nullspace"),
    "linalg.column_span_intersection.calls":
        ("calls", "linalg.column_span_intersection"),
    "secant.secant_plane.calls": ("calls", "secant.secant_plane"),
    "secant.secant_plane.distinct": ("distinct", "secant.secant_plane"),
    "secant.plane_membership.calls": ("calls", "secant.plane_membership"),
    "secant.stratum_membership.calls": ("calls", "secant.stratum_membership"),
    "resolution.enumerate_chains.calls": ("calls", "resolution.enumerate_chains"),
    "resolution.downward_limit.calls": ("calls", "resolution.downward_limit"),
    "resolution.nodes.distinct": ("distinct", "resolution.downward_limit"),
    "resolution.section_order.calls": ("calls", "resolution.section_order"),
    "curve.is_on_curve.calls": ("calls", "curve.is_on_curve"),
    "curve.valuation.calls": ("calls", "curve.valuation"),
    "curve.jet.calls": ("calls", "curve.jet"),
    "curve.riemann_roch_space.calls": ("calls", "curve.riemann_roch_space"),
    "curve.y_series.calls": ("calls", "curve.y_series"),
    "polynomials.root_multiplicity.calls":
        ("calls", "polynomials.root_multiplicity"),
    "polynomials.rational_roots.calls": ("calls", "polynomials.rational_roots"),
}
HIT_RATIOS = ("secant.jet_block", "secant.twist_section_space",
              "resolution.canonical_class", "curve.y_series")
SELF_TIMES = ("linalg", "secant", "resolution", "curve", "polynomials",
              "series", "morse", "localmodel", "serialize", "cli")


class BenchError(Exception):
    pass


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


class Run:
    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.start = time.monotonic()
        self.workdir = WORKDIR / f"{workload}-{seed}"
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.refs = None
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def worker(self, mode: str) -> dict:
        """One cold worker process; adds its set-up time and wall time."""
        timeout = RUN_LIMIT_S - (time.monotonic() - self.start)
        if timeout <= 0:
            raise BenchError(f"run limit of {RUN_LIMIT_S:.0f} s reached")
        argv = [sys.executable, str(WORKER), mode, self.workload,
                str(self.seed), str(self.workdir)]
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{mode} worker timed out") from None
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited {proc.returncode}:\n"
                             f"{stderr[-2000:]}")
        out = json.loads(stdout.splitlines()[-1])
        out["setup_s"] = out["ready"] - t0
        out["wall_s"] = time.monotonic() - t0
        return out

    def check_against_reference(self) -> None:
        """For the CLI workload: record the in-process reference outputs,
        whose answers the reference worker checks, before any timing."""
        if self.workload == "cli":
            ref = self.worker("reference")
            self.refs = ref["refs"]
            self.attempted += len(self.refs)
            self.failed += len(ref["problems"])
            self.errors += ref["problems"]

    def solve(self, mode: str = "solve") -> dict:
        """One checked solve; its failures count into the run's totals."""
        out = self.worker(mode)
        if self.refs is not None:
            out["attempted"] = len(out["outputs"])
            bad = [i for i, got in enumerate(out["outputs"])
                   if got != self.refs[i]]
            out["failed"] = len(bad)
            out["errors"] = [f"invocation {i}: exit/stdout {out['outputs'][i]} "
                             f"!= reference {self.refs[i]}" for i in bad]
        self.attempted += out["attempted"]
        self.failed += out["failed"]
        self.errors += out["errors"]
        return out

    def end_to_end(self, seconds: float) -> tuple[dict, dict]:
        self.worker("setup")  # writes the bytecode cache, as an install does
        self.check_against_reference()
        setups = [self.worker("setup")["setup_s"] for _ in range(SETUP_PROBES)]
        reps = []
        t0 = time.monotonic()
        while True:
            reps.append(self.solve())
            elapsed = time.monotonic() - t0
            if elapsed + reps[-1]["wall_s"] > seconds:
                break
        setups += [r["setup_s"] for r in reps]
        ops = [ms for r in reps for ms in r["op_ms"]]
        tail = TAIL_PERCENTILE[self.workload]
        metrics = {
            "solve_s": statistics.median(r["solve_s"] for r in reps),
            "setup_s": statistics.median(setups),
            "op_p50_ms": percentile(ops, 50),
            "op_tail_ms": percentile(ops, tail),
            "peak_rss_mb": statistics.median(r["rss_kb"] for r in reps) / 1024,
        }
        context = {"repetitions": len(reps),
                   "solve_s_samples": [r["solve_s"] for r in reps],
                   "setup_samples": len(setups),
                   "op_samples": len(ops), "tail_percentile": tail,
                   "samples_beyond_tail":
                       len(ops) - math.ceil(tail / 100 * len(ops))}
        return ({k: {"value": metrics[k], "unit": UNITS[k]} for k in END_TO_END},
                context)

    def per_layer(self) -> tuple[dict, dict]:
        """Untraced and traced solves in alternation; the counts come from
        the first traced solve (they repeat exactly), the overhead from the
        medians of both kinds."""
        self.worker("setup")
        self.check_against_reference()
        plain, traced = [], []
        for _ in range(TRACE_PAIRS):
            plain.append(self.solve()["solve_s"])
            traced.append(self.solve("trace"))
        metrics = per_layer_metrics(
            traced[0]["summary"],
            statistics.median(t["solve_s"] for t in traced),
            statistics.median(plain))
        return metrics, {"trace_pairs": TRACE_PAIRS, "traced_spans_in":
                         str(self.workdir.relative_to(ROOT))}


def per_layer_metrics(s: dict, traced_s: float, plain_s: float) -> dict:
    """The per-layer metrics from a trace summary and the solve times."""
    metrics = {}
    for name, (section, key) in PER_LAYER_COUNTS.items():
        metrics[name] = (s[section].get(key, 0), "count")

    def ratio(a, b):
        return a / b if b else 0.0

    metrics["secant.plane_reuse"] = (ratio(
        metrics["secant.secant_plane.calls"][0],
        metrics["secant.secant_plane.distinct"][0]), "ratio")
    metrics["resolution.node_reuse"] = (ratio(
        metrics["resolution.downward_limit.calls"][0],
        metrics["resolution.nodes.distinct"][0]), "ratio")
    for cache in HIT_RATIOS:
        hits, misses = s["caches"][cache]
        metrics[f"{cache}.hit_ratio"] = (ratio(hits, hits + misses), "ratio")
    for layer in SELF_TIMES:
        metrics[f"{layer}.self_s"] = (s["self_s"][layer], "s")
    metrics["cli.import_s"] = (statistics.median(s["import_s"]), "s")
    metrics["trace.solve_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "secantflow" / "__init__.py").is_file():
        print(f"perfbench: no secantflow sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed)
    shutil.rmtree(run.workdir, ignore_errors=True)
    run.workdir.mkdir(parents=True)
    context = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "python": sys.version.split()[0],
               "nproc": os.cpu_count(), "loadavg": os.getloadavg()}
    try:
        if args.trace:
            metrics, extra = run.per_layer()
        else:
            metrics, extra = run.end_to_end(args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    context.update(extra, errors=run.errors[:5])
    print(json.dumps(context, sort_keys=True))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
