"""One cold benchmark process.  Started by ``run.py``; not for direct use.

    worker.py MODE WORKLOAD SEED WORKDIR    MODE: setup | solve | trace | reference
    worker.py cli-trace OUTDIR ARGV...      one traced ``secantflow`` command

Prints one JSON object on its last stdout line.  ``ready`` is the
``time.monotonic()`` reading when the inputs are built; the parent takes
its own reading before the spawn, so the difference is the set-up time:
interpreter start, ``import secantflow`` and input generation.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _peak_rss_kb(who=resource.RUSAGE_SELF) -> int:
    return resource.getrusage(who).ru_maxrss


def _import_cli() -> float:
    t0 = time.perf_counter()
    import secantflow.cli  # noqa: F401
    return time.perf_counter() - t0


def _traced_cli(outdir: Path, argv: list[str]) -> int:
    """Run one CLI command under the tracer; stdout stays the command's."""
    import_s = _import_cli()
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    from secantflow import cli
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        tag = os.getpid()
        tracer.dump(outdir / f"spans-{tag}.json")
        summary = tracer.summary()
        summary["import_s"] = [import_s]
        (outdir / f"summary-{tag}.json").write_text(json.dumps(summary))


def _add_summaries(parts: list[dict]) -> dict:
    """Sum per-process trace summaries (the CLI workload traces many)."""
    total: dict = {}
    for part in parts:
        for key, value in part.items():
            if key == "import_s":
                total.setdefault(key, []).extend(value)
                continue
            slot = total.setdefault(key, {})
            for name, v in value.items():
                if isinstance(v, list):
                    old = slot.get(name, [0] * len(v))
                    slot[name] = [a + b for a, b in zip(old, v)]
                else:
                    slot[name] = slot.get(name, 0) + v
    return total


def main(argv: list[str]) -> int:
    if argv[0] == "cli-trace":
        return _traced_cli(Path(argv[1]), argv[2:])
    mode, workload, seed, workdir = argv[0], argv[1], int(argv[2]), Path(argv[3])
    out: dict = {}
    tracer = None
    if mode == "trace" and workload != "cli":
        out["import_s"] = _import_cli()
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    import workloads
    inputs = workloads.build(workload, seed, workdir)
    out["ready"] = time.monotonic()
    if mode == "setup":
        pass
    elif mode == "reference":
        out["refs"], out["problems"] = workloads.cli_reference(inputs)
    elif workload == "cli":
        _solve_cli(mode, inputs, workdir, out)
    else:
        t0 = time.perf_counter()
        attempted, failed, op_ms, errors = workloads.solve(workload, inputs)
        out["solve_s"] = time.perf_counter() - t0
        out.update(attempted=attempted, failed=failed, op_ms=op_ms,
                   errors=errors, rss_kb=_peak_rss_kb())
        if tracer is not None:
            tracer.dump(workdir / "spans.json")
            out["summary"] = tracer.summary()
            out["summary"]["import_s"] = [out["import_s"]]
    print(json.dumps(out))
    return 0


def _solve_cli(mode: str, invocations, workdir: Path, out: dict) -> None:
    """One cycle of cold CLI processes; traced ones write their summaries
    and spans into ``workdir/trace``."""
    import workloads
    command = [sys.executable, "-m", "secantflow"]
    if mode == "trace":
        tracedir = workdir / "trace"
        tracedir.mkdir(exist_ok=True)
        for old in tracedir.iterdir():
            old.unlink()
        command = [sys.executable, str(HERE / "worker.py"), "cli-trace",
                   str(tracedir)]
    t0 = time.perf_counter()
    out["op_ms"], out["outputs"] = workloads.run_cli_cycle(invocations, command)
    out["solve_s"] = time.perf_counter() - t0
    out["rss_kb"] = _peak_rss_kb(resource.RUSAGE_CHILDREN)
    if mode == "trace":
        out["summary"] = _add_summaries(
            [json.loads(p.read_text())
             for p in sorted(tracedir.glob("summary-*.json"))])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
