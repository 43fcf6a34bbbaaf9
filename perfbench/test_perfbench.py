"""Tests of the benchmark itself (not collected by the main suite).

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _traced(workload: str, seed: int, workdir: Path) -> dict:
    workdir.mkdir()
    res = subprocess.run([sys.executable, str(HERE / "worker.py"), "trace",
                          workload, str(seed), str(workdir)],
                         cwd=ROOT, env=ENV, capture_output=True, text=True,
                         timeout=300, check=True)
    return json.loads(res.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_exactly(workload, tmp_path):
    """Every per-layer count is a function of the seed alone, so a change
    in the amount of work shows as an exact count difference."""
    first, second = (_traced(workload, 7, tmp_path / str(i)) for i in (1, 2))
    for section in ("calls", "cells", "distinct"):
        assert first["summary"][section] == second["summary"][section]
    assert first["summary"]["calls"]["linalg.rref"] > 0
    assert first["op_ms"] and not first.get("failed")


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert tuple(run.WORKLOADS) == workloads.WORKLOADS
    summary = {"calls": {}, "cells": {}, "distinct": {},
               "self_s": dict.fromkeys(run.SELF_TIMES, 0.0),
               "caches": {c: [0, 0] for c in run.HIT_RATIOS},
               "import_s": [0.1]}
    produced = run.per_layer_metrics(summary, 1.0, 1.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v["unit"] for k, v in produced.items()}


def test_failed_gates_count_and_keep_their_sample():
    ops = workloads._Ops()

    def passes():
        return True

    def wrong_answer():
        return False

    def raises():
        raise ValueError("boom")

    for fn in (passes, wrong_answer, raises):
        ops.run(fn)
    assert len(ops.op_ms) == 3 and ops.failed == 2
    assert any("boom" in e for e in ops.errors)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.percentile(values, 100) == 100
    assert run.percentile([5.0], 99) == 5.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "chains", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=60)
    assert res.returncode != 0
    assert res.stdout == ""
