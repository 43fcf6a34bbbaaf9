"""A cold ``import secantflow.cli`` stays light.

Every command pays for the import.  ``dataclasses`` alone would pull in
``inspect``, ``ast``, ``dis`` and ``tokenize``; ``typing`` is heavy too.
The child runs under ``python -S``, so nothing that ``site`` loads can
hide a regression.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import secantflow

HEAVY = ("dataclasses", "inspect", "ast", "dis", "typing")
SRC = str(Path(secantflow.__file__).resolve().parents[1])


def run_python(*args):
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": SRC if not path else SRC + os.pathsep + path}
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=60)


def test_cli_import_loads_no_heavy_module():
    res = run_python("-S", "-c", "import sys, secantflow.cli; "
                     f"print(*sorted(set(sys.modules) & set({HEAVY!r})))")
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == []


def test_module_help_exits_0():
    res = run_python("-m", "secantflow", "--help")
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("usage: secantflow")
