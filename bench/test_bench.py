"""Tests of the benchmark itself; run with ``python -m pytest bench``.

The smoke mode runs every workload end to end and traced at tiny sizes, with
every oracle check, and must finish with no failed operation. Without the
caslite sources beside it the benchmark must refuse to run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def test_smoke_runs_every_workload_with_its_checks():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"smoke": True}
    for workload in ("push", "pull", "community"):
        for trace in (0, 1):
            assert f"{workload} trace={trace}: ok" in proc.stdout


def test_refuses_to_run_without_the_sources(tmp_path):
    copy = tmp_path / "bench"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "push", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
