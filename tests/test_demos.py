"""Smoke test of the narrative demos: each runs as a script and prints the
same bytes every time."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(path):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run(
        [sys.executable, str(path)], cwd=ROOT, env=env, capture_output=True, timeout=120
    )


def test_all_four_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_deterministically(path):
    first = run_demo(path)
    assert first.returncode == 0, first.stderr.decode()
    assert first.stdout
    assert run_demo(path).stdout == first.stdout
