"""Every demo, the scripts and the command line tour, runs against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    done = subprocess.run(
        [sys.executable, str(script)], env=_env(), capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr


def test_cli_tour_runs_through_the_entry_point(tmp_path):
    # the shim runs `python -m gradedcones.cli`, so main reads sys.argv
    shim = tmp_path / "gradedcones"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m gradedcones.cli "$@"\n')
    shim.chmod(0o755)
    env = _env()
    env["PATH"] = os.pathsep.join((str(tmp_path), env.get("PATH", "")))
    done = subprocess.run(
        ["sh", str(ROOT / "demos" / "cli_tour.sh")],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "command: orbit-closure" in done.stdout
    assert done.stdout.endswith("exit code: 1\n")  # the tour's closing rejection
