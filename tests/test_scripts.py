"""Smoke runs of the experiment scripts, so they keep working as the core moves.

Each script runs in a fresh interpreter on tiny counts with the engine on
PYTHONPATH, as their docstrings tell a user to run them.
"""

from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_commutation_experiment_runs():
    proc = run_script("commutation_experiment.py", "--count", "2", "--degree", "3")
    assert proc.returncode == 0, proc.stderr
    assert "proportional" in proc.stdout and "independent" in proc.stdout


def test_jet_oracle_experiment_finds_no_mismatch():
    proc = run_script("jet_oracle_experiment.py", "--count", "3", "--depth", "3")
    assert proc.returncode == 0, proc.stderr
    assert "mismatches    : 0\n" in proc.stdout
