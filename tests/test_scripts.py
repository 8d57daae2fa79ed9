"""Smoke tests: each desk-scale script in ``scripts/`` runs to completion at a small size."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "script, args",
    [
        ("decay_model_comparison.py", ["--n-traj", "2000"]),
        ("driven_fluorescence.py", ["--n-traj", "2000"]),
        ("driven_fluorescence.py", ["--model", "nsm", "--n-traj", "200"]),
        ("homodyne_noise_discrimination.py", ["--samples", "20000"]),
    ],
)
def test_script_runs(script, args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
