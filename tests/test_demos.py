"""Smoke test of the demo scripts that sit on the bound and quadrature code.

Each demo runs in a fresh interpreter with ``src`` on its path and must exit
cleanly with some output.  ``stochastic_checks.py`` is left out: it does no
quadrature and the Monte-Carlo checks it shows are covered by test_mcsim.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", [
    "quartic_bracket.py",
    "entropy_constants.py",
    "growing_diffusion.py",
])
def test_demo_runs(demo):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
