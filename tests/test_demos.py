"""The demos run from a checkout, through the public ``siad`` names."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_optical_flow_demo_runs():
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "demos/01_optical_flow.py"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "dilation demo" in proc.stdout
