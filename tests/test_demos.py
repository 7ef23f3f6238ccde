"""The demos run from a checkout, through the public ``siad`` names."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_demo(script):
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, f"demos/{script}"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_optical_flow_demo_runs():
    assert "dilation demo" in _run_demo("01_optical_flow.py")


@pytest.mark.parametrize("script,expected", [
    ("02_train_detector.py", "holdout_loss"),
    ("03_detect_anomaly.py", "true region recovered"),
    ("04_selective_pvalue.py", "selective p-value:"),
    ("05_null_calibration.py", "KS vs uniform:"),
])
def test_demo_runs(script, expected):
    assert expected in _run_demo(script)
