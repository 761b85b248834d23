"""Smoke test: every demo script runs to completion."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# SHA-256 of `demos/05_metrics.py`'s stdout; metric changes must keep it
METRICS_DEMO_STDOUT_SHA256 = \
    "7aa60c2b5077a01de2b39adc97f08fb3846668067c638b4726f084fad479f9d9"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    if demo.name == "05_metrics.py":
        assert hashlib.sha256(proc.stdout).hexdigest() == \
            METRICS_DEMO_STDOUT_SHA256
