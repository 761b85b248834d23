"""The benchmark's traced one-pass runs pass their own checks, among
them the share of the traced wall spent outside the layer spans.

Eval is left out: its one-round `bench.loop` share sits near the 5%
bound, so a traced eval check would pass or fail by chance."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["parse", "train"])
def test_traced_one_pass_run_passes_its_checks(workload):
    p = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.001", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert p.returncode == 0, p.stdout[-2000:] + p.stderr[-2000:]
    assert "checks passed" in p.stdout.splitlines()
