"""Smoke test of the perfbench harness at toy size, so it cannot rot.

Runs the traced homotopy_flow workload (5 flow steps) in a subprocess
and reads the JSON record on its last line.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_toy_homotopy_flow_runs_clean():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "homotopy_flow", "--toy",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    metrics = result["metrics"]
    # One v* field pass per flow step, and no separate CFL evaluation.
    assert metrics["flows.vstar_calculus.calls"]["value"] == 5
    assert metrics["flows.homotopy_cfl_dt.calls"]["value"] == 0
