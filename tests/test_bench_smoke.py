"""Smoke test of the perfbench harness at toy size, so it cannot rot.

Runs the traced homotopy_flow workload (5 flow steps) and the traced
geodesic_solve workload (toy grid) in a subprocess and reads the JSON
record on the last line.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_toy(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--toy",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    return result["metrics"]


def test_perfbench_toy_homotopy_flow_runs_clean():
    metrics = run_toy("homotopy_flow")
    # One v* field pass per flow step, and no separate CFL evaluation.
    assert metrics["flows.vstar_calculus.calls"]["value"] == 5
    assert metrics["flows.homotopy_cfl_dt.calls"]["value"] == 0


def test_perfbench_toy_geodesic_solve_runs_clean():
    metrics = run_toy("geodesic_solve")
    # Every solver step is one public evolve_step call.
    assert metrics["levelset.steps"]["value"] > 0
    assert metrics["levelset.steps"]["value"] == metrics["levelset.evolve_step.calls"]["value"]
