"""Self-test of the benchmark harness at toy sizes.

    python3 -m pytest perfbench/test_perfbench.py

Runs every workload untraced and traced at toy problem sizes and checks
that each run is correct and emits every metric BENCHMARK.json names,
with its unit.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_toy(workload, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout, json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_parses():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"][:2] == ["python3", "perfbench/run.py"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in names
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_toy_run_emits_every_metric(workload, trace):
    stdout, result = run_toy(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float))
    assert "error_rate " in stdout
