"""Smoke test of the perfbench harness at toy size, so it cannot rot.

Runs each traced workload at toy size (5 flow steps, a toy geodesic
grid, one set of CLI commands) in a subprocess and reads the JSON record
on the last line, and the per-operation outputs printed above it.

The outputs are also held to golden files, one per workload: the
`output` lines of a seed-1 toy run, checked in under tests/golden/.
Each record holds the numbers of one operation (for a CLI command, its
exit code and a digest of everything it printed and wrote), so a change
that moves one bit of a result fails here and names the operation. The
records are the same with and without tracing and from run to run. A
change that moves an output on purpose regenerates the file, from the
repository root, with

    python3 perfbench/run.py --workload W --toy --seed 1 --seconds 1 --trace 1 \
        | grep '^output ' > tests/golden/W.txt

and names each moved record in its change notes.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def parse_outputs(lines):
    """The records of the `output <label>: <json>` lines, by operation label."""
    outputs = {}
    for line in lines:
        if line.startswith("output "):
            label, _, record = line[len("output "):].partition(": ")
            outputs[label] = json.loads(record)
    return outputs


def run_toy(workload):
    """The metrics of a traced toy run, and its outputs by operation label.

    The outputs must equal the workload's golden file record by record.
    """
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--toy",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    outputs = parse_outputs(lines)
    golden = parse_outputs((GOLDEN / f"{workload}.txt").read_text().splitlines())
    assert list(outputs) == list(golden)
    moved = {
        label: {"golden": record, "now": outputs[label]}
        for label, record in golden.items()
        if outputs[label] != record
    }
    assert moved == {}
    return result["metrics"], outputs


def test_perfbench_toy_homotopy_flow_runs_clean():
    metrics, outputs = run_toy("homotopy_flow")
    # One v* field pass per flow step of the traced pass, 5 per run.
    steps = sum(out["steps"] for out in outputs.values())
    assert outputs and steps == 5
    assert steps == metrics["flows.vstar_calculus.calls"]["value"]
    # The energy trace comes from those fields; only the final grid
    # gets its own conformal energy() call.
    assert metrics["energies.energy.conformal.calls"]["value"] == 1


def test_perfbench_toy_geodesic_solve_runs_clean():
    metrics, outputs = run_toy("geodesic_solve")
    # Every step a solve reports is one public evolve_step call of the
    # traced pass. The one toy solve extracts its zero contours only at
    # t = 0, at every 50th step (the default snapshot_every) and at its
    # last step; the convergence measure extracts nothing.
    steps = sum(out["steps"] for out in outputs.values())
    assert len(outputs) == 1 and steps > 0
    assert steps == metrics["levelset.evolve_step.calls"]["value"]
    extracts = 1 + steps // 50 + (steps % 50 != 0)
    assert metrics["levelset.extract_slices.calls"]["value"] == extracts
    # The toy fields stay close to signed distances, so the solver never
    # reinitializes them.
    assert metrics["levelset.reinitialize.calls"]["value"] == 0


def test_perfbench_toy_cli_batch_runs_clean():
    metrics, _ = run_toy("cli_batch")
    # Each of the 7 malformed commands exits 3, and 4 of their errors
    # come out of curveio's readers.
    assert metrics["cli.errors"]["value"] == 7
    assert metrics["curveio.errors"]["value"] == 4
    # The total size of every file the curveio writers produce. It
    # moves when a %.17g number written there changes in its last
    # digits, as when the geodesic command's numbers moved with
    # on-demand reinitialization.
    assert metrics["curveio.bytes_written"]["value"] == 622385
