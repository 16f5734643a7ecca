#!/usr/bin/env python3
"""Benchmark of the curvemetrics solvers and command line.

Run from the repository root:

    python3 perfbench/run.py --workload geodesic_solve --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics with no instrumentation.
--trace 1 runs one untraced pass, then the same pass again with every
public function of the package wrapped, and reports per-layer call
counts and self times plus the tracing overhead. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. A record with provenance, numerical outputs and
(traced) the span list goes to .perfbench_out/ in the repository root.

The load is closed-loop: one process, one caller, operations run one
after another, with BLAS and OpenMP pinned to one thread.
"""

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import MODULES, Tracer  # noqa: E402
from workloads import FULL, TOY, WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

ENERGY_KINDS = ("geom_H0", "param_H0", "J", "MM", "alpha_beta", "conformal")
LAYER_FUNCTIONS = {
    "levelset": ("reinitialize", "evolve_step", "embed", "extract_slices",
                 "extracted_homotopy", "run_geodesic"),
    "flows": ("vstar_calculus", "stability_margin", "conformal_homotopy_flow_step",
              "heat_flow_step", "mm_arclength_flow_step"),
    "energies": tuple(f"energy.{k}" for k in ENERGY_KINDS)
    + ("normal_speed_squared", "stable_lambda", "inner_product"),
    "curves": ("resample_arclength", "periodic_derivative"),
    "homotopy": ("reparam_horizontal", "reparam_arclength", "optimal_unwind_shift",
                 "linear_homotopy"),
    "counterexamples": ("pulley", "zigzag_cone", "graph_wiggle", "tessellate",
                        "winding_family", "conformal_stretch"),
    "shapedist": ("dirfn_distance", "dirfn_project", "hausdorff_path_length"),
}


def import_program():
    """Import curvemetrics from src/ of this checkout, or exit non-zero."""
    if not (SRC / "curvemetrics" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source under {SRC}; nothing to measure")
    sys.path.insert(0, str(SRC))
    import curvemetrics
    import curvemetrics.cli  # noqa: F401  (not imported by the package)

    if Path(curvemetrics.__file__).resolve().parent != SRC / "curvemetrics":
        sys.exit(f"perfbench: imported curvemetrics from {curvemetrics.__file__}")
    return curvemetrics


def provenance(args, load_at_start):
    import numpy
    import scipy

    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            if done.returncode == 0:
                sha = done.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "curvemetrics").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(load_at_start),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def measure_setup(args, workdir, repeats):
    """Median wall time of fresh processes that import and write inputs."""
    samples = []
    for i in range(repeats):
        target = workdir / f"setup{i}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               args.workload, "--seed", str(args.seed), "--setup-only", str(target)]
        if args.toy:
            cmd.append("--toy")
        t0 = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        samples.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise RuntimeError(f"set-up process failed: {done.stderr.strip()}")
        shutil.rmtree(target, ignore_errors=True)
    return statistics.median(samples), samples


class Runner:
    """Runs passes of a workload, times each operation, checks outputs."""

    def __init__(self, workload):
        self.workload = workload
        self.op_ms = []
        self.pass_s = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.outputs = {}

    def run_pass(self):
        results = []
        t_pass = time.perf_counter()
        for _label, call in self.workload.ops:
            t0 = time.perf_counter()
            try:
                result = call()
            except Exception as exc:  # a failed operation is counted, not fatal
                result = exc
            elapsed = time.perf_counter() - t0
            results.append((result, elapsed))
        self.pass_s.append(time.perf_counter() - t_pass)
        for index, (result, elapsed) in enumerate(results):
            self.op_ms.append(1e3 * elapsed)
            self._check(index, result)
        return self.pass_s[-1]

    def _check(self, index, result):
        label = self.workload.ops[index][0]
        self.attempted += 1
        if isinstance(result, Exception):
            problems, outputs = [f"{type(result).__name__}: {result}"], None
        else:
            try:
                problems, outputs = self.workload.check(index, result)
            except Exception as exc:  # a check that cannot run is a failure
                problems, outputs = [f"check raised {type(exc).__name__}: {exc}"], None
        first = self.outputs.setdefault(label, outputs)
        if outputs is not None and outputs != first:
            problems.append(f"outputs differ from the first pass: {outputs} vs {first}")
        if problems:
            self.failed += 1
            self.problems.append({"op": label, "problems": problems})


def percentile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_untraced(runner, seconds):
    """Passes until the next one would end past the time budget."""
    start = time.perf_counter()
    while True:
        runner.run_pass()
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(runner.pass_s) > seconds:
            return


def end_to_end(runner, setup_s):
    """End-to-end metrics as {name: (value, unit)}."""
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(runner.pass_s), "s"),
        "cmd_p50_ms": (statistics.median(runner.op_ms), "ms"),
        "cmd_p90_ms": (percentile(runner.op_ms, 90), "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def per_layer(tracer, overhead_s):
    """Per-layer metrics of the traced pass as {name: (value, unit)}."""
    values = {}
    for module, functions in LAYER_FUNCTIONS.items():
        for fn in functions:
            name = f"{module}.{fn}"
            values[f"{name}.calls"] = (tracer.count(name), "count")
            values[f"{name}.self_s"] = (tracer.self_time(name), "s")
    steps = tracer.count("levelset.evolve_step")
    flow_steps = tracer.count("flows.conformal_homotopy_flow_step") + tracer.count(
        "flows.h0_homotopy_flow_step")
    extracts = tracer.count("levelset.extract_slices")
    vstars = tracer.count("flows.vstar_calculus")
    values.update({
        "levelset.steps": (steps, "count"),
        "levelset.extract_per_step": (extracts / steps if steps else 0.0, "ratio"),
        "flows.vstar_calls_per_step": (vstars / flow_steps if flow_steps else 0.0, "ratio"),
        "flows.homotopy_cfl_dt.calls": (tracer.count("flows.homotopy_cfl_dt"), "count"),
        "curves.curvature_kernel.calls": (tracer.count("curves.curvature_kernel"), "count"),
        "curveio.load.self_s": (tracer.sum_self("curveio.load"), "s"),
        "curveio.save.self_s": (tracer.sum_self("curveio.save"), "s"),
        "curveio.bytes_written": (tracer.bytes_written, "bytes"),
        "cli.main.self_s": (tracer.self_time("cli.main"), "s"),
        "cli.build_parser.self_s": (tracer.self_time("cli.build_parser"), "s"),
    })
    for module in MODULES:
        values[f"{module}.errors"] = (tracer.errors[module], "count")
    values["trace.overhead_s"] = (overhead_s, "s")
    values["trace.spans"] = (len(tracer.spans), "count")
    return values


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy problem sizes, for the harness self-test")
    parser.add_argument("--setup-only", metavar="DIR",
                        help="import the program, write the inputs to DIR and exit")
    return parser.parse_args(argv)


def main(argv=None):
    load_at_start = os.getloadavg()
    args = parse_args(argv)
    cm = import_program()
    sizes = TOY if args.toy else FULL
    make = WORKLOADS[args.workload]
    if args.setup_only:
        make(cm, args.seed, args.setup_only, sizes)
        return 0

    workdir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    inputs = workdir / "inputs"
    os.makedirs(inputs, exist_ok=True)
    cwd = os.getcwd()
    try:
        setup_samples = []
        if not args.trace:
            setup_s, setup_samples = measure_setup(args, workdir, sizes.setup_repeats)
        workload = make(cm, args.seed, str(inputs), sizes)
        os.chdir(inputs)
        runner = Runner(workload)
        tracer = None
        if args.trace:
            untraced_s = runner.run_pass()
            tracer = Tracer(cm).install()
            try:
                traced_s = runner.run_pass()
            finally:
                tracer.uninstall()
            metrics = per_layer(tracer, traced_s - untraced_s)
        else:
            run_untraced(runner, args.seconds)
            metrics = end_to_end(runner, setup_s)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    error_rate = runner.failed / runner.attempted
    outputs_digest = hashlib.sha256(
        json.dumps(runner.outputs, sort_keys=True).encode()).hexdigest()
    prov = provenance(args, load_at_start)
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    print(f"provenance {json.dumps(prov)}")
    for label, outputs in runner.outputs.items():
        print(f"output {label}: {json.dumps(outputs)}")
    print(f"outputs_digest {outputs_digest}")
    for item in runner.problems[:20]:
        print(f"FAILED {item['op']}: {'; '.join(item['problems'])}")
    print(f"passes {len(runner.pass_s)} operations {runner.attempted} "
          f"(cmd percentiles over {len(runner.op_ms)} samples)")
    print(f"error_rate {error_rate:.6g} ratio ({runner.failed}/{runner.attempted})")
    print(f"setup_samples_s {' '.join(f'{s:.4f}' for s in setup_samples)}")
    if tracer is not None:
        print("layer self time (traced pass):")
        for row in tracer.layer_table()[:15]:
            print(f"  {row['name']:<44} {row['calls']:>7} calls {row['self_s']:10.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")

    record = {
        "provenance": prov,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "error_rate": error_rate,
        "problems": runner.problems,
        "outputs": runner.outputs,
        "outputs_digest": outputs_digest,
        "pass_s": runner.pass_s,
        "op_ms": runner.op_ms,
        "setup_samples_s": setup_samples,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if tracer is not None:
        record["layers"] = tracer.layer_table()
        record["spans"] = tracer.span_records()
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT_DIR / name, "w") as f:
        json.dump(record, f)
        f.write("\n")

    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
