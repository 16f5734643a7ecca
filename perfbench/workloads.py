"""The three benchmark workloads: seeded inputs, timed operations, checks.

A workload turns a seed into input data (and, for cli_batch, input
files), then exposes a fixed list of operations. Each operation is one
call of a public entry point: ``levelset.run_geodesic``,
``flows.run_homotopy_flow`` or ``cli.main``. One pass runs every
operation once, in order. The runner times each operation and checks
its output afterwards, outside the timed region.

Operations look up the entry point on its module at call time, so a
tracer that has swapped the module attribute sees the call.
"""

import contextlib
import hashlib
import io
import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Sizes:
    """Problem sizes. FULL is the benchmark; TOY is for the self-test."""

    geo_pairs: int
    geo_grid: tuple
    geo_tol: float
    flow_steps: int
    cli_sets: int
    cli_zigzag: str
    cli_pulley: str
    setup_repeats: int


FULL = Sizes(
    geo_pairs=2,
    geo_grid=(40, 40, 9),
    geo_tol=2e-3,
    flow_steps=100,
    cli_sets=6,
    cli_zigzag="4,8,16",
    cli_pulley="2,4,8",
    setup_repeats=3,
)
TOY = Sizes(
    geo_pairs=1,
    geo_grid=(32, 32, 5),
    geo_tol=2e-2,
    flow_steps=5,
    cli_sets=1,
    cli_zigzag="4,8",
    cli_pulley="2,4",
    setup_repeats=1,
)

GEO_MAX_STEPS = 3000
N_THETA = 256


def _fmt(x):
    return f"{float(x):.17g}"


def _circle(cm, n, center=(0.0, 0.0), wobble=None):
    """Closed curve r(theta) = 1 + wobble(theta) around center."""
    th = cm.theta_grid(n)
    r = 1.0 if wobble is None else 1.0 + wobble(th)
    pts = np.stack([center[0] + r * np.cos(th), center[1] + r * np.sin(th)], axis=1)
    return cm.SampledCurve(points=pts)


def _modes_2_3(rng, amplitude):
    """Random radial wobble in Fourier modes 2 and 3, |each| <= amplitude."""
    a2, a3 = rng.uniform(-amplitude, amplitude, 2)
    p2, p3 = rng.uniform(0.0, 2.0 * np.pi, 2)
    return lambda th: a2 * np.cos(2.0 * th + p2) + a3 * np.cos(3.0 * th + p3)


def _translating_homotopy(cm, rng, n_theta, n_v, offset_range, amplitude):
    """Circle translated along x, with a wobble windowed by sin^2(pi v).

    The window vanishes at v = 0 and v = 1, so both endpoint slices are
    exact circles and the interior carries the seeded modes 2-3.
    """
    offset = rng.uniform(*offset_range)
    wobble = _modes_2_3(rng, amplitude)

    def fn(th, v):
        r = 1.0 + np.sin(np.pi * v) ** 2 * wobble(th)
        return np.stack([offset * v + r * np.cos(th), r * np.sin(th)], axis=1)

    return cm.sample_homotopy(fn, n_theta, n_v), offset


class GeodesicSolve:
    """run_geodesic from an endpoint pair to convergence at a stated tol.

    Each pass solves geo_pairs endpoint pairs. c0 is the unit circle; c1
    is a unit circle shifted in a seeded direction, with a seeded +-0.03
    radial wobble in modes 2-3. The shift lengths are fixed at the
    midpoints of geo_pairs equal parts of [0.35, 0.5]: the step count to
    convergence grows by about 1400 steps per unit of shift (40x40x9,
    tol 2e-3), so a seeded length would swamp every other source of
    run-to-run spread.

    The box is a square around the pair whose side depends on the shift
    length only. The default box fits the bounding box of the pair, so
    its cells are longer along the shift than across it, and an
    axis-aligned shift then needs about 17% more steps than a diagonal
    one (dt scales with the smaller cell side squared).
    """

    name = "geodesic_solve"

    def __init__(self, cm, seed, workdir, sizes):
        self.cm = cm
        self.sizes = sizes
        rng = np.random.default_rng(seed)
        nx, ny, nv = sizes.geo_grid
        self.grid = {"nx": nx, "ny": ny, "nv": nv}
        self.pairs = []
        k = sizes.geo_pairs
        for i in range(k):
            shift = 0.35 + 0.15 * (i + 0.5) / k
            angle = rng.uniform(0.0, 2.0 * np.pi)
            wobble = _modes_2_3(rng, 0.03)
            center = (shift * np.cos(angle), shift * np.sin(angle))
            c0 = _circle(cm, N_THETA)
            c1 = _circle(cm, N_THETA, center, wobble)
            mid_x, mid_y = 0.5 * center[0], 0.5 * center[1]
            half = 0.75 * (2.0 + shift)
            box = (mid_x - half, mid_x + half, mid_y - half, mid_y + half)
            self.pairs.append((c0, c1, shift, box))
        self._embedded = {}
        self.ops = [
            (f"pair{i} shift={shift:.4f}", self._solver(c0, c1, box))
            for i, (c0, c1, shift, box) in enumerate(self.pairs)
        ]

    def _solver(self, c0, c1, box):
        def solve():
            return self.cm.levelset.run_geodesic(
                c0, c1, max_steps=GEO_MAX_STEPS, tol=self.sizes.geo_tol, box=box,
                **self.grid,
            )

        return solve

    def check(self, index, result):
        """Problems with one solve's output, and its numerical outputs."""
        c0, c1, _shift, box = self.pairs[index]
        if index not in self._embedded:
            self._embedded[index] = self.cm.levelset.embed((c0, c1), box=box, **self.grid)
        ref = self._embedded[index].psi
        psi = result.grid.psi
        problems = []
        if not result.converged:
            problems.append(f"not converged after {result.steps} steps")
        if not (np.array_equal(psi[0], ref[0]) and np.array_equal(psi[-1], ref[-1])):
            problems.append("endpoint psi rows differ from embed of the inputs")
        if not result.conformal_trace[-1] < result.conformal_trace[0]:
            problems.append("conformal energy did not decrease")
        if result.contours.flagged:
            problems.append(f"flagged slices {result.contours.flagged}")
        outputs = {
            "steps": result.steps,
            "converged": bool(result.converged),
            "energy_final": _fmt(result.energy_trace[-1]),
            "conformal_final": _fmt(result.conformal_trace[-1]),
        }
        return problems, outputs


class HomotopyFlow:
    """Conformal run_homotopy_flow for a fixed number of steps.

    The input is a 256x64 translating-circle homotopy: offset 0.5-1.0
    and a sin^2(pi v)-windowed +-0.04 wobble in modes 2-3. The cost of
    a step depends on the grid size only, so every seed does the same
    work; the seed varies the geometry the flow acts on.
    """

    name = "homotopy_flow"

    def __init__(self, cm, seed, workdir, sizes):
        self.cm = cm
        self.sizes = sizes
        rng = np.random.default_rng(seed)
        self.C, offset = _translating_homotopy(cm, rng, N_THETA, 64, (0.5, 1.0), 0.04)
        self.ops = [(f"flow offset={offset:.4f}", self._flow)]

    def _flow(self):
        return self.cm.flows.run_homotopy_flow(
            self.C, kind="conformal", steps=self.sizes.flow_steps
        )

    def check(self, index, state):
        C = self.C
        problems = []
        if state.blew_up:
            problems.append("flow blew up")
        if state.steps != self.sizes.flow_steps:
            problems.append(f"ran {state.steps} of {self.sizes.flow_steps} steps")
        arrays = (state.grid.values, state.energy_trace, state.margin_trace)
        if not all(np.all(np.isfinite(a)) for a in arrays):
            problems.append("non-finite values in the flow state")
        values = state.grid.values
        if not (
            np.array_equal(values[0], C.values[0])
            and np.array_equal(values[-1], C.values[-1])
        ):
            problems.append("endpoint slices moved")
        if not state.margin_trace[0] >= -1e-9:
            problems.append(f"stability margin {state.margin_trace[0]} at t=0")
        if not state.energy_trace[-1] < state.energy_trace[0]:
            problems.append("conformal energy did not decrease")
        plain = self.cm.energy(state.grid, self.cm.EnergySpec(kind="geom_H0")).total
        outputs = {
            "steps": state.steps,
            "blew_up": bool(state.blew_up),
            "energy_final": _fmt(plain),
            "conformal_final": _fmt(state.energy_trace[-1]),
            "grid_digest": hashlib.sha256(values.tobytes()).hexdigest()[:16],
        }
        return problems, outputs


@dataclass
class Command:
    argv: list
    expect_rc: int = 0
    expect_error: str = ""
    outputs: tuple = ()
    table: str = ""


def _table_problems(name, rows):
    """Monotonicity and invariance of the counterexample tables."""
    col = [np.array([r[i] for r in rows]) for i in range(len(rows[0]))]
    bad = []
    if name == "zigzag":
        if not np.all(np.diff(col[3]) < 0.0):
            bad.append("zigzag totals not decreasing")
        if not np.all(col[1] <= 1.1 * col[2]):
            bad.append("zigzag first phase above 1.1 x bound")
    elif name == "pulley":
        if not np.all(np.diff(col[1]) > 0.0):
            bad.append("pulley param energies not increasing")
        if not np.all(col[2] <= 1.0 + 1e-6):
            bad.append("pulley normal speed above 1")
    elif name == "winding":
        if not np.all(np.diff(col[2]) > 0.0):
            bad.append("winding param energies not increasing")
        if np.ptp(col[1]) > 1e-2 * np.mean(col[1]):
            bad.append("winding geometric energy not invariant")
    elif name == "wiggle":
        if not np.all(np.diff(col[1]) < 0.0):
            bad.append("wiggle energies not decreasing")
    elif name == "tessellation":
        if np.ptp(col[1]) > 1e-3 * np.mean(col[1]):
            bad.append("tessellation energy not invariant")
    elif name == "stretch":
        for eps in np.unique(col[0]):
            if not np.all(np.diff(col[2][col[0] == eps]) > 0.0):
                bad.append("stretch energy not increasing in lambda")
    return bad


def _number_problems(text):
    """Every numeric token must be printed with %.17g and parse back."""
    bad = []
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        fields = [tok.split("=", 1)[1] for tok in line.split() if "=" in tok]
        if not fields:
            fields = line.split(",")
        for field in fields:
            for tok in field.split(","):
                try:
                    value = float(tok)
                except ValueError:
                    continue
                if _fmt(value) != tok:
                    bad.append(f"number {tok!r} is not %.17g")
    return bad


class CliBatch:
    """In-process cli.main over a fixed mix of short commands.

    Set-up writes cli_sets seeded input sets (curves, homotopy grids,
    deformations, direction functions, point sets) plus malformed files.
    Each set feeds the same 15 commands; the six counterexample
    families, one short geodesic and seven malformed-input commands
    complete the mix. Commands run in a fixed order, because each
    direction-function distance reads what the projection before it
    wrote; its other argument is projected at set-up.

    Grids are CSV except in set 1, which is NPZ. That balance is on
    purpose: reading a CSV grid moves a command up a latency class, and
    with one NPZ set the median falls in the middle of the 20-26 ms
    class (energies of CSV grids and the curve flows) and the 90th
    percentile inside the reparameterizations of CSV grids. A
    percentile on a gap between classes jumps between runs.
    """

    name = "cli_batch"

    def __init__(self, cm, seed, workdir, sizes):
        self.cm = cm
        self.sizes = sizes
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        rng = np.random.default_rng(seed)
        io_ = cm.curveio
        commands = []

        def path(name):
            return os.path.join(workdir, name)

        for s in range(sizes.cli_sets):
            center = tuple(rng.uniform(-0.5, 0.5, 2))
            curve = _circle(cm, N_THETA, center, _modes_2_3(rng, 0.03))
            io_.save_curve_json(path(f"c{s}.json"), curve)
            io_.save_curve_csv(path(f"f{s}.csv"), _circle(cm, 128, center, _modes_2_3(rng, 0.05)))
            grid, _ = _translating_homotopy(cm, rng, 128, 33, (0.5, 1.0), 0.04)
            npz = s == 1
            gname = f"g{s}.npz" if npz else f"g{s}.csv"
            (io_.save_grid_npz if npz else io_.save_grid_csv)(path(gname), grid)
            io_.save_pointset_csv(path(f"h{s}.csv"), rng.normal(size=(N_THETA, 2)))
            io_.save_pointset_csv(path(f"k{s}.csv"), rng.normal(size=(N_THETA, 2)))
            sgrid = np.linspace(0.0, 2.0 * np.pi, 1025)
            for tag in "ab":
                theta = sgrid + sum(
                    rng.uniform(-0.05, 0.05) * np.sin(p * sgrid + rng.uniform(0, 2 * np.pi))
                    for p in (1, 2, 3)
                )
                theta[-1] = theta[0] + 2.0 * np.pi
                d = cm.DirectionFunctionSample(theta_of_s=theta, winding=1)
                io_.save_direction_csv(path(f"d{s}{tag}.csv"), d)
            io_.save_direction_csv(path(f"q{s}b.csv"), cm.dirfn_project(d))
            for i in range(3):
                io_.save_pointset_csv(
                    path(f"p{s}_{i}.csv"), curve.points + rng.uniform(-0.3, 0.3, 2)
                )

            for kind in ("geom_H0", "param_H0", "J", "MM", "alpha_beta", "conformal"):
                extra = ["--A", "0.5"] if kind == "MM" else []
                if kind == "conformal":
                    extra = ["--factor", "exp_length", "--factor-lam", "0.3"]
                out = f"e{s}_{kind}.txt"
                commands.append(
                    Command(["energy", "--grid", gname, "--kind", kind, *extra, "--out", out],
                            outputs=(out,))
                )
            commands.append(
                Command(["inner", "--curve", f"c{s}.json", "--h", f"h{s}.csv",
                         "--k", f"k{s}.csv", "--metric", "param_H0" if s % 2 else "geom_H0"])
            )
            for mode in ("horizontal", "arclength", "unwind"):
                out = f"r{s}_{mode}.npz" if npz else f"r{s}_{mode}.csv"
                commands.append(
                    Command(["reparam", "--grid", gname, "--mode", mode, "--out", out],
                            outputs=(out,))
                )
            commands.append(
                Command(["dirshape", "--mode", "project", "--d1", f"d{s}a.csv",
                         "--out", f"q{s}a.csv"], outputs=(f"q{s}a.csv",))
            )
            commands.append(
                Command(["dirshape", "--mode", "distance", "--d1", f"q{s}a.csv",
                         "--d2", f"q{s}b.csv", "--distance-mode", "quotient_shift"])
            )
            commands.append(
                Command(["hausdorff", "--path", *(f"p{s}_{i}.csv" for i in range(3))])
            )
            commands.append(
                Command(["flow", "--kind", "heat", "--curve", f"f{s}.csv", "--steps", "50",
                         "--out-prefix", f"heat{s}_"], outputs=(f"heat{s}_final.csv",))
            )
            commands.append(
                Command(["flow", "--kind", "mm", "--A", "0.5", "--curve", f"f{s}.csv",
                         "--steps", "50", "--out-prefix", f"mm{s}_"],
                        outputs=(f"mm{s}_final.csv",))
            )

        families = {
            "winding": "1,2,3",
            "wiggle": "1,2,4,8,16",
            "tessellation": "1,2,4",
            "zigzag": sizes.cli_zigzag,
            "pulley": sizes.cli_pulley,
        }
        for name, values in families.items():
            out = f"cx_{name}.csv"
            commands.append(
                Command(["counterexample", "--name", name, "--values", values,
                         "--out", out], outputs=(out,), table=name)
            )
        commands.append(
            Command(["counterexample", "--name", "stretch", "--out", "cx_stretch.csv"],
                    outputs=("cx_stretch.csv",), table="stretch")
        )

        io_.save_curve_json(path("gc0.json"), _circle(cm, N_THETA))
        shift = rng.uniform(0.35, 0.5)
        io_.save_curve_json(path("gc1.json"), _circle(cm, N_THETA, (shift, 0.0), _modes_2_3(rng, 0.03)))
        nv = 5
        geo_files = tuple(f"geo/slice_{j:03d}.svg" for j in range(nv)) + (
            "geo/surface.obj", "geo/summary.txt", "geo/energy_trace.csv")
        commands.append(
            Command(["geodesic", "--c0", "gc0.json", "--c1", "gc1.json",
                     "--nx", "32", "--ny", "32", "--nv", str(nv), "--steps", "20",
                     "--out", "geo"], outputs=geo_files)
        )

        with open(path("bad_nan.csv"), "w") as f:
            f.write("".join(f"{np.cos(t)},{np.sin(t)}\n" for t in np.arange(31) * 0.2))
            f.write("nan,0.5\n")
        with open(path("bad_ragged.csv"), "w") as f:
            f.write("# homotopy grid: n_v=3 n_theta=16 n=2 periodic=1\n")
            f.write("".join("0.5,0.25\n" for _ in range(46)) + "0.5\n0.5,0.25,0.125\n")
        with open(path("bad_noheader.csv"), "w") as f:
            f.write("".join(f"{np.cos(t)},{np.sin(t)}\n" for t in np.arange(48) * 0.13))
        with open(path("bad_json.json"), "w") as f:
            f.write('{"n": 2, "points": [[0.0, 1.0], [1.0,\n')
        io_.save_curve_json(path("bad_short.json"), _circle(cm, 8))
        io_.save_curve_csv(path("bad_flat.csv"), cm.SampledCurve(points=np.zeros((32, 2))))
        malformed = [
            (["flow", "--kind", "heat", "--curve", "bad_nan.csv", "--steps", "5"],
             "InputDataError"),
            (["energy", "--grid", "bad_ragged.csv"], "InputDataError"),
            (["reparam", "--grid", "bad_noheader.csv", "--out", "never.csv"],
             "InputDataError"),
            (["geodesic", "--c0", "bad_json.json", "--c1", "c0.json", "--out", "never"],
             "InputDataError"),
            (["inner", "--curve", "bad_short.json", "--h", "h0.csv", "--k", "k0.csv"],
             "InputDataError"),
            (["dirshape", "--mode", "distance", "--d1", "d0a.csv", "--d2", "d0b.csv"],
             "InputDataError"),
            (["flow", "--kind", "heat", "--curve", "bad_flat.csv", "--steps", "5"],
             "NotImmersedError"),
        ]
        for argv, error in malformed:
            commands.append(Command(argv, expect_rc=3, expect_error=error))

        self.commands = commands
        self.ops = [
            (f"cmd{i:03d} {' '.join(c.argv[:3])}", self._runner(c))
            for i, c in enumerate(commands)
        ]

    def _runner(self, command):
        def run():
            out = io.StringIO()
            err = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cm.cli.main(list(command.argv))
            return rc, out.getvalue(), err.getvalue()

        return run

    def check(self, index, result):
        command = self.commands[index]
        rc, out, err = result
        problems = []
        if rc != command.expect_rc:
            problems.append(f"exit {rc}, expected {command.expect_rc}: {err.strip()}")
        if command.expect_error and not err.startswith(command.expect_error + ":"):
            problems.append(f"stderr does not name {command.expect_error}: {err.strip()}")
        problems += _number_problems(out)
        if command.table and rc == 0:
            rows = [
                [float(x) for x in line.split(",")]
                for line in out.splitlines()
                if line and not line.startswith("#")
            ]
            problems += _table_problems(command.table, rows)
        digest = hashlib.sha256()
        digest.update(f"{rc}\n{out}\n{err}\n".encode())
        for name in command.outputs:
            full = os.path.join(self.workdir, name)
            if not os.path.isfile(full):
                problems.append(f"missing output {name}")
                continue
            if name.endswith(".npz"):
                # Archive members carry write timestamps; hash the arrays.
                with np.load(full) as data:
                    for key in sorted(data.files):
                        digest.update(data[key].tobytes())
            else:
                with open(full, "rb") as f:
                    digest.update(f.read())
        return problems, {"rc": rc, "digest": digest.hexdigest()[:16]}


WORKLOADS = {w.name: w for w in (GeodesicSolve, HomotopyFlow, CliBatch)}
