"""End-to-end tests of the command-line interface, run in process."""

import argparse
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from curvemetrics import cli, counterexamples, curveio, errors, levelset
from curvemetrics.cli import main
from curvemetrics.curves import DirectionFunctionSample, SampledCurve, theta_grid
from curvemetrics.energies import ConformalFactor, EnergyReport, EnergySpec, inner_product
from curvemetrics.errors import InputDataError, LevelSetError
from curvemetrics.flows import run_homotopy_flow, stable_lambda
from curvemetrics.homotopy import HomotopyGrid, row_windows, sample_homotopy

from helpers import reference_per_slice_integrand, translating_circle, unit_circle, wobbled


def write_circle(tmp_path, name="circle.json", n=64, center=(0.0, 0.0)):
    path = tmp_path / name
    curveio.save_curve_json(path, unit_circle(n=n, center=center))
    return str(path)


def write_grid(tmp_path, name="grid.csv"):
    path = tmp_path / name
    curveio.save_grid_csv(path, translating_circle(n_theta=64, n_v=17))
    return str(path)


def parse_kv(line):
    return dict(tok.split("=", 1) for tok in line.split() if "=" in tok)


def test_energy_subcommand(tmp_path, capsys):
    grid = write_grid(tmp_path)
    out = tmp_path / "report.txt"
    assert main(["energy", "--grid", grid, "--out", str(out)]) == 0
    record = parse_kv(capsys.readouterr().out)
    assert record["kind"] == "geom_H0"
    np.testing.assert_allclose(float(record["total"]), np.pi, rtol=1e-2)
    assert "total=" in out.read_text()


def test_energy_homotopy_flag_alias(tmp_path, capsys):
    grid = write_grid(tmp_path)
    assert main(["energy", "--homotopy", grid, "--kind", "param_H0"]) == 0
    record = parse_kv(capsys.readouterr().out)
    np.testing.assert_allclose(float(record["total"]), 2.0 * np.pi, rtol=1e-2)


@pytest.mark.parametrize("kind, value", [("geom_H0", "inf"), ("J", "nan")])
def test_energy_that_overflows_exits_4(tmp_path, capsys, kind, value):
    # A translating circle scaled by 1e160 has finite values and energies
    # past double precision; they used to print as inf and nan, exit 0.
    path = tmp_path / "huge.csv"
    C = translating_circle(n_theta=64, n_v=9, offset=0.5)
    curveio.save_grid_csv(path, HomotopyGrid(values=1e160 * C.values))
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["energy", "--grid", str(path), "--kind", kind]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"NumericalFailureError: the {kind} energy overflowed: slice 0 gives {value}\n"


def test_energy_missing_file_exits_3(tmp_path, capsys):
    code = main(["energy", "--grid", str(tmp_path / "nope.csv")])
    assert code == 3
    assert "InputDataError" in capsys.readouterr().err


def _file_error_case(tmp_path, case):
    """argv of a command that fails on a file, and the path it fails on."""
    curve, grid = write_circle(tmp_path), write_grid(tmp_path)
    (tmp_path / "a_file").write_text("")
    h = str(tmp_path / "h.csv")
    curveio.save_pointset_csv(h, unit_circle(n=64).points)
    d = str(tmp_path / "d.csv")
    s = np.linspace(0.0, 2.0 * np.pi, 65)
    curveio.save_direction_csv(d, DirectionFunctionSample(theta_of_s=s, winding=1))
    missing = str(tmp_path / "missing.json")
    out = str(tmp_path / "no_dir" / "out")
    flow = {"heat": ["--curve", curve], "mm": ["--curve", curve],
            "h0": ["--grid", grid], "conformal": ["--grid", grid]}
    if case in flow:
        argv = ["flow", "--kind", case, *flow[case], "--steps", "1", "--out-prefix", out]
        return argv, out + ("final.csv" if case in ("heat", "mm") else "final.npz")
    geo = str(tmp_path / "a_file" / "geo")
    return {
        "inner": (["inner", "--curve", curve, "--h", missing, "--k", h], missing),
        "hausdorff": (["hausdorff", "--a", missing, "--b", h], missing),
        "energy": (["energy", "--grid", grid, "--out", out], out),
        "reparam": (["reparam", "--grid", grid, "--out", out], out),
        "counterexample": (["counterexample", "--name", "wiggle", "--values", "1",
                            "--out", out], out),
        "dirshape": (["dirshape", "--mode", "project", "--d1", d, "--out", out], out),
        "geodesic": (["geodesic", "--c0", curve, "--c1", curve, "--out", geo, "--nx", "24",
                      "--ny", "24", "--nv", "5", "--steps", "1"], geo),
    }[case]


@pytest.mark.parametrize(
    "case",
    ["inner", "hausdorff", "energy", "reparam", "counterexample", "dirshape",
     "heat", "mm", "h0", "conformal", "geodesic"],
)
def test_file_that_cannot_be_read_or_written_exits_3(tmp_path, capsys, case):
    argv, path = _file_error_case(tmp_path, case)
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"InputDataError: {path}: ") and "Traceback" not in err


def _non_utf8_case(tmp_path, case):
    """argv of a command whose input `case` names is 300 bytes that are not UTF-8."""
    curve, grid = write_circle(tmp_path), write_grid(tmp_path)
    h = str(tmp_path / "h.csv")
    curveio.save_pointset_csv(h, unit_circle(n=64).points)
    d = str(tmp_path / "d.csv")
    s = np.linspace(0.0, 2.0 * np.pi, 65)
    curveio.save_direction_csv(d, DirectionFunctionSample(theta_of_s=s, winding=1))
    noise = b"\xff" + np.random.default_rng(0).bytes(299)
    bins = {}
    for ext in ("csv", "json", "cfg"):
        bins[ext] = str(tmp_path / f"bin.{ext}")
        Path(bins[ext]).write_bytes(noise)
    out = str(tmp_path / "out.csv")
    argv = {
        "energy --grid": ["energy", "--grid", bins["csv"]],
        "reparam --grid": ["reparam", "--grid", bins["csv"], "--out", out],
        "flow --curve": ["flow", "--kind", "heat", "--curve", bins["csv"]],
        "flow --grid": ["flow", "--kind", "h0", "--grid", bins["csv"]],
        "inner --curve json": ["inner", "--curve", bins["json"], "--h", h, "--k", h],
        "inner --curve csv": ["inner", "--curve", bins["csv"], "--h", h, "--k", h],
        "inner --k": ["inner", "--curve", curve, "--h", h, "--k", bins["csv"]],
        "hausdorff --b": ["hausdorff", "--a", h, "--b", bins["csv"]],
        "hausdorff --path": ["hausdorff", "--path", h, bins["json"]],
        "dirshape --d1": ["dirshape", "--d1", bins["csv"]],
        "dirshape --d2": ["dirshape", "--mode", "distance", "--d1", d, "--d2", bins["csv"]],
        "geodesic --c1": ["geodesic", "--c0", curve, "--c1", bins["json"],
                          "--out", str(tmp_path / "geo")],
        "counterexample --grid": ["counterexample", "--name", "winding", "--grid", bins["csv"]],
        "--config": ["--config", bins["cfg"], "energy", "--grid", grid],
    }[case]
    return argv, next(path for path in bins.values() if path in argv)


@pytest.mark.parametrize(
    "case",
    ["energy --grid", "reparam --grid", "flow --curve", "flow --grid", "inner --curve json",
     "inner --curve csv", "inner --k", "hausdorff --b", "hausdorff --path", "dirshape --d1",
     "dirshape --d2", "geodesic --c1", "counterexample --grid", "--config"],
)
def test_input_that_is_not_utf8_text_exits_3(tmp_path, capsys, case):
    argv, path = _non_utf8_case(tmp_path, case)
    assert main(argv) == 3
    assert capsys.readouterr().err == f"InputDataError: {path}: not UTF-8 text\n"


@pytest.mark.parametrize(
    "dtype, code",
    [(str, 3), (complex, 3), (bool, 3), (object, 3), (np.int64, 0), (np.uint16, 0)],
)
def test_npz_grid_values_must_be_integer_or_floating(tmp_path, capsys, dtype, code):
    values = np.rint(1000.0 * translating_circle(n_theta=32, n_v=5).values) + 2000.0
    path = tmp_path / "grid.npz"
    np.savez(path, values=values.astype(dtype), periodic=np.array(True))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["energy", "--grid", str(path)]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"InputDataError: {path}: ") if code else err == ""


def test_npz_grid_of_the_wrong_shape_exits_3_naming_the_file(tmp_path, capsys):
    path = tmp_path / "shape.npz"
    np.savez(path, values=np.zeros((4, 2)), periodic=np.array(True))
    assert main(["energy", "--grid", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"InputDataError: {path}: ")
    assert "shape" in err.split(f"{path}: ", 1)[1]


@pytest.mark.parametrize(
    "name, text, argv",
    [
        pytest.param(
            "tiny.csv",
            "# homotopy grid: n_v=2 n_theta=2 n=2 periodic=1\n0,0\n1,0\n0,1\n1,1\n",
            ["energy", "--grid"],
            id="grid-csv",
        ),
        pytest.param("c2.csv", "0,0\n1,0\n", ["flow", "--kind", "heat", "--curve"], id="curve-csv"),
        pytest.param(
            "c2.json", '{"points": [[0, 0], [1, 0]]}', ["flow", "--kind", "heat", "--curve"],
            id="curve-json",
        ),
    ],
)
def test_text_input_the_constructor_rejects_exits_3_naming_the_file(
    tmp_path, capsys, name, text, argv
):
    path = tmp_path / name
    path.write_text(text)
    assert main(argv + [str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"InputDataError: {path}: ")


def test_import_loads_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (
        "import sys, curvemetrics, curvemetrics.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "payload",
    [
        '{"points": [[0, 1], [1]]}',
        '{"points": "abc"}',
        '{"n": "two", "points": [[0, 1], [1, 0], [2, 2]]}',
    ],
)
def test_malformed_curve_json_exits_3(tmp_path, capsys, payload):
    bad = tmp_path / "bad.json"
    bad.write_text(payload)
    np.savetxt(tmp_path / "h.csv", np.ones((3, 2)), delimiter=",")
    h = str(tmp_path / "h.csv")
    assert main(["inner", "--curve", str(bad), "--h", h, "--k", h]) == 3
    assert capsys.readouterr().err.startswith(f"InputDataError: {bad}: ")


def test_usage_error_exits_2(tmp_path):
    cfg = tmp_path / "good.cfg"
    cfg.write_text("steps=3\n")
    # Twice each: nothing kept from one call changes the next.
    for argv in (["no-such-command"], ["--config", str(cfg), "no-such-command"]) * 2:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def _huge_inner_args(tmp_path, metric):
    """inner argv of a 64-sample unit circle and h = k = 1e160 times it."""
    c = unit_circle(n=64)
    curveio.save_curve_json(tmp_path / "c.json", c)
    curveio.save_pointset_csv(tmp_path / "h.csv", 1e160 * c.points)
    h = str(tmp_path / "h.csv")
    return ["inner", "--curve", str(tmp_path / "c.json"), "--h", h, "--k", h, "--metric", metric]


@pytest.mark.parametrize("metric", ["geom_H0", "param_H0"])
def test_inner_product_that_overflows_exits_4(tmp_path, capsys, metric):
    assert main(_huge_inner_args(tmp_path, metric)) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"NumericalFailureError: the {metric} inner product overflowed: it gives inf\n"


@pytest.mark.parametrize("command", ["energy", "inner"])
def test_a_failure_writes_one_stderr_line(tmp_path, command):
    # A real process: in process, pytest would collect numpy's warnings
    # before they reach stderr.
    if command == "energy":
        path = tmp_path / "huge.csv"
        C = translating_circle(n_theta=64, n_v=9, offset=0.5)
        curveio.save_grid_csv(path, HomotopyGrid(values=1e160 * C.values))
        argv = ["energy", "--grid", str(path)]
    else:
        argv = _huge_inner_args(tmp_path, "geom_H0")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "curvemetrics.cli", *argv], env=env, capture_output=True, text=True
    )
    assert done.returncode == 4
    assert done.stderr.startswith("NumericalFailureError: ")
    assert len(done.stderr.splitlines()) == 1, done.stderr


def _readme_exit_codes():
    """{error class name: exit code} from the README's exit-code paragraph."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme[readme.index("Exit codes: ") :].split("\n\n", 1)[0]
    codes = {}
    for code, names in re.findall(r"(\d) [a-z ]+\s*\(([^)]*)\)", paragraph):
        codes.update((name, int(code)) for name in re.findall(r"`(\w+)`", names))
    return codes


def test_every_error_class_exits_with_the_code_the_readme_gives(capsys, monkeypatch):
    codes = _readme_exit_codes()
    assert codes["InputDataError"] == 3 and codes["NumericalFailureError"] == 4
    classes, todo = [], [errors.CurveMetricsError]
    while todo:
        subclasses = todo.pop().__subclasses__()
        classes += subclasses
        todo += subclasses
    assert {cls.__name__ for cls in classes} == set(codes)
    for cls in classes:
        def fail(args, cls=cls):
            raise cls("planted")

        monkeypatch.setitem(cli._COMMANDS, "selfcheck", ("fails", fail))
        assert main(["selfcheck"]) == codes[cls.__name__] == cls.exit_code
        assert capsys.readouterr().err == f"{cls.__name__}: planted\n"


def test_inner_subcommand(tmp_path, capsys):
    c = unit_circle(n=48)
    curve_path = tmp_path / "c.json"
    curveio.save_curve_json(curve_path, c)
    rng = np.random.default_rng(0)
    h = rng.normal(size=(48, 2))
    k = rng.normal(size=(48, 2))
    curveio.save_pointset_csv(tmp_path / "h.csv", h)
    curveio.save_pointset_csv(tmp_path / "k.csv", k)
    assert (
        main(
            [
                "inner",
                "--curve", str(curve_path),
                "--h", str(tmp_path / "h.csv"),
                "--k", str(tmp_path / "k.csv"),
                "--metric", "geom_H0",
            ]
        )
        == 0
    )
    printed = float(parse_kv(capsys.readouterr().out)["inner"])
    expected = inner_product(c, h, k, EnergySpec(kind="geom_H0"))
    assert printed == expected


@pytest.mark.parametrize(
    "alias, kind",
    [
        ("mm", "MM"),
        ("enbend", "MM"),
        ("Mm", "MM"),
        ("Conformal", "conformal"),
        ("h0", "geom_H0"),
        ("param", "param_H0"),
        ("Intermediate", "intermediate"),
    ],
)
def test_inner_keeps_a_and_factor_for_every_metric_spelling(tmp_path, capsys, alias, kind):
    c = unit_circle(n=48)
    curve_path = tmp_path / "c.json"
    curveio.save_curve_json(curve_path, c)
    rng = np.random.default_rng(1)
    h = rng.normal(size=(48, 2))
    k = rng.normal(size=(48, 2))
    curveio.save_pointset_csv(tmp_path / "h.csv", h)
    curveio.save_pointset_csv(tmp_path / "k.csv", k)
    argv = ["inner", "--curve", str(curve_path), "--h", str(tmp_path / "h.csv"),
            "--k", str(tmp_path / "k.csv"), "--A", "2.0", "--factor", "length"]
    assert main(argv + ["--metric", alias]) == 0
    printed = float(parse_kv(capsys.readouterr().out)["inner"])
    spec = EnergySpec(kind=kind, A=2.0, factor=ConformalFactor.length())
    assert printed == inner_product(c, h, k, spec)


@pytest.mark.parametrize("name", ["winding", "wiggle", "tessellation", "zigzag", "pulley"])
def test_counterexample_rejects_non_integer_values(capsys, name):
    assert main(["counterexample", "--name", name, "--values", "1,2.5,3"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("InputDataError: ")
    assert "'2.5'" in err


@pytest.mark.parametrize(
    "name, param",
    [("tessellation", "tessellation count h"), ("zigzag", "zigzag count k"),
     ("pulley", "pulley h")],
)
def test_counterexample_rejects_values_past_the_sample_budget(capsys, name, param):
    # 1e20 implies more samples than numpy can allocate; the generator
    # rejects it before allocating anything of that size.
    assert main(["counterexample", "--name", name, "--values", "1e20"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"InputDataError: {param} = 100000000000000000000 needs ")


@pytest.mark.parametrize("token, k", [("63", 63), ("1e17", 10**17), ("1,-32", -32)])
def test_counterexample_rejects_an_aliased_winding_number(capsys, token, k):
    # The default base has 64 slices: k and k +- 63 give the same grid.
    assert main(["counterexample", "--name", "winding", "--values", token]) == 3
    assert capsys.readouterr().err.startswith(f"InputDataError: winding number k = {k} needs ")


def test_counterexample_energy_that_overflows_exits_4(capsys):
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["counterexample", "--name", "stretch", "--lam-values", "1e155", "--eps", "0.1"])
    assert code == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("NumericalFailureError: the conformal energy overflowed: slice 0 ")


def test_counterexample_accepts_whole_float_values(capsys):
    assert main(["counterexample", "--name", "wiggle", "--values", "1,2"]) == 0
    ints = capsys.readouterr().out
    assert main(["counterexample", "--name", "wiggle", "--values", "1.0,2.0"]) == 0
    assert capsys.readouterr().out == ints


def test_reparam_subcommand(tmp_path, capsys):
    grid = write_grid(tmp_path)
    out = tmp_path / "reparam.csv"
    assert main(["reparam", "--grid", grid, "--mode", "horizontal", "--out", str(out)]) == 0
    record = parse_kv(capsys.readouterr().out)
    assert float(record["residual"]) < 1e-2
    back = curveio.load_grid_csv(out)
    assert back.values.shape == (17, 64, 2)


def test_flow_heat_shrinks_circle(tmp_path, capsys):
    curve = write_circle(tmp_path)
    prefix = str(tmp_path / "heat_")
    code = main(
        ["flow", "--kind", "heat", "--curve", curve, "--steps", "40",
         "--out-prefix", prefix, "--dump-every", "20"]
    )
    assert code == 0
    record = parse_kv(capsys.readouterr().out)
    assert float(record["length_final"]) < float(record["length_initial"])
    final = curveio.load_curve_csv(prefix + "final.csv")
    assert final.n_samples == 64
    assert (tmp_path / "heat_000020.csv").exists()


def test_flow_homotopy_descends_energy(tmp_path, capsys):
    grid = write_grid(tmp_path)
    prefix = str(tmp_path / "h0_")
    code = main(
        ["flow", "--kind", "h0", "--grid", grid, "--steps", "5",
         "--out-prefix", prefix]
    )
    assert code == 0
    record = parse_kv(capsys.readouterr().out)
    assert record["blew_up"] == "False"
    assert float(record["energy_final"]) <= float(record["energy_initial"])
    assert (tmp_path / "h0_final.npz").exists()


def test_flow_rejects_unstable_dt(tmp_path, capsys):
    curve = write_circle(tmp_path)
    code = main(["flow", "--kind", "heat", "--curve", curve, "--steps", "2",
                 "--dt", "10"])
    assert code == 4
    assert "CFLError" in capsys.readouterr().err


def test_geodesic_subcommand_writes_artifacts(tmp_path, capsys):
    c0 = write_circle(tmp_path, "c0.json")
    c1 = write_circle(tmp_path, "c1.json", center=(0.5, 0.0))
    out = tmp_path / "geo"
    code = main(
        ["geodesic", "--c0", c0, "--c1", c1, "--nx", "32", "--ny", "32",
         "--nv", "5", "--steps", "5", "--out", str(out)]
    )
    assert code == 0
    record = parse_kv(capsys.readouterr().out)
    assert record["converged"] == "False"
    assert record["steps"] == "5"
    for j in range(5):
        assert (out / f"slice_{j:03d}.svg").exists()
    trace_lines = [
        line for line in (out / "energy_trace.csv").read_text().splitlines()
        if not line.startswith("#")
    ]
    assert len(trace_lines) >= 2
    assert all(len(line.split(",")) == 3 for line in trace_lines)
    assert (out / "surface.obj").exists()
    summary = parse_kv(" ".join((out / "summary.txt").read_text().splitlines()))
    assert summary["converged"] == "False"
    assert float(summary["energy_initial"]) > 0.0


def test_geodesic_level_set_failure_exits_4_with_its_step(tmp_path, capsys, monkeypatch):
    original = levelset.evolve_step
    calls = []

    def vanishing(L, lam):
        calls.append(L.t)
        if len(calls) == 10:
            raise LevelSetError("slice 2 has an empty zero set; the curve vanished")
        return original(L, lam)

    monkeypatch.setattr(levelset, "evolve_step", vanishing)
    c0 = write_circle(tmp_path, "c0.json")
    c1 = write_circle(tmp_path, "c1.json", center=(0.5, 0.0))
    code = main(
        ["geodesic", "--c0", c0, "--c1", c1, "--nx", "32", "--ny", "32",
         "--nv", "5", "--steps", "20", "--out", str(tmp_path / "geo")]
    )
    assert code == 4
    assert capsys.readouterr().err.startswith("LevelSetError: step 10, t = ")


def test_counterexample_winding_table(tmp_path, capsys):
    out = tmp_path / "winding.csv"
    assert main(["counterexample", "--name", "winding", "--k", "1,2",
                 "--out", str(out)]) == 0
    rows = [
        [float(x) for x in line.split(",")]
        for line in capsys.readouterr().out.splitlines()
        if line and not line.startswith("#")
    ]
    assert [int(r[0]) for r in rows] == [1, 2]
    np.testing.assert_allclose([r[1] for r in rows], np.pi, rtol=1e-2)
    # Parameterization energy grows like 1 + (2 pi k)^2, a factor of
    # about 3.9 between k=1 and k=2.
    assert rows[1][2] > 3.0 * rows[0][2]
    assert out.exists()


def test_counterexample_rejects_unknown_name(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["counterexample", "--name", "perpetual-motion"])
    assert exc.value.code == 2


def test_dirshape_modes(tmp_path, capsys):
    s = np.linspace(0.0, 2.0 * np.pi, 129)
    circle = DirectionFunctionSample(theta_of_s=s, winding=1)
    d1 = tmp_path / "circle.csv"
    curveio.save_direction_csv(d1, circle)
    assert main(["dirshape", "--mode", "constraints", "--d1", str(d1)]) == 0
    residuals = [float(x) for x in
                 capsys.readouterr().out.split("=")[1].split(",")]
    assert max(abs(r) for r in residuals) < 1e-8

    theta = s + 0.05 * np.sin(3.0 * s) + 0.02
    theta[-1] = theta[0] + 2.0 * np.pi
    rough = DirectionFunctionSample(theta_of_s=theta, winding=1)
    d2 = tmp_path / "rough.csv"
    curveio.save_direction_csv(d2, rough)
    projected = tmp_path / "projected.csv"
    assert main(["dirshape", "--mode", "project", "--d1", str(d2),
                 "--out", str(projected)]) == 0
    assert float(parse_kv(capsys.readouterr().out)["residual_norm"]) < 1e-10

    assert main(["dirshape", "--mode", "distance", "--d1", str(d1),
                 "--d2", str(projected)]) == 0
    l2 = float(parse_kv(capsys.readouterr().out)["distance"])
    assert l2 > 0.0
    assert main(["dirshape", "--mode", "distance", "--d1", str(d1),
                 "--d2", str(projected), "--distance-mode", "quotient_shift"]) == 0
    q = float(parse_kv(capsys.readouterr().out)["distance"])
    assert q <= l2 + 1e-12

    assert main(["dirshape", "--mode", "distance", "--d1", str(d1)]) == 3
    assert "InputDataError" in capsys.readouterr().err


def test_hausdorff_subcommand(tmp_path, capsys):
    curveio.save_pointset_csv(tmp_path / "a.csv", np.array([[0.0, 0.0]]))
    curveio.save_pointset_csv(tmp_path / "b.csv", np.array([[3.0, 4.0]]))
    assert main(["hausdorff", "--a", str(tmp_path / "a.csv"),
                 "--b", str(tmp_path / "b.csv")]) == 0
    assert float(parse_kv(capsys.readouterr().out)["distance"]) == 5.0

    pts = unit_circle(n=32).points
    for i, shift in enumerate((0.0, 0.25, 0.5)):
        curveio.save_pointset_csv(
            tmp_path / f"p{i}.csv", pts + np.array([shift, 0.0])
        )
    assert main(["hausdorff", "--path", str(tmp_path / "p0.csv"),
                 str(tmp_path / "p1.csv"), str(tmp_path / "p2.csv")]) == 0
    total = float(parse_kv(capsys.readouterr().out)["path_length"])
    np.testing.assert_allclose(total, 0.5, atol=1e-12)

    assert main(["hausdorff", "--a", str(tmp_path / "a.csv")]) == 3
    capsys.readouterr()


def test_selfcheck_passes(capsys):
    assert main(["--seed", "1", "selfcheck"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "FAIL" not in out


def test_config_file_seeds_defaults(tmp_path, capsys):
    curve = write_circle(tmp_path)
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("# flow defaults\nsteps=3\n")
    assert main(["--config", str(cfg), "flow", "--kind", "heat",
                 "--curve", curve]) == 0
    assert parse_kv(capsys.readouterr().out)["steps"] == "3"
    # An explicit flag still wins over the config value.
    assert main(["--config", str(cfg), "flow", "--kind", "heat",
                 "--curve", curve, "--steps", "2"]) == 0
    assert parse_kv(capsys.readouterr().out)["steps"] == "2"


def test_config_defaults_are_read_on_every_call(tmp_path, capsys):
    curve = write_circle(tmp_path)
    a, b = tmp_path / "a.cfg", tmp_path / "b.cfg"
    a.write_text("steps=3\n")
    b.write_text("steps=4\n")

    def steps(*config):
        assert main([*config, "flow", "--kind", "heat", "--curve", curve]) == 0
        return parse_kv(capsys.readouterr().out)["steps"]

    assert steps("--config", str(a)) == "3"
    # The call without --config sees the built-in default, not a's value.
    assert steps() == "100"
    assert steps("--config", str(b)) == "4"
    assert steps(f"--config={a}") == "3"
    # A rewritten file is read again, and its new values hold.
    a.write_text("steps=5\n")
    assert steps("--config", str(a)) == "5"
    assert steps() == "100"


@pytest.mark.parametrize(
    "config",
    [["--conf", "{s}"], ["--conf={s}"], ["--c", "{s}"], ["--config", "{t}", "--co", "{s}"]],
    ids=["conf", "conf=", "c", "last-wins"],
)
def test_abbreviated_config_is_read(tmp_path, capsys, config):
    # argparse takes any unique prefix of --config, and keeps the last
    # one given; the defaults must come from that same file.
    curve = write_circle(tmp_path)
    (tmp_path / "s.cfg").write_text("steps=3\n")
    (tmp_path / "t.cfg").write_text("steps=4\n")
    bad = tmp_path / "bad.cfg"
    bad.write_text("perpetual_motion=1\n")
    argv = [a.format(s=tmp_path / "s.cfg", t=tmp_path / "t.cfg") for a in config]
    assert main([*argv, "flow", "--kind", "heat", "--curve", curve]) == 0
    assert parse_kv(capsys.readouterr().out)["steps"] == "3"
    argv = [a.format(s=bad, t=tmp_path / "t.cfg") for a in config]
    assert main([*argv, "selfcheck"]) == 3
    assert "perpetual_motion" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["perpetual_motion=1\n", "steps=abc\n", "steps\n"])
def test_bad_config_exits_3_on_every_call(tmp_path, capsys, text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    # selfcheck has no --steps: a bad value of another command's option
    # still fails, though main builds only the selfcheck subparser.
    for _ in range(2):
        assert main(["--config", str(cfg), "selfcheck"]) == 3
        assert capsys.readouterr().err.startswith("InputDataError: ")


def test_config_keys_of_other_commands_are_accepted(tmp_path, capsys):
    h = str(tmp_path / "h.csv")
    curveio.save_pointset_csv(h, unit_circle(n=16).points)
    cfg = tmp_path / "geo.cfg"
    # mode=project is outside reparam's choices, which hausdorff never reads.
    cfg.write_text("nx=32\ntol=0.01\nmode=project\n")
    assert main(["--config", str(cfg), "hausdorff", "--a", h, "--b", h]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "command, value, choices",
    [
        (["reparam", "--grid", "g.csv", "--out", "o.csv"], "project",
         "arclength, horizontal, unwind"),
        (["dirshape", "--d1", "d.csv"], "unwind", "constraints, project, distance"),
    ],
    ids=["reparam", "dirshape"],
)
def test_config_value_outside_the_choices_of_the_run_command_exits_3(
    tmp_path, capsys, command, value, choices
):
    # The config sets the default, and argparse checks choices only on
    # the command line, never on defaults.
    cfg = tmp_path / "mode.cfg"
    cfg.write_text(f"mode={value}\n")
    assert main(["--config", str(cfg), *command]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"InputDataError: config value mode={value!r} is not one of {choices}\n"


def _parse_outcome(parser, argv, capsys):
    """Namespace (or exit code or typed error), stdout and stderr of one parse."""
    try:
        outcome = vars(parser.parse_args(argv))
    except SystemExit as e:
        outcome = e.code
    except InputDataError as e:
        outcome = repr(e)
    out, err = capsys.readouterr()
    return outcome, out, err


@pytest.mark.parametrize(
    "argv, command",
    [
        (["energy", "--grid", "g.csv", "--kind", "J"], "energy"),
        (["--seed", "3", "flow", "--steps", "2"], "flow"),
        (["--seed=3", "--threads=2", "selfcheck"], "selfcheck"),
        (["--se", "3", "--th", "2", "energy", "--grid", "g"], "energy"),
        # An abbreviated --config takes the next token, here "energy".
        (["--c", "energy", "inner", "--curve", "a", "--h", "b", "--k", "c"], "inner"),
        (["--seed", "x", "energy", "--grid", "g"], "energy"),
        (["--seed", "-1", "selfcheck"], "selfcheck"),
        (["--config", "--seed", "energy", "--grid", "g"], "energy"),
        (["energy"], "energy"),
        (["energy", "--help"], "energy"),
        (["selfcheck", "--seed", "2"], "selfcheck"),
        (["--s", "1", "selfcheck", "extra"], "selfcheck"),
        ([], None),
        (["--help"], None),
        (["-h"], None),
        (["--he"], None),
        (["--help", "x", "energy"], None),
        (["bogus"], None),
        (["--", "selfcheck"], None),
        (["--foo", "selfcheck"], None),
        (["-", "selfcheck"], None),
        (["--threads", "energy"], None),
        (["--conf=c.cfg", "--se=3", "selfcheck"], "selfcheck"),
        (["--he=1", "energy"], None),
    ],
)
def test_one_subcommand_tree_parses_like_the_full_tree(capsys, argv, command):
    assert cli._scan_argv(argv)[1] == command
    full = _parse_outcome(cli.build_parser()[0], argv, capsys)
    one = _parse_outcome(cli.build_parser(None, command)[0], argv, capsys)
    assert one == full


def test_one_subcommand_tree_knows_every_option():
    _parser, full = cli.build_parser({"steps": "7"})
    for command in cli._COMMANDS:
        parser, helper = cli.build_parser({"steps": "7"}, command)
        assert list(_subparsers(parser)) == [command]
        assert helper.known == full.known


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("perpetual_motion=1\n")
    assert main(["--config", str(cfg), "selfcheck"]) == 3
    assert "perpetual_motion" in capsys.readouterr().err


def test_cli_is_deterministic(tmp_path, capsys):
    grid = write_grid(tmp_path)
    assert main(["energy", "--grid", grid]) == 0
    first = capsys.readouterr().out
    assert main(["energy", "--grid", grid]) == 0
    assert capsys.readouterr().out == first


def test_flow_output_does_not_depend_on_dumps(tmp_path, capsys):
    # Renormalization runs every 10 steps of one run; dumping every 7
    # steps must neither move it nor change the printed energies.
    grid = tmp_path / "wobbled.npz"
    curveio.save_grid_npz(grid, sample_homotopy(wobbled, 64, 9))
    args = ["flow", "--kind", "conformal", "--grid", str(grid), "--steps", "30"]
    assert main(args) == 0
    plain = capsys.readouterr().out
    prefix = str(tmp_path / "dump_")
    assert main(args + ["--dump-every", "7", "--out-prefix", prefix]) == 0
    assert capsys.readouterr().out == plain
    dumps = sorted(p.name for p in tmp_path.glob("dump_*.npz"))
    assert dumps == [
        "dump_000007.npz", "dump_000014.npz", "dump_000021.npz",
        "dump_000028.npz", "dump_000030.npz", "dump_final.npz",
    ]
    final = curveio.load_grid(prefix + "final.npz")
    np.testing.assert_array_equal(
        curveio.load_grid(prefix + "000030.npz").values, final.values
    )


def test_flow_conformal_uses_exp_length_factor_unless_one_is_given(tmp_path, capsys):
    C = sample_homotopy(wobbled, 64, 9)
    grid = tmp_path / "wobbled.npz"
    curveio.save_grid_npz(grid, C)

    def run(*extra):
        argv = ["flow", "--grid", str(grid), "--steps", "12", *extra]
        assert main(argv) == 0
        return parse_kv(capsys.readouterr().out)

    def expect(record, state):
        assert record["lam"] == cli._fmt(state.lam)
        assert record["energy_final"] == cli._fmt(state.energy_trace[-1])

    conformal = run("--kind", "conformal")
    state = run_homotopy_flow(C, kind="conformal", steps=12)
    assert state.lam == stable_lambda(C)
    expect(conformal, state)
    h0 = run("--kind", "h0")
    expect(h0, run_homotopy_flow(C, kind="h0", steps=12))
    assert h0["energy_final"] != conformal["energy_final"]
    assert float(h0["lam"]) == 0.0
    expect(
        run("--kind", "conformal", "--lam", "0.25"),
        run_homotopy_flow(C, kind="conformal", steps=12, lam=0.25),
    )
    # An explicit factor is the one the run uses, and lam= is its lambda.
    given = run("--kind", "conformal", "--factor", "exp_length", "--factor-lam", "0.3")
    assert given["lam"] == cli._fmt(0.3)
    assert run("--kind", "conformal", "--factor", "identity")["lam"] == "0"


def test_zigzag_table_takes_each_phase_quadrature_once(capsys, monkeypatch):
    phases = []
    quad = counterexamples.ZigzagCone._quad

    def counted(self, phase, *args):
        phases.append(phase)
        return quad(self, phase, *args)

    monkeypatch.setattr(counterexamples.ZigzagCone, "_quad", counted)
    assert main(["counterexample", "--name", "zigzag", "--values", "4,8"]) == 0
    assert phases == [1, 2, 1, 2]
    rows = [
        line.split(",")
        for line in capsys.readouterr().out.splitlines()
        if not line.startswith("#")
    ]
    monkeypatch.setattr(counterexamples.ZigzagCone, "_quad", quad)
    for k, row in zip((4, 8), rows):
        cone = counterexamples.zigzag_cone(k, cli._unit_circle())
        assert row[3] == cli._fmt(cone.total_normal_energy())


def test_counterexample_table_bytes_match_the_row_loop(tmp_path, capsys):
    rows = [(1, 0.1, -0.0), (2, 5e-324, 1e308), (3, -1.0 / 3.0, 2.0**60)]
    out = tmp_path / "table.csv"
    cli._write_table(str(out), ["k", "a", "b"], rows, "demo")
    lines = ["# counterexample: demo", "# columns: k,a,b"]
    lines += [",".join(f"{float(x):.17g}" for x in row) for row in rows]
    expected = "\n".join(lines) + "\n"
    assert capsys.readouterr().out == expected
    assert out.read_text() == expected
    cli._write_table(None, ["k"], [], "empty")
    assert capsys.readouterr().out == "# counterexample: empty\n# columns: k\n"


@pytest.mark.parametrize("row", ["1,,2", "1,2,", "1, ,2"])
def test_empty_csv_field_exits_3_naming_its_line(tmp_path, capsys, row):
    good = tmp_path / "good.csv"
    curveio.save_pointset_csv(good, np.array([[0.0, 1.0], [1.0, 0.0]]))
    bad = tmp_path / "bad.csv"
    bad.write_text(f"0.5,1.5\n{row}\n")
    assert main(["hausdorff", "--a", str(bad), "--b", str(good)]) == 3
    assert capsys.readouterr().err.startswith(
        f"InputDataError: {bad}:2: not a numeric row"
    )


def test_dirshape_rejects_non_finite_direction_with_exit_3(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("0,0\n1,1\n2,2\n3,3\n6.28,nan\n")
    assert main(["dirshape", "--d1", str(path)]) == 3
    assert "must be finite" in capsys.readouterr().err


def _subparsers(parser):
    return next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices


def _malformed_values(parser):
    """(option, token) pairs: "abc" for every option that takes a value, -1 for integer ones."""
    for a in parser._actions:
        if a.option_strings and a.nargs != 0:
            yield a.option_strings[0], "abc"
            if a.type is int or "_count." in getattr(a.type, "__qualname__", ""):
                yield a.option_strings[0], "-1"


def test_every_option_given_a_malformed_value_exits_2_or_3(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    curve, grid = write_circle(tmp_path), write_grid(tmp_path)
    curveio.save_curve_json(tmp_path / "c1.json", unit_circle(n=64, center=(0.3, 0.0)))
    curveio.save_pointset_csv(tmp_path / "h.csv", unit_circle(n=64).points)
    s = np.linspace(0.0, 2.0 * np.pi, 65)
    curveio.save_direction_csv(tmp_path / "d.csv", DirectionFunctionSample(theta_of_s=s, winding=1))
    # Valid inputs per command, chosen so that every option is read.
    baseline = {
        "energy": ["--grid", grid],
        "inner": ["--curve", curve, "--h", "h.csv", "--k", "h.csv"],
        "reparam": ["--grid", grid, "--out", "out.csv"],
        "flow": ["--kind", "h0", "--grid", grid, "--steps", "1"],
        "geodesic": ["--c0", curve, "--c1", "c1.json", "--out", "geo",
                     "--nx", "24", "--ny", "24", "--nv", "5", "--steps", "1"],
        "counterexample": ["--name", "winding", "--values", "1"],
        "dirshape": ["--mode", "distance", "--d1", "d.csv", "--d2", "d.csv"],
        "hausdorff": ["--a", "h.csv", "--b", "h.csv"],
        "selfcheck": [],
    }
    context = {
        ("flow", "--curve"): ["--kind", "heat", "--curve", curve, "--steps", "1"],
        ("counterexample", "--eps"): ["--name", "stretch"],
        ("counterexample", "--lam-values"): ["--name", "stretch"],
    }
    # Any name is a valid output path.
    outputs = {"--out", "--out-prefix"}
    parser, _helper = cli.build_parser()
    commands = _subparsers(parser)
    assert set(commands) == set(baseline)
    for command, argv in baseline.items():
        if command != "selfcheck":
            assert main([command, *argv]) == 0, command
    capsys.readouterr()
    runs = [
        ([option, token, "selfcheck"], option, token)
        for option, token in _malformed_values(parser)
    ]
    for command, sub in commands.items():
        for option, token in _malformed_values(sub):
            if option not in outputs:
                extra = context.get((command, option), [])
                runs.append(([command, *baseline[command], *extra, option, token], option, token))
    assert len(runs) > 50
    for argv, option, token in runs:
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        err = capsys.readouterr().err
        # A negative count parses as an integer, so only the converter can reject it.
        assert code in ((2, 3) if token == "abc" else (3,)), argv
        # argparse names the option; a typed error names its class.
        assert (f"argument {option}" if code == 2 else "Error: ") in err, argv


@pytest.mark.parametrize(
    "flag, token",
    [("--dt", "abc"), ("--dt", "0"), ("--dt", "-0.01"), ("--dt", "nan"), ("--dt", "inf"),
     ("--lam", "abc"), ("--lam", "nan"), ("--lam", "-inf"),
     ("--steps", "-3"), ("--dump-every", "-1"), ("--renormalize-every", "-1")],
)
@pytest.mark.parametrize("kind", ["heat", "h0", "conformal"])
@pytest.mark.parametrize("from_config", [False, True])
def test_flow_dt_and_lam_take_auto_or_a_finite_number(tmp_path, capsys, flag, token, kind, from_config):
    source = ["--curve", write_circle(tmp_path)] if kind == "heat" else ["--grid", write_grid(tmp_path)]
    argv = ["flow", "--kind", kind, *source, "--steps", "2"]
    if from_config:
        cfg = tmp_path / "flow.cfg"
        cfg.write_text(f"{flag.lstrip('-')}={token}\n")
        argv = ["--config", str(cfg), *argv]
    else:
        argv += [f"{flag}={token}"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("InputDataError: ") and flag in err and repr(token) in err


_NUMBER_FLAGS = [
    ("energy", ["--grid", "g.csv"], "--A"),
    ("energy", ["--grid", "g.csv"], "--alpha"),
    ("energy", ["--grid", "g.csv"], "--beta"),
    ("energy", ["--grid", "g.csv"], "--factor-lam"),
    ("inner", ["--curve", "c.csv", "--h", "h.csv", "--k", "k.csv"], "--A"),
    ("inner", ["--curve", "c.csv", "--h", "h.csv", "--k", "k.csv"], "--factor-lam"),
    ("flow", ["--curve", "c.csv"], "--A"),
    ("flow", ["--curve", "c.csv"], "--factor-lam"),
    ("flow", ["--grid", "g.csv"], "--stop-displacement"),
    ("geodesic", ["--c0", "a.csv", "--c1", "b.csv", "--out", "o"], "--tol"),
]


@pytest.mark.parametrize("command, required, flag", _NUMBER_FLAGS)
@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "abc"])
@pytest.mark.parametrize("from_config", [False, True])
def test_number_flags_take_only_finite_numbers(tmp_path, capsys, command, required, flag,
                                               token, from_config):
    # The value is converted before any file is read.
    argv = [command, *required]
    if from_config:
        cfg = tmp_path / "numbers.cfg"
        cfg.write_text(f"{flag.lstrip('-')}={token}\n")
        argv = ["--config", str(cfg), *argv]
    else:
        argv += [f"{flag}={token}"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"InputDataError: {flag} takes a finite number") and repr(token) in err


@pytest.mark.parametrize(
    "command, required, flag",
    [("flow", ["--grid", "g.csv"], "--stop-displacement"),
     ("geodesic", ["--c0", "a.csv", "--c1", "b.csv", "--out", "o"], "--tol")],
)
def test_tol_and_stop_displacement_take_numbers_at_least_0(capsys, command, required, flag):
    assert main([command, *required, f"{flag}=-1e-3"]) == 3
    assert capsys.readouterr().err.startswith(
        f"InputDataError: {flag} takes a finite number >= 0, got '-1e-3'"
    )


def test_geodesic_has_no_reinitialization_cadence(tmp_path, capsys):
    # The solver reinitializes when its field asks for it; no option or
    # config key sets a cadence.
    argv = ["geodesic", "--c0", "a.csv", "--c1", "b.csv", "--out", "o"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--reinit-every", "5"])
    assert exc.value.code == 2
    assert "--reinit-every" in capsys.readouterr().err
    cfg = tmp_path / "geo.cfg"
    cfg.write_text("reinit_every=5\n")
    assert main(["--config", str(cfg), *argv]) == 3
    assert "reinit_every" in capsys.readouterr().err


def reference_total(C, spec):
    return float(C.integrate_v(reference_per_slice_integrand(C, spec)))


def test_energy_report_of_a_many_window_grid_matches_the_whole_grid_kernel(
    tmp_path, capsys
):
    C = counterexamples.tessellate(counterexamples.conformal_stretch(0.25, 1.0), 2)
    assert len(row_windows(C)) > 2
    grid = tmp_path / "big.npz"
    curveio.save_grid_npz(grid, C)
    out = tmp_path / "r.txt"
    assert main(["energy", "--grid", str(grid), "--kind", "alpha_beta", "--out", str(out)]) == 0
    spec = EnergySpec(kind="alpha_beta", alpha=2.0, beta=1.0)
    per_slice = reference_per_slice_integrand(C, spec)
    want = tmp_path / "want.txt"
    curveio.save_energy_report(
        want,
        EnergyReport(
            total=float(C.integrate_v(per_slice)),
            per_slice=per_slice,
            quadrature="trapezoid-u, trapezoid-v",
            resolution=(C.n_theta, C.n_v),
        ),
        spec,
    )
    assert out.read_text() == want.read_text()
    assert parse_kv(capsys.readouterr().out)["total"] == cli._fmt(
        float(C.integrate_v(per_slice))
    )


def test_counterexample_tables_match_the_whole_grid_kernel(tmp_path, capsys):
    # The tessellation, wiggle and stretch grids all span several windows.
    ab = EnergySpec(kind="alpha_beta", alpha=2.0, beta=1.0)
    factor = EnergySpec(kind="conformal", factor=ConformalFactor.length())
    base = counterexamples.conformal_stretch(0.25, 1.0)
    tables = [
        ("tessellation", ["--values", "1,2,4"], ["h", "energy"],
         [(h, reference_total(counterexamples.tessellate(base, h), ab)) for h in (1, 2, 4)]),
        ("wiggle", ["--values", "1,8"], ["j", "energy"],
         [(j, reference_total(counterexamples.graph_wiggle(j), ab)) for j in (1, 8)]),
        ("stretch", ["--eps", "0.1,0.25", "--lam-values", "0.5,1,2"], ["eps", "lam", "energy"],
         [(eps, lam, reference_total(counterexamples.conformal_stretch(eps, lam), factor))
          for eps in (0.1, 0.25) for lam in (0.5, 1.0, 2.0)]),
    ]
    for name, argv, header, rows in tables:
        out, want = tmp_path / f"{name}.csv", tmp_path / f"{name}_want.csv"
        assert main(["counterexample", "--name", name, *argv, "--out", str(out)]) == 0
        cli._write_table(str(want), header, rows, name)
        capsys.readouterr()
        assert out.read_text() == want.read_text(), name
