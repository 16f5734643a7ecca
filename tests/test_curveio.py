"""Round-trip and format tests for the file I/O helpers."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from curvemetrics.curves import DirectionFunctionSample, SampledCurve
from curvemetrics.curveio import (
    load_curve,
    load_curve_csv,
    load_curve_json,
    load_direction_csv,
    load_grid,
    load_grid_csv,
    load_grid_npz,
    load_pointset_csv,
    save_curve_csv,
    save_curve_json,
    save_direction_csv,
    save_energy_report,
    save_grid_csv,
    save_grid_npz,
    save_obj,
    save_pointset_csv,
    save_svg,
)
from curvemetrics.energies import EnergySpec, energy
from curvemetrics.errors import InputDataError
from curvemetrics.homotopy import HomotopyGrid

from helpers import translating_circle, unit_circle


def awkward_curve():
    rng = np.random.default_rng(5)
    pts = unit_circle(n=37).points * np.exp(rng.normal(0.0, 0.3, (37, 1)))
    return SampledCurve(points=pts)


def test_curve_json_roundtrip_bit_exact(tmp_path):
    c = awkward_curve()
    path = tmp_path / "c.json"
    save_curve_json(path, c)
    back = load_curve_json(path)
    assert np.array_equal(back.points, c.points)


def test_curve_csv_roundtrip_bit_exact(tmp_path):
    c = awkward_curve()
    path = tmp_path / "c.csv"
    save_curve_csv(path, c)
    back = load_curve_csv(path)
    assert np.array_equal(back.points, c.points)


def test_load_curve_dispatches_on_extension(tmp_path):
    c = awkward_curve()
    save_curve_json(tmp_path / "c.json", c)
    save_curve_csv(tmp_path / "c.csv", c)
    assert np.array_equal(load_curve(tmp_path / "c.json").points, c.points)
    assert np.array_equal(load_curve(tmp_path / "c.csv").points, c.points)
    with pytest.raises(InputDataError):
        load_curve(tmp_path / "c.txt")


def test_curve_json_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(InputDataError):
        load_curve_json(path)
    path.write_text('{"n": 2}')
    with pytest.raises(InputDataError):
        load_curve_json(path)
    path.write_text('{"n": 3, "points": [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5], [0.1, 0.9]]}')
    with pytest.raises(InputDataError):
        load_curve_json(path)


@pytest.mark.parametrize(
    "payload, message",
    [
        ('{"points": [[0, 1], [1]]}', "'points' is not a rectangular array"),
        ('{"points": "abc"}', "'points' is not a rectangular array"),
        ('{"points": [[0, 1], [1, {}], [2, 2]]}', "'points' is not a rectangular array"),
        ('{"n": "two", "points": [[0, 1], [1, 0], [2, 2]]}', "dimension n='two' is not"),
        ('{"n": null, "points": [[0, 1], [1, 0], [2, 2]]}', "dimension n=None is not"),
    ],
)
def test_curve_json_rejects_non_numeric_payloads(tmp_path, payload, message):
    path = tmp_path / "bad.json"
    path.write_text(payload)
    with pytest.raises(InputDataError, match=f"bad.json: .*{message}"):
        load_curve_json(path)


def test_curve_csv_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\nx,3.0\n")
    with pytest.raises(InputDataError, match="bad.csv:2"):
        load_curve_csv(path)
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(InputDataError, match="ragged"):
        load_curve_csv(path)
    path.write_text("# only a comment\n")
    with pytest.raises(InputDataError, match="no data"):
        load_curve_csv(path)


def test_grid_csv_roundtrip(tmp_path):
    C = translating_circle(n_theta=24, n_v=5)
    path = tmp_path / "grid.csv"
    save_grid_csv(path, C)
    back = load_grid_csv(path)
    assert np.array_equal(back.values, C.values)
    assert back.periodic == C.periodic
    open_grid = HomotopyGrid(values=C.values, periodic=False)
    save_grid_csv(path, open_grid)
    assert load_grid_csv(path).periodic is False


def test_grid_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("1.0,2.0\n")
    with pytest.raises(InputDataError, match="header"):
        load_grid_csv(path)
    path.write_text("# homotopy grid: n_v=3 n_theta=4 n=2 periodic=1\n0.0,0.0\n")
    with pytest.raises(InputDataError, match="rows"):
        load_grid_csv(path)


def test_grid_npz_roundtrip(tmp_path):
    C = translating_circle(n_theta=24, n_v=5)
    path = tmp_path / "grid.npz"
    save_grid_npz(path, C)
    back = load_grid_npz(path)
    assert np.array_equal(back.values, C.values)
    assert back.periodic == C.periodic
    bogus = tmp_path / "bogus.npz"
    bogus.write_text("definitely not a zip archive")
    with pytest.raises(InputDataError):
        load_grid_npz(bogus)
    assert np.array_equal(load_grid(path).values, C.values)


def test_direction_csv_roundtrip_recovers_winding(tmp_path):
    for winding in (1, 2):
        s = np.linspace(0.0, 2.0 * np.pi, 65)
        d = DirectionFunctionSample(
            theta_of_s=winding * s + 0.03 * np.sin(2.0 * s), winding=winding
        )
        path = tmp_path / f"dir{winding}.csv"
        save_direction_csv(path, d)
        back = load_direction_csv(path)
        assert np.array_equal(back.theta_of_s, d.theta_of_s)
        assert back.winding == winding


def test_pointset_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(17, 2))
    path = tmp_path / "set.csv"
    save_pointset_csv(path, pts)
    assert np.array_equal(load_pointset_csv(path), pts)


def test_svg_is_parseable_and_flips_y(tmp_path):
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    path = tmp_path / "plot.svg"
    save_svg(path, [tri, tri + 0.1])
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    polygons = [el for el in root if el.tag.endswith("polygon")]
    assert len(polygons) == 2
    pairs = [p.split(",") for p in polygons[0].get("points").split()]
    ys = [float(y) for _x, y in pairs]
    # The topmost mathematical point must come out with the smallest
    # screen y once the reflection is applied.
    assert np.argmin(ys) == np.argmax(tri[:, 1])
    with pytest.raises(InputDataError):
        save_svg(tmp_path / "empty.svg", [])


def test_energy_report_records_total(tmp_path):
    C = translating_circle(n_theta=64, n_v=9)
    spec = EnergySpec(kind="geom_H0")
    report = energy(C, spec)
    path = tmp_path / "report.txt"
    save_energy_report(path, report, spec)
    lines = dict(
        line.split("=", 1)
        for line in path.read_text().splitlines()
        if "=" in line and not line.startswith("per_slice")
    )
    assert lines["kind"] == "geom_H0"
    assert float(lines["total"]) == report.total
    assert lines["n_theta"] == "64"
    per = [
        float(line.split(",")[1])
        for line in path.read_text().splitlines()
        if line.split(",")[0].isdigit()
    ]
    assert np.array_equal(np.array(per), report.per_slice)


def test_obj_export_lifts_surface(tmp_path):
    C = translating_circle(n_theta=12, n_v=4)
    path = tmp_path / "surface.obj"
    save_obj(path, C)
    verts, faces = [], []
    for line in path.read_text().splitlines():
        if line.startswith("v "):
            verts.append([float(x) for x in line.split()[1:]])
        elif line.startswith("f "):
            faces.append([int(x) for x in line.split()[1:]])
    verts = np.array(verts)
    assert verts.shape == (48, 3)
    np.testing.assert_allclose(
        verts[:, 2].reshape(4, 12), C.v_grid()[:, None] * np.ones((1, 12))
    )
    assert len(faces) == 3 * 12
    flat = np.array(faces)
    assert flat.min() >= 1 and flat.max() <= 48
    helix = HomotopyGrid(values=np.zeros((3, 8, 3)), periodic=True)
    with pytest.raises(InputDataError):
        save_obj(tmp_path / "bad.obj", helix)


# The row writer the text formats used before _format_block: one _fmt
# call per value. Every writer must still produce exactly these bytes.
def reference_rows(block):
    return "".join(
        ",".join(f"{float(x):.17g}" for x in row) + "\n" for row in block
    )


def same_bits(a, b):
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
               1e308, -1e308, 1.7976931348623157e308, 0.1, -1.0 / 3.0]
FINITE = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False))


def blocks(min_rows, min_cols, max_cols):
    shape = st.tuples(st.integers(min_rows, 9), st.integers(min_cols, max_cols))
    return shape.flatmap(lambda s: arrays(np.float64, s, elements=FINITE))


@settings(max_examples=40, deadline=None)
@given(points=blocks(3, 2, 3))
def test_curve_csv_roundtrip_bits_and_bytes(tmp_path_factory, points):
    path = tmp_path_factory.mktemp("curve") / "c.csv"
    with np.errstate(over="ignore"):  # the scale of a 1e308 curve overflows
        save_curve_csv(path, SampledCurve(points=points))
        back = load_curve_csv(path)
    header = f"# curve: n_samples={points.shape[0]} n={points.shape[1]}\n"
    assert path.read_text() == header + reference_rows(points)
    assert same_bits(back.points, points)


@settings(max_examples=40, deadline=None)
@given(
    values=st.tuples(st.integers(2, 4), st.integers(3, 5), st.integers(2, 3)).flatmap(
        lambda s: arrays(np.float64, s, elements=FINITE)
    ),
    periodic=st.booleans(),
)
def test_grid_csv_roundtrip_bits_and_bytes(tmp_path_factory, values, periodic):
    path = tmp_path_factory.mktemp("grid") / "g.csv"
    n_v, n_theta, dim = values.shape
    save_grid_csv(path, HomotopyGrid(values=values, periodic=periodic))
    header = (
        f"# homotopy grid: n_v={n_v} n_theta={n_theta} n={dim} "
        f"periodic={int(periodic)}\n"
    )
    assert path.read_text() == header + reference_rows(values.reshape(-1, dim))
    back = load_grid_csv(path)
    assert same_bits(back.values, values)
    assert back.periodic == periodic


@settings(max_examples=40, deadline=None)
@given(
    inner=arrays(np.float64, st.integers(2, 9), elements=FINITE),
    ends=st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=2),
)
def test_direction_csv_roundtrip_bits_and_bytes(tmp_path_factory, inner, ends):
    # The endpoints stay where theta[-1] - theta[0] is finite, since the
    # loader reads the winding from their difference.
    theta = np.concatenate([[ends[0]], inner, [ends[1]]])
    path = tmp_path_factory.mktemp("dir") / "d.csv"
    d = DirectionFunctionSample(theta_of_s=theta, winding=1)
    save_direction_csv(path, d)
    header = f"# direction function: m={d.m_intervals} winding=1\n"
    expected = reference_rows(np.column_stack([d.s_grid(), theta]))
    assert path.read_text() == header + expected
    back = load_direction_csv(path)
    assert same_bits(back.theta_of_s, theta)
    assert back.winding == int(round((theta[-1] - theta[0]) / (2.0 * np.pi)))


@settings(max_examples=40, deadline=None)
@given(points=blocks(1, 1, 4))
def test_pointset_csv_roundtrip_bits_and_bytes(tmp_path_factory, points):
    path = tmp_path_factory.mktemp("set") / "p.csv"
    save_pointset_csv(path, points)
    header = f"# point set: count={points.shape[0]} n={points.shape[1]}\n"
    assert path.read_text() == header + reference_rows(points)
    assert same_bits(load_pointset_csv(path), points)


TOKENS = st.one_of(
    st.floats().map(repr),
    st.floats(allow_nan=False).map(lambda x: f"{x:.6e}"),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(["1_0", "-Infinity", "NaN", "1e400", "-1e-400", "4.9e-324",
                     "+.5", "5.", "-0", "١٢", "१.२"]),
).flatmap(lambda t: st.sampled_from([t, f" {t}", f"{t}\t", f"  {t} "]))


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 3).flatmap(
        lambda width: st.lists(
            st.lists(TOKENS, min_size=width, max_size=width), min_size=1, max_size=6
        )
    )
)
def test_parsed_values_equal_float_of_each_token(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("tok") / "t.csv"
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    expected = np.array([[float(t) for t in row] for row in rows])
    assert same_bits(load_pointset_csv(path), expected)


def test_csv_reader_takes_whitespace_crlf_and_comments(tmp_path):
    path = tmp_path / "loose.csv"
    path.write_bytes(
        b"# point set\r\n  1.5 , 2\r\n\r\n# between rows\r\n\t-3,\t4e0  \r\n"
        b"   # indented comment\n5 ,6\n"
    )
    assert same_bits(
        load_pointset_csv(path), np.array([[1.5, 2.0], [-3.0, 4.0], [5.0, 6.0]])
    )


@pytest.mark.parametrize("row", ["1,,2", "1,2,", "1, ,2", ",1,2"])
def test_csv_reader_rejects_empty_fields(tmp_path, row):
    # The first row fixes the width at 2, so a reader that dropped the
    # empty field would take the second row as a valid 2-column row.
    path = tmp_path / "empty.csv"
    path.write_text(f"0.5,1.5\n{row}\n")
    with pytest.raises(InputDataError, match="empty.csv:2: not a numeric row"):
        load_pointset_csv(path)


def grid_text(*rows):
    return "# homotopy grid: n_v=2 n_theta=3 n=2 periodic=1\n" + "".join(
        row + "\n" for row in rows
    )


def test_csv_reader_names_the_first_bad_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(grid_text("0,0", "1,2,3", "x,1"))
    with pytest.raises(InputDataError) as err:
        load_grid_csv(path)
    assert str(err.value) == f"{path}:3: expected 2 columns, got 3"
    path.write_text(grid_text("0,0", "x,1", "1,2,3"))
    with pytest.raises(InputDataError) as err:
        load_grid_csv(path)
    assert str(err.value) == f"{path}:3: not a numeric row: 'x,1'"
    # Without a fixed width, rows of two widths only fail after the
    # last line, so a later non-numeric line is the one named.
    path.write_text("1,2\n3\n# note\n x,4 \n")
    with pytest.raises(InputDataError) as err:
        load_pointset_csv(path)
    assert str(err.value) == f"{path}:4: not a numeric row: 'x,4'"
    path.write_text("1,2\n3\n")
    with pytest.raises(InputDataError) as err:
        load_pointset_csv(path)
    assert str(err.value) == f"{path}: ragged rows (widths [1, 2])"
    path.write_text("\n# nothing\n   \n")
    with pytest.raises(InputDataError) as err:
        load_pointset_csv(path)
    assert str(err.value) == f"{path}: no data rows"


@pytest.mark.parametrize("bad", ["nan", "inf", "1e308"])
def test_direction_csv_rejects_non_finite_values(tmp_path, bad):
    s = np.linspace(0.0, 2.0 * np.pi, 6).tolist()
    theta = [repr(x) for x in s]
    theta[-1] = bad
    if bad == "1e308":
        theta[0] = "-1e308"  # finite values, but their difference is not
    path = tmp_path / "d.csv"
    path.write_text("".join(f"{sk!r},{tk}\n" for sk, tk in zip(s, theta)))
    with pytest.raises(InputDataError, match="finite"):
        load_direction_csv(path)
