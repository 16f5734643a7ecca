"""File formats for curves, homotopy grids, and derived records.

All text output formats round-trip floats through repr-faithful
"%.17g" formatting so identical inputs produce bit-identical files.
"""

import json
import re

import numpy as np

from .curves import DirectionFunctionSample, SampledCurve
from .errors import InputDataError
from .homotopy import HomotopyGrid

SVG_WIDTH = 640.0  # pixels; save_svg sets the height from the aspect ratio


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _format_block(block, sep=",", lead="") -> str:
    """An (m, k) float block as m lines of lead and k sep-separated "%.17g" fields.

    One %-format over the whole block; "%.17g" % x and _fmt(x) spell
    every float alike, and an integer below 2**53 as f"{i}" does.
    """
    block = np.asarray(block, dtype=float)
    m, k = block.shape
    line = lead + sep.join(["%.17g"] * k) + "\n"
    return (line * m) % tuple(block.ravel().tolist())


def _read_text(path) -> str:
    """The contents of a text file, decoded as UTF-8 with universal newlines."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError:
        raise InputDataError(f"{path}: not UTF-8 text") from None


def _floats(fields) -> np.ndarray:
    return np.fromiter(map(float, fields), dtype=float, count=len(fields))


def _parse_rows(text, path, columns=None):
    """The data lines of a CSV text as one (rows, width) float array.

    Data lines are the stripped lines that are neither blank nor "#"
    comments. Every field goes through float(), so an empty field is
    not a number. All fields are parsed at once; when that fails, a
    scan of the lines names the first bad one.
    """
    lines = [s for s in map(str.strip, text.splitlines()) if s and s[0] != "#"]
    widths = {s.count(",") + 1 for s in lines}
    if len(widths) == 1 and (columns is None or widths == {columns}):
        try:
            return _floats(",".join(lines).split(",")).reshape(len(lines), -1)
        except ValueError:
            pass
    raise _row_error(text, path, columns)


def _named(path, make, **fields):
    """make(**fields), with the file named in the InputDataError it raises."""
    try:
        return make(**fields)
    except InputDataError as e:
        raise InputDataError(f"{path}: {e}") from e


def _row_error(text, path, columns):
    """The InputDataError for the first data line _parse_rows cannot take."""
    widths = set()
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        try:
            _floats(fields)
        except ValueError:
            return InputDataError(f"{path}:{line_no}: not a numeric row: {line!r}")
        if columns is not None and len(fields) != columns:
            return InputDataError(
                f"{path}:{line_no}: expected {columns} columns, got {len(fields)}"
            )
        widths.add(len(fields))
    if not widths:
        return InputDataError(f"{path}: no data rows")
    return InputDataError(f"{path}: ragged rows (widths {sorted(widths)})")


def save_curve_json(path, c: SampledCurve):
    payload = {"n": c.dim, "points": [[float(x) for x in p] for p in c.points]}
    with open(path, "w") as f:
        json.dump(payload, f)
        f.write("\n")


def load_curve_json(path) -> SampledCurve:
    try:
        payload = json.loads(_read_text(path))
    except json.JSONDecodeError as e:
        raise InputDataError(f"{path}: invalid JSON ({e})")
    if not isinstance(payload, dict) or "points" not in payload:
        raise InputDataError(f"{path}: expected an object with a 'points' array")
    try:
        pts = np.asarray(payload["points"], dtype=float)
    except (TypeError, ValueError) as e:
        raise InputDataError(
            f"{path}: 'points' is not a rectangular array of numbers ({e})"
        )
    try:
        declared = int(payload["n"]) if "n" in payload else None
    except (TypeError, ValueError):
        raise InputDataError(
            f"{path}: declared dimension n={payload['n']!r} is not an integer"
        )
    if declared is not None and pts.ndim == 2 and pts.shape[1] != declared:
        raise InputDataError(
            f"{path}: declared dimension n={payload['n']} but points have "
            f"{pts.shape[1]} coordinates"
        )
    return _named(path, SampledCurve, points=pts)


def save_curve_csv(path, c: SampledCurve):
    with open(path, "w") as f:
        f.write(f"# curve: n_samples={c.n_samples} n={c.dim}\n")
        f.write(_format_block(c.points))


def load_curve_csv(path) -> SampledCurve:
    return _named(path, SampledCurve, points=_parse_rows(_read_text(path), path))


def load_curve(path) -> SampledCurve:
    """Load a curve from .json or .csv by extension."""
    name = str(path)
    if name.endswith(".json"):
        return load_curve_json(path)
    if name.endswith(".csv"):
        return load_curve_csv(path)
    raise InputDataError(f"{path}: unknown curve format (use .json or .csv)")


_GRID_HEADER = re.compile(
    r"#\s*homotopy grid:\s*n_v=(\d+)\s+n_theta=(\d+)\s+n=(\d+)\s+periodic=([01])"
)


def save_grid_csv(path, C: HomotopyGrid):
    """Row-major grid dump: slices in v order, samples in theta order."""
    with open(path, "w") as f:
        f.write(
            f"# homotopy grid: n_v={C.n_v} n_theta={C.n_theta} n={C.dim} "
            f"periodic={1 if C.periodic else 0}\n"
        )
        f.write(_format_block(C.values.reshape(-1, C.dim)))


def load_grid_csv(path) -> HomotopyGrid:
    text = _read_text(path)
    match = _GRID_HEADER.search(text)
    if not match:
        raise InputDataError(
            f"{path}: missing grid header "
            "'# homotopy grid: n_v=.. n_theta=.. n=.. periodic=..'"
        )
    n_v, n_theta, dim, periodic = (int(g) for g in match.groups())
    data = _parse_rows(text, path, columns=dim)
    if data.shape[0] != n_v * n_theta:
        raise InputDataError(
            f"{path}: header promises {n_v * n_theta} rows, found {data.shape[0]}"
        )
    return _named(
        path, HomotopyGrid, values=data.reshape(n_v, n_theta, dim), periodic=bool(periodic)
    )


def save_grid_npz(path, C: HomotopyGrid):
    np.savez(path, values=C.values, periodic=np.array(C.periodic))


def load_grid_npz(path) -> HomotopyGrid:
    try:
        with np.load(path) as data:
            values = data["values"]
            periodic = bool(data["periodic"])
    except (OSError, KeyError, ValueError) as e:
        raise InputDataError(f"{path}: not a grid archive ({e})")
    if values.dtype.kind not in "iuf":
        raise InputDataError(
            f"{path}: grid values must be integer or floating, not {values.dtype}"
        )
    return _named(path, HomotopyGrid, values=values, periodic=periodic)


def load_grid(path) -> HomotopyGrid:
    """Load a homotopy grid, .npz by extension and text otherwise.

    The text format announces itself through its header line, so any
    other extension (.csv, .grid, none at all) goes through the csv
    reader, which reports a missing header precisely.
    """
    if str(path).endswith(".npz"):
        return load_grid_npz(path)
    return load_grid_csv(path)


def save_svg(path, polylines):
    """Plot closed polylines as an SVG drawing, SVG_WIDTH pixels wide.

    The mathematical y axis points up, so coordinates are reflected
    into SVG's downward y inside a viewBox padded by 5 percent.
    """
    polylines = [np.asarray(p, dtype=float) for p in polylines if len(p)]
    if not polylines:
        raise InputDataError("nothing to draw")
    allpts = np.vstack(polylines)
    lo = allpts.min(axis=0)
    hi = allpts.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    pad = 0.05 * float(span.max())
    x0, y0 = lo - pad
    w, h = (hi - lo) + 2 * pad
    stroke = 0.004 * max(w, h)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH:.0f}" '
        f'height="{SVG_WIDTH * h / w:.0f}" viewBox="{_fmt(x0)} {_fmt(y0)} '
        f'{_fmt(w)} {_fmt(h)}">',
        "<!-- mathematical y axis points up; points are emitted as "
        "(x, ymin+ymax-y) to flip into SVG screen coordinates -->",
    ]
    y_sum = 2 * y0 + h
    for poly in polylines:
        pts = " ".join(f"{_fmt(p[0])},{_fmt(y_sum - p[1])}" for p in poly)
        lines.append(
            f'<polygon points="{pts}" fill="none" stroke="black" '
            f'stroke-width="{_fmt(stroke)}"/>'
        )
    lines.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def save_energy_report(path, report, spec):
    """Text record of an energy evaluation: parameters, total, per-slice CSV."""
    with open(path, "w") as f:
        f.write(f"kind={spec.kind}\n")
        f.write(f"alpha={_fmt(spec.alpha)}\n")
        f.write(f"beta={_fmt(spec.beta)}\n")
        f.write(f"A={_fmt(spec.A)}\n")
        f.write(f"factor={spec.factor.kind}\n")
        f.write(f"factor_lam={_fmt(spec.factor.lam)}\n")
        f.write(f"quadrature={report.quadrature}\n")
        f.write(f"n_theta={report.resolution[0]}\n")
        f.write(f"n_v={report.resolution[1]}\n")
        f.write(f"total={_fmt(report.total)}\n")
        f.write("per_slice:\n")
        rows = report.per_slice
        f.write(_format_block(np.column_stack([np.arange(len(rows)), rows])))


def save_direction_csv(path, d: DirectionFunctionSample):
    s = d.s_grid()
    with open(path, "w") as f:
        f.write(f"# direction function: m={d.m_intervals} winding={d.winding}\n")
        f.write(_format_block(np.column_stack([s, d.theta_of_s])))


def load_direction_csv(path) -> DirectionFunctionSample:
    data = _parse_rows(_read_text(path), path, columns=2)
    theta = data[:, 1]
    turns = (float(theta[-1]) - float(theta[0])) / (2.0 * np.pi)
    if not (np.all(np.isfinite(theta)) and np.isfinite(turns)):
        raise InputDataError(f"{path}: direction values must be finite")
    winding = int(round(turns))
    return DirectionFunctionSample(theta_of_s=theta, winding=winding)


def save_pointset_csv(path, points):
    points = np.asarray(points, dtype=float)
    with open(path, "w") as f:
        f.write(f"# point set: count={points.shape[0]} n={points.shape[1]}\n")
        f.write(_format_block(points))


def load_pointset_csv(path) -> np.ndarray:
    return _parse_rows(_read_text(path), path)


def save_obj(path, C: HomotopyGrid):
    """Wavefront OBJ of the swept surface of a planar homotopy.

    Vertices are (x, y, v); each pair of neighboring slices is bridged
    by quads, wrapping in theta for periodic grids.
    """
    if C.dim != 2:
        raise InputDataError("OBJ export lifts planar homotopies only")
    n_v, n_theta = C.n_v, C.n_theta
    xyv = np.column_stack([C.values.reshape(-1, 2), np.repeat(C.v_grid(), n_theta)])
    # Quad (j, i) joins vertices i, i + 1 of slices j, j + 1 (1-based).
    i = np.arange(n_theta if C.periodic else n_theta - 1)
    i1 = (i + 1) % n_theta
    row = n_theta * np.arange(n_v - 1)[:, None] + 1
    quads = np.stack([row + i, row + i1, row + n_theta + i1, row + n_theta + i], axis=-1)
    with open(path, "w") as f:
        f.write(f"# swept homotopy surface: n_v={n_v} n_theta={n_theta}\n")
        f.write(_format_block(xyv, " ", "v ") + _format_block(quads.reshape(-1, 4), " ", "f "))
