"""Level-set realization of the conformal homotopy flow.

A homotopy of planar closed curves is embedded as the zero set of a
scalar field psi(x, y, v), one signed-distance slice per v. The field
evolves in artificial time by the conformally stabilized flow written
in level-set form (the overall magnitude factor of the conformal
metric is dropped; lambda keeps the curvature coefficient nonnegative):

  psi_t = psi_vv
        - (2 psi_v / |grad psi|^2) (grad psi_v . grad psi)
        + (psi_v^2 / |grad psi|^4) (Hess psi grad psi) . grad psi
        - 1/2 (psi_v^2 / |grad psi|^2 - lambda S(v)) curv |grad psi|
        + lambda L_v psi_v

with S(v) the contour integral of psi_v^2 / |grad psi|^2 along the
zero set of the slice and curv |grad psi| the usual curvature term
div(grad psi / |grad psi|) |grad psi|. Endpoint slices are pinned:
their rows never receive updates and reinitialization skips them.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import List

import numpy as np

from .curves import SampledCurve, _bbox_diagonal, _edge_vectors, dot, resample_arclength
from .energies import ConformalFactor, EnergySpec, energy
from .errors import InputDataError, LevelSetError
from .homotopy import HomotopyGrid, linear_homotopy


# Half-width of the narrow band, in cells of the coarser of dx and dy
# (Adalsteinsson & Sethian, JCP 118, 1995).
_BAND_WIDTH = 6.0
_MARGIN = 0.25  # padding of embed's default box, see embed
# run_geodesic reinitializes a state whose |grad psi| leaves
# [_GRAD_LOW, _GRAD_HIGH] within _FRONT_WIDTH cells of the front, or
# falls to the 0.3 that rhs refuses anywhere in the band (see
# _EvolutionFields.needs_reinitialization).
_GRAD_LOW = 0.5
_GRAD_HIGH = 2.0
_FRONT_WIDTH = 3.0
# Steps between two convergence measurements of run_geodesic.
_MEASURE_EVERY = 10


@dataclass(frozen=True)
class LevelSetGrid:
    """Scalar field psi[j, iy, ix] on a uniform box grid, one slice per v.

    A grid is one state of the flow, at flow time t: the library never
    writes into psi, every step and reinitialization returns a new grid,
    and lambda is an argument of each step. The zero segments of a state
    are marched once and kept with it (_march), and so are its evolution
    fields (_fields).
    """

    psi: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    vs: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        if self.psi.ndim != 3:
            raise InputDataError("psi must have shape (N_v, N_y, N_x)")
        nv, ny, nx = self.psi.shape
        if (len(self.vs), len(self.ys), len(self.xs)) != (nv, ny, nx):
            raise InputDataError("axis arrays disagree with the psi shape")
        if nv < 3 or ny < 8 or nx < 8:
            raise InputDataError("level-set grid too small")

    @property
    def dx(self):
        return float(self.xs[1] - self.xs[0])

    @property
    def dy(self):
        return float(self.ys[1] - self.ys[0])

    @property
    def dv(self):
        return float(self.vs[1] - self.vs[0])

    def band_mask(self):
        return np.abs(self.psi) <= _BAND_WIDTH * max(self.dx, self.dy)

    @cached_property
    def _march(self):
        """_zero_segments of psi, marched on first use and kept.

        The fields, the reinitialization and the extraction of the state
        all read this one march.
        """
        return _zero_segments(self.psi, self.xs, self.ys)

    @cached_property
    def _fields(self):
        """_EvolutionFields of the state, built on first use and kept.

        The reinitialization check, levelset_lambda, the step and the
        front speed all read these fields.
        """
        return _EvolutionFields(self)


@dataclass
class SliceContours:
    """Closed zero-level polylines per slice (no duplicate endpoint).

    Orientation puts the negative side of psi on the left, as it does
    for every zero segment. Slices with no closed contour, or whose zero
    set crosses the box boundary, are flagged rather than raised so
    callers can decide.
    """

    contours: List[List[np.ndarray]]
    flagged: List[int]


def _segments_intersect(p, p2, q, q2):
    """Proper-intersection test of segments p -> p2 and q -> q2, pair by pair.

    The four (..., 2) end arrays broadcast against each other.
    """
    d1 = p2 - p
    d2 = q2 - q

    def cross(a, b):
        return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]

    denom = cross(d1, d2)
    rel = q - p
    t = cross(rel, d2)
    u = cross(rel, d1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(denom != 0.0, t / denom, np.inf)
        u = np.where(denom != 0.0, u / denom, np.inf)
    eps = 1e-12
    return (t > eps) & (t < 1.0 - eps) & (u > eps) & (u < 1.0 - eps)


# Two edges touch when an end of one lies within _TOUCH times the
# polygon's bounding-box diagonal of the other. The proper-crossing
# test leaves out parameters within 1e-12 of an edge end, and a
# crossing there puts that end within 1e-12 edge lengths, so within
# 1e-12 diagonals, of the other edge: the touch covers what the
# crossing test leaves out.
_TOUCH = 1e-12


def _segments_touch(p, p2, q, q2, tol):
    """Whether segments p -> p2 and q -> q2 cross or touch, pair by pair.

    They touch when they cross properly or an end of one lies within
    tol of the other: a vertex on an edge, a repeated vertex and a
    collinear overlap all put an end on the other edge. The four (K, 2)
    end arrays hold one pair per row.
    """
    touch = _segments_intersect(p, p2, q, q2)
    for end, (s, e) in ((p, (q, q2)), (p2, (q, q2)), (q, (p, p2)), (q2, (p, p2))):
        sq = _segment_sq_dist(end[:, 0], end[:, 1], s[:, 0], s[:, 1], e[:, 0], e[:, 1])
        touch |= sq <= tol * tol
    return touch


def _check_embedded(points, label):
    """Raise when two non-adjacent edges of the closed polygon touch.

    Only edges whose bounding boxes, widened by the touch tolerance,
    overlap can touch, so only those pairs are tested. A sweep over the
    edges sorted by their left end pairs each edge with the later ones
    that start before it ends in x; the y overlap then prunes the rest.
    The touch test of a pair does not depend on which edge comes
    first, so the pair named is the lexicographically first touching
    (i, j), i < j, as when every pair is tested.
    """
    n = len(points)
    a = points
    b = np.roll(points, -1, axis=0)
    tol = _TOUCH * _bbox_diagonal(points)
    lo = np.minimum(a, b) - tol
    hi = np.maximum(a, b) + tol
    order = np.argsort(lo[:, 0], kind="stable")
    # Sorted edge k overlaps in x the sorted edges k + 1 .. end[k] - 1.
    end = np.searchsorted(lo[order, 0], hi[order, 0], side="right")
    count = end - np.arange(1, n + 1)
    first = np.repeat(np.arange(n), count)
    second = np.arange(len(first)) - np.repeat(np.cumsum(count) - end, count)
    i = np.minimum(order[first], order[second])
    j = np.maximum(order[first], order[second])
    gap = j - i
    keep = (lo[i, 1] <= hi[j, 1]) & (lo[j, 1] <= hi[i, 1]) & (gap > 1) & (gap != n - 1)
    i, j = i[keep], j[keep]
    if not len(i):  # a simple smooth polygon leaves no pair to test
        return
    hits = np.flatnonzero(_segments_touch(a[i], b[i], a[j], b[j], tol))
    if len(hits):
        first_hit = hits[np.lexsort((j[hits], i[hits]))[0]]
        raise InputDataError(
            f"{label} self-intersects (segments {i[first_hit]} and {j[first_hit]}); "
            "signed distance is undefined"
        )


def _grid_inside(xs, ys, poly):
    """Even-odd rule for every node of the grid xs x ys against one closed polygon.

    The nodes of a row share their y, so only the (row, edge) pairs whose
    edge spans that y need a crossing abscissa; every other pair cannot
    toggle the parity. Returns (len(ys), len(xs)) booleans.
    """
    ax, ay = poly[:, 0], poly[:, 1]
    bx, by = np.roll(ax, -1), np.roll(ay, -1)
    i, e = np.nonzero((ay > ys[:, None]) != (by > ys[:, None]))
    x_int = ax[e] + (ys[i] - ay[e]) * (bx - ax)[e] / (by - ay)[e]
    inside = np.zeros((len(ys), len(xs)), dtype=bool)
    np.logical_xor.at(inside, i, xs < x_int[:, None])
    return inside


def _segment_sq_dist(x, y, ax, ay, bx, by):
    """Squared distances from points (x, y) to segments a -> b, exact per pair.

    The segment end coordinates ax, ay, bx, by share one shape, and x
    and y broadcast against it. Works in place where it can. This is
    the one point-to-segment formula of the level set.
    """
    dx = bx - ax
    dy = by - ay
    len_sq = np.maximum(dx * dx + dy * dy, 1e-300)
    # tpar = clip(((x - ax) dx + (y - ay) dy) / len_sq, 0, 1)
    tpar = x - ax
    tpar *= dx
    buf = y - ay
    buf *= dy
    tpar += buf
    tpar /= len_sq
    np.clip(tpar, 0.0, 1.0, out=tpar)
    # (ex, ey) = (x, y) - (a + tpar d), ex in buf and ey over tpar
    ex = np.multiply(tpar, dx, out=buf)
    ex += ax
    np.subtract(x, ex, out=ex)
    ey = tpar
    ey *= dy
    ey += ay
    np.subtract(y, ey, out=ey)
    ex *= ex
    ey *= ey
    ex += ey
    return ex


# Grid nodes are measured in blocks of _BLOCK x _BLOCK (see _grid_distance).
_BLOCK = 4
# Pruning slack of _grid_distance per unit of the largest coordinate
# magnitude R. A computed distance is within a few ulps of R of the
# exact one, so 1e-12 R covers the rounding a thousand times over.
_PRUNE_ROUNDING = 1e-12
# Columns of (node, segment) pairs _grid_distance measures at a time.
_CHUNK = 1024


def _grid_distance(xs, ys, a, b, group):
    """Distance from every grid node to the nearest segment of each group.

    a and b are (S, 2) segment ends and group numbers each segment's
    group 0..G-1, every group nonempty. Returns (G, len(ys), len(xs)),
    equal bit for bit to measuring every (node, segment) pair of each
    group with _segment_sq_dist and taking one square root of each
    node's minimum: sqrt is monotone, so sqrt(min) equals min(sqrt).

    The grid is cut into _BLOCK x _BLOCK blocks of nodes (clipped at
    the far edges, where nodes repeat), each with centre c and radius
    rho, the largest distance from c to its nodes. A node p of the block
    has |p - c| <= rho, so a segment s with d(c, s) > min_s' d(c, s') +
    2 rho is farther from p than the segment nearest to c, and cannot be
    nearest to p. Only the other segments are measured, each pair by
    _segment_sq_dist as when every pair is measured, and a minimum over a
    superset of the argmin is the same float. _PRUNE_ROUNDING widens the
    bound by the rounding of the computed distances.
    """
    ny, nx = len(ys), len(xs)
    n_groups = int(group.max()) + 1
    iy = np.minimum(np.arange(0, ny, _BLOCK)[:, None] + np.arange(_BLOCK), ny - 1)
    ix = np.minimum(np.arange(0, nx, _BLOCK)[:, None] + np.arange(_BLOCK), nx - 1)
    nby, nbx = len(iy), len(ix)
    n_blocks = nby * nbx
    # Nodes of block by * nbx + bx, row r and column c, at row r * _BLOCK + c.
    shape = (_BLOCK, _BLOCK, nby, nbx)
    node_x = np.broadcast_to(xs[ix].T[None, :, None, :], shape).reshape(_BLOCK**2, n_blocks)
    node_y = np.broadcast_to(ys[iy].T[:, None, :, None], shape).reshape(_BLOCK**2, n_blocks)
    node = (iy.T[:, None, :, None] * nx + ix.T[None, :, None, :]).reshape(_BLOCK**2, n_blocks)
    lo_x, hi_x = node_x.min(axis=0), node_x.max(axis=0)
    lo_y, hi_y = node_y.min(axis=0), node_y.max(axis=0)
    rho = np.hypot(0.5 * (hi_x - lo_x), 0.5 * (hi_y - lo_y))
    slack = _PRUNE_ROUNDING * max(
        np.abs(xs).max(), np.abs(ys).max(), np.abs(a).max(), np.abs(b).max()
    )

    # Each group's segments as one row, padded by repeating its first
    # segment: a repeat changes no minimum and is never kept twice.
    count = np.bincount(group, minlength=n_groups)
    order = np.argsort(group, kind="stable")
    width = np.arange(count.max())
    valid = width < count[:, None]
    rows = order[(np.cumsum(count) - count)[:, None] + np.where(valid, width, 0)]
    ends = (a[:, 0], a[:, 1], b[:, 0], b[:, 1])
    d_c = np.sqrt(
        _segment_sq_dist(
            (0.5 * (lo_x + hi_x))[:, None], (0.5 * (lo_y + hi_y))[:, None],
            *[e[rows][:, None] for e in ends],
        )
    )
    bound = d_c.min(axis=2) + (2.0 * rho + slack)
    kept = np.flatnonzero((d_c <= bound[..., None]) & valid[:, None, :])
    gb, k = np.divmod(kept, d_c.shape[2])  # gb = g * n_blocks + blk
    g, blk = np.divmod(gb, n_blocks)
    seg = rows[g, k]
    runs = np.bincount(gb, minlength=n_groups * n_blocks)

    # Kept (node, segment) pairs as C-contiguous (_BLOCK**2, K) arrays,
    # each block's segments one run of columns, measured in chunks of
    # whole blocks about _CHUNK columns wide so the temporaries stay in
    # cache and are reused rather than mapped afresh.
    start = np.concatenate([[0], np.cumsum(runs)])
    cuts = np.unique(np.searchsorted(start, np.arange(0, len(seg), _CHUNK), "right") - 1)
    cuts = np.append(cuts, len(runs))
    dist = np.empty((_BLOCK**2, len(runs)))
    for b0, b1 in zip(cuts[:-1], cuts[1:]):
        cols = slice(start[b0], start[b1])
        d2 = _segment_sq_dist(
            np.take(node_x, blk[cols], axis=1), np.take(node_y, blk[cols], axis=1),
            *[e[seg[cols]] for e in ends],
        )
        dist[:, b0:b1] = np.minimum.reduceat(d2, start[b0:b1] - start[b0], axis=1)
    np.sqrt(dist, out=dist)
    out = np.empty((n_groups, ny * nx))
    out[:, node] = dist.reshape(_BLOCK**2, n_groups, n_blocks).transpose(1, 0, 2)
    return out.reshape(n_groups, ny, nx)


def embed(
    source,
    nx: int = 64,
    ny: int = 64,
    nv: int = 17,
    box=None,
) -> LevelSetGrid:
    """Signed-distance embedding of a homotopy (or an endpoint pair).

    source is a HomotopyGrid, or a (c0, c1) pair of SampledCurves whose
    interior slices come from the linear homotopy. Every slice polygon
    must be embedded; psi is the exact signed distance to the sample
    polygon, negative inside. The default box pads the bounding box of
    the homotopy by _MARGIN of its larger extent on each side.
    """
    if isinstance(source, HomotopyGrid):
        C = source
    else:
        c0, c1 = source
        C = linear_homotopy(c0, c1, nv)
    if C.dim != 2:
        raise InputDataError("level sets embed planar curves only")

    if box is None:
        lo = C.values.reshape(-1, 2).min(axis=0)
        hi = C.values.reshape(-1, 2).max(axis=0)
        pad = _MARGIN * float(np.max(hi - lo))
        box = (lo[0] - pad, hi[0] + pad, lo[1] - pad, hi[1] + pad)
    x0, x1, y0, y1 = box
    xs = np.linspace(x0, x1, nx)
    ys = np.linspace(y0, y1, ny)
    vs = C.v_grid()

    # Built before psi is filled, so a grid too small is rejected first.
    L = LevelSetGrid(psi=np.empty((C.n_v, ny, nx)), xs=xs, ys=ys, vs=vs)
    one_group = np.zeros(C.n_theta, dtype=np.int64)
    for j in range(C.n_v):
        poly = C.values[j]
        _check_embedded(poly, f"slice {j}")
        dist = _grid_distance(xs, ys, poly, np.roll(poly, -1, axis=0), one_group)[0]
        L.psi[j] = np.where(_grid_inside(xs, ys, poly), -dist, dist)
    return L


_EDGE_TABLE = {
    1: [("l", "b")],
    2: [("b", "r")],
    3: [("l", "r")],
    4: [("r", "t")],
    6: [("b", "t")],
    7: [("l", "t")],
    8: [("t", "l")],
    9: [("t", "b")],
    11: [("t", "r")],
    12: [("r", "l")],
    13: [("b", "r")],
    14: [("b", "l")],
}
# Cases 5 and 10 are the saddles, resolved by the cell-center sign:
# (case, center < 0) -> side pairs.
_SADDLE_TABLE = {
    (5, True): [("l", "t"), ("b", "r")],
    (5, False): [("l", "b"), ("r", "t")],
    (10, True): [("b", "l"), ("t", "r")],
    (10, False): [("b", "r"), ("t", "l")],
}

_SIDES = "btlr"
# Unit-cell position of each side's midpoint and of its two end corners,
# the corners keyed by their bit in the case number.
_SIDE_MID = {"b": (0.5, 0.0), "t": (0.5, 1.0), "l": (0.0, 0.5), "r": (1.0, 0.5)}
_SIDE_CORNERS = {
    "b": {1: (0.0, 0.0), 2: (1.0, 0.0)},
    "t": {8: (0.0, 1.0), 4: (1.0, 1.0)},
    "l": {1: (0.0, 0.0), 8: (0.0, 1.0)},
    "r": {2: (1.0, 0.0), 4: (1.0, 1.0)},
}


def _cell_sides():
    """Both case tables as arrays over code = case + 16 * (center < 0).

    Entry [code, k] of the first array holds the two sides of segment k
    of a cell, as indices into _SIDES, or -1 where the cell has one
    segment. The pairs are ordered so that the negative side of psi lies
    on the left, the orientation of the extracted loops: of the two
    corners of the first side exactly one is negative, and it must lie
    left of the segment. The second array flags the pairs this rule
    lists the other way round from the case tables.
    """
    codes = dict(_EDGE_TABLE)
    codes.update({c + 16 * neg: p for (c, neg), p in _SADDLE_TABLE.items()})
    table = np.full((32, 2, 2), -1, dtype=np.int64)
    swapped = np.zeros((32, 2), dtype=np.int64)
    for code, pairs in codes.items():
        for k, (s1, s2) in enumerate(pairs):
            ((cx, cy),) = [xy for bit, xy in _SIDE_CORNERS[s1].items() if code & bit]
            (x1, y1), (x2, y2) = _SIDE_MID[s1], _SIDE_MID[s2]
            if (x2 - x1) * (cy - y1) - (y2 - y1) * (cx - x1) < 0.0:
                s1, s2 = s2, s1
                swapped[code, k] = 1
            table[code, k] = _SIDES.index(s1), _SIDES.index(s2)
    return table, swapped


_CELL_SIDES, _CELL_SWAPPED = _cell_sides()


def _side_points(psi, xs, ys, sl, iy, ix, side):
    """Zero crossings on sides (indices into _SIDES) of cells, and their ids.

    psi is read through flat indices into its C-order values, so sl, iy,
    ix and side may broadcast to any shape. The crossing edge runs from
    node (ey, ex) to its right neighbour for a bottom or top side, and
    to its upper neighbour for a left or right side. The id numbers that
    edge by (slice, direction, node), so the two cells sharing an edge
    give its crossing the same point and id.
    """
    ny, nx = psi.shape[1:]
    flat = psi.reshape(-1)
    horiz = side < 2
    ey = iy + (side == 1)
    ex = ix + (side == 3)
    ey2 = ey + ~horiz
    ex2 = ex + horiz
    a = flat[(sl * ny + ey) * nx + ex]
    t = a / (a - flat[(sl * ny + ey2) * nx + ex2])
    x = np.where(horiz, xs[ex] + t * (xs[ex2] - xs[ex]), xs[ex])
    y = np.where(horiz, ys[ey], ys[ey] + t * (ys[ey2] - ys[ey]))
    ids = ((2 * sl + ~horiz) * ny + ey) * nx + ex
    return np.stack([x, y], axis=-1), ids


def _zero_segments(psi, xs, ys):
    """Every zero-crossing segment of every slice at once, unchained.

    Returns (sl, p, q, p_id, q_id, key, leaves_box): the slice index of
    each segment, its end points with the negative side of psi on the
    left of p -> q, and the ids of those two crossings (see
    _side_points). The case tables list the crossings slice by slice,
    cell by cell in row-major order and pair by pair, each pair's two
    sides in table order; key is the rank of p in that listing and
    key ^ 1 the rank of q. Saddle cases 5 and 10 are resolved by the
    sign of the mean of the cell's four corners. leaves_box flags the
    slices whose zero set crosses the box boundary: the boundary nodes
    of a slice form one closed ring, so it does unless they all have
    one sign.

    A cell is named by the flat index f of its lower-left node, its
    other corners being f + 1, f + nx + 1 and f + nx. Only the cells
    whose corners differ in sign are visited.
    """
    nv, ny, nx = psi.shape
    flat = psi.reshape(-1)
    neg = flat < 0.0
    neg3 = neg.reshape(nv, ny, nx)
    ring = np.count_nonzero(neg3[:, :: ny - 1], axis=(1, 2)) + np.count_nonzero(
        neg3[:, :, :: nx - 1], axis=(1, 2)
    )
    leaves_box = (ring > 0) & (ring < 2 * (nx + ny))
    n = len(flat) - nx - 1
    ll = neg[:n]
    crossing = np.zeros(len(flat), dtype=bool)
    np.not_equal(ll, neg[1 : n + 1], out=crossing[:n])
    crossing[:n] |= ll != neg[nx + 1 :]
    crossing[:n] |= ll != neg[nx : n + nx]
    # Nodes of the last row or column name no cell.
    crossing3 = crossing.reshape(nv, ny, nx)
    crossing3[:, -1] = False
    crossing3[:, :, -1] = False
    f = np.flatnonzero(crossing)
    code = neg[f] + 2 * neg[f + 1] + 4 * neg[f + nx + 1] + 8 * neg[f + nx]
    saddle = np.flatnonzero((code == 5) | (code == 10))
    fs = f[saddle]
    centre = 0.25 * (flat[fs] + flat[fs + 1] + flat[fs + nx] + flat[fs + nx + 1])
    code[saddle] += 16 * (centre < 0.0)
    sl, rest = np.divmod(f, ny * nx)
    iy, ix = np.divmod(rest, nx)

    # Only the saddle cells hold a second segment.
    cell = np.concatenate([np.arange(len(f)), saddle])
    k = np.repeat([0, 1], [len(f), len(saddle)])
    code = code[cell]
    pairs = _CELL_SIDES[code, k]
    key = 4 * cell + 2 * k + _CELL_SWAPPED[code, k]
    sl, iy, ix = sl[cell], iy[cell], ix[cell]
    (p, q), (p_id, q_id) = _side_points(psi, xs, ys, sl, iy, ix, pairs.T)
    return sl, p, q, p_id, q_id, key, leaves_box


def _bilinear(field, xs, ys, pts, sl):
    """Sample a field[j, iy, ix] at points by bilinear interpolation.

    sl holds the slice each point is sampled in. The four corners of a
    point's cell are read through flat indices into field.
    """
    dx = xs[1] - xs[0]
    dy = ys[1] - ys[0]
    fx = np.clip((pts[:, 0] - xs[0]) / dx, 0.0, len(xs) - 1.001)
    fy = np.clip((pts[:, 1] - ys[0]) / dy, 0.0, len(ys) - 1.001)
    ix = fx.astype(int)
    iy = fy.astype(int)
    tx = fx - ix
    ty = fy - iy
    sx = 1 - tx
    sy = 1 - ty
    ny, nx = field.shape[1:]
    node = (sl * ny + iy) * nx + ix
    flat = field.reshape(-1)
    return (
        flat[node] * sx * sy
        + flat[node + 1] * tx * sy
        + flat[node + nx] * sx * ty
        + flat[node + nx + 1] * tx * ty
    )


def extract_slices(L: LevelSetGrid) -> SliceContours:
    """Zero contours of every slice; empty or box-crossing slices are flagged.

    The zero segments are chained by crossing id: a segment's successor
    is the one that starts where it ends. A chain that does not close
    ends on the box boundary; it is skipped, and its slice is flagged
    by the leaves_box of _zero_segments, since a chain ends there
    exactly when the boundary ring of the slice changes sign. Closed
    loops are ordered by their lowest-ranked crossing in the key order
    of _zero_segments, p or q of their lowest-key segment s. A loop
    starts at p of s when that crossing is p, and two segments on, at p
    of the successor of the successor of s, when it is q. The extracted
    homotopy resamples each loop from its first point, so its energies
    depend on these rules.
    """
    nv = L.psi.shape[0]
    sl, p, q, p_id, q_id, key, leaves_box = L._march
    n = len(sl)
    by_start = np.argsort(p_id)
    at = by_start[np.minimum(np.searchsorted(p_id, q_id, sorter=by_start), n - 1)]
    succ = np.where(p_id[at] == q_id, at, -1).tolist()
    heads = np.setdiff1d(np.arange(n), succ).tolist()
    order = np.argsort(key).tolist()
    sl, key = sl.tolist(), key.tolist()
    done = [False] * n

    def chain(first):
        run = [first]
        nxt = succ[first]
        while nxt >= 0 and nxt != first:
            run.append(nxt)
            nxt = succ[nxt]
        for s in run:
            done[s] = True
        return run

    for head in heads:
        chain(head)
    contours = [[] for _ in range(nv)]
    for first in order:
        if not done[first]:
            run = chain(first)
            if key[first] & 1:
                run = run[2:] + run[:2]
            contours[sl[first]].append(p[run])
    flagged = [j for j in range(nv) if not contours[j] or leaves_box[j]]
    return SliceContours(contours=contours, flagged=flagged)


def _gradient(f, h, axis):
    """np.gradient(f, h, axis=axis) with numpy's formulas, on the flat array.

    Central differences (f[i+1] - f[i-1]) / (2 h) inside, one-sided
    (f[1] - f[0]) / h and (f[-1] - f[-2]) / h at the two ends. In C
    order the neighbours of a value along the axis lie s apart, s the
    product of the trailing dimensions, so the central difference is one
    pass over the flat array. The values it wraps across the ends of the
    axis are then overwritten by the one-sided ones.
    """
    s = math.prod(f.shape[axis + 1 :])
    flat = f.reshape(-1)
    out = np.empty_like(f, order="C")
    inner = out.reshape(-1)[s:-s]
    np.subtract(flat[2 * s :], flat[: -2 * s], out=inner)
    inner /= 2.0 * h
    lead = (slice(None),) * axis
    out[lead + (0,)] = (f[lead + (1,)] - f[lead + (0,)]) / h
    out[lead + (-1,)] = (f[lead + (-1,)] - f[lead + (-2,)]) / h
    return out


def _second_difference(f, h, axis):
    """(f[i+1] - 2 f[i] + f[i-1]) / h^2 inside, the edges copied inward.

    One pass over the flat array, as in _gradient; the copies overwrite
    the values wrapped across the ends of the axis.
    """
    s = math.prod(f.shape[axis + 1 :])
    flat = f.reshape(-1)
    out = np.empty_like(f, order="C")
    inner = out.reshape(-1)[s:-s]
    np.multiply(flat[s:-s], 2, out=inner)
    np.subtract(flat[2 * s :], inner, out=inner)
    inner += flat[: -2 * s]
    inner /= h**2
    lead = (slice(None),) * axis
    out[lead + (0,)] = out[lead + (1,)]
    out[lead + (-1,)] = out[lead + (-2,)]
    return out


class _EvolutionFields:
    """One shared pass of all the finite differences an evolution step needs.

    psi_x, psi_y, psi_v, m and S cover every slice, because the CFL
    bound and lambda read them there; the second derivatives and the
    update terms are taken on the interior slices only, the pinned
    endpoints never being updated. The fields keep L's psi and steps,
    not L, so a state that keeps its fields (LevelSetGrid._fields)
    holds no reference cycle.
    """

    def __init__(self, L: LevelSetGrid):
        psi = L.psi
        self.psi = psi
        self.dx, self.dy, self.dv = L.dx, L.dy, L.dv
        self.psi_x = _gradient(psi, L.dx, 2)
        self.psi_y = _gradient(psi, L.dy, 1)
        self.psi_v = _gradient(psi, L.dv, 0)
        self.psi_x2 = self.psi_x**2
        self.psi_y2 = self.psi_y**2
        self.psi_v2 = self.psi_v**2
        g2 = self.psi_x2 + self.psi_y2
        # Where |grad psi| < 0.3, g2 is floored; rhs refuses such nodes
        # inside the band.
        self.floored = g2 < 0.09
        self.g2 = np.maximum(g2, 0.09, out=g2)
        self.m = self.psi_v2 / self.g2

        self.band = L.band_mask()
        self.interior_band = self.band.copy()
        self.interior_band[0] = False
        self.interior_band[-1] = False

        # Lengths and the midpoint-rule S(v) are sums over the zero
        # segments, so no slice needs its polylines chained.
        nv = psi.shape[0]
        sl, p, q, *_, leaves_box = L._march
        counts = np.bincount(sl, minlength=nv)
        for j in range(nv):
            if counts[j] == 0:
                raise LevelSetError(
                    f"slice {j} has an empty zero set; the curve vanished"
                )
            if leaves_box[j]:
                raise LevelSetError(
                    f"slice {j}: the zero set crosses the box boundary; "
                    "the box is too small for this homotopy"
                )
        d = q - p
        seg = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])
        mids = 0.5 * (p + q)
        self.lengths = np.bincount(sl, weights=seg, minlength=nv)
        self.S = np.bincount(
            sl, weights=_bilinear(self.m, L.xs, L.ys, mids, sl) * seg, minlength=nv
        )
        L_v = np.zeros(nv)
        L_v[1:-1] = (self.lengths[2:] - self.lengths[:-2]) / (2.0 * L.dv)
        self.L_v = L_v

    def rhs(self, lam: float):
        """psi_t at lambda = lam, zero outside the interior band.

        Each term is formed in one of two reused buffers with the
        operations of the formula in their order, and the terms are
        summed in the order of the formula, so reusing buffers changes
        no rounding.
        """
        if np.any(self.floored & self.interior_band):
            raise LevelSetError(
                "|grad psi| degenerated inside the band; reinitialize the field first"
            )
        mid = slice(1, -1)
        psi = self.psi[mid]
        psi_x, psi_y, psi_v = self.psi_x[mid], self.psi_y[mid], self.psi_v[mid]
        psi_x2, psi_y2, g2 = self.psi_x2[mid], self.psi_y2[mid], self.g2[mid]
        # psi_t accumulates in psi_vv, its end planes zeroed with the
        # rest of the outside of the interior band at the end.
        psi_t = _second_difference(self.psi, self.dv, 0)
        rate = psi_t[mid]
        psi_xx = _second_difference(psi, self.dx, 2)
        psi_yy = _second_difference(psi, self.dy, 1)
        # 2 psi_xy psi_x psi_y, shared by two terms; doubling is exact.
        xy_xy = _gradient(psi_x, self.dy, 1)
        xy_xy *= psi_x
        xy_xy *= psi_y
        xy_xy *= 2.0

        # -(2 psi_v / g2) (psi_vx psi_x + psi_vy psi_y)
        term = _gradient(psi_v, self.dx, 2)
        term *= psi_x
        buf = _gradient(psi_v, self.dy, 1)
        buf *= psi_y
        term += buf
        np.multiply(2.0, psi_v, out=buf)
        buf /= g2
        np.negative(buf, out=buf)
        term *= buf
        rate += term

        # (psi_v^2 / g2^2) (Hess psi grad psi) . grad psi
        np.multiply(psi_xx, psi_x2, out=term)
        term += xy_xy
        np.multiply(psi_yy, psi_y2, out=buf)
        term += buf
        np.square(g2, out=buf)
        np.divide(self.psi_v2[mid], buf, out=buf)
        buf *= term
        rate += buf

        # -(m - lam S) / 2 times curv |grad psi|
        np.multiply(psi_xx, psi_y2, out=term)
        term -= xy_xy
        np.multiply(psi_yy, psi_x2, out=buf)
        term += buf
        term /= g2
        np.subtract(self.m[mid], (lam * self.S)[mid, None, None], out=buf)
        buf *= -0.5
        term *= buf
        rate += term

        # Upwind v-difference, forward where a = lam L_v > 0.
        a = (lam * self.L_v)[mid, None, None]
        forward = a > 0.0
        np.subtract(self.psi[2:], psi, out=term, where=forward)
        np.subtract(psi, self.psi[:-2], out=term, where=~forward)
        term /= self.dv
        term *= a
        rate += term
        np.copyto(psi_t, 0.0, where=~self.interior_band)
        return psi_t

    def cfl_dt(self, lam: float):
        """The largest stable explicit step at lambda = lam."""
        if not np.any(self.interior_band):
            return 0.2 * self.dv * self.dv
        m = self.m[self.interior_band]
        s_max = float(np.max(self.S))
        plane_coef = float(
            np.max(m + 0.5 * np.abs(m - lam * s_max) + 2.0 * np.sqrt(m))
        )
        plane_coef = max(plane_coef, 1e-6)
        dt = 0.2 * min(self.dv * self.dv, min(self.dx, self.dy) ** 2 / plane_coef)
        a_max = float(np.max(np.abs(lam * self.L_v)))
        if a_max > 0.0:
            dt = min(dt, 0.5 * self.dv / a_max)
        return dt

    def stabilizing_lambda(self) -> float:
        """Max over band points of (psi_v^2/|grad psi|^2) / S (see levelset_lambda)."""
        if np.any(self.S <= 1e-12):
            raise LevelSetError("a slice has no normal motion; lambda is undefined")
        ratio = self.m / self.S[:, None, None]
        return float(np.max(ratio[self.band]))

    def needs_reinitialization(self) -> bool:
        """Whether the field has drifted too far from a signed distance to step.

        True when |grad psi| leaves [_GRAD_LOW, _GRAD_HIGH] at an
        interior-slice node within _FRONT_WIDTH cells of the zero set, or
        when rhs would refuse the state (|grad psi| < 0.3 in the interior
        band). Only the floor is checked in the outer band: near a
        medial axis the central differences of even an exact distance
        give |grad psi| about _GRAD_LOW, and a reinitialization there
        does not last a step. A NaN gradient counts as out of range.
        """
        if np.any(self.floored & self.interior_band):
            return True
        near = np.abs(self.psi) <= _FRONT_WIDTH * max(self.dx, self.dy)
        near[0] = near[-1] = False
        g2 = self.g2[near]
        if not g2.size:
            return False
        return not (_GRAD_LOW**2 <= g2.min() and g2.max() <= _GRAD_HIGH**2)


def levelset_lambda(L: LevelSetGrid) -> float:
    """Stabilizing lambda: max over band points of (psi_v^2/|grad psi|^2) / S."""
    return L._fields.stabilizing_lambda()


def evolve_step(L: LevelSetGrid, lam: float) -> LevelSetGrid:
    """One explicit Euler step of the level-set flow at lambda = lam.

    The step is always the largest stable one, the CFL dt at lam, and
    the endpoint slices stay pinned. run_geodesic passes every step the
    lambda it froze at t = 0, levelset_lambda of the embedding.
    """
    fields = L._fields
    dt = fields.cfl_dt(lam)
    psi = fields.rhs(lam)
    psi *= dt
    psi += L.psi
    return replace(L, psi=psi, t=L.t + dt)


def reinitialize(L: LevelSetGrid) -> LevelSetGrid:
    """Restore interior slices to exact signed distances to their zero sets.

    Distances are measured straight to the zero segments of each slice
    (_zero_segments), so the interface moves by less than half a cell.
    The nearest segment does not depend on how segments chain into
    polylines, so none are chained; all interior slices go through one
    _grid_distance pass.
    Pinned endpoint slices are left untouched. Raises when a slice has
    lost its zero set entirely.
    """
    nv = L.psi.shape[0]
    sl, p, q = L._march[:3]
    counts = np.bincount(sl, minlength=nv)
    for j in range(1, nv - 1):
        if counts[j] == 0:
            raise LevelSetError(
                f"slice {j} has an empty zero set; the curve vanished"
            )
    mine = (sl > 0) & (sl < nv - 1)
    dist = _grid_distance(L.xs, L.ys, p[mine], q[mine], sl[mine] - 1)
    psi = L.psi.copy()
    psi[1:-1] = np.where(L.psi[1:-1] < 0.0, -dist, dist)
    return replace(L, psi=psi)


@dataclass
class GeodesicResult:
    """Outcome of a level-set geodesic run.

    energy_trace holds the plain geometric energy of the extracted
    homotopy at the snapshot times; conformal_trace holds the conformal
    energy with factor e^(lambda L), the quantity the flow descends.
    residual is the last measured normal speed of the zero set, the
    largest over its interior segments (length per unit flow time; see
    run_geodesic).
    """

    grid: LevelSetGrid
    contours: SliceContours
    homotopy: HomotopyGrid
    energy_trace: np.ndarray
    conformal_trace: np.ndarray
    steps: int
    converged: bool
    residual: float
    lam: float


# Samples per slice of the homotopy a geodesic run extracts.
_N_THETA = 128


def extracted_homotopy(L: LevelSetGrid) -> HomotopyGrid:
    """Largest contour of every slice, arclength-resampled to _N_THETA and aligned.

    Slices are oriented anticlockwise and base points are chained to
    the nearest neighbor of the previous slice, so v-derivatives of the
    result measure real motion rather than parameterization drift.
    """
    return _loops_homotopy(_largest_loops(extract_slices(L)))


def _loops_homotopy(loops) -> HomotopyGrid:
    """The homotopy through one closed polyline per slice (see extracted_homotopy)."""
    rows = []
    prev_base = None
    for poly in loops:
        area = 0.5 * float(
            np.sum(
                poly[:, 0] * np.roll(poly[:, 1], -1)
                - np.roll(poly[:, 0], -1) * poly[:, 1]
            )
        )
        if area < 0.0:
            poly = poly[::-1]
        curve = resample_arclength(SampledCurve(points=poly), _N_THETA)
        pts = curve.points
        if prev_base is not None:
            shift = int(np.argmin(np.linalg.norm(pts - prev_base, axis=1)))
            pts = np.roll(pts, -shift, axis=0)
        prev_base = pts[0]
        rows.append(pts)
    return HomotopyGrid(values=np.stack(rows, axis=0), periodic=True)


def _largest_loops(extraction: SliceContours):
    loops = []
    for j, slc in enumerate(extraction.contours):
        if not slc:
            raise LevelSetError(f"slice {j} has no closed contour to extract")
        lengths = [np.sum(np.sqrt(dot(e, e))) for e in map(_edge_vectors, slc)]
        loops.append(slc[int(np.argmax(lengths))])
    return loops


def _front_speed(L: LevelSetGrid, stepped: LevelSetGrid) -> float:
    """Largest normal speed of L's interior zero set over the step to stepped.

    The speed |psi_t| / |grad psi| is read at the midpoints of L's
    interior zero segments, psi_t being the step's difference quotient
    (stepped.psi - L.psi) / dt and |grad psi| that of L's fields, so it
    takes no march and no gradient pass of its own. Pinned endpoint
    slices never move and are left out.
    """
    nv = L.psi.shape[0]
    sl, p, q = L._march[:3]
    inner = (sl > 0) & (sl < nv - 1)
    sl = sl[inner]
    mids = 0.5 * (p[inner] + q[inner])
    rate = _bilinear(stepped.psi - L.psi, L.xs, L.ys, mids, sl) / (stepped.t - L.t)
    grad = np.sqrt(_bilinear(L._fields.g2, L.xs, L.ys, mids, sl))
    return float(np.max(np.abs(rate) / grad))


def run_geodesic(
    c0: SampledCurve,
    c1: SampledCurve,
    nx: int = 64,
    ny: int = 64,
    nv: int = 17,
    max_steps: int = 1500,
    tol: float = 1e-3,
    snapshot_every: int = 50,
    box=None,
) -> GeodesicResult:
    """Geodesic homotopy between two embedded planar curves.

    Embeds the linear homotopy, freezes lambda at t = 0 (band maximum
    of the speed ratio, the level-set analog of the stable choice),
    then takes evolution steps at the CFL dt. A state is reinitialized
    before its step only when its field has drifted from a signed
    distance (Sussman, Smereka & Osher, JCP 114, 1994): when |grad psi|
    within 3 cells of the front leaves [0.5, 2], or falls below the 0.3
    that the step refuses anywhere in the band. The check reads the
    fields the step builds anyway; there is no fixed cadence.

    Convergence is judged on the zero set itself: every _MEASURE_EVERY
    steps, and at max_steps, the run reads the largest normal front
    speed |psi_t| / |grad psi| on the interior zero segments of the
    state just stepped (_front_speed; Osher & Fedkiw, Level Set Methods,
    2003), and stops when it drops below tol >= 0. The rate is read on
    the zero set only, where it is the speed of the front; the off-zero
    level sets never settle, because every slice is driven by its zero
    contour's own integrals. It is the rate of the step alone, so the
    jump of a reinitialization does not count as motion. Slices are
    extracted, at _N_THETA samples, only at t = 0, at every
    snapshot_every-th step and at the end. Non-convergence within
    max_steps is reported in the result, not raised. Unit-circle-sized
    problems typically need flow time around one, about 1000 steps at
    the default grid.
    """
    if not 0.0 <= tol < np.inf:
        raise InputDataError(f"tol must be a finite number >= 0, got {tol!r}")
    L = embed((c0, c1), nx=nx, ny=ny, nv=nv, box=box)
    fields = L._fields
    converged = False
    try:
        lam = fields.stabilizing_lambda()
    except LevelSetError:
        if float(np.max(fields.m[fields.band])) > 1e-10:
            raise
        # psi_v vanishes everywhere, so every update term vanishes
        # identically and the field is exactly stationary.
        lam = 0.0
        converged = True
    del fields  # held by L, and freed with it after the first step
    factor = ConformalFactor.exp_length(lam)
    energies = []
    conformals = []

    def record(state):
        extraction = extract_slices(state)
        grid = _loops_homotopy(_largest_loops(extraction))
        energies.append(energy(grid, EnergySpec(kind="geom_H0")).total)
        conformals.append(energy(grid, EnergySpec(kind="conformal", factor=factor)).total)
        return extraction, grid

    # recorded says whether the traces end on the current state; a run
    # that ends between snapshots extracts its final state once more.
    extraction, homotopy = record(L)
    recorded = True
    residual = 0.0 if converged else np.inf
    step = 0
    try:
        while not converged and step < max_steps:
            step += 1
            if L._fields.needs_reinitialization():
                L = reinitialize(L)
            stepped = evolve_step(L, lam)
            if step % _MEASURE_EVERY == 0 or step == max_steps:
                residual = _front_speed(L, stepped)
                converged = residual < tol
            L = stepped
            recorded = bool(snapshot_every) and step % snapshot_every == 0
            if recorded:
                extraction, homotopy = record(L)
        if not recorded:
            extraction, homotopy = record(L)
    except LevelSetError as e:
        raise LevelSetError(f"step {step}, t = {L.t:.6g}: {e}") from e
    return GeodesicResult(
        grid=L,
        contours=extraction,
        homotopy=homotopy,
        energy_trace=np.array(energies),
        conformal_trace=np.array(conformals),
        steps=step,
        converged=converged,
        residual=residual,
        lam=lam,
    )
