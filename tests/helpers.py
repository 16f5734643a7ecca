"""Shared curve and homotopy builders for the test suite."""

import math

import numpy as np

from curvemetrics.curves import (
    EPS_IMMERSED,
    SampledCurve,
    dot,
    periodic_derivative,
    scale,
    tangent_frame,
    theta_grid,
)
from curvemetrics.homotopy import HomotopyGrid, sample_homotopy


def unit_circle(n=256, radius=1.0, center=(0.0, 0.0)):
    th = theta_grid(n)
    pts = np.stack(
        [center[0] + radius * np.cos(th), center[1] + radius * np.sin(th)], axis=1
    )
    return SampledCurve(points=pts)


def ellipse(n=256, a=2.0, b=1.0):
    th = theta_grid(n)
    return SampledCurve(points=np.stack([a * np.cos(th), b * np.sin(th)], axis=1))


def translating_circle(n_theta=256, n_v=64, offset=1.0):
    """Unit circle moving right by `offset` as v runs over [0, 1]."""

    def fn(th, v):
        return np.stack([offset * v + np.cos(th), np.sin(th)], axis=1)

    return sample_homotopy(fn, n_theta, n_v)


def radial_circle(n_theta=256, n_v=64, r0=1.0, r1=2.0):
    """Concentric circles growing linearly from radius r0 to r1."""

    def fn(th, v):
        r = r0 + (r1 - r0) * v
        return np.stack([r * np.cos(th), r * np.sin(th)], axis=1)

    return sample_homotopy(fn, n_theta, n_v)


def v4_cone(n_theta=256, n_v=64):
    """Circles of radius v^4 collapsing to a point at v = 0."""

    def fn(th, v):
        return (v**4) * np.stack([np.cos(th), np.sin(th)], axis=1)

    return sample_homotopy(fn, n_theta, n_v)


def horizontal_circle_closed_form(n_theta=256, n_v=128):
    """The horizontal reparameterization of the translating unit circle.

    Closed form of the purely normal motion with the identity gauge at
    v = 0: each slice is the unit circle centered at (v, 0), traced so
    that no point moves tangentially.
    """

    def fn(th, v):
        e2v = np.exp(2.0 * v)
        denom = (1.0 + e2v) + (1.0 - e2v) * np.cos(th)
        x = v + ((1.0 - e2v) + (1.0 + e2v) * np.cos(th)) / denom
        y = 2.0 * np.exp(v) * np.sin(th) / denom
        return np.stack([x, y], axis=1)

    return sample_homotopy(fn, n_theta, n_v)


def smooth_random_grid(n_theta=64, n_v=33, seed=0, amplitude=0.08):
    """Immersed radial-graph homotopy with random smooth wobble.

    r(theta, v) = 1 + amplitude * sum of low Fourier-in-theta,
    polynomial-in-v modes, small enough to stay star-shaped.
    """
    rng = np.random.default_rng(seed)
    coef = rng.normal(size=(3, 3))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=3)

    def fn(th, v):
        r = np.ones_like(th)
        for p in range(3):
            for q in range(3):
                r = r + amplitude * coef[p, q] * np.cos((p + 1) * th + phase[p]) * v**q / (p + 1 + q)
        return np.stack([r * np.cos(th), r * np.sin(th)], axis=1)

    return sample_homotopy(fn, n_theta, n_v)


def wobbled(th, v):
    """A wobbling circle translating right by 1/2 as v runs over [0, 1]."""
    r = 1.0 + 0.05 * (1.0 - v) * np.cos(3.0 * th) + 0.04 * v * np.sin(2.0 * th)
    return np.stack([0.5 * v + r * np.cos(th), r * np.sin(th)], axis=1)


def wobbled_grid(n_theta=64, n_v=9):
    return sample_homotopy(wobbled, n_theta, n_v)


def constant_grid(n_theta=64, n_v=9):
    """The trivial homotopy: every slice is the same unit circle."""

    def fn(th, v):
        return np.stack([np.cos(th), np.sin(th)], axis=1)

    return sample_homotopy(fn, n_theta, n_v)


def figure_eight(n=128):
    """A self-intersecting closed curve (lemniscate of Gerono)."""
    th = theta_grid(n)
    return SampledCurve(
        points=np.stack([np.sin(2.0 * th) * 0.5, np.sin(th)], axis=1)
    )


def as_grid(rows, periodic=True):
    return HomotopyGrid(values=np.asarray(rows, dtype=float), periodic=periodic)


def reference_curvature(points, dtheta, scale_hint):
    """(H, T, speed) of an (..., N, n) stack straight from its points.

    The standalone curvature kernel the library had before curvature
    was read from the tangent frame: its own d_theta of the points,
    its own unit tangent, then a second d_theta pass for H = d_s T,
    with T and H zero where the speed is at or below the immersion
    floor. Tests hold the frame-based values to it bit for bit.
    """
    floor = EPS_IMMERSED * scale_hint
    deriv = periodic_derivative(points, dtheta, axis=-2)
    speed = np.sqrt(dot(deriv, deriv))
    T = scale(deriv, speed, divide=True, where=speed > floor)
    T_theta = periodic_derivative(T, dtheta, axis=-2)
    H = scale(T_theta, speed, divide=True, where=speed > floor)
    return H, T, speed


def heat_cfl_dt(c):
    """The stable explicit step of the curve flows, 0.2 (min speed dtheta)^2."""
    ds_min = float(np.min(tangent_frame(c).speed)) * c.dtheta
    return 0.2 * ds_min * ds_min


def reference_curve_flow(c, A=None, dt=None, steps=None, t_end=np.inf):
    """The curve flows as a loop of primitives, one Euler step at a time.

    The loop of integrate_heat_flow (the t_end clamp) and of the CLI
    heat/mm branch (a step count): each step takes heat_cfl_dt (dt
    None) or dt, clamped to end at t_end, and H from
    reference_curvature, and moves c by dt H / (1 + A |H|^2), with A = 0
    for the heat flow (A None). Returns every curve, index 0 the input.
    flows.iter_curve_flow must match it bit for bit.
    """
    curves = [c]
    t = 0.0
    while (steps is None or len(curves) <= steps) and t < t_end - 1e-15:
        step = heat_cfl_dt(c) if dt is None else dt
        step = min(step, t_end - t)
        H, _T, _speed = reference_curvature(c.points, c.dtheta, c.scale_hint)
        H = scale(H, 1.0 + (A or 0.0) * dot(H, H), divide=True)
        c = SampledCurve(points=c.points + step * H, scale_hint=c.scale_hint)
        t += step
        curves.append(c)
    return curves


def reference_margin(C, factor):
    """min over the grid of phi' M - phi m, from the public v* fields.

    phi and phi' are the factor on the slice lengths; the margin is
    nonnegative when the factor's lambda is stable.
    """
    from curvemetrics.flows import vstar_calculus

    fields = vstar_calculus(C)
    phi = np.atleast_1d(factor.value(fields.lengths))
    dphi = np.atleast_1d(factor.derivative(fields.lengths))
    return float(np.min((dphi * fields.big_m)[:, None] - phi[:, None] * fields.m))


def raised(fn, *args):
    """The message of the InputDataError fn(*args) raised, or None."""
    from curvemetrics.errors import InputDataError

    try:
        fn(*args)
    except InputDataError as e:
        return str(e)
    return None


def bits(x):
    """The uint64 view of a float array, for bit-for-bit comparisons."""
    return np.ascontiguousarray(x, dtype=float).view(np.uint64)


def reference_frame(C):
    """The homotopy frame of the whole grid from whole-grid derivatives.

    d_theta C is one derivative pass over all rows (periodic or open
    in theta) and d_v C one pass over all slices; the windowed frames
    must give the same bits row by row.
    """
    from curvemetrics.curves import open_derivative
    from curvemetrics.homotopy import _frame

    derivative = periodic_derivative if C.periodic else open_derivative
    W = derivative(C.values, C.dtheta, axis=1)
    return _frame(W, open_derivative(C.values, C.dv, axis=0), C.scale_hint)


def reference_per_slice_integrand(C, spec):
    """energies._per_slice_integrand before it worked in row windows.

    It builds the frame of the whole grid at once (reference_frame).
    The windowed kernel must give the same bits on every grid and for
    every kind.
    """
    from curvemetrics.curves import curvature_kernel
    from curvemetrics.energies import _normal_slices
    from curvemetrics.errors import InputDataError

    kind = spec.kind
    frame = reference_frame(C)
    if kind == "param_H0":
        return C.integrate_theta(dot(frame.V, frame.V))
    m, speed = frame.m, frame.speed
    if kind == "alpha_beta":
        # speed^beta vanishes where speed does, since beta > 0.
        return C.integrate_theta(m ** (spec.alpha / 2.0) * speed**spec.beta)
    if kind == "geom_H0":
        return _normal_slices(C, m, speed)
    if kind == "conformal":
        return _normal_slices(C, m, speed, spec.factor)
    if kind not in ("J", "MM"):
        raise InputDataError(f"kind {kind} has no homotopy energy")
    if not C.periodic:
        raise InputDataError(f"kind {kind} needs periodic slices for curvature")
    H = curvature_kernel(frame, C.dtheta)
    kappa2 = dot(H, H)
    weight = kappa2 if kind == "J" else 1.0 + spec.A * kappa2
    return C.integrate_theta(weight * m * speed)


def reference_distance_to_segments(px, py, a, b):
    """Distance from query points to the nearest segment a[k] -> b[k], all pairs.

    The level set's distance kernel before block pruning, kept
    verbatim: every (point, segment) pair is measured. The pruned
    kernel must match it bit for bit.
    """
    x = px.reshape(-1, 1)
    y = py.reshape(-1, 1)
    ax, ay = a[:, 0], a[:, 1]
    dx = b[:, 0] - ax
    dy = b[:, 1] - ay
    len_sq = np.maximum(dx * dx + dy * dy, 1e-300)
    tpar = x - ax
    tpar *= dx
    ey = y - ay
    ey *= dy
    tpar += ey
    tpar /= len_sq
    np.clip(tpar, 0.0, 1.0, out=tpar)
    ex = tpar * dx
    ex += ax
    np.subtract(x, ex, out=ex)
    np.multiply(tpar, dy, out=ey)
    ey += ay
    np.subtract(y, ey, out=ey)
    ex *= ex
    ey *= ey
    ex += ey
    return np.sqrt(ex.min(axis=1)).reshape(px.shape)


def reference_check_embedded(points, label):
    """The level set's self-intersection check before pair pruning, kept verbatim.

    Every (edge, edge) pair of the closed polygon is tested, and the
    first hit in row-major order is named. The pruned check must raise
    the same message, or not raise, on the same polygon.
    """
    from curvemetrics.errors import InputDataError

    def segments_intersect(p, p2, q, q2):
        d1 = p2 - p
        d2 = q2 - q

        def cross(a, b):
            return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]

        denom = cross(d1[:, None, :], d2[None, :, :])
        rel = q[None, :, :] - p[:, None, :]
        t = cross(rel, d2[None, :, :])
        u = cross(rel, d1[:, None, :])
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(denom != 0.0, t / denom, np.inf)
            u = np.where(denom != 0.0, u / denom, np.inf)
        eps = 1e-12
        return (t > eps) & (t < 1.0 - eps) & (u > eps) & (u < 1.0 - eps)

    a = points
    b = np.roll(points, -1, axis=0)
    hits = segments_intersect(a, b, a, b)
    n = len(points)
    idx = np.arange(n)
    gap = np.abs(idx[:, None] - idx[None, :])
    hits[(gap <= 1) | (gap == n - 1)] = False
    if np.any(hits):
        i, j = np.argwhere(hits)[0]
        raise InputDataError(
            f"{label} self-intersects (segments {i} and {j}); "
            "signed distance is undefined"
        )


def reference_cell_cases(psi):
    """Marching-squares case of every cell over the last two axes."""
    neg = psi < 0.0
    return (
        neg[..., :-1, :-1].astype(np.int8)
        + 2 * neg[..., :-1, 1:].astype(np.int8)
        + 4 * neg[..., 1:, 1:].astype(np.int8)
        + 8 * neg[..., 1:, :-1].astype(np.int8)
    )


def reference_cell_centers(psi):
    """Mean of the four corners of every cell over the last two axes."""
    return 0.25 * (
        psi[..., :-1, :-1] + psi[..., :-1, 1:] + psi[..., 1:, :-1] + psi[..., 1:, 1:]
    )


def reference_zero_segments(psi, xs, ys):
    """The level set's march before it read crossing cells only, kept verbatim.

    Case codes and cell centres are formed over the whole grid, the
    crossing cells found by a 3-D nonzero, and p and q interpolated by
    one _side_points call each. Returns (sl, p, q, p_id, q_id, key); the
    library's _zero_segments must return the same six arrays bit for bit.
    """
    from curvemetrics.levelset import _CELL_SIDES, _CELL_SWAPPED

    def side_points(psi, xs, ys, sl, iy, ix, side):
        horiz = side < 2
        ey = iy + (side == 1)
        ex = ix + (side == 3)
        ey2 = ey + ~horiz
        ex2 = ex + horiz
        a = psi[sl, ey, ex]
        t = a / (a - psi[sl, ey2, ex2])
        x = np.where(horiz, xs[ex] + t * (xs[ex2] - xs[ex]), xs[ex])
        y = np.where(horiz, ys[ey], ys[ey] + t * (ys[ey2] - ys[ey]))
        ny, nx = psi.shape[1:]
        ids = ((2 * sl + ~horiz) * ny + ey) * nx + ex
        return np.stack([x, y], axis=1), ids

    case = reference_cell_cases(psi)
    saddle = (case == 5) | (case == 10)
    code = np.where(saddle & (reference_cell_centers(psi) < 0.0), case + 16, case)
    sl, iy, ix = np.nonzero((case != 0) & (case != 15))
    code = code[sl, iy, ix]
    sides = _CELL_SIDES[code]
    second = np.flatnonzero(sides[:, 1, 0] >= 0)
    cell = np.concatenate([np.arange(len(sl)), second])
    k = np.repeat([0, 1], [len(sl), len(second)])
    pairs = sides[cell, k]
    key = 4 * cell + 2 * k + _CELL_SWAPPED[code[cell], k]
    sl, iy, ix = sl[cell], iy[cell], ix[cell]
    p, p_id = side_points(psi, xs, ys, sl, iy, ix, pairs[:, 0])
    q, q_id = side_points(psi, xs, ys, sl, iy, ix, pairs[:, 1])
    return sl, p, q, p_id, q_id, key


class ReferenceEvolutionFields:
    """The level-set evolution fields as full-grid np.gradient / np.roll passes.

    The implementation before the slice-based step, kept verbatim but
    for its interface (rhs and cfl_dt take lambda, and rhs returns psi_t
    alone), for its second differences, which add the two neighbours
    first, and for psi_vv, which the step takes implicitly and rhs
    leaves out: every difference covers every slice, and the update
    terms are masked to the interior band afterwards. cfl_dt writes the
    step rule out slice by slice, and step solves for the next psi with
    reference_v_solve. The library's step must match it bit for bit
    over the whole grid.
    """

    def __init__(self, L):
        from curvemetrics.levelset import _bilinear, _zero_segments
        from curvemetrics.errors import LevelSetError

        psi = L.psi
        dx, dy, dv = L.dx, L.dy, L.dv

        self.psi_x = np.gradient(psi, dx, axis=2)
        self.psi_y = np.gradient(psi, dy, axis=1)
        self.psi_v = np.gradient(psi, dv, axis=0)
        psi_xx = (np.roll(psi, -1, axis=2) + np.roll(psi, 1, axis=2) - 2 * psi) / dx**2
        psi_yy = (np.roll(psi, -1, axis=1) + np.roll(psi, 1, axis=1) - 2 * psi) / dy**2
        psi_xx[:, :, 0] = psi_xx[:, :, 1]
        psi_xx[:, :, -1] = psi_xx[:, :, -2]
        psi_yy[:, 0, :] = psi_yy[:, 1, :]
        psi_yy[:, -1, :] = psi_yy[:, -2, :]
        self.psi_xx = psi_xx
        self.psi_yy = psi_yy
        self.psi_xy = np.gradient(self.psi_x, dy, axis=1)

        self.g2_raw = self.psi_x**2 + self.psi_y**2
        self.g2 = np.maximum(self.g2_raw, 0.09)
        self.m = self.psi_v**2 / self.g2

        self.band = L.band_mask()
        self.interior_band = self.band.copy()
        self.interior_band[0] = False
        self.interior_band[-1] = False

        nv = psi.shape[0]
        sl, p, q = _zero_segments(psi, L.xs, L.ys)[:3]
        counts = np.bincount(sl, minlength=nv)
        neg = psi < 0.0
        leaves_box = (
            np.any(neg[:, [0, -1], 1:] != neg[:, [0, -1], :-1], axis=(1, 2))
            | np.any(neg[:, 1:, [0, -1]] != neg[:, :-1, [0, -1]], axis=(1, 2))
        )
        for j in range(nv):
            if counts[j] == 0:
                raise LevelSetError(f"slice {j} has an empty zero set; the curve vanished")
            if leaves_box[j]:
                raise LevelSetError(
                    f"slice {j}: the zero set crosses the box boundary; "
                    "the box is too small for this homotopy"
                )
        seg = np.linalg.norm(q - p, axis=1)
        mids = 0.5 * (p + q)
        self.lengths = np.bincount(sl, weights=seg, minlength=nv)
        self.S = np.bincount(
            sl, weights=_bilinear(self.m, L.xs, L.ys, mids, sl) * seg, minlength=nv
        )
        L_v = np.zeros(nv)
        L_v[1:-1] = (self.lengths[2:] - self.lengths[:-2]) / (2.0 * dv)
        self.L_v = L_v
        self.L = L

    def rhs(self, lam):
        from curvemetrics.errors import LevelSetError

        L = self.L
        if np.any(self.g2_raw[self.interior_band] < 0.09):
            raise LevelSetError(
                "|grad psi| degenerated inside the band; reinitialize the field first"
            )
        psi_vx = np.gradient(self.psi_v, L.dx, axis=2)
        psi_vy = np.gradient(self.psi_v, L.dy, axis=1)
        cross_term = -(2.0 * self.psi_v / self.g2) * (
            psi_vx * self.psi_x + psi_vy * self.psi_y
        )
        hess_gg = (
            self.psi_xx * self.psi_x**2
            + 2.0 * self.psi_xy * self.psi_x * self.psi_y
            + self.psi_yy * self.psi_y**2
        )
        ray_term = (self.psi_v**2 / self.g2**2) * hess_gg
        curv_g = (
            self.psi_xx * self.psi_y**2
            - 2.0 * self.psi_xy * self.psi_x * self.psi_y
            + self.psi_yy * self.psi_x**2
        ) / self.g2
        curv_coef = -0.5 * (self.m - lam * self.S[:, None, None])
        curvature_term = curv_coef * curv_g

        a = lam * self.L_v
        psi = L.psi
        fwd = np.zeros_like(psi)
        bwd = np.zeros_like(psi)
        fwd[:-1] = (psi[1:] - psi[:-1]) / L.dv
        bwd[1:] = (psi[1:] - psi[:-1]) / L.dv
        transport = a[:, None, None] * np.where(a[:, None, None] > 0.0, fwd, bwd)

        psi_t = cross_term + ray_term + curvature_term + transport
        return np.where(self.interior_band, psi_t, 0.0)

    def cfl_dt(self, lam):
        """0.75 of the stability limit of the semi-implicit step, slice by slice.

        dt = 1.5 / (max Q + 2 max_j |lam L_v(j)| / dv), Q taken over the
        interior-band nodes of each slice j, with K2 = 1/dx^2 + 1/dy^2:

          Q = 2 m K2 / (1 + sqrt(1 + m K2 dv^2))
              + (5 / min(dx, dy)^2) (m + |m - lam S_j| / 2)

        and Q = 0 where the band is empty. When the whole denominator is
        0, dt = 1.5 dv^2 / 4.
        """
        L = self.L
        k2 = 1.0 / L.dx**2 + 1.0 / L.dy**2
        q_max = 0.0
        for j in range(1, L.psi.shape[0] - 1):
            m = self.m[j][self.interior_band[j]]
            if not m.size:
                continue
            q = (
                2.0 * m * k2 / (1.0 + np.sqrt(1.0 + m * k2 * L.dv**2))
                + (5.0 / min(L.dx, L.dy) ** 2) * (m + 0.5 * np.abs(m - lam * self.S[j]))
            )
            q_max = max(q_max, float(np.max(q)))
        a_max = max(abs(lam * a) for a in self.L_v)
        denominator = q_max + 2.0 * a_max / L.dv
        if denominator == 0.0:
            return 1.5 * L.dv**2 / 4.0
        return 1.5 / denominator

    def step(self, lam):
        """The next psi: reference_v_solve of psi + dt rhs at dt = cfl_dt."""
        dt = self.cfl_dt(lam)
        b = self.L.psi + dt * self.rhs(lam)
        return reference_v_solve(b, self.interior_band, dt / self.L.dv**2)

    def lam_ratio(self):
        """levelset_lambda's value: the band maximum of m / S."""
        from curvemetrics.errors import LevelSetError

        if np.any(self.S <= 1e-12):
            raise LevelSetError("a slice has no normal motion; lambda is undefined")
        ratio = self.m / self.S[:, None, None]
        return float(np.max(ratio[self.band]))


def reference_v_solve(b, band, r):
    """Solve (I - r B D_vv) x = b slice by slice, as levelset._v_solve does.

    Row j of a column reads -w_j x_{j-1} + (1 + 2 w_j) x_j - w_j x_{j+1}
    = b_j, with w_j = r on band nodes of interior slices and 0 elsewhere.
    The rows are eliminated in the library's order: slice 1 against
    slice 0, slice nv - 2 against slice nv - 1, then inward in pairs.
    Each eliminated row is held as (pivot, right-hand side), with
    x_j = (rhs_j + w_j x_next) / pivot_j, x_next its neighbour toward
    the middle.
    """
    nv = len(b)
    w = [np.where(band[j], r, 0.0) if 0 < j < nv - 1 else np.zeros(b.shape[1:]) for j in range(nv)]
    pivot = {0: np.ones(b.shape[1:]), nv - 1: np.ones(b.shape[1:])}
    rhs = {0: b[0], nv - 1: b[-1]}
    top, bottom = 0, nv - 1
    while bottom - top > 2:
        for j, k in ((top + 1, top), (bottom - 1, bottom)):
            factor = w[j] / pivot[k]
            pivot[j] = (1.0 + 2.0 * w[j]) - factor * w[k]
            rhs[j] = b[j] + factor * rhs[k]
        top += 1
        bottom -= 1
    x = {0: b[0], nv - 1: b[-1]}
    if bottom - top == 2:
        # One middle row, both neighbours eliminated into it.
        j = top + 1
        f, g = w[j] / pivot[top], w[j] / pivot[bottom]
        x[j] = (b[j] + (f * rhs[top] + g * rhs[bottom])) / (
            (1.0 + 2.0 * w[j]) - (f * w[top] + g * w[bottom])
        )
    else:
        # Two middle rows, each with the other eliminated into it.
        f, g = w[top] / pivot[bottom], w[bottom] / pivot[top]
        x[top] = (rhs[top] + f * rhs[bottom]) / (pivot[top] - f * w[bottom])
        x[bottom] = (rhs[bottom] + g * rhs[top]) / (pivot[bottom] - g * w[top])
        top -= 1
        bottom += 1
    for j in range(top, 0, -1):
        x[j] = (rhs[j] + w[j] * x[j + 1]) / pivot[j]
    for j in range(bottom, nv - 1):
        x[j] = (rhs[j] + w[j] * x[j - 1]) / pivot[j]
    return np.stack([x[j] for j in range(nv)])


def reference_feature_positions(feats, s):
    """Points at arclengths s along a pulley feature chain, one masked pass per feature.

    The implementation before the gathered per-feature tables, kept
    verbatim. The library's _feature_positions must match it bit for bit.
    """
    lengths = np.array([f[-1] for f in feats])
    cum = np.concatenate([[0.0], np.cumsum(lengths)])
    total = cum[-1]
    s = np.clip(np.asarray(s, dtype=float), 0.0, total)
    idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, len(feats) - 1)
    out = np.empty((s.size, 2))
    for i, f in enumerate(feats):
        mask = idx == i
        if not np.any(mask):
            continue
        local = (s[mask] - cum[i]) / f[-1]
        if f[0] == "seg":
            _, p0, p1, _len = f
            out[mask] = p0[None, :] + local[:, None] * (p1 - p0)[None, :]
        else:
            _, center, r, a0, a1, _len = f
            ang = a0 + local * (a1 - a0)
            out[mask] = center[None, :] + r * np.stack(
                [np.cos(ang), np.sin(ang)], axis=1
            )
    return out


def reference_zigzag_quad(cone, phase, v_lo, v_hi, n_theta, n_v):
    """ZigzagCone._quad with every field recomputed for each v row.

    The implementation before Z and d_v were hoisted out of the row
    loop, kept verbatim. The library's _quad must match it bit for bit.
    """
    from curvemetrics.counterexamples import _sawtooth

    def sawtooth_slope(z, eps):
        r = np.mod(z, 2.0 * eps)
        return np.where(r <= eps, 1.0, -1.0)

    def phase_fields(theta, v):
        if phase == 1:
            Z = _sawtooth(theta, cone.epsilon)
            Zp = sawtooth_slope(theta, cone.epsilon)
            rho = (2.0 * v / cone.epsilon) * Z
            d_v = (2.0 / cone.epsilon) * Z
            d_theta = (2.0 * v / cone.epsilon) * Zp
        else:
            Z = _sawtooth(theta + cone.epsilon, cone.epsilon)
            Zp = sawtooth_slope(theta + cone.epsilon, cone.epsilon)
            rho = 1.0 - (2.0 * (1.0 - v) / cone.epsilon) * Z
            d_v = (2.0 / cone.epsilon) * Z
            d_theta = -(2.0 * (1.0 - v) / cone.epsilon) * Zp
        return rho, d_v, d_theta

    def normal_integrand(theta, v):
        rho, d_v, d_theta = phase_fields(theta, v)
        speed_sq = rho * rho + d_theta * d_theta
        out = np.zeros_like(speed_sq)
        good = speed_sq > 0.0
        out[good] = (d_v[good] ** 2) * (rho[good] ** 2) / np.sqrt(speed_sq[good])
        return out

    per_seg = max(16, int(math.ceil(n_theta / (2 * cone.k))))
    m_theta = 2 * cone.k * per_seg
    thetas = (np.arange(m_theta) + 0.5) * (2.0 * np.pi / m_theta)
    vs = v_lo + (np.arange(n_v) + 0.5) * ((v_hi - v_lo) / n_v)
    total = 0.0
    for v in vs:
        total += float(np.sum(normal_integrand(thetas, v)))
    return total * (2.0 * np.pi / m_theta) * ((v_hi - v_lo) / n_v)


def reference_quotient_shift(d1, d2):
    """dirfn_distance(d1, d2, "quotient_shift") with each shift built by concatenation.

    The implementation before the shifts became slices of one extended
    array, kept verbatim. The library must match it bit for bit.
    """
    from curvemetrics.shapedist import _trapezoid_weights

    w = _trapezoid_weights(d1.m_intervals)
    t1 = d1.theta_of_s
    t2 = d2.theta_of_s
    m = d2.m_intervals
    body = t2[:-1]
    best = np.inf
    for k in range(m):
        shifted_body = np.concatenate(
            [body[k:], body[:k] + 2.0 * np.pi * d2.winding]
        )
        shifted = np.concatenate([shifted_body, [shifted_body[0] + 2.0 * np.pi * d2.winding]])
        diff = t1 - shifted
        b = float(w @ diff) / (2.0 * np.pi)
        value = float(np.sqrt(w @ (diff - b) ** 2))
        best = min(best, value)
    return best
