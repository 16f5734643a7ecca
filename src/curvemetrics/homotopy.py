"""Homotopy grids joining two curves and their reparameterizations.

A homotopy is sampled on a tensor grid: values[j, i] = C(theta_i, v_j)
with v_j = j/(N_v - 1) on [0, 1] inclusive. The theta axis is periodic
(theta_i = 2*pi*i/N_theta) for families of closed curves; a few of the
pathological families live on the open square [0, 1]^2 instead, which
the periodic flag records. Open grids use u_i = i/(N_theta - 1)
inclusive, one-sided derivatives at the u ends, and non-periodic
trapezoid quadrature.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .curves import (
    SampledCurve,
    TangentFrame,
    _bbox_diagonal,
    _resample_rows,
    derivative_frame,
    dot,
    open_derivative,
    periodic_derivative,
    scale,
    theta_grid,
)
from .errors import GridTooCoarseError, InputDataError


@dataclass
class HomotopyGrid:
    """Sampled homotopy C(theta_i, v_j) stored as values[j, i]."""

    values: np.ndarray
    periodic: bool = True

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 3:
            raise InputDataError("homotopy values must have shape (N_v, N_theta, n)")
        if vals.shape[0] < 2:
            raise InputDataError("a homotopy needs at least 2 slices in v")
        if vals.shape[1] < 3:
            raise InputDataError("a homotopy needs at least 3 samples in theta")
        if vals.shape[2] < 2:
            raise InputDataError("homotopy values live in R^n with n >= 2")
        if not np.all(np.isfinite(vals)):
            raise InputDataError("homotopy values contain non-finite entries")
        self.values = vals

    @property
    def n_v(self):
        return self.values.shape[0]

    @property
    def n_theta(self):
        return self.values.shape[1]

    @property
    def dim(self):
        return self.values.shape[2]

    @property
    def dv(self):
        return 1.0 / (self.n_v - 1)

    @property
    def dtheta(self):
        if self.periodic:
            return 2.0 * np.pi / self.n_theta
        return 1.0 / (self.n_theta - 1)

    @cached_property
    def scale_hint(self):
        """Bounding-box diagonal of all samples, computed once per grid.

        Nothing writes to values after a grid is built, so the cache
        cannot go stale.
        """
        return _bbox_diagonal(self.values.reshape(-1, self.dim))

    def v_grid(self):
        return np.linspace(0.0, 1.0, self.n_v)

    def theta_values(self):
        if self.periodic:
            return theta_grid(self.n_theta)
        return np.linspace(0.0, 1.0, self.n_theta)

    def slice_curve(self, j) -> SampledCurve:
        if not self.periodic:
            raise InputDataError("open-square grids have no closed slice curves")
        return SampledCurve(points=self.values[j].copy(), scale_hint=self.scale_hint)

    @property
    def endpoints(self):
        return self.slice_curve(0), self.slice_curve(self.n_v - 1)

    def integrate_theta(self, samples):
        """Quadrature along theta of per-sample values (..., N_theta)."""
        if self.periodic:
            return np.sum(samples, axis=-1) * self.dtheta
        return np.trapezoid(samples, dx=self.dtheta, axis=-1)

    def integrate_v(self, per_slice):
        """Trapezoid quadrature along v of per-slice values (N_v, ...)."""
        return np.trapezoid(per_slice, dx=self.dv, axis=0)


def sample_homotopy(fn, n_theta, n_v, periodic=True) -> HomotopyGrid:
    """Sample fn(thetas, v) row by row into a homotopy grid.

    fn receives the full theta (or u) grid and one v value and must
    return an (N_theta, n) array.
    """
    thetas = theta_grid(n_theta) if periodic else np.linspace(0.0, 1.0, n_theta)
    vs = np.linspace(0.0, 1.0, n_v)
    rows = [np.asarray(fn(thetas, v), dtype=float) for v in vs]
    return HomotopyGrid(values=np.stack(rows, axis=0), periodic=periodic)


def linear_homotopy(c0: SampledCurve, c1: SampledCurve, n_v: int) -> HomotopyGrid:
    """Pointwise linear interpolation C(theta, v) = (1 - v) c0 + v c1."""
    if c0.n_samples != c1.n_samples or c0.dim != c1.dim:
        raise InputDataError(
            f"endpoint curves disagree: {c0.points.shape} vs {c1.points.shape}"
        )
    if n_v < 2:
        raise InputDataError("a homotopy needs at least 2 slices in v")
    vs = np.linspace(0.0, 1.0, n_v)[:, None, None]
    values = (1.0 - vs) * c0.points[None] + vs * c1.points[None]
    return HomotopyGrid(values=values, periodic=True)


@dataclass
class HomotopyFrame(TangentFrame):
    """The tangent frame of d_theta C with the normal speed of a homotopy.

    To the frame's speed, T and floor it adds V = d_v C, tangential =
    V . T, c_vstar = V - (V . T) T, the normal motion C_v*, and m =
    |C_v*|^2. The energies, lambda, reparameterizations and v*
    calculus all read m from here.
    """

    V: np.ndarray
    tangential: np.ndarray
    c_vstar: np.ndarray
    m: np.ndarray


def _frame(W, V, scale_hint) -> HomotopyFrame:
    """The frame of stacks W = d_theta C and V = d_v C of shape (rows, N_theta, n)."""
    frame = derivative_frame(W, scale_hint)
    tangential = dot(V, frame.T)
    c_vstar = V - scale(frame.T, tangential)
    return HomotopyFrame(
        **vars(frame), V=V, tangential=tangential, c_vstar=c_vstar,
        m=dot(c_vstar, c_vstar),
    )


# Bytes of grid values in one row window. The frame of a window holds
# about ten arrays of its size, so a window's working set stays a few
# MB, whatever the size of the grid.
_WINDOW_BYTES = 1 << 19


def row_windows(C: HomotopyGrid):
    """(start, stop) of consecutive windows of v-rows that cover the grid.

    Each window holds as many whole rows as fit _WINDOW_BYTES, one at
    least, so a small grid is one window.
    """
    rows = max(1, _WINDOW_BYTES // C.values[0].nbytes)
    return [(a, min(a + rows, C.n_v)) for a in range(0, C.n_v, rows)]


def window_d_v(C: HomotopyGrid, start, stop) -> np.ndarray:
    """Rows start:stop of d_v C, bit for bit, from those rows and their halo.

    The differenced slab reaches one row past each end of the window
    and spans at least three rows, so the end rows of the grid keep
    the three-point formula (only a two-row grid takes the slope).
    Over all rows the slab is the whole grid.
    """
    lo = max(min(start - 1, C.n_v - 3), 0)
    hi = min(max(stop + 1, 3), C.n_v)
    return open_derivative(C.values[lo:hi], C.dv, axis=0)[start - lo : stop - lo]


def homotopy_frame(C: HomotopyGrid, start=0, stop=None) -> HomotopyFrame:
    """The frame of the rows start:stop of the grid, all rows by default.

    A window's fields are those rows of the whole-grid frame bit for
    bit; the floor comes from the scale hint of the whole grid.
    """
    stop = C.n_v if stop is None else stop
    rows = C.values[start:stop]
    derivative = periodic_derivative if C.periodic else open_derivative
    W = derivative(rows, C.dtheta, axis=1)
    return _frame(W, window_d_v(C, start, stop), C.scale_hint)


def _per_row(C: HomotopyGrid, reduce):
    """reduce(frame) of every window of rows, joined along the last axis.

    reduce maps the frame of a window (row_windows) to values whose
    last axis runs over the window's rows, so the memory is the grid
    plus about one window's frame. A reduction that works row by row
    gives the bits it would give on the whole-grid frame.
    """
    return np.concatenate(
        [reduce(homotopy_frame(C, a, b)) for a, b in row_windows(C)], axis=-1
    )


def length_profile(C: HomotopyGrid) -> np.ndarray:
    """Arclength l_j = len(C(., v_j)) of every slice, an (N_v,) array."""
    return _per_row(C, lambda frame: C.integrate_theta(frame.speed))


def periodic_interp(values, tau, dtheta):
    """Interpolate periodic samples values[i] = f(i * dtheta) at tau.

    Uses the four-point piecewise Lagrange cubic, or the two-point
    linear rule below 8 samples. tau may be any array; it wraps
    periodically.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    u = np.asarray(tau, dtype=float) / dtheta
    base = np.floor(u).astype(int)
    t = u - base
    i1 = np.mod(base, n)
    if n < 8:
        i2 = np.mod(i1 + 1, n)
        w = t.reshape(t.shape + (1,) * (values.ndim - 1))
        return (1.0 - w) * values[i1] + w * values[i2]
    i0 = np.mod(i1 - 1, n)
    i2 = np.mod(i1 + 1, n)
    i3 = np.mod(i1 + 2, n)
    # Lagrange cubic on nodes at t = -1, 0, 1, 2.
    w0 = -t * (t - 1.0) * (t - 2.0) / 6.0
    w1 = (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0
    w2 = -(t + 1.0) * t * (t - 2.0) / 2.0
    w3 = (t + 1.0) * t * (t - 1.0) / 6.0
    shape = t.shape + (1,) * (values.ndim - 1)
    return (
        w0.reshape(shape) * values[i0]
        + w1.reshape(shape) * values[i1]
        + w2.reshape(shape) * values[i2]
        + w3.reshape(shape) * values[i3]
    )


def reparam_arclength(C: HomotopyGrid) -> HomotopyGrid:
    """Resample every slice at equal arclength spacing.

    Slice images are unchanged up to interpolation on the sample
    polygon; the first sample of each slice stays put, which fixes the
    gauge freedom of the arc parameter.
    """
    if not C.periodic:
        raise InputDataError("arclength reparameterization needs periodic slices")
    homotopy_frame(C).require_immersed("arclength reparameterization")
    values = _resample_rows(C.values, C.n_theta, C.scale_hint)
    return HomotopyGrid(values=values, periodic=True)


@dataclass
class HorizontalResult:
    """Output of the horizontal reparameterization.

    grid is the reparameterized homotopy, phi the reparameterization
    map phi(theta_i, v_j) with phi(theta, 0) = theta, and residual the
    measured max |pi_T d_v C| of the output.
    """

    grid: HomotopyGrid
    phi: np.ndarray
    residual: float


def _tangential_rate(frame: HomotopyFrame, what):
    """Field -<d_v C, T> / |dC/dtheta| used by the horizontal ODE."""
    frame.require_immersed(what)
    return -frame.tangential / frame.speed


def max_tangential_speed(C: HomotopyGrid) -> float:
    """max over the grid of |<d_v C, T>|, the tangential motion magnitude."""
    rows = _per_row(C, lambda frame: np.max(np.abs(frame.tangential), axis=-1))
    return float(np.max(rows))


def reparam_horizontal(C: HomotopyGrid) -> HorizontalResult:
    """Reparameterize so the v-motion is purely normal.

    Integrates d_v phi = -<d_v C(phi, v), T(phi, v)> / |dC/dtheta(phi, v)|
    with phi(theta, 0) = theta, classical RK4 in v with half-step fields
    from averaged adjacent slices, periodic cubic interpolation in theta
    (linear below 8 samples). Raises GridTooCoarseError when the map
    stops being monotone in theta on the grid.
    """
    if not C.periodic:
        raise InputDataError("horizontal reparameterization needs periodic slices")
    dtheta = C.dtheta
    dv = C.dv
    thetas = theta_grid(C.n_theta)
    values = C.values

    rate_rows = _tangential_rate(homotopy_frame(C), "horizontal reparameterization")
    # Half-step slice j lies midway between slices j and j + 1.
    mid_points = 0.5 * (values[:-1] + values[1:])
    mid_dv = (values[1:] - values[:-1]) / dv
    mid_frame = _frame(
        periodic_derivative(mid_points, dtheta, axis=1), mid_dv, C.scale_hint
    )
    rate_mids = _tangential_rate(mid_frame, "the horizontal half-step")

    phi = np.empty((C.n_v, C.n_theta))
    phi[0] = thetas
    for j in range(C.n_v - 1):
        p = phi[j]
        k1 = periodic_interp(rate_rows[j], p, dtheta)
        k2 = periodic_interp(rate_mids[j], p + 0.5 * dv * k1, dtheta)
        k3 = periodic_interp(rate_mids[j], p + 0.5 * dv * k2, dtheta)
        k4 = periodic_interp(rate_rows[j + 1], p + dv * k3, dtheta)
        phi[j + 1] = p + (dv / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    # phi = theta + g with g periodic in theta, so psi = 1 + dg/dtheta.
    psi = 1.0 + periodic_derivative(phi - thetas[None, :], dtheta, axis=1)
    if np.min(psi) <= 1e-8:
        raise GridTooCoarseError(
            "reparameterization map lost monotonicity; the grid is too coarse "
            "to resolve the tangential stretching"
        )

    rows = [periodic_interp(C.values[j], phi[j], dtheta) for j in range(C.n_v)]
    grid = HomotopyGrid(values=np.stack(rows, axis=0), periodic=True)
    residual = max_tangential_speed(grid)
    return HorizontalResult(grid=grid, phi=phi, residual=residual)


def shift_unwind(C: HomotopyGrid, phi_of_v) -> HomotopyGrid:
    """Rigid per-slice shift C~(theta, v) = C(theta + phi(v), v)."""
    if not C.periodic:
        raise InputDataError("shift unwinding needs periodic slices")
    phi = np.asarray(phi_of_v, dtype=float)
    if phi.shape != (C.n_v,):
        raise InputDataError(f"phi must have one entry per slice, got shape {phi.shape}")
    thetas = theta_grid(C.n_theta)
    rows = [
        periodic_interp(C.values[j], thetas + phi[j], C.dtheta) for j in range(C.n_v)
    ]
    return HomotopyGrid(values=np.stack(rows, axis=0), periodic=True)


def optimal_unwind_shift(C: HomotopyGrid):
    """Shift profile phi(v) minimizing the tangential energy of the shifted grid.

    Minimizing int |pi_T d_v C~|^2 ds over rigid shifts gives per slice
    d_v phi = -int <d_v C, T> |dC/dtheta| dtheta / int |dC/dtheta|^2 dtheta,
    which subtracts the mean tangential speed; phi is its cumulative
    trapezoid with phi(0) = 0.
    """
    if not C.periodic:
        raise InputDataError("shift unwinding needs periodic slices")
    frame = homotopy_frame(C).require_immersed("optimal unwinding shift")
    numer = C.integrate_theta(frame.tangential * frame.speed)
    denom = C.integrate_theta(frame.speed * frame.speed)
    rate = -numer / denom
    phi = np.concatenate([[0.0], np.cumsum(0.5 * (rate[1:] + rate[:-1]) * C.dv)])
    return phi
