"""Discrete calculus on closed sampled curves.

A curve is N uniform samples on the periodic parameter grid
theta_i = 2*pi*i/N, stored without a duplicated closing point.
Derivatives use periodic central differences and quadrature is the
periodic trapezoid rule, which on a uniform periodic grid is a plain
sum times the grid spacing.

Deformations of a curve are plain (N, n) float arrays, one vector per
sample; no wrapper type is used for them.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InputDataError, NotImmersedError

# Relative immersion threshold: a discrete derivative (or edge) counts
# as zero when its length is below EPS_IMMERSED times the curve's
# scale_hint.
EPS_IMMERSED = 1e-9


def theta_grid(n):
    """Uniform periodic parameter grid theta_i = 2*pi*i/n."""
    return 2.0 * np.pi * np.arange(n) / n


def dot(a, b):
    """Dot products of (..., n) arrays over their last (component) axis.

    The sum runs left to right from a[..., 0] * b[..., 0] + 0.0, the
    order numpy uses for np.sum(a * b, axis=-1) over fewer than eight
    components, so the two agree bit for bit there; the +0.0 turns a
    sum of -0.0 products into +0.0 as np.sum does. Spelled out, it is
    several times faster than the reduction over a length-2 axis.
    """
    out = a[..., 0] * b[..., 0] + 0.0
    for i in range(1, a.shape[-1]):
        out += a[..., i] * b[..., i]
    return out


def _bbox_diagonal(points):
    """Bounding-box diagonal of (M, n) points, 1.0 when they coincide.

    The extent is taken one column at a time, which is exact and much
    faster than a reduction over the long axis of a narrow array.
    """
    extent = np.array([col.max() - col.min() for col in points.T])
    diag = float(np.linalg.norm(extent))
    return diag if diag > 0.0 else 1.0


def scale(V, s, divide=False, where=True):
    """V * s, or V / s with divide, over the component axis of (..., n) V.

    s broadcasts against V[..., 0]. Entries where `where` is False are
    zero. One ufunc call per component with out= gives the bits of
    V * s[..., None] several times faster than the broadcast over a
    length-2 axis.
    """
    op = np.divide if divide else np.multiply
    out = np.zeros_like(V) if where is not True else np.empty_like(V)
    for i in range(V.shape[-1]):
        op(V[..., i], s, out=out[..., i], where=where)
    return out


def _along(axis, start, stop):
    """Index of the rows start:stop along axis."""
    return (slice(None),) * axis + (slice(start, stop),)


def periodic_derivative(values, spacing, axis=0):
    """Central-difference derivative along a periodic axis.

    The two-neighbor stencil wraps around the ends: each stencil term
    is a slice of one copy of values padded with a wrap row at each
    end.
    """
    v = np.asarray(values, dtype=float)
    if not -v.ndim <= axis < v.ndim:
        raise InputDataError(f"axis {axis} is out of range for a {v.ndim}-d array")
    axis %= v.ndim
    w = np.concatenate([v[_along(axis, -1, None)], v, v[_along(axis, 0, 1)]], axis=axis)
    out = w[_along(axis, 2, None)] - w[_along(axis, None, -2)]
    out /= 2.0 * spacing
    return out


def open_derivative(values, spacing, axis=0):
    """Derivative along a non-periodic axis.

    Central differences in the interior with one-sided three-point
    stencils at both ends. Two samples define only the line through
    them, so both get its slope, the exact derivative of that line.
    """
    v = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
    m = v.shape[0]
    if m < 2:
        raise InputDataError("need at least 2 samples for a derivative")
    out = np.empty_like(v)
    if m == 2:
        out[:] = (v[1] - v[0]) / spacing
    else:
        # Written in place: a temporary of a large grid costs more than
        # the subtraction itself.
        np.subtract(v[2:], v[:-2], out=out[1:-1])
        out[1:-1] /= 2.0 * spacing
        out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * spacing)
        out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * spacing)
    return np.moveaxis(out, 0, axis)


def _open_derivative_adjoint(y, spacing):
    """The transpose of open_derivative along axis 0, applied to y.

    Each output row of the stencil scatters its weights back onto the
    rows it read; the two-sample slope scatters (y_0 + y_1) / spacing.
    """
    y = np.asarray(y, dtype=float) / spacing
    if y.shape[0] == 2:
        return np.stack([-(y[0] + y[1]), y[0] + y[1]])
    out = np.zeros_like(y)
    out[2:] += 0.5 * y[1:-1]
    out[:-2] -= 0.5 * y[1:-1]
    out[:3] += np.multiply.outer([-1.5, 2.0, -0.5], y[0])
    out[-3:] += np.multiply.outer([0.5, -2.0, 1.5], y[-1])
    return out


@dataclass
class SampledCurve:
    """Closed curve sampled at theta_i = 2*pi*i/N, no closing duplicate.

    scale_hint is the positive length used for relative tolerances; by
    default it is the bounding-box diagonal of the samples (1.0 for a
    fully degenerate curve).
    """

    points: np.ndarray
    scale_hint: float = 0.0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise InputDataError("curve points must be a 2d array of shape (N, n)")
        if pts.shape[0] < 3:
            raise InputDataError(f"need at least 3 samples, got {pts.shape[0]}")
        if pts.shape[1] < 2:
            raise InputDataError(f"curves live in R^n with n >= 2, got n = {pts.shape[1]}")
        if not np.all(np.isfinite(pts)):
            raise InputDataError("curve points contain non-finite values")
        self.points = pts
        if self.scale_hint <= 0.0:
            self.scale_hint = _bbox_diagonal(pts)

    @property
    def n_samples(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]

    @property
    def dtheta(self):
        return 2.0 * np.pi / self.points.shape[0]

    def thetas(self):
        return theta_grid(self.n_samples)

    def edge_lengths(self):
        """Lengths |p_{i+1} - p_i| of the N polygon edges (wrapping)."""
        edges = _edge_vectors(self.points)
        return np.sqrt(dot(edges, edges))

    def derivative(self):
        """Central-difference derivative of the position samples."""
        return periodic_derivative(self.points, self.dtheta, axis=0)


@dataclass
class TangentFrame:
    """Speeds and unit tangents of an (..., N, n) stack of theta-derivatives.

    speed = |d_theta C|; T = d_theta C / speed, zero where speed <=
    floor = EPS_IMMERSED * scale_hint, and there the normal projector
    is the identity. Curves and homotopy grids (HomotopyFrame) share
    this frame.
    """

    speed: np.ndarray
    T: np.ndarray
    floor: float

    def require_immersed(self, what):
        """This frame, or NotImmersedError naming the first degenerate slice or sample."""
        bad = self.speed <= self.floor
        if bad.any():
            where = "an immersed curve; sample" if bad.ndim == 1 else "immersed slices; slice"
            first = np.argwhere(bad)[0, 0]
            raise NotImmersedError(f"{what} needs {where} {first} is degenerate")
        return self

    def project_normal(self, vectors):
        v = _match_deformation(vectors, self.T)
        return v - scale(self.T, dot(v, self.T))


@dataclass
class CurvatureField:
    """Curvature data of a curve.

    H is the curvature vector (the arclength derivative of the unit
    tangent), kappa the signed planar scalar (None for n > 2), and
    total_mass the sum of absolute turning angles of the sample
    polygon, the discrete total variation of the tangent direction.
    """

    H: np.ndarray
    kappa: np.ndarray | None
    total_mass: float


@dataclass
class DirectionFunctionSample:
    """Tangent-angle function of a unit-speed planar curve.

    theta_of_s has M+1 samples at s_k = 2*pi*k/M on [0, 2*pi] inclusive;
    the last sample equals the first plus 2*pi*winding.
    """

    theta_of_s: np.ndarray
    winding: int = field(default=0)

    def __post_init__(self):
        th = np.asarray(self.theta_of_s, dtype=float)
        if th.ndim != 1 or th.shape[0] < 4:
            raise InputDataError("direction function needs a 1d array of at least 4 samples")
        self.theta_of_s = th

    @property
    def m_intervals(self):
        return self.theta_of_s.shape[0] - 1

    def s_grid(self):
        return np.linspace(0.0, 2.0 * np.pi, self.theta_of_s.shape[0])


def _edge_vectors(points):
    """Edges p_{i+1} - p_i of closed polygons, an (..., N, n) stack, wrapping."""
    edges = np.empty_like(points)
    np.subtract(points[..., 1:, :], points[..., :-1, :], out=edges[..., :-1, :])
    np.subtract(points[..., :1, :], points[..., -1:, :], out=edges[..., -1:, :])
    return edges


def _match_deformation(vectors, reference):
    v = np.asarray(vectors, dtype=float)
    if v.shape != reference.shape:
        raise InputDataError(
            f"deformation shape {v.shape} does not match curve samples {reference.shape}"
        )
    return v


def immersed(c: SampledCurve) -> bool:
    """True when every polygon edge exceeds the immersion threshold."""
    return bool(np.all(c.edge_lengths() > EPS_IMMERSED * c.scale_hint))


def _per_speed(f, speed, floor):
    """f / speed per sample, zero where speed <= floor."""
    return scale(f, speed, divide=True, where=speed > floor)


def derivative_frame(deriv, scale_hint) -> TangentFrame:
    """The frame of an (..., N, n) stack of theta-derivatives.

    The one place speeds and unit tangents are formed; the floor is
    EPS_IMMERSED * scale_hint.
    """
    floor = EPS_IMMERSED * scale_hint
    speed = np.sqrt(dot(deriv, deriv))
    return TangentFrame(speed=speed, T=_per_speed(deriv, speed, floor), floor=floor)


def tangent_frame(c: SampledCurve) -> TangentFrame:
    """The frame of a curve's central-difference derivative."""
    return derivative_frame(c.derivative(), c.scale_hint)


def frame_length(frame: TangentFrame, dtheta) -> float:
    """Length of a curve from its frame, the periodic trapezoid of the speed."""
    return float(np.sum(frame.speed) * dtheta)


def arclength(c: SampledCurve) -> float:
    """Curve length, the periodic trapezoid of the derivative magnitude."""
    return frame_length(tangent_frame(c), c.dtheta)


def curvature_kernel(frame: TangentFrame, dtheta):
    """Curvature vector H = d_s T = d_theta T / speed of a frame.

    H is zero where T is. The frame's stack has its periodic sample
    axis second to last, so one (N, n) curve and a whole (N_v, N, n)
    homotopy grid go in the same way. curvature(), the curve flows,
    the bending energies and the v* calculus all take H from here, so
    their values agree exactly where they overlap.
    """
    T_theta = periodic_derivative(frame.T, dtheta, axis=-2)
    return _per_speed(T_theta, frame.speed, frame.floor)


def planar_normal(T):
    """Unit normal a quarter turn anticlockwise from the tangent."""
    N = np.empty_like(T)
    N[:, 0] = -T[:, 1]
    N[:, 1] = T[:, 0]
    return N


def _turning_mass(points):
    """Sum of absolute turning angles at the polygon vertices."""
    edges = _edge_vectors(points)
    prev = np.roll(edges, 1, axis=0)
    inner = dot(prev, edges)
    if points.shape[1] == 2:
        cross = np.abs(prev[:, 0] * edges[:, 1] - prev[:, 1] * edges[:, 0])
    else:
        n2 = dot(prev, prev) * dot(edges, edges) - inner * inner
        cross = np.sqrt(np.maximum(n2, 0.0))
    return float(np.sum(np.arctan2(cross, inner)))


def curvature(c: SampledCurve) -> CurvatureField:
    """Curvature vector, planar signed curvature, and turning-angle mass."""
    if not immersed(c):
        raise NotImmersedError("curvature needs an immersed curve")
    frame = tangent_frame(c).require_immersed("curvature")
    H = curvature_kernel(frame, c.dtheta)
    kappa = None
    if c.dim == 2:
        kappa = dot(H, planar_normal(frame.T))
    return CurvatureField(H=H, kappa=kappa, total_mass=_turning_mass(c.points))


def lift_direction(c: SampledCurve) -> DirectionFunctionSample:
    """Continuous tangent-angle lift of a unit-speed planar curve of length 2*pi.

    The branch is chosen by accumulating per-sample angle increments
    forced into (-pi, pi], so the sampling must resolve the turning
    (less than half a turn between neighbors).
    """
    if c.dim != 2:
        raise InputDataError("direction functions are defined for planar curves only")
    if not immersed(c):
        raise NotImmersedError("direction lift needs an immersed curve")
    deriv = c.derivative()
    frame = derivative_frame(deriv, c.scale_hint)
    length = frame_length(frame, c.dtheta)
    if abs(length - 2.0 * np.pi) > 0.01 * 2.0 * np.pi:
        raise InputDataError(
            f"curve length {length:.6g} is not 2*pi; normalize before lifting"
        )
    speed = frame.speed
    mean = float(np.mean(speed))
    if (speed.max() - speed.min()) > 0.01 * mean:
        raise InputDataError("direction lift needs uniform arclength sampling")
    angles = np.arctan2(deriv[:, 1], deriv[:, 0])
    steps = np.diff(np.concatenate([angles, angles[:1]]))
    steps = np.mod(steps + np.pi, 2.0 * np.pi) - np.pi
    steps[steps == -np.pi] = np.pi
    theta = np.concatenate([[angles[0]], angles[0] + np.cumsum(steps)])
    winding = int(np.rint((theta[-1] - theta[0]) / (2.0 * np.pi)))
    return DirectionFunctionSample(theta_of_s=theta, winding=winding)


def unlift_direction(d: DirectionFunctionSample):
    """Integrate a direction function back to a polyline.

    Returns (curve, closure_defect). The integral is a cumulative
    trapezoid of (cos theta, sin theta); a direction function that does
    not satisfy the closure constraints yields an open polyline, which
    is reported through the defect rather than raised.
    """
    theta = d.theta_of_s
    ds = 2.0 * np.pi / d.m_intervals
    f = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    increments = 0.5 * (f[1:] + f[:-1]) * ds
    xi = np.vstack([np.zeros((1, 2)), np.cumsum(increments, axis=0)])
    defect = float(np.linalg.norm(xi[-1] - xi[0]))
    return SampledCurve(points=xi[:-1]), defect


def resample_arclength(c: SampledCurve, m: int) -> SampledCurve:
    """Resample to m points at equal arclength spacing.

    Piecewise-linear interpolation along the sample polygon at equal
    increments of the cumulative edge length.
    """
    if m < 3:
        raise InputDataError(f"need at least 3 output samples, got {m}")
    newpts = _resample_rows(c.points, m, c.scale_hint)
    return SampledCurve(points=newpts, scale_hint=c.scale_hint)


def _resample_rows(points, m, scale_hint):
    """Equal-arclength resampling of every closed polygon in an (..., N, n) stack.

    Each row is interpolated at m equal increments of its cumulative
    edge length, exactly as resample_arclength does for one curve;
    np.searchsorted runs once per row and the rest on the whole stack.
    Raises NotImmersedError when any edge is below the immersion
    threshold of scale_hint.
    """
    n_samples, dim = points.shape[-2:]
    P = points.reshape(-1, n_samples, dim)
    edge_vecs = _edge_vectors(P)
    edges = np.sqrt(dot(edge_vecs, edge_vecs))
    if not np.all(edges > EPS_IMMERSED * scale_hint):
        raise NotImmersedError("arclength resampling needs an immersed curve")
    cum = np.zeros((P.shape[0], n_samples + 1))
    np.cumsum(edges, axis=1, out=cum[:, 1:])
    targets = np.arange(m) * (cum[:, -1:] / m)
    idx = np.empty(targets.shape, dtype=np.intp)
    for r in range(P.shape[0]):
        idx[r] = np.searchsorted(cum[r], targets[r], side="right")
    idx = np.clip(idx - 1, 0, n_samples - 1)
    rows = np.arange(P.shape[0])[:, None]
    frac = (targets - cum[rows, idx]) / edges[rows, idx]
    newpts = P[rows, idx] + scale(edge_vecs[rows, idx], frac)
    return newpts.reshape(points.shape[:-2] + (m, dim))
