"""Generators for the pathological homotopy families.

Each generator produces grids whose degeneration is measurable:
winding reparameterizations that blow up the parametric energy while
the geometric energy stays put, tessellations that preserve the
alpha-beta energy while converging uniformly to the identity, graph
wiggles driving that energy to zero, zigzag cones deflating the normal
energy of a point-to-circle homotopy, the pulley whose tangential
sliding explodes, and the stretch strip where only a large enough
conformal factor restores monotonicity.

The square families (tessellation, graph wiggle, stretch) live on
[0,1]^2 in open-curve mode; the others are periodic.
"""

import math
from dataclasses import dataclass

import numpy as np

from .curves import SampledCurve, tangent_frame, theta_grid
from .errors import InputDataError
from .homotopy import HomotopyGrid, shift_unwind

# The most samples a generator allocates in one array (64 MB of planar
# points); a parameter that implies more is rejected before allocating.
_SAMPLE_BUDGET = 1 << 22

# The fixed resolutions of the constructions: (u, v) grids, the cone's
# slices and (theta, v) quadrature, the pulley's samples and fillet.
WIGGLE_N_U, WIGGLE_N_V = 2049, 65
STRETCH_N_U, STRETCH_N_V = 1001, 65
ZIGZAG_N_V = 65
ZIGZAG_QUAD_N_THETA, ZIGZAG_QUAD_N_V = 2048, 256
PULLEY_N_THETA = 2048
PULLEY_FILLET = 0.02


def _check_budget(name, value, samples):
    """Raise InputDataError naming the parameter when samples > _SAMPLE_BUDGET."""
    if samples > _SAMPLE_BUDGET:
        raise InputDataError(
            f"{name} = {value} needs {samples:.3g} samples, more than the "
            f"budget of {_SAMPLE_BUDGET}"
        )


def winding_family(C: HomotopyGrid, k: int) -> HomotopyGrid:
    """C_k(theta, v) = C(theta + 2 pi k v, v): k extra turns of sliding.

    Slice j of the n_v slices at v = j / (n_v - 1) shifts by 2 pi k j /
    (n_v - 1), so k and k +- (n_v - 1) give the same grid; k is resolved
    only while 2 |k| < n_v - 1.
    """
    if int(k) != k:
        raise InputDataError("winding number k must be an integer")
    if 2 * abs(k) >= C.n_v - 1:
        raise InputDataError(
            f"winding number k = {k} needs 2|k| < n_v - 1 = {C.n_v - 1}; "
            f"k and k +- {C.n_v - 1} give the same grid"
        )
    return shift_unwind(C, 2.0 * np.pi * k * C.v_grid())


def _check_tiling_boundary(C: HomotopyGrid, tol):
    """Identity on the u-edges and a unit vertical offset across the v-seam.

    Exactly what gluing shifted copies needs: adjacent tiles agree
    along every interior seam. (Weaker than identity on all four edges,
    which the stretch strip does not satisfy.)
    """
    v = C.v_grid()
    left = np.stack([np.zeros_like(v), v], axis=1)
    right = np.stack([np.ones_like(v), v], axis=1)
    err = max(
        float(np.max(np.abs(C.values[:, 0, :] - left))),
        float(np.max(np.abs(C.values[:, -1, :] - right))),
        float(np.max(np.abs(C.values[-1] - C.values[0] - np.array([0.0, 1.0])))),
    )
    if err > tol:
        raise InputDataError(
            f"tessellation boundary conditions violated by {err:.3e} (tol {tol:.1e})"
        )


def tessellate(Ctilde: HomotopyGrid, h: int) -> HomotopyGrid:
    """Glue h x h shrunken copies: C_h(u,v) = C~({hu},{hv})/h + (floor(hu), floor(hv))/h.

    The output grid refines each tile with the input's own nodes, so
    derivative samples are copies of the input's and the alpha-beta
    energy is preserved up to seam quadrature.
    """
    if Ctilde.periodic:
        raise InputDataError("tessellation lives on the open square")
    if Ctilde.dim != 2:
        raise InputDataError("tessellation is a planar construction")
    if h < 1 or int(h) != h:
        raise InputDataError("tessellation count h must be a positive integer")
    h = int(h)
    n_u = Ctilde.n_theta
    n_v = Ctilde.n_v
    out_u = h * (n_u - 1) + 1
    out_v = h * (n_v - 1) + 1
    _check_budget("tessellation count h", h, out_u * out_v)
    _check_tiling_boundary(Ctilde, tol=1e-8 * max(Ctilde.scale_hint, 1.0))
    if h == 1:
        return HomotopyGrid(values=Ctilde.values.copy(), periodic=False)

    au = np.arange(out_u)
    qu = np.minimum(au // (n_u - 1), h - 1)
    ru = au - qu * (n_u - 1)
    av = np.arange(out_v)
    qv = np.minimum(av // (n_v - 1), h - 1)
    rv = av - qv * (n_v - 1)

    values = Ctilde.values[rv[:, None], ru[None, :], :] / h
    values[..., 0] += qu[None, :] / h
    values[..., 1] += qv[:, None] / h
    return HomotopyGrid(values=values, periodic=False)


def graph_wiggle(j: int) -> HomotopyGrid:
    """Graph homotopy (u, v + gamma(v) sin(2 pi j u)) with tent gamma = min(v, 1-v).

    Unit-speed endpoints, wiggly interior; the alpha-beta (2,1) energy
    decays like log^2(j)/j, so the family relaxes the energy of the
    identity homotopy to zero. j = 0 returns the identity itself.
    """
    if j < 0 or int(j) != j:
        raise InputDataError("wiggle frequency j must be a nonnegative integer")
    u = np.linspace(0.0, 1.0, WIGGLE_N_U)
    v = np.linspace(0.0, 1.0, WIGGLE_N_V)
    gamma = np.minimum(v, 1.0 - v)
    y = v[:, None] + gamma[:, None] * np.sin(2.0 * np.pi * j * u)[None, :]
    values = np.empty((WIGGLE_N_V, WIGGLE_N_U, 2))
    values[..., 0] = u[None, :]
    values[..., 1] = y
    return HomotopyGrid(values=values, periodic=False)


def _sawtooth(z, eps):
    """Tent wave of period 2*eps: rises 0..eps, falls back to 0."""
    r = np.mod(z, 2.0 * eps)
    return np.where(r <= eps, r, 2.0 * eps - r)


@dataclass
class ZigzagCone:
    """Two-phase cone homotopy from the origin out to a unit-sphere curve.

    Phase one grows sawtooth spikes from the origin, phase two fills
    the valleys toward the full curve. The radial profile rho(theta, v)
    is piecewise linear, so the energies have closed integrands; the
    quadrature methods use them directly (midpoint sampling, which
    never lands on the sawtooth corners) instead of finite differences
    that would divide by zero where slices touch the origin.
    """

    grid: HomotopyGrid
    k: int
    epsilon: float

    def _quad(self, phase, v_lo, v_hi, n_theta, n_v):
        """Midpoint rule for the integral of |pi_N d_v C|^2 |dC/dtheta|.

        For the cone over a unit-speed sphere curve the integrand is
        d_v^2 rho^2 / sqrt(rho^2 + d_theta^2), with rho = c Z (phase one)
        or 1 - c Z (phase two) for the sawtooth Z of theta and a
        coefficient c of v. d_v = (2 / eps) Z does not depend on v, and
        d_theta = +-c because the sawtooth slope is +-1. The v rows are
        summed one at a time, in order.
        """
        eps = self.epsilon
        per_seg = max(16, int(math.ceil(n_theta / (2 * self.k))))
        m_theta = 2 * self.k * per_seg
        thetas = (np.arange(m_theta) + 0.5) * (2.0 * np.pi / m_theta)
        vs = v_lo + (np.arange(n_v) + 0.5) * ((v_hi - v_lo) / n_v)
        if phase == 1:
            Z = _sawtooth(thetas, eps)
            coefs = 2.0 * vs / eps
        else:
            Z = _sawtooth(thetas + eps, eps)
            coefs = 2.0 * (1.0 - vs) / eps
        dv_sq = ((2.0 / eps) * Z) ** 2
        total = 0.0
        for c in coefs:
            rho = c * Z if phase == 1 else 1.0 - c * Z
            rho_sq = rho * rho
            speed_sq = rho_sq + c * c
            out = np.zeros(m_theta)
            np.divide(dv_sq * rho_sq, np.sqrt(speed_sq), out=out, where=speed_sq > 0.0)
            total += float(np.sum(out))
        return total * (2.0 * np.pi / m_theta) * ((v_hi - v_lo) / n_v)

    def first_phase_energy(self) -> float:
        """Normal energy of the spike-growing phase v in [0, 1/2]."""
        return self._quad(1, 0.0, 0.5, ZIGZAG_QUAD_N_THETA, ZIGZAG_QUAD_N_V)

    def second_phase_energy(self) -> float:
        """Normal energy of the valley-filling phase v in [1/2, 1]."""
        return self._quad(2, 0.5, 1.0, ZIGZAG_QUAD_N_THETA, ZIGZAG_QUAD_N_V)

    def total_normal_energy(self) -> float:
        """Normal energy of the whole cone homotopy."""
        return self.first_phase_energy() + self.second_phase_energy()


def zigzag_cone(k: int, c1: SampledCurve) -> ZigzagCone:
    """Cone from the origin to c1 through sawtooth spikes of width pi/k.

    c1 must lie on the unit sphere at unit speed; then |dC/dtheta|^2 =
    rho^2 + (d_theta rho)^2 exactly and the analytic energy methods
    apply. The sampled grid itself has degenerate samples wherever rho
    vanishes, which downstream geometric energies weight away.
    """
    if k < 1 or int(k) != k:
        raise InputDataError("zigzag count k must be a positive integer")
    # The energy quadrature samples each of the 2k sawtooth segments at
    # least 16 times.
    _check_budget("zigzag count k", k, 32 * k)
    radii = np.linalg.norm(c1.points, axis=1)
    if np.max(np.abs(radii - 1.0)) > 1e-6:
        raise InputDataError("zigzag cone needs |c1| = 1 (unit sphere curve)")
    speed = tangent_frame(c1).speed
    if np.max(np.abs(speed - 1.0)) > 1e-3:
        raise InputDataError("zigzag cone needs unit speed |dc1/dtheta| = 1")

    eps = np.pi / k
    thetas = c1.thetas()
    vs = np.linspace(0.0, 1.0, ZIGZAG_N_V)
    values = np.empty((ZIGZAG_N_V, c1.n_samples, c1.dim))
    for j, v in enumerate(vs):
        if v <= 0.5:
            rho = (2.0 * v / eps) * _sawtooth(thetas, eps)
        else:
            rho = 1.0 - (2.0 * (1.0 - v) / eps) * _sawtooth(thetas + eps, eps)
        values[j] = rho[:, None] * c1.points
    grid = HomotopyGrid(values=values, periodic=True)
    return ZigzagCone(grid=grid, k=int(k), epsilon=float(eps))


def _tri_wave(x):
    """Period-2 triangle: 0 -> 1 over [0,1], back to 0 over [1,2]."""
    r = np.mod(x, 2.0)
    return np.where(r <= 1.0, r, 2.0 - r)


def _fillet_arc(p_prev, corner, p_next, r):
    d1 = corner - p_prev
    d1 = d1 / np.linalg.norm(d1)
    d2 = p_next - corner
    d2 = d2 / np.linalg.norm(d2)
    if abs(float(np.dot(d1, d2))) > 1e-9:
        raise InputDataError("fillets are implemented for right angles only")
    cross = d1[0] * d2[1] - d1[1] * d2[0]
    center = corner - r * d1 + r * d2
    start = corner - r * d1
    a0 = math.atan2(start[1] - center[1], start[0] - center[0])
    a1 = a0 + math.copysign(0.5 * math.pi, cross)
    return ("arc", center, r, a0, a1, 0.5 * math.pi * r)


def _polyline_features(points, r):
    """Segments of an open polyline with right-angle corners filleted at radius r."""
    pts = [np.asarray(p, dtype=float) for p in points]
    feats = []
    cursor = pts[0]
    for i in range(1, len(pts) - 1):
        d1 = pts[i] - pts[i - 1]
        d1 = d1 / np.linalg.norm(d1)
        seg_end = pts[i] - r * d1
        feats.append(("seg", cursor, seg_end, float(np.linalg.norm(seg_end - cursor))))
        feats.append(_fillet_arc(pts[i - 1], pts[i], pts[i + 1], r))
        d2 = pts[i + 1] - pts[i]
        d2 = d2 / np.linalg.norm(d2)
        cursor = pts[i] + r * d2
    feats.append(("seg", cursor, pts[-1], float(np.linalg.norm(pts[-1] - cursor))))
    return feats


def _seg(p0, p1):
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    return ("seg", p0, p1, float(np.linalg.norm(p1 - p0)))


def _cap(center, r, bulge):
    """Semicircle from angle -pi/2 going up, bulging right or left."""
    if bulge == "right":
        return ("arc", np.asarray(center, dtype=float), r, -0.5 * math.pi, 0.5 * math.pi, math.pi * r)
    return ("arc", np.asarray(center, dtype=float), r, -0.5 * math.pi, -1.5 * math.pi, math.pi * r)


def _pulley_rails(h, fillet):
    """The static filleted polylines of the channel, which no v moves.

    Clamp to the upper tackle, the long detour between the tackles, and
    the lower tackle back to the clamp.
    """
    delta = 0.5 / h
    return (
        _polyline_features([(2.0, 0.0), (-0.75, 0.0), (-0.75, 1.0), (0.0, 1.0)], fillet),
        _polyline_features(
            [
                (0.0, 2.0 - delta),
                (-1.0, 2.0 - delta),
                (-1.0, -2.5),
                (5.0, -2.5),
                (5.0, -2.0 + delta),
                (4.0, -2.0 + delta),
            ],
            fillet,
        ),
        _polyline_features([(4.0, -1.0), (4.75, -1.0), (4.75, 0.0), (2.0, 0.0)], fillet),
    )


def _pulley_features(h, v, rails):
    """Feature list of the block-and-tackle channel at parameter v, clamp first.

    Pre-scale geometry: clamp K = (2,0); a 2h-strand tackle above
    (moving caps on the right at x = p(v)), a long static detour, a
    mirrored 2h-strand tackle below (moving caps on the left), and the
    return to the clamp, with the static parts from _pulley_rails.
    Strand lengths trade between the two tackles so the total length
    is independent of v.
    """
    delta = 0.5 / h
    rc = 0.5 * delta
    amp = 1.0 / (2.0 * h)
    a = amp * float(_tri_wave(h * v))
    p = 1.0 / h + a
    q = 1.0 / h + amp - a
    w = 4.0 - q
    to_upper, detour, to_clamp = rails

    feats = list(to_upper)
    for k in range(2 * h):
        y = 1.0 + k * delta
        if k % 2 == 0:
            feats.append(_seg((0.0, y), (p, y)))
            if k < 2 * h - 1:
                feats.append(_cap((p, y + 0.5 * delta), rc, "right"))
        else:
            feats.append(_seg((p, y), (0.0, y)))
            if k < 2 * h - 1:
                feats.append(_cap((0.0, y + 0.5 * delta), rc, "left"))
    feats += detour
    for k in range(2 * h - 1, -1, -1):
        y = -1.0 - k * delta
        if k % 2 == 1:
            feats.append(_seg((4.0, y), (w, y)))
            feats.append(_cap((w, y + 0.5 * delta), rc, "left"))
        else:
            feats.append(_seg((w, y), (4.0, y)))
            if k > 0:
                feats.append(_cap((4.0, y + 0.5 * delta), rc, "right"))
    feats += to_clamp
    return feats


def _feature_positions(feats, s):
    """Points at arclengths s along the feature chain."""
    lengths = np.array([f[-1] for f in feats])
    cum = np.concatenate([[0.0], np.cumsum(lengths)])
    total = cum[-1]
    s = np.clip(np.asarray(s, dtype=float), 0.0, total)
    idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, len(feats) - 1)
    # Per-feature tables: the start point (a segment's first end, an
    # arc's center), a segment's step, and an arc's radius, start angle
    # and end angle; zeros where the kind does not apply.
    is_seg = np.array([f[0] == "seg" for f in feats])
    base = np.array([f[1] for f in feats])
    step = np.array([f[2] - f[1] if f[0] == "seg" else (0.0, 0.0) for f in feats])
    radius, a0, a1 = np.array(
        [(0.0, 0.0, 0.0) if f[0] == "seg" else f[2:5] for f in feats]
    ).T
    sweep = a1 - a0
    local = (s - cum[idx]) / lengths[idx]
    start = base[idx]
    ang = a0[idx] + local * sweep[idx]
    on_arc = start + radius[idx, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    on_seg = start + local[:, None] * step[idx]
    return np.where(is_seg[idx, None], on_seg, on_arc)


@dataclass
class PulleyResult:
    """Pulley homotopy scaled to slice length 2 pi, with diagnostics.

    length is the pre-scale channel length, scale the factor 2 pi /
    length. param_energy is the measured parametric energy of the
    grid; max_normal_speed is the analytic bound on |pi_N d_v C| (the
    only normal motion comes from the moving caps, whose centers
    translate at |da/dv| = 1/2 pre-scale); slide_rate_max measures the
    feature-distance rate between the clamp and a material point on
    the bottom rail.
    """

    grid: HomotopyGrid
    length: float
    scale: float
    param_energy: float
    max_normal_speed: float
    slide_rate_max: float


def pulley(h: int) -> PulleyResult:
    """Block-and-tackle homotopy with 2h strands per tackle.

    The rope is inextensible and clamped at K, so the material point at
    angle theta sits at arclength (theta / 2 pi) L along the channel;
    material slides through the static sections as the tackles trade
    length. Normal motion stays bounded by the cap translation speed
    while the parametric energy of the sliding grows like h^2.
    """
    if h < 1 or int(h) != h:
        raise InputDataError("pulley needs a positive integer h")
    h = int(h)
    n_v = 8 * h + 1
    # The grid, which always outnumbers the about 4h features of a slice.
    _check_budget("pulley h", h, n_v * PULLEY_N_THETA)
    vs = np.linspace(0.0, 1.0, n_v)
    thetas = theta_grid(PULLEY_N_THETA)

    rails = _pulley_rails(h, PULLEY_FILLET)
    feats0 = _pulley_features(h, 0.0, rails)
    length = float(sum(f[-1] for f in feats0))
    scale = 2.0 * np.pi / length

    # Material point initially mid bottom rail, used for the slide diagnostic.
    lengths = np.array([f[-1] for f in feats0])
    cum = np.concatenate([[0.0], np.cumsum(lengths)])
    s_probe = None
    for i, f in enumerate(feats0):
        if f[0] == "seg" and abs(f[1][1] + 2.5) < 1e-12 and f[-1] > 5.0:
            s_probe = cum[i] + (2.0 - f[1][0])
            break
    if s_probe is None:
        raise InputDataError("pulley construction lost its bottom rail")

    # The sample arclengths, then the probe's.
    s_samples = np.append((thetas / (2.0 * np.pi)) * length, s_probe)
    values = np.empty((n_v, PULLEY_N_THETA, 2))
    probe_dist = np.empty(n_v)
    clamp = np.array([2.0, 0.0])
    for j, v in enumerate(vs):
        feats = _pulley_features(h, float(v), rails)
        total = float(sum(f[-1] for f in feats))
        if abs(total - length) > 1e-9 * length:
            raise InputDataError(
                f"pulley channel length drifted by {abs(total - length):.3e}"
            )
        points = _feature_positions(feats, s_samples)
        values[j] = scale * points[:-1]
        probe_dist[j] = scale * float(np.linalg.norm(points[-1] - clamp))

    grid = HomotopyGrid(values=values, periodic=True)
    dv = 1.0 / (n_v - 1)
    diffs = (values[1:] - values[:-1]) / dv
    param_energy = float(
        np.sum(diffs * diffs) * (2.0 * np.pi / PULLEY_N_THETA) * dv
    )
    slide_rate_max = float(np.max(np.abs(np.diff(probe_dist)))) / dv
    max_normal_speed = scale * 0.5
    return PulleyResult(
        grid=grid,
        length=length,
        scale=scale,
        param_energy=param_energy,
        max_normal_speed=max_normal_speed,
        slide_rate_max=slide_rate_max,
    )


def conformal_stretch(eps: float, lam: float) -> HomotopyGrid:
    """Vertical translation of a strip whose floor has a tent of slope lam.

    The base curve runs flat except for a tent of half-width eps and
    slope lam starting at u = 0; the homotopy translates it upward by
    v. Plain normal energy drops below 1 on the slanted parts, and a
    conformal factor phi(len) >= len restores E_phi >= 1.
    """
    if not 0.0 < eps < 0.5:
        raise InputDataError("stretch needs 0 < eps < 1/2")
    if lam < 0.0:
        raise InputDataError("stretch needs lam >= 0")
    u = np.linspace(0.0, 1.0, STRETCH_N_U)
    floor_y = np.where(
        u <= eps, lam * u, np.where(u <= 2.0 * eps, lam * (2.0 * eps - u), 0.0)
    )
    v = np.linspace(0.0, 1.0, STRETCH_N_V)
    values = np.empty((STRETCH_N_V, STRETCH_N_U, 2))
    values[..., 0] = u[None, :]
    values[..., 1] = floor_y[None, :] + v[:, None]
    return HomotopyGrid(values=values, periodic=False)
