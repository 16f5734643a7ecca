"""Metrics and path energies on spaces of closed curves.

The menu of kinds mirrors the metrics the library supports:

- param_H0: parametric L2 metric, no geometry, integrals in dtheta.
- intermediate: L2 weighted by arclength measure (inner products only).
- geom_H0: arclength-weighted L2 of the normal component; its path
  energy is written E^N throughout the tests.
- J: bending-weighted energy |H|^2 |pi_N d_v C|^2 ds dv (not a metric).
- MM: geom_H0 plus A times the bending term, A >= 0.
- alpha_beta: |pi_{W-perp} V|^alpha |W|^beta with W = d_theta C, the
  family behind the tessellation and wiggle examples.
- conformal: geom_H0 scaled by a positive factor phi(len(c)).

Every kind reads its fields from the one frame kernel, the homotopy
frame: d_v C (param_H0), the squared normal speed m = |C_v*|^2 =
|pi_N d_v C|^2 and the speed |d_theta C|; J and MM take the curvature
H from that same frame through curves.curvature_kernel. energy(),
path_len_energy(), area_swept() and stable_lambda() reduce each slice
to a few numbers, so they build that frame one window of v-rows at a
time (homotopy._per_row), their memory is the grid plus about one
window, and their values are those of the whole-grid frame bit for
bit. energy_gradient() needs whole fields and builds the whole-grid
frame; it is the exact gradient of the geom_H0 and conformal energies
in the grid values, the adjoint of their stencils and quadratures.
Degenerate samples (|d_theta C| = 0) contribute nothing to geometric
integrands because the arclength weight vanishes there; this lets
energies of homotopies with a collapsing slice, such as cones, be
evaluated without special casing.
"""

from dataclasses import dataclass, field

import numpy as np

from .curves import (
    SampledCurve,
    _open_derivative_adjoint,
    curvature_kernel,
    dot,
    immersed,
    periodic_derivative,
    scale,
    tangent_frame,
)
from .errors import (
    InputDataError,
    NotImmersedError,
    NumericalFailureError,
    StalledHomotopyError,
)
from .homotopy import HomotopyGrid, _per_row, homotopy_frame, length_profile

KIND_ALIASES = {
    "param": "param_H0",
    "param_h0": "param_H0",
    "en": "geom_H0",
    "geom_h0": "geom_H0",
    "h0": "geom_H0",
    "j": "J",
    "bend": "J",
    "mm": "MM",
    "enbend": "MM",
    "ab": "alpha_beta",
    "alpha_beta": "alpha_beta",
    "intermediate": "intermediate",
    "conformal": "conformal",
}

ENERGY_KINDS = ("param_H0", "geom_H0", "J", "MM", "alpha_beta", "conformal")
INNER_KINDS = ("param_H0", "intermediate", "geom_H0", "MM", "conformal")


def normalize_kind(kind: str) -> str:
    key = str(kind).strip()
    canonical = KIND_ALIASES.get(key.lower())
    if canonical is None:
        raise InputDataError(f"unknown energy kind {kind!r}")
    return canonical


@dataclass
class ConformalFactor:
    """Positive factor phi applied to the geom_H0 integrand, as a function
    of slice length. exp_lambda_L is the stabilized choice phi = e^(lambda L);
    length is phi = L, the factor of the stretch counterexample.
    """

    kind: str = "identity"
    lam: float = 0.0

    def __post_init__(self):
        if self.kind not in ("identity", "exp_lambda_L", "length"):
            raise InputDataError(f"unknown conformal factor kind {self.kind!r}")
        if self.kind == "exp_lambda_L" and not 0.0 <= self.lam < np.inf:
            raise InputDataError(
                f"exp_lambda_L needs lambda >= 0 and finite, got {self.lam!r}"
            )

    @classmethod
    def identity(cls):
        return cls(kind="identity")

    @classmethod
    def exp_length(cls, lam):
        return cls(kind="exp_lambda_L", lam=float(lam))

    @classmethod
    def length(cls):
        """phi(c) = len(c), the hypothesis phi >= len in the stretch example."""
        return cls(kind="length")

    def value(self, length):
        length = np.asarray(length, dtype=float)
        if self.kind == "identity":
            out = np.ones_like(length)
        elif self.kind == "exp_lambda_L":
            out = np.exp(self.lam * length)
        else:
            out = length.copy()
        if np.any(out <= 0.0):
            raise InputDataError("conformal factor must stay positive")
        return out if out.ndim else float(out)

    def derivative(self, length):
        length = np.asarray(length, dtype=float)
        if self.kind == "identity":
            out = np.zeros_like(length)
        elif self.kind == "exp_lambda_L":
            out = self.lam * np.exp(self.lam * length)
        else:
            out = np.ones_like(length)
        return out if out.ndim else float(out)


@dataclass
class EnergySpec:
    """Selects a metric or energy kind and its parameters."""

    kind: str = "geom_H0"
    A: float = 0.0
    alpha: float = 2.0
    beta: float = 1.0
    factor: ConformalFactor = field(default_factory=ConformalFactor.identity)

    def __post_init__(self):
        self.kind = normalize_kind(self.kind)
        if self.kind == "MM" and not 0.0 <= self.A < np.inf:
            raise InputDataError(f"MM needs A >= 0 and finite, got {self.A!r}")
        if self.kind == "alpha_beta" and not (
            0.0 < self.alpha < np.inf and 0.0 < self.beta < np.inf
        ):
            raise InputDataError("alpha_beta needs finite alpha > 0 and beta > 0")


@dataclass
class EnergyReport:
    """Energy value with its per-slice breakdown.

    total equals the trapezoid v-quadrature of per_slice to round-off.
    """

    total: float
    per_slice: np.ndarray
    quadrature: str
    resolution: tuple


def _normal_slices(C: HomotopyGrid, m, speed, factor=None):
    """Per-slice int m ds, times phi(len) when a factor is given.

    This is the geom_H0 integrand, and with a factor the conformal
    one; the slice lengths are the theta-integrals of speed.
    """
    per_slice = C.integrate_theta(m * speed)
    if factor is None:
        return per_slice
    return factor.value(C.integrate_theta(speed)) * per_slice


def _window_integrand(C: HomotopyGrid, spec: EnergySpec, frame):
    """theta-integrals of the chosen integrand on the rows of a window's frame."""
    kind = spec.kind
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
    H = curvature_kernel(frame, C.dtheta)
    kappa2 = dot(H, H)
    weight = kappa2 if kind == "J" else 1.0 + spec.A * kappa2
    return C.integrate_theta(weight * m * speed)


def _per_slice_integrand(C: HomotopyGrid, spec: EnergySpec):
    """theta-integrals of the chosen integrand, one value per slice.

    The grid is taken in windows of v-rows (homotopy._per_row), so the
    memory is the grid plus about one window's frame. Every value is
    computed row by row, so it does not depend on the windows.
    """
    kind = spec.kind
    if kind not in ENERGY_KINDS:
        raise InputDataError(f"kind {kind} has no homotopy energy")
    if kind in ("J", "MM") and not C.periodic:
        raise InputDataError(f"kind {kind} needs periodic slices for curvature")
    return _per_row(C, lambda frame: _window_integrand(C, spec, frame))


def _require_finite(kind, per_slice, total):
    """Raise when a slice value or the v-integral of the kind overflowed.

    Grid values are finite, so an inf or NaN here is an overflow of
    double precision (an inf times 0 or inf - inf gives the NaN).
    """
    bad = np.flatnonzero(~np.isfinite(per_slice))
    if len(bad):
        j = int(bad[0])
        raise NumericalFailureError(
            f"the {kind} energy overflowed: slice {j} gives {per_slice[j]}"
        )
    if not np.isfinite(total):
        raise NumericalFailureError(
            f"the {kind} energy overflowed in the integral over v"
        )


def energy(C: HomotopyGrid, spec: EnergySpec) -> EnergyReport:
    """Path energy of the homotopy under the chosen kind.

    An energy that overflows raises NumericalFailureError, naming the
    first slice whose value is not finite.
    """
    if spec.kind == "intermediate":
        raise InputDataError("the intermediate metric has inner products only")
    per_slice = _per_slice_integrand(C, spec)
    total = float(C.integrate_v(per_slice))
    _require_finite(spec.kind, per_slice, total)
    theta_rule = "riemann-theta" if C.periodic else "trapezoid-u"
    return EnergyReport(
        total=total,
        per_slice=per_slice,
        quadrature=f"{theta_rule}, trapezoid-v",
        resolution=(C.n_theta, C.n_v),
    )


def energy_gradient(C: HomotopyGrid, factor: ConformalFactor) -> np.ndarray:
    """dE/d(values) of the conformal energy with this factor, an array like C.values.

    The identity factor gives the geom_H0 energy. Per sample, with
    V = d_v C, W = d_theta C, T = W / |W| and t = V . T, the integrand
    m |W| has derivative 2 |W| C_v* in V and (|V|^2 + t^2) T - 2 t V in
    W, and the slice length adds phi'(L) M T. Both are weighted by the
    quadratures and mapped back to the values through the transposed
    stencils: -periodic_derivative for W (the central stencil is
    antisymmetric) and the adjoint of open_derivative for V.
    """
    if not C.periodic:
        raise InputDataError("the energy gradient needs periodic slices")
    frame = homotopy_frame(C).require_immersed("the energy gradient")
    V, T, t, speed = frame.V, frame.T, frame.tangential, frame.speed
    big_m = _normal_slices(C, frame.m, speed)
    lengths = C.integrate_theta(speed)
    phi = np.atleast_1d(factor.value(lengths))
    dphi = np.atleast_1d(factor.derivative(lengths))
    # d total / d per-slice value: the trapezoid weights in v.
    w = np.full(C.n_v, C.dv * C.dtheta)
    w[[0, -1]] *= 0.5
    wphi = (w * phi)[:, None]
    g_v = scale(frame.c_vstar, 2.0 * wphi * speed)
    g_w = scale(T, wphi * (dot(V, V) + t * t) + (w * dphi * big_m)[:, None])
    g_w -= scale(V, 2.0 * wphi * t)
    return _open_derivative_adjoint(g_v, C.dv) - periodic_derivative(g_w, C.dtheta, axis=1)


def inner_product(c: SampledCurve, h, k, metric) -> float:
    """Inner product of two deformations of a single curve, checked for overflow."""
    spec = metric if isinstance(metric, EnergySpec) else EnergySpec(kind=metric)
    kind = spec.kind
    if kind not in INNER_KINDS:
        raise InputDataError(f"kind {kind} has no inner product")
    h = np.asarray(h, dtype=float)
    k = np.asarray(k, dtype=float)
    if h.shape != c.points.shape or k.shape != c.points.shape:
        raise InputDataError(
            f"deformations must match the curve shape {c.points.shape}"
        )
    dots = dot(h, k)
    if kind == "param_H0":
        value = float(np.sum(dots) * c.dtheta)
    else:
        if not immersed(c):
            raise NotImmersedError("geometric inner products need an immersed curve")
        frame = tangent_frame(c).require_immersed("the geometric inner product")
        if kind != "intermediate":
            dots = dot(frame.project_normal(h), frame.project_normal(k))
        if kind == "MM":
            H = curvature_kernel(frame, c.dtheta)
            dots = (1.0 + spec.A * dot(H, H)) * dots
        value = float(np.sum(dots * frame.speed) * c.dtheta)
        if kind == "conformal":
            length = float(np.sum(frame.speed) * c.dtheta)
            value = float(spec.factor.value(length)) * value
    if not np.isfinite(value):
        raise NumericalFailureError(f"the {kind} inner product overflowed: it gives {value}")
    return value


def scaling_check(C: HomotopyGrid, eps: float):
    """Ratios E^N(eps C)/E^N(C) and J(eps C)/J(C); expected eps^3 and eps."""
    if eps <= 0.0:
        raise InputDataError("scaling factor must be positive")
    base_en = energy(C, EnergySpec(kind="geom_H0")).total
    base_j = energy(C, EnergySpec(kind="J")).total
    if base_en == 0.0 or base_j == 0.0:
        raise InputDataError("scaling check needs nonzero base energies")
    scaled = HomotopyGrid(values=eps * C.values, periodic=C.periodic)
    ratio_en = energy(scaled, EnergySpec(kind="geom_H0")).total / base_en
    ratio_j = energy(scaled, EnergySpec(kind="J")).total / base_j
    return ratio_en, ratio_j


def area_swept(C: HomotopyGrid) -> float:
    """Area swept with multiplicity, via |V x W| = |pi_N V| |W| = sqrt(m) speed."""
    per_slice = _per_row(
        C, lambda frame: C.integrate_theta(np.sqrt(frame.m) * frame.speed)
    )
    return float(C.integrate_v(per_slice))


def area_swept_bound_check(C: HomotopyGrid) -> bool:
    """(area swept)^2 <= E^N(C) * integral of len(C(., v)) dv, up to slack."""
    swept = area_swept(C)
    en = energy(C, EnergySpec(kind="geom_H0")).total
    lengths = length_profile(C)
    rhs = en * float(C.integrate_v(lengths))
    return swept * swept <= rhs + 1e-9 * (1.0 + rhs)


def cross_identity_check(W, V) -> float:
    """Residual of |pi_{W-perp}V|^2 |W|^2 = |V|^2|W|^2 - <V,W>^2 (= |VxW|^2 in 3D)."""
    W = np.asarray(W, dtype=float)
    V = np.asarray(V, dtype=float)
    if W.shape != V.shape:
        raise InputDataError("V and W must have the same shape")
    w2 = float(np.dot(W, W))
    if w2 == 0.0:
        raise InputDataError("cross identity needs W != 0")
    v2 = float(np.dot(V, V))
    vw = float(np.dot(V, W))
    gram = v2 * w2 - vw * vw
    perp = V - (vw / w2) * W
    lhs = float(np.dot(perp, perp)) * w2
    scale = max(v2 * w2, 1.0)
    residual = abs(lhs - gram) / scale
    if W.shape == (3,):
        cross = np.cross(V, W)
        residual = max(residual, abs(float(np.dot(cross, cross)) - gram) / scale)
    return residual


def path_len_energy(C: HomotopyGrid, spec: EnergySpec):
    """Path length and energy (Len, E) with Len^2 <= E.

    The slice norm is the square root of the per-slice integrand
    integral, so E is the ordinary path energy and the inequality is
    the discrete Cauchy-Schwarz of the trapezoid weights. An energy that
    overflows raises NumericalFailureError, as in energy().
    """
    if spec.kind == "J":
        raise InputDataError("J is not a metric kind; it has no path length")
    per_slice = _per_slice_integrand(C, spec)
    speeds = np.sqrt(np.maximum(per_slice, 0.0))
    length = float(C.integrate_v(speeds))
    total = float(C.integrate_v(per_slice))
    # length^2 <= total, so a finite total bounds the length too.
    _require_finite(spec.kind, per_slice, total)
    return length, total


def holder_length_check(C: HomotopyGrid):
    """Worst ratio of |sqrt(len(v2)) - sqrt(len(v1))| to (1/2)sqrt(J)sqrt(v2 - v1).

    The bound states the ratio never exceeds 1 on smooth grids. Pairs
    with a vanishing bound and vanishing increment count as ratio 0.
    """
    j_energy = energy(C, EnergySpec(kind="J")).total
    roots = np.sqrt(length_profile(C))
    vs = C.v_grid()
    ii, jj = np.triu_indices(C.n_v, k=1)
    lhs = np.abs(roots[jj] - roots[ii])
    rhs = 0.5 * np.sqrt(j_energy) * np.sqrt(vs[jj] - vs[ii])
    ratios = np.zeros_like(lhs)
    positive = rhs > 0.0
    ratios[positive] = lhs[positive] / rhs[positive]
    ratios[~positive] = np.where(lhs[~positive] <= 1e-12, 0.0, np.inf)
    return float(np.max(ratios))


def stable_lambda(C: HomotopyGrid) -> float:
    """Stabilizing exponent lambda = max over the grid of m / M.

    m is the squared normal speed per sample and M(v) its slice
    integral in arclength measure. Slices where M vanishes (a stalled
    homotopy) make the quotient meaningless and raise, and so do slices
    where M overflows double precision. Each slice is
    reduced to M and its largest m: a correctly rounded division by
    M > 0 is monotone, so max(m) / M is the slice's largest m / M.
    """
    if not C.periodic:
        raise InputDataError("stable_lambda needs periodic slices")
    big_m, m_max = _per_row(
        C,
        lambda frame: np.stack(
            [_normal_slices(C, frame.m, frame.speed), np.max(frame.m, axis=-1)]
        ),
    )
    overflowed = np.flatnonzero(~np.isfinite(big_m))
    if len(overflowed):
        j = int(overflowed[0])
        raise NumericalFailureError(
            f"slice {j}: M = int m ds overflowed (M = {big_m[j]}); lambda is undefined"
        )
    eps_m = 1e-12 * C.scale_hint**2
    if np.any(big_m <= eps_m):
        j = int(np.argmin(big_m))
        raise StalledHomotopyError(
            f"slice {j} has vanishing normal motion (M = {big_m[j]:.3e})"
        )
    return float(np.max(m_max / big_m))
