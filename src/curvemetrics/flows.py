"""Gradient flows on curves and homotopies, with the v* calculus.

Single curves get the geometric heat flow and the bounded-speed
arclength flow kappa / (1 + A kappa^2). Homotopies get the normal
energy flow C_t = C_v*v* - (1/2) m C_ss and its conformal
stabilization, where v* differentiates along the normal motion:
d_v* f = d_v f - (C_v . C_s) d_s f.

Each family runs as one public generator that yields after every
step: iter_curve_flow for the curve flows, iter_homotopy_flow for the
homotopy flows. integrate_heat_flow, run_homotopy_flow and the CLI
drain them; a one-step run is the single step.

The v* fields (VStarField) extend the whole-grid homotopy frame, and
d_s and d_vstar read a frame the caller built, so a flow step builds
its frame once.

The checks at the bottom validate the discrete calculus: commutation
residuals shrink at second order, and energies.energy_gradient, the
exact gradient of the order-2 energy that energy() reports, matches
central finite differences of energy() itself. The continuum gradient
the flows descend differs from it by a second-order truncation term.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .curves import (
    SampledCurve,
    _resample_rows,
    curvature_kernel,
    dot,
    frame_length,
    immersed,
    open_derivative,
    periodic_derivative,
    scale,
    tangent_frame,
)
from .energies import (
    ConformalFactor,
    EnergySpec,
    _normal_slices,
    energy,
    energy_gradient,
    stable_lambda,
)
from .errors import CFLError, InputDataError, NotImmersedError, NumericalFailureError
from .homotopy import HomotopyFrame, HomotopyGrid, homotopy_frame


def mm_normal_speed(kappa, A):
    """Normal speed kappa / (1 + A kappa^2) of the bounded arclength flow."""
    kappa = np.asarray(kappa, dtype=float)
    return kappa / (1.0 + A * kappa * kappa)


def _require_dt(dt):
    """A caller-given step must be a finite number > 0; None means the CFL step."""
    if dt is not None and not 0.0 < dt < np.inf:
        raise InputDataError(f"dt must be a finite number > 0, got {dt!r}")


def iter_curve_flow(
    c: SampledCurve,
    A: Optional[float] = None,
    dt: Optional[float] = None,
    t_end: float = np.inf,
    steps: Optional[int] = None,
):
    """Euler steps c + dt H / (1 + A |H|^2), until t_end or for `steps` steps.

    A = None is the heat flow in any dimension; A >= 0 is the planar
    arclength flow, whose normal speed kappa / (1 + A kappa^2) is capped
    at 1 / (2 sqrt(A)) for A > 0. A, the dimension and a given dt
    (finite, > 0) are checked once, before the first step. Each step
    takes the CFL dt 0.2 min(ds)^2 (dt None; a larger given dt raises
    CFLError), the length (arclength bit for bit), H and the update from
    one frame of the curve it starts from, ends at t_end at the latest,
    and yields (that length, the new curve).
    """
    what = "heat flow" if A is None else "the arclength flow"
    if A is not None and not 0.0 <= A < np.inf:
        raise InputDataError(f"the arclength flow needs A >= 0 and finite, got {A!r}")
    if A is not None and c.dim != 2:
        raise InputDataError("the bounded arclength flow is planar")
    _require_dt(dt)
    t = 0.0
    k = 0
    while t < t_end - 1e-15 and (steps is None or k < steps):
        frame = tangent_frame(c)
        ds_min = float(np.min(frame.speed)) * c.dtheta
        dt_max = 0.2 * ds_min * ds_min
        step = min(dt_max if dt is None else dt, t_end - t)
        if not immersed(c):
            raise NotImmersedError(f"{what} needs an immersed curve")
        frame.require_immersed(what)
        if step > dt_max * (1.0 + 1e-12):
            raise CFLError(f"dt = {step:.3e} exceeds the stable bound {dt_max:.3e}")
        H = curvature_kernel(frame, c.dtheta)
        H = scale(H, 1.0 + (A or 0.0) * dot(H, H), divide=True)
        c = SampledCurve(points=c.points + step * H, scale_hint=c.scale_hint)
        t += step
        k += 1
        yield frame_length(frame, c.dtheta), c


def integrate_heat_flow(c: SampledCurve, t_end: float, dt: Optional[float] = None):
    """March the heat flow to t_end >= 0 with adaptive CFL steps, or a given dt > 0.

    Returns the final curve and the polygon lengths after each step
    (index 0 is the initial length).
    """
    if not 0.0 <= t_end < np.inf:
        raise InputDataError(f"t_end must be a finite number >= 0, got {t_end!r}")
    lengths = [float(np.sum(c.edge_lengths()))]
    for _length, c in iter_curve_flow(c, dt=dt, t_end=t_end):
        lengths.append(float(np.sum(c.edge_lengths())))
    return c, np.array(lengths)


@dataclass
class VStarField(HomotopyFrame):
    """The homotopy frame of a grid (T = C_s, V = C_v) with its v* fields.

    It adds c_ss and c_vstar_vstar, (N_v, N_theta, n) arrays, and per
    slice big_m = int m ds, the lengths and l_vstar = d_v len =
    -int C_v* . C_ss ds. m and big_m are those of energy() and
    stable_lambda bit for bit; big_m (times phi for the conformal flow)
    is the per-slice energy the flow's trace integrates. c_ss is
    curves.curvature_kernel of the frame, the H of the J and MM
    energies.
    """

    c_ss: np.ndarray
    c_vstar_vstar: np.ndarray
    big_m: np.ndarray
    lengths: np.ndarray
    l_vstar: np.ndarray


def d_s(C: HomotopyGrid, f, frame: HomotopyFrame):
    """Arclength derivative of a per-grid-point field, with an immersed frame of C."""
    f = np.asarray(f, dtype=float)
    df = periodic_derivative(f, C.dtheta, axis=1)
    return df / frame.speed if f.ndim == 2 else scale(df, frame.speed, divide=True)


def d_vstar(C: HomotopyGrid, f, frame: HomotopyFrame):
    """Geometric v-derivative d_v f - (C_v . C_s) d_s f, with an immersed frame of C."""
    f = np.asarray(f, dtype=float)
    fv = open_derivative(f, C.dv, axis=0)
    fs = d_s(C, f, frame)
    return fv - (frame.tangential * fs if f.ndim == 2 else scale(fs, frame.tangential))


def vstar_calculus(C: HomotopyGrid) -> VStarField:
    """All v* fields of the grid by finite differences."""
    if not C.periodic:
        raise InputDataError("the v* calculus needs periodic slices")
    frame = homotopy_frame(C).require_immersed("the v* calculus")
    speed = frame.speed
    c_ss = curvature_kernel(frame, C.dtheta)
    return VStarField(
        **vars(frame),
        c_ss=c_ss,
        c_vstar_vstar=d_vstar(C, frame.c_vstar, frame),
        big_m=_normal_slices(C, frame.m, speed),
        lengths=C.integrate_theta(speed),
        l_vstar=C.integrate_theta(-dot(frame.c_vstar, c_ss) * speed),
    )


def identity_residuals(C: HomotopyGrid) -> dict:
    """Max residuals of the six pointwise identities of the v* calculus.

    Expected O(grid spacing squared) on smooth arc-parameterized grids;
    the first two are exact by construction of the discrete fields.
    Rows near the v-ends are skipped so one-sided stencils do not
    dominate the interior measurement.
    """
    fields = vstar_calculus(C)
    sl = slice(2, C.n_v - 2) if C.n_v > 6 else slice(None)

    def mx(x):
        return float(np.max(np.abs(x[sl])))

    T = fields.T
    c_vstar_s = d_s(C, fields.c_vstar, fields)
    c_s_vstar = d_vstar(C, T, fields)
    return {
        "c_s.c_s=1": mx(dot(T, T) - 1.0),
        "c_s.c_vstar=0": mx(dot(T, fields.c_vstar)),
        "c_vstar_s.c_vstar=-c_vstarvstar.c_s": mx(
            dot(c_vstar_s, fields.c_vstar) + dot(fields.c_vstar_vstar, T)
        ),
        "c_vstar_s.c_s=-c_ss.c_vstar": mx(
            dot(c_vstar_s, T) + dot(fields.c_ss, fields.c_vstar)
        ),
        "c_s_vstar.c_s=0": mx(dot(c_s_vstar, T)),
        "c_ss.c_s=0": mx(dot(fields.c_ss, T)),
    }


def _factor_terms(fields: VStarField, factor: ConformalFactor):
    """phi and phi' on the slice lengths, and the C_ss coefficient.

    coef_s = (1/2)(phi' M - phi m) per grid point; it is nonnegative
    everywhere when the factor's lambda is stable. A flow step takes
    these once and shares them between its CFL bound, its stability
    margin and its update.
    """
    phi = np.atleast_1d(factor.value(fields.lengths))
    dphi = np.atleast_1d(factor.derivative(fields.lengths))
    coef_s = 0.5 * ((dphi * fields.big_m)[:, None] - phi[:, None] * fields.m)
    return phi, dphi, coef_s


def _cfl_dt(C: HomotopyGrid, fields: VStarField, terms) -> float:
    """The stable step for the fields and their _factor_terms."""
    ds_min = float(np.min(fields.speed)) * C.dtheta
    phi, _dphi, coef_s = terms
    coef = max(float(np.max(phi)), float(np.max(np.abs(coef_s))), 1.0)
    return 0.2 * min(ds_min * ds_min, C.dv * C.dv) / coef


def _step(C: HomotopyGrid, fields: VStarField, terms, dt, drop_magnitude) -> HomotopyGrid:
    """Explicit Euler update from the fields and their _factor_terms.

    C_t = phi C_v*v* + phi' L_v* C_v* + (1/2)(phi' M - phi m) C_ss on the
    interior slices, with phi on the slice lengths; the endpoints stay
    pinned. drop_magnitude divides by phi, keeping only the shape of the
    stabilization. dt is not checked here: the flow loop never takes
    more than the CFL bound.
    """
    phi, dphi, coef_s = terms
    rhs = scale(fields.c_vstar_vstar, phi[:, None])
    rhs += scale(fields.c_vstar, (dphi * fields.l_vstar)[:, None])
    rhs += scale(fields.c_ss, coef_s)
    if drop_magnitude:
        rhs = scale(rhs, phi[:, None], divide=True)
    values = C.values.copy()
    values[1:-1] += dt * rhs[1:-1]
    # A NaN or an infinity fails the comparison too.
    if not np.max(np.abs(values)) <= 1e6 * C.scale_hint:
        raise NumericalFailureError("flow blew up: field norm exceeded the cap")
    return HomotopyGrid(values=values, periodic=True)


@dataclass
class FlowState:
    """Result of a homotopy flow run."""

    grid: HomotopyGrid
    t: float
    steps: int
    lam: float
    dt: float
    energy_trace: np.ndarray
    margin_trace: Optional[np.ndarray] = None
    converged: bool = False
    blew_up: bool = False
    last_displacement: float = np.inf


def _renormalize_interior(C: HomotopyGrid) -> HomotopyGrid:
    """Resample interior slices at equal arclength; endpoints stay bit-exact."""
    values = C.values.copy()
    values[1:-1] = _resample_rows(C.values[1:-1], C.n_theta, C.scale_hint)
    return HomotopyGrid(values=values, periodic=True)


def iter_homotopy_flow(
    C: HomotopyGrid,
    kind: str = "conformal",
    steps: int = 1000,
    dt: Optional[float] = None,
    factor: Optional[ConformalFactor] = None,
    lam: Optional[float] = None,
    drop_magnitude: bool = False,
    renormalize_every: int = 10,
    stop_displacement: float = 0.0,
):
    """Drive the h0 or conformal homotopy flow, one item per step.

    lambda (and with it the conformal factor, unless one is supplied)
    is frozen from stable_lambda at t = 0. Slices are re-sampled at
    equal arclength every renormalize_every steps to keep the unit
    speed assumption of the calculus honest. The run stops early when
    the per-step displacement falls below stop_displacement, and
    reports rather than raises a blow-up. Each step computes the v*
    fields once and shares them between the CFL bound, the stability
    margin min(phi' M - phi m), the update and the energy trace; h0
    steps with the identity factor. Every trace entry but the last is
    the energy of the grid a step started from, taken from that step's
    fields with the formula of energies.energy; the last is one
    energy() call on the final grid. A given dt caps the CFL step; it
    must be a finite number > 0.

    Yields (k, grid, None) after every step but the last, with the
    grid step k + 1 starts from, then (k, grid, state) with the final
    FlowState. k is state.steps there; after a blow-up the grid is the
    last one before the failed step, and state.dt is the dt of the
    last step taken (0.0 if none was).
    """
    if kind not in ("h0", "conformal"):
        raise InputDataError(f"unknown homotopy flow kind {kind!r}")
    _require_dt(dt)
    if not 0.0 <= stop_displacement < np.inf:
        raise InputDataError(
            f"stop_displacement must be a finite number >= 0, got {stop_displacement!r}"
        )
    if kind == "conformal" and factor is None:
        if lam is None:
            lam = stable_lambda(C)
        factor = ConformalFactor.exp_length(lam)
    if kind == "conformal":
        spec = EnergySpec(kind="conformal", factor=factor)
        step_factor = factor
    else:
        spec = EnergySpec(kind="geom_H0")
        step_factor = ConformalFactor.identity()

    energies = []
    margins = [] if kind == "conformal" else None
    t = 0.0
    displacement = np.inf
    converged = False
    blew_up = False
    k = 0
    step_dt = 0.0
    for k in range(1, steps + 1):
        fields = vstar_calculus(C)
        terms = _factor_terms(fields, step_factor)
        current_dt = _cfl_dt(C, fields, terms)
        if dt is not None:
            current_dt = min(dt, current_dt)
        try:
            if margins is not None:
                margins.append(2.0 * float(np.min(terms[2])))
            new = _step(C, fields, terms, current_dt, drop_magnitude)
        except NumericalFailureError:
            blew_up = True
            break
        # phi is all ones for h0, and 1.0 * M is M bit for bit.
        energies.append(float(C.integrate_v(terms[0] * fields.big_m)))
        displacement = float(np.max(np.abs(new.values - C.values)))
        C = new
        t += current_dt
        step_dt = current_dt
        if renormalize_every and k % renormalize_every == 0:
            C = _renormalize_interior(C)
        if stop_displacement and displacement < stop_displacement:
            converged = True
            break
        if k < steps:
            yield k, C, None
    energies.append(energy(C, spec).total)
    yield k, C, FlowState(
        grid=C,
        t=t,
        steps=k,
        lam=step_factor.lam,
        dt=step_dt,
        energy_trace=np.array(energies),
        margin_trace=np.array(margins) if margins is not None else None,
        converged=converged,
        blew_up=blew_up,
        last_displacement=displacement,
    )


def run_homotopy_flow(
    C: HomotopyGrid,
    kind: str = "conformal",
    steps: int = 1000,
    dt: Optional[float] = None,
    factor: Optional[ConformalFactor] = None,
    lam: Optional[float] = None,
    drop_magnitude: bool = False,
    renormalize_every: int = 10,
    stop_displacement: float = 0.0,
) -> FlowState:
    """The final FlowState of iter_homotopy_flow with the same arguments."""
    for _k, _grid, state in iter_homotopy_flow(
        C, kind, steps, dt, factor, lam, drop_magnitude, renormalize_every,
        stop_displacement,
    ):
        pass
    return state


# The central-difference step of energy_derivative_check, the trials of
# commutator_check, and the seed of the random fields of both checks.
_FD_STEP = 1e-6
_COMMUTATOR_TRIALS = 5
_CHECK_SEED = 0


def _smooth_perturbation(C: HomotopyGrid, rng) -> np.ndarray:
    """Random low-frequency field, nonzero on the end slices too."""
    thetas = C.theta_values()
    v = C.v_grid()
    P = np.zeros_like(C.values)
    for p in range(1, 4):
        amp = rng.normal(size=C.dim) / p
        phase, v_phase = rng.uniform(0.0, 2.0 * np.pi, size=2)
        mode = np.cos(p * thetas + phase)
        profile = np.cos(p * np.pi * v + v_phase)
        P += profile[:, None, None] * mode[None, :, None] * amp[None, None, :]
    return P * C.scale_hint


def energy_derivative_check(C: HomotopyGrid, flow: str = "h0", trials: int = 10) -> float:
    """Max relative error between the exact dE/dt and central differences.

    E is energy() of the flow's kind: geom_H0 for h0, conformal with
    phi = e^(lambda L), lambda = stable_lambda(C), for conformal. For
    each random perturbation P, which moves the end slices too,
    sum(P . energy_gradient) is compared with (E(C + hP) - E(C - hP)) /
    2h, h = _FD_STEP, so the result is the finite-difference error
    alone, about 1e-9 on smooth grids.
    """
    if flow == "h0":
        spec = EnergySpec(kind="geom_H0")
    elif flow == "conformal":
        factor = ConformalFactor.exp_length(stable_lambda(C))
        spec = EnergySpec(kind="conformal", factor=factor)
    else:
        raise InputDataError(f"unknown flow {flow!r} for the derivative check")

    rng = np.random.default_rng(_CHECK_SEED)
    G = energy_gradient(C, spec.factor)
    worst = 0.0
    for _ in range(trials):
        P = _smooth_perturbation(C, rng)
        exact = float(np.sum(P * G))
        plus = HomotopyGrid(values=C.values + _FD_STEP * P)
        minus = HomotopyGrid(values=C.values - _FD_STEP * P)
        fd = (energy(plus, spec).total - energy(minus, spec).total) / (2.0 * _FD_STEP)
        worst = max(worst, abs(exact - fd) / max(abs(fd), 1e-12))
    return worst


def _random_smooth_scalar(C: HomotopyGrid, rng):
    """A smooth scalar field from a few Fourier-in-theta, cosine-in-v modes."""
    thetas = C.theta_values()
    v = C.v_grid()
    f = np.zeros((C.n_v, C.n_theta))
    for p in range(1, 4):
        for q in range(3):
            amp = rng.normal() / (p * (q + 1))
            phase = rng.uniform(0.0, 2.0 * np.pi)
            f += amp * np.cos(p * thetas + phase)[None, :] * np.cos(
                q * np.pi * v
            )[:, None]
    return f


def commutator_check(C: HomotopyGrid) -> float:
    """Max residual of the discrete commutation rules on random fields.

    Checks d_v* d_s f = d_s d_v* f + (C_v* . C_ss) d_s f, the plain-v
    commutator d_v d_s f = d_s d_v f - (C_s . d_s C_v) d_s f, and the
    integral rule d_v int f ds = int (f_v* - f C_v* . C_ss) ds.
    Residuals are measured away from the v-ends where one-sided
    stencils would dominate; all three converge at second order.
    """
    fields = vstar_calculus(C)
    rng = np.random.default_rng(_CHECK_SEED)
    sl = slice(2, C.n_v - 2) if C.n_v > 6 else slice(None)
    vstar_dot_ss = dot(fields.c_vstar, fields.c_ss)
    c_vs = d_s(C, fields.V, fields)
    ts_term = dot(fields.T, c_vs)

    worst = 0.0
    for _ in range(_COMMUTATOR_TRIALS):
        f = _random_smooth_scalar(C, rng)
        fs = d_s(C, f, fields)
        f_vstar = d_vstar(C, f, fields)

        lhs = d_vstar(C, fs, fields)
        rhs = d_s(C, f_vstar, fields) + vstar_dot_ss * fs
        worst = max(worst, float(np.max(np.abs(lhs[sl] - rhs[sl]))))

        lhs_v = open_derivative(fs, C.dv, axis=0)
        rhs_v = d_s(C, open_derivative(f, C.dv, axis=0), fields)
        rhs_v = rhs_v - ts_term * fs
        worst = max(worst, float(np.max(np.abs(lhs_v[sl] - rhs_v[sl]))))

        slice_int = C.integrate_theta(f * fields.speed)
        lhs_i = open_derivative(slice_int, C.dv, axis=0)
        rhs_i = C.integrate_theta((f_vstar - f * vstar_dot_ss) * fields.speed)
        worst = max(worst, float(np.max(np.abs(lhs_i[sl] - rhs_i[sl]))))
    return worst
