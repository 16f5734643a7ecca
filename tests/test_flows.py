"""Tests for curve flows, the v* calculus, and the homotopy flows."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvemetrics import curves, curveio, flows
from curvemetrics.cli import main
from curvemetrics.curves import (
    SampledCurve,
    curvature,
    dot,
    resample_arclength,
    scale,
    theta_grid,
)
from curvemetrics.energies import (
    ConformalFactor,
    EnergySpec,
    energy,
    energy_gradient,
    inner_product,
    stable_lambda,
)
from curvemetrics.errors import (
    CFLError,
    InputDataError,
    NotImmersedError,
    NumericalFailureError,
)
from curvemetrics.flows import (
    commutator_check,
    d_s,
    d_vstar,
    energy_derivative_check,
    identity_residuals,
    integrate_heat_flow,
    iter_curve_flow,
    mm_normal_speed,
    run_homotopy_flow,
    vstar_calculus,
)
from curvemetrics.homotopy import (
    HomotopyGrid,
    homotopy_frame,
    length_profile,
    linear_homotopy,
)

from helpers import (
    bits,
    heat_cfl_dt,
    reference_curve_flow,
    reference_curvature,
    reference_margin,
    smooth_random_grid,
    translating_circle,
    unit_circle,
    v4_cone,
    wobbled_grid,
)


def test_mm_normal_speed_values():
    # The bounded flow is not monotone in curvature: 0.25 and 1 map to
    # the same speed while 0.5 sits at the cap.
    speeds = mm_normal_speed(np.array([0.25, 0.5, 1.0]), A=4.0)
    np.testing.assert_allclose(speeds, [0.2, 0.25, 0.2], atol=1e-12)
    kappa = np.linspace(0.0, 50.0, 10001)
    assert np.max(mm_normal_speed(kappa, 4.0)) <= 0.25 + 1e-12


def _one_step(c, A=None, dt=None):
    """The curve after a one-step run of iter_curve_flow."""
    [(_length, new)] = iter_curve_flow(c, A, dt, steps=1)
    return new


def test_heat_cfl_bound():
    c = unit_circle(n=128)
    dtheta = 2.0 * np.pi / 128
    bound = heat_cfl_dt(c)
    assert bound == pytest.approx(0.2 * dtheta**2, rel=1e-3)
    for A in (None, 0.5):
        with pytest.raises(CFLError):
            _one_step(c, A, 2.0 * bound)
        # The bound is 0.2 min(ds)^2 itself: just above it raises, just
        # below it steps.
        with pytest.raises(CFLError, match="exceeds the stable bound"):
            _one_step(c, A, bound * (1.0 + 1e-9))
        assert not np.array_equal(_one_step(c, A, bound * (1.0 - 1e-9)).points, c.points)
    points = c.points.copy()
    points[1] = points[0]
    with pytest.raises(NotImmersedError):
        _one_step(SampledCurve(points=points), dt=1e-6)


def test_zero_central_speed_is_rejected_naming_the_sample(tmp_path, capsys):
    # With pts[5] = pts[3] every polygon edge is long, yet the
    # central-difference speed at sample 4 is zero.
    pts = unit_circle(n=32).points.copy()
    pts[5] = pts[3]
    c = SampledCurve(points=pts)
    assert curves.immersed(c) and np.min(c.edge_lengths()) > 0.19
    assert heat_cfl_dt(c) == 0.0
    for run in (
        lambda: curvature(c),
        # A one-step run at the CFL dt, which is 0.
        lambda: _one_step(c),
        lambda: _one_step(c, 0.5),
        # The CFL step is 0, so without the check this never advances.
        lambda: integrate_heat_flow(c, 0.01),
    ):
        with pytest.raises(NotImmersedError, match="sample 4 is degenerate"):
            run()
    path = tmp_path / "spike.csv"
    curveio.save_curve_csv(path, c)
    for kind in ("heat", "mm"):
        argv = ["flow", "--kind", kind, "--curve", str(path), "--steps", "20"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "NotImmersedError" in err and "sample 4 is degenerate" in err


def test_heat_flow_radius_ode():
    # dr/dt = -1/r gives r(t) = sqrt(1 - 2t).
    c, lengths = integrate_heat_flow(unit_circle(n=128), 0.25)
    radii = np.linalg.norm(c.points - c.points.mean(axis=0), axis=1)
    assert np.mean(radii) == pytest.approx(np.sqrt(0.5), rel=1e-2)
    assert np.all(np.diff(lengths) < 0.0)


def test_integrate_heat_flow_rejects_oversized_dt():
    c = unit_circle(n=64)
    with pytest.raises(CFLError):
        integrate_heat_flow(c, 0.01, dt=10.0 * heat_cfl_dt(c))


def test_mm_step_reduces_to_heat_at_zero_A():
    c = unit_circle(n=128)
    dt = heat_cfl_dt(c)
    heat = _one_step(c, None, dt)
    mm0 = _one_step(c, 0.0, dt)
    assert np.array_equal(heat.points, mm0.points)
    # A > 0 shrinks the step: kappa = 1, so displacement scales by 1/(1+A).
    mm4 = _one_step(c, 4.0, dt)
    d_heat = np.linalg.norm(heat.points - c.points, axis=1)
    d_mm = np.linalg.norm(mm4.points - c.points, axis=1)
    np.testing.assert_allclose(d_mm, d_heat / 5.0, rtol=1e-6)
    with pytest.raises(InputDataError):
        _one_step(c, -1.0, dt)
    ring3d = np.concatenate([c.points, np.zeros((128, 1))], axis=1)
    with pytest.raises(InputDataError):
        _one_step(SampledCurve(points=ring3d), 4.0, dt)


def _wobbly_curve(n, modes, amps, phases, sx, sy):
    """A smooth star-shaped curve r = 1 + sum of modes 2..modes, scaled per axis."""
    th = theta_grid(n)
    r = np.ones(n)
    for p, (a, ph) in enumerate(zip(amps[: modes - 1], phases), start=2):
        r += a / (p * p) * np.cos(p * th + ph)
    return SampledCurve(points=np.stack([sx * r * np.cos(th), sy * r * np.sin(th)], axis=1))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(32, 256),
    modes=st.integers(2, 6),
    amps=st.lists(st.floats(-0.5, 0.5), min_size=5, max_size=5),
    phases=st.lists(st.floats(0.0, 2.0 * np.pi), min_size=5, max_size=5),
    sx=st.floats(0.2, 5.0),
    sy=st.floats(0.2, 5.0),
    A=st.sampled_from([None, 0.5, 4.0]),
)
def test_curve_flow_step_at_the_cfl_dt_never_lengthens(n, modes, amps, phases, sx, sy, A):
    c = _wobbly_curve(n, modes, amps, phases, sx, sy)
    dt = heat_cfl_dt(c)
    new = _one_step(c, A, dt)
    assert np.sum(new.edge_lengths()) <= np.sum(c.edge_lengths())
    assert curves.arclength(new) <= curves.arclength(c)


@pytest.mark.parametrize("A", [None, 0.0, 0.5])
@pytest.mark.parametrize("given_dt", [False, True])
def test_curve_flow_loop_matches_the_public_step_loop(A, given_dt):
    c = _wobbly_curve(96, 4, [0.3, -0.4, 0.2], [0.1, 1.0, 2.0], 1.5, 0.8)
    dt = 0.7 * heat_cfl_dt(c) if given_dt else None
    # t_end ends mid-step, so the last step is clamped.
    t_end = 7.5 * heat_cfl_dt(c)
    reference = reference_curve_flow(c, A, dt, t_end=t_end)
    assert len(reference) > 3
    items = list(iter_curve_flow(c, A, dt, t_end))
    assert len(items) == len(reference) - 1
    for (length, new), before, after in zip(items, reference, reference[1:]):
        assert bits(length) == bits(curves.arclength(before))
        np.testing.assert_array_equal(bits(new.points), bits(after.points))
        assert new.scale_hint == after.scale_hint
    if A is None:
        final, lengths = integrate_heat_flow(c, t_end, dt)
        np.testing.assert_array_equal(bits(final.points), bits(reference[-1].points))
        expected = [np.sum(r.edge_lengths()) for r in reference]
        np.testing.assert_array_equal(bits(lengths), bits(expected))


@pytest.mark.parametrize("kind, A", [("heat", None), ("mm", 0.0), ("mm", 0.5)])
@pytest.mark.parametrize("dt", ["auto", "1e-4"])
@pytest.mark.parametrize("steps", [0, 7])
def test_cli_curve_flow_matches_the_public_step_loop(tmp_path, capsys, kind, A, dt, steps):
    c = _wobbly_curve(64, 3, [0.4, 0.2], [0.5, 1.5], 1.0, 0.6)
    path = tmp_path / "c.csv"
    curveio.save_curve_csv(path, c)
    prefix = str(tmp_path / "run_")
    argv = ["flow", "--kind", kind, "--curve", str(path), "--steps", str(steps),
            "--dt", dt, "--A", str(A or 0.0), "--dump-every", "2", "--out-prefix", prefix]
    assert main(argv) == 0
    reference = reference_curve_flow(
        c, A, None if dt == "auto" else float(dt), steps=steps
    )
    first, last = (curveio._fmt(curves.arclength(r)) for r in (reference[0], reference[-1]))
    assert capsys.readouterr().out == (
        f"kind={kind} steps={steps} length_initial={first} length_final={last}\n"
    )
    expect = tmp_path / "expect.csv"
    for k, r in enumerate(reference):
        name = "final" if k == steps else f"{k:06d}"
        if k == steps or (k and k % 2 == 0):
            curveio.save_curve_csv(expect, r)
            assert (tmp_path / f"run_{name}.csv").read_bytes() == expect.read_bytes()
        else:
            assert not (tmp_path / f"run_{name}.csv").exists()


def test_curve_flows_build_one_frame_per_step(tmp_path, capsys, monkeypatch):
    path = tmp_path / "c.csv"
    curveio.save_curve_csv(path, unit_circle(n=128))
    periodic = _count_calls(monkeypatch, "periodic_derivative")
    for kind in ("heat", "mm"):
        periodic[0] = 0
        assert main(["flow", "--kind", kind, "--curve", str(path), "--steps", "50"]) == 0
        # One frame and one d_theta T per step, one frame for the final length.
        assert periodic[0] == 2 * 50 + 1, kind
    periodic[0] = 0
    _final, lengths = integrate_heat_flow(unit_circle(n=128), 0.125)
    assert len(lengths) - 1 == 299
    assert periodic[0] == 2 * 299


@pytest.mark.parametrize("dt", [0.0, -1e-4, np.nan, np.inf, -np.inf])
def test_caller_dt_must_be_a_finite_positive_number(dt):
    c = unit_circle(n=64)
    with pytest.raises(InputDataError, match="dt must be a finite number > 0"):
        integrate_heat_flow(c, 0.01, dt=dt)
    C = wobbled_grid()
    for kind in ("h0", "conformal"):
        with pytest.raises(InputDataError, match="dt must be a finite number > 0"):
            run_homotopy_flow(C, kind=kind, steps=3, dt=dt)


def test_integrate_heat_flow_rejects_a_bad_end_time():
    c = unit_circle(n=64)
    for t_end in (np.nan, -1.0, -1e-300, np.inf):
        with pytest.raises(InputDataError, match="t_end must be a finite number >= 0"):
            integrate_heat_flow(c, t_end)
    # t_end = 0 is a run of no steps.
    final, lengths = integrate_heat_flow(c, 0.0)
    assert final is c and lengths.size == 1


@pytest.mark.parametrize("steps", ["0", "3"])
def test_curve_flow_checks_its_input_before_the_first_step(tmp_path, capsys, steps):
    # A < 0, a 3-D curve for the planar mm flow and a bad dt are
    # rejected before any step, so a zero-step run rejects them too.
    flat = tmp_path / "c.csv"
    curveio.save_curve_csv(flat, unit_circle(n=64))
    ring3d = np.concatenate([unit_circle(n=64).points, np.zeros((64, 1))], axis=1)
    space = tmp_path / "c3.csv"
    curveio.save_curve_csv(space, SampledCurve(points=ring3d))
    cases = [
        (["--A", "-1", "--curve", str(flat)], "the arclength flow needs A >= 0"),
        (["--A", "0.5", "--curve", str(space)], "the bounded arclength flow is planar"),
    ]
    for extra, message in cases:
        assert main(["flow", "--kind", "mm", *extra, "--steps", steps]) == 3
        err = capsys.readouterr().err
        assert "InputDataError" in err and message in err
    c = unit_circle(n=64)
    for A, dt in ((-1.0, None), (0.5, 0.0), (None, np.nan)):
        with pytest.raises(InputDataError):
            list(iter_curve_flow(c, A, dt, steps=int(steps)))
    # The heat flow takes a curve in any dimension.
    assert main(["flow", "--kind", "heat", "--curve", str(space), "--steps", steps]) == 0


def test_vstar_fields_translating_circle():
    C = translating_circle(n_theta=256, n_v=16)
    fields = vstar_calculus(C)
    thetas = theta_grid(256)
    N = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    T = np.stack([-np.sin(thetas), np.cos(thetas)], axis=1)
    # The unit translation projects to cos(theta) times the outward
    # normal, exactly, because the discrete tangent directions of a
    # sampled circle are exact.
    np.testing.assert_allclose(
        fields.c_vstar, np.broadcast_to(np.cos(thetas)[:, None] * N, C.values.shape), atol=1e-12
    )
    np.testing.assert_allclose(
        fields.m, np.broadcast_to(np.cos(thetas) ** 2, (16, 256)), atol=1e-12
    )
    np.testing.assert_allclose(fields.big_m, np.pi, rtol=1e-3)
    np.testing.assert_allclose(fields.lengths, 2.0 * np.pi, rtol=1e-3)
    np.testing.assert_allclose(fields.l_vstar, 0.0, atol=1e-10)
    expected_vv = -np.sin(thetas)[:, None] ** 2 * N + (np.sin(thetas) * np.cos(thetas))[:, None] * T
    np.testing.assert_allclose(
        fields.c_vstar_vstar,
        np.broadcast_to(expected_vv, C.values.shape),
        atol=2e-3,
    )


def test_d_vstar_and_d_s_of_simple_fields():
    C = translating_circle(n_theta=128, n_v=9)
    v_field = np.broadcast_to(C.v_grid()[:, None], (9, 128)).copy()
    frame = homotopy_frame(C)
    np.testing.assert_allclose(d_vstar(C, v_field, frame), 1.0, atol=1e-12)
    np.testing.assert_allclose(d_s(C, v_field, frame), 0.0, atol=1e-12)
    # d_s of the x coordinate is the tangent's x component.
    x = C.values[..., 0]
    expected = np.broadcast_to(-np.sin(theta_grid(128))[None, :], (9, 128))
    np.testing.assert_allclose(d_s(C, x, frame), expected, atol=1e-3)


def test_identity_residuals_second_order():
    coarse = identity_residuals(smooth_random_grid(n_theta=64, n_v=33, seed=1))
    fine = identity_residuals(smooth_random_grid(n_theta=128, n_v=65, seed=1))
    for key in ("c_s.c_s=1", "c_s.c_vstar=0"):
        assert coarse[key] < 1e-12
        assert fine[key] < 1e-12
    for key, value in fine.items():
        if key in ("c_s.c_s=1", "c_s.c_vstar=0"):
            continue
        assert value < 2e-3
        assert value < coarse[key] / 3.0


def test_commutator_check_second_order():
    r_coarse = commutator_check(smooth_random_grid(n_theta=64, n_v=33, seed=1))
    r_fine = commutator_check(smooth_random_grid(n_theta=128, n_v=65, seed=1))
    assert r_fine < 5e-3
    assert 3.5 < r_coarse / r_fine < 4.5


def test_homotopy_cfl_bound():
    C = translating_circle(n_theta=256, n_v=64)
    dt = run_homotopy_flow(C, kind="h0", steps=1, renormalize_every=0).dt
    assert 0.0 < dt <= 0.2 * C.dv**2


def test_flow_state_dt_is_the_dt_of_the_last_step_taken(monkeypatch):
    C = translating_circle(n_theta=128, n_v=17)
    one = run_homotopy_flow(C, kind="h0", steps=1, dt=1.0, renormalize_every=0)
    assert 0.0 < one.dt < 1.0
    for dt in (None, 1.0):
        assert run_homotopy_flow(C, kind="h0", steps=0, dt=dt).dt == 0.0
    assert run_homotopy_flow(C, kind="h0", steps=2, dt=1e-6).dt == 1e-6

    original = flows._step
    calls = []

    def failing(C, fields, terms, dt, drop_magnitude):
        calls.append(dt)
        if len(calls) == fail_at:
            raise NumericalFailureError("flow blew up: field norm exceeded the cap")
        return original(C, fields, terms, dt, drop_magnitude)

    monkeypatch.setattr(flows, "_step", failing)
    for fail_at in (1, 2):
        calls.clear()
        state = run_homotopy_flow(C, kind="h0", steps=5, dt=1.0, renormalize_every=0)
        assert state.blew_up and state.steps == fail_at
        assert state.dt == (0.0 if fail_at == 1 else calls[0])


def test_h0_step_pins_endpoints():
    C = translating_circle(n_theta=128, n_v=17)
    state = run_homotopy_flow(C, kind="h0", steps=1, renormalize_every=0)
    out = state.grid
    assert np.array_equal(out.values[0], C.values[0])
    assert np.array_equal(out.values[-1], C.values[-1])
    assert np.max(np.abs(out.values[1:-1] - C.values[1:-1])) > 0.0
    # A given dt above the stable bound is capped at that bound.
    capped = run_homotopy_flow(
        C, kind="h0", steps=1, dt=2.0 * state.dt, renormalize_every=0
    )
    assert capped.dt == state.dt
    assert np.array_equal(capped.grid.values, out.values)


def test_conformal_step_with_identity_factor_is_h0():
    C = translating_circle(n_theta=128, n_v=17)
    plain = run_homotopy_flow(C, kind="h0", steps=5)
    conf = run_homotopy_flow(
        C, kind="conformal", steps=5, factor=ConformalFactor.identity()
    )
    assert np.array_equal(plain.grid.values, conf.grid.values)
    assert np.array_equal(plain.energy_trace, conf.energy_trace)
    assert plain.dt == conf.dt


def test_stability_margin_at_stable_lambda():
    C = translating_circle(n_theta=256, n_v=64)
    lam = stable_lambda(C)
    stable, unstable = (
        run_homotopy_flow(C, steps=1, lam=x).margin_trace[0] for x in (lam, 0.5 * lam)
    )
    assert stable == reference_margin(C, ConformalFactor.exp_length(lam))
    assert unstable == reference_margin(C, ConformalFactor.exp_length(0.5 * lam))
    assert abs(stable) <= 1e-9
    assert unstable < -0.5


def test_run_conformal_flow_reports_state():
    C = translating_circle(n_theta=128, n_v=17)
    state = run_homotopy_flow(C, kind="conformal", steps=12, renormalize_every=5)
    assert state.steps == 12
    assert not state.blew_up
    assert state.lam == pytest.approx(1.0 / np.pi, rel=1e-2)
    assert state.margin_trace is not None
    assert state.margin_trace[0] >= -1e-9
    assert np.all(np.isfinite(state.energy_trace))
    assert state.energy_trace.size == 13
    np.testing.assert_array_equal(state.grid.values[0], C.values[0])
    np.testing.assert_array_equal(state.grid.values[-1], C.values[-1])


@pytest.mark.parametrize(
    "kind, renormalize_every",
    [("h0", 0), ("conformal", 0), ("h0", 2), ("conformal", 2)],
    ids=["h0", "conformal", "h0-renormalize", "conformal-renormalize"],
)
def test_run_flow_matches_the_public_step_loop(kind, renormalize_every):
    # The reference chains one-step runs at the start factor. The run
    # takes its energy trace from the v* fields of the next step, which
    # are built after renormalization; public energy() on the same grids
    # must give the same numbers bit for bit.
    C = translating_circle(n_theta=128, n_v=17)
    state = run_homotopy_flow(
        C, kind=kind, steps=5, renormalize_every=renormalize_every
    )
    if kind == "conformal":
        factor = ConformalFactor.exp_length(stable_lambda(C))
        spec = EnergySpec(kind="conformal", factor=factor)
    else:
        factor = None
        spec = EnergySpec(kind="geom_H0")
    G = C
    margins = []
    energies = [energy(G, spec).total]
    for k in range(1, 6):
        if factor is not None:
            margins.append(reference_margin(G, factor))
        one = run_homotopy_flow(G, kind, steps=1, factor=factor, renormalize_every=0)
        G = one.grid
        if renormalize_every and k % renormalize_every == 0:
            G = flows._renormalize_interior(G)
        energies.append(energy(G, spec).total)
    assert np.array_equal(state.grid.values, G.values)
    assert np.array_equal(state.energy_trace, energies)
    assert state.dt == one.dt
    if factor is None:
        assert state.margin_trace is None
    else:
        assert np.array_equal(state.margin_trace, margins)


def _renormalize_per_slice(G):
    """Interior slices resampled one public SampledCurve at a time."""
    rows = [G.values[0]]
    for j in range(1, G.n_v - 1):
        curve = SampledCurve(points=G.values[j], scale_hint=G.scale_hint)
        rows.append(resample_arclength(curve, G.n_theta).points)
    rows.append(G.values[-1])
    return HomotopyGrid(values=np.stack(rows), periodic=True)


@pytest.mark.parametrize("kind", ["h0", "conformal"])
def test_run_flow_renormalizes_without_per_slice_curves(kind, monkeypatch):
    # The reference chains one-step runs at the start factor,
    # renormalized every second step one curve at a time; the run must
    # match it bit for bit while every per-curve entry point fails when
    # called.
    C = translating_circle(n_theta=128, n_v=17)
    if kind == "conformal":
        factor = ConformalFactor.exp_length(stable_lambda(C))
        spec = EnergySpec(kind="conformal", factor=factor)
    else:
        factor = None
        spec = EnergySpec(kind="geom_H0")
    G = C
    margins = []
    energies = [energy(G, spec).total]
    for k in range(1, 6):
        if factor is not None:
            margins.append(reference_margin(G, factor))
        one = run_homotopy_flow(G, kind, steps=1, factor=factor, renormalize_every=0)
        G = one.grid
        if k % 2 == 0:
            G = _renormalize_per_slice(G)
        energies.append(energy(G, spec).total)

    def forbidden(*args, **kwargs):
        raise AssertionError("renormalization went through a per-curve call")

    monkeypatch.setattr(flows, "SampledCurve", forbidden)
    monkeypatch.setattr(flows, "resample_arclength", forbidden, raising=False)
    monkeypatch.setattr(curves, "resample_arclength", forbidden)
    state = run_homotopy_flow(C, kind=kind, steps=5, renormalize_every=2)
    assert np.array_equal(state.grid.values, G.values)
    assert np.array_equal(state.energy_trace, energies)
    assert state.dt == one.dt
    if factor is not None:
        assert np.array_equal(state.margin_trace, margins)


@pytest.mark.parametrize("kind", ["h0", "conformal"])
def test_run_flow_builds_vstar_fields_once_per_step(kind, monkeypatch):
    calls = []
    energy_calls = []
    original = flows.vstar_calculus
    original_energy = flows.energy

    def counting(C):
        calls.append(C)
        return original(C)

    def counting_energy(C, spec):
        energy_calls.append(spec.kind)
        return original_energy(C, spec)

    monkeypatch.setattr(flows, "vstar_calculus", counting)
    monkeypatch.setattr(flows, "energy", counting_energy)
    C = translating_circle(n_theta=64, n_v=9)
    state = run_homotopy_flow(C, kind=kind, steps=4, renormalize_every=2)
    assert state.steps == 4
    assert len(calls) == 4
    # The trace reuses each step's fields; only the final grid needs
    # its own energy() call.
    assert len(energy_calls) == 1
    assert state.energy_trace.size == 5


def test_run_flow_reports_a_blow_up(monkeypatch):
    grids = []
    original = flows._step

    def failing_third(C, fields, factor, dt, drop_magnitude):
        grids.append(C)
        if len(grids) == 3:
            raise NumericalFailureError("flow blew up: field norm exceeded the cap")
        return original(C, fields, factor, dt, drop_magnitude)

    monkeypatch.setattr(flows, "_step", failing_third)
    C = translating_circle(n_theta=64, n_v=9)
    state = run_homotopy_flow(C, kind="conformal", steps=10, renormalize_every=2)
    assert state.steps == 3
    assert state.blew_up
    assert not state.converged
    assert state.grid is grids[-1]
    spec = EnergySpec(kind="conformal", factor=ConformalFactor.exp_length(state.lam))
    expected = [energy(G, spec).total for G in grids]
    assert np.array_equal(state.energy_trace, expected)
    assert state.margin_trace.size == 3


@pytest.mark.parametrize("dt", [1e12, np.inf, np.nan])
def test_step_rejects_runaway_and_non_finite_fields(dt):
    C = translating_circle(n_theta=64, n_v=9)
    fields = vstar_calculus(C)
    terms = flows._factor_terms(fields, ConformalFactor.identity())
    with np.errstate(all="ignore"), pytest.raises(
        NumericalFailureError, match="field norm exceeded the cap"
    ):
        flows._step(C, fields, terms, dt, False)


def test_run_h0_flow_and_validation():
    C = translating_circle(n_theta=64, n_v=9)
    state = run_homotopy_flow(C, kind="h0", steps=3, renormalize_every=0)
    assert state.margin_trace is None
    assert state.lam == 0.0
    with pytest.raises(InputDataError):
        run_homotopy_flow(C, kind="parabolic")


def test_run_flow_stops_on_small_displacement():
    C = translating_circle(n_theta=64, n_v=9)
    state = run_homotopy_flow(C, kind="conformal", steps=50, stop_displacement=1.0)
    assert state.converged
    assert state.steps == 1


def test_energy_derivative_consistency():
    C = translating_circle(n_theta=128, n_v=33)
    assert energy_derivative_check(C, "h0", trials=6) < 1e-6
    assert energy_derivative_check(C, "conformal", trials=6) < 1e-6
    with pytest.raises(InputDataError):
        energy_derivative_check(C, "mm")


def _continuum_gradient(C, factor):
    """The continuum gradient G of the conformal energy, and the slice speeds.

    dE/dt = -int int C_t . G ds dv for pinned C_t, with
    G = 2 phi' L_v* C_v* + 2 phi (C_v*v* - (C_v*v* . C_s) C_s
    - (C_v* . C_ss) C_v*) + (phi m + phi' M) C_ss, built from the v*
    fields. It is the gradient the homotopy flows descend; it differs
    from the exact gradient of the discrete energy by truncation terms.
    """
    f = vstar_calculus(C)
    phi, dphi, _coef_s = flows._factor_terms(f, factor)
    phi2 = 2.0 * phi[:, None]
    G = (
        scale(f.c_vstar, (2.0 * dphi * f.l_vstar)[:, None])
        + scale(f.c_vstar_vstar, phi2)
        - scale(f.T, phi2 * dot(f.c_vstar_vstar, f.T))
        - scale(f.c_vstar, phi2 * dot(f.c_vstar, f.c_ss))
        + scale(f.c_ss, phi[:, None] * f.m + (dphi * f.big_m)[:, None])
    )
    return G, f.speed


def _pinned_perturbation(C, rng):
    """Random low-frequency field that vanishes on the end slices."""
    thetas = C.theta_values()
    window = np.sin(np.pi * C.v_grid()) ** 2
    P = np.zeros_like(C.values)
    for p in range(1, 4):
        amp = rng.normal(size=C.dim) / p
        mode = np.cos(p * thetas + rng.uniform(0.0, 2.0 * np.pi))
        P += window[:, None, None] * mode[None, :, None] * amp[None, None, :]
    return P


def _offset_circles(n):
    c1 = unit_circle(n, radius=1.4, center=(0.4, 0.2))
    return linear_homotopy(unit_circle(n), c1, n // 2 + 1)


def _gradient_gap(C, kind):
    """Worst relative gap between the continuum and exact directional derivatives."""
    if kind == "h0":
        factor = ConformalFactor.identity()
    else:
        factor = ConformalFactor.exp_length(stable_lambda(C))
    G, speed = _continuum_gradient(C, factor)
    exact = energy_gradient(C, factor)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(4):
        P = _pinned_perturbation(C, rng)
        flow = -float(C.integrate_v(C.integrate_theta(dot(P, G) * speed)))
        want = float(np.sum(P * exact))
        worst = max(worst, abs(flow - want) / abs(want))
    return worst


def test_continuum_gradient_converges_to_the_exact_one_at_second_order():
    # The flows descend the continuum gradient G; energy_gradient is the
    # exact gradient of the discrete energy. On pinned perturbations
    # their directional derivatives differ by second-order truncation,
    # so refining theta and v together cuts the gap about 4x.
    families = {
        "offset circles": _offset_circles,
        "translating circle": lambda n: translating_circle(n_theta=n, n_v=n // 4 + 1),
    }
    for family, grid in families.items():
        for kind in ("h0", "conformal"):
            gaps = [_gradient_gap(grid(n), kind) for n in (64, 128, 256)]
            assert 3.0 < gaps[0] / gaps[1] < 5.5, (family, kind, gaps)
            assert 3.0 < gaps[1] / gaps[2] < 5.5, (family, kind, gaps)


def _count_calls(monkeypatch, name):
    """Count calls of curves.<name> at every curvemetrics import site."""
    original = getattr(curves, name)
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("curvemetrics") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_curvature_takes_one_derivative_pass_over_the_frame(monkeypatch):
    periodic = _count_calls(monkeypatch, "periodic_derivative")
    opened = _count_calls(monkeypatch, "open_derivative")
    C = smooth_random_grid(seed=2)
    c = C.slice_curve(5)
    dt = heat_cfl_dt(c)
    h = np.cos(c.points)
    runs = {
        "energy J": lambda: energy(C, EnergySpec(kind="J")),
        "energy MM": lambda: energy(C, EnergySpec(kind="MM", A=0.5)),
        "heat step": lambda: _one_step(c, None, dt),
        "mm step": lambda: _one_step(c, 0.5, dt),
        "inner MM": lambda: inner_product(c, h, h, EnergySpec(kind="MM", A=0.5)),
    }
    for name, run in runs.items():
        periodic[0] = 0
        run()
        assert periodic[0] == 2, name
    # length_profile reads the speeds of the homotopy frame, whose V
    # takes the one v pass.
    periodic[0] = opened[0] = 0
    length_profile(C)
    assert (periodic[0], opened[0]) == (1, 1)


@pytest.mark.parametrize("name", ["cone", "random", "wobbled"])
def test_frame_curvature_matches_the_standalone_kernel(name):
    C = {
        "cone": v4_cone(n_theta=64, n_v=9),
        "random": smooth_random_grid(seed=4),
        "wobbled": wobbled_grid(),
    }[name]
    H, _T, _speed = reference_curvature(C.values, C.dtheta, C.scale_hint)
    frame = homotopy_frame(C)
    kappa2 = dot(H, H)
    j_rows = C.integrate_theta(kappa2 * frame.m * frame.speed)
    mm_rows = C.integrate_theta((1.0 + 0.7 * kappa2) * frame.m * frame.speed)
    assert np.array_equal(energy(C, EnergySpec(kind="J")).per_slice, j_rows)
    assert np.array_equal(energy(C, EnergySpec(kind="MM", A=0.7)).per_slice, mm_rows)

    # The cone's apex slice is a point; its curves and calculus start at slice 1.
    first = 1 if name == "cone" else 0
    for j in range(first, C.n_v):
        c = C.slice_curve(j)
        Hj, _Tj, _sj = reference_curvature(c.points, c.dtheta, c.scale_hint)
        assert np.array_equal(curvature(c).H, Hj)
        dt = heat_cfl_dt(c)
        assert np.array_equal(_one_step(c, None, dt).points, c.points + dt * Hj)
        bounded = scale(Hj, 1.0 + 0.3 * dot(Hj, Hj), divide=True)
        assert np.array_equal(_one_step(c, 0.3, dt).points, c.points + dt * bounded)
    immersed_part = HomotopyGrid(values=C.values[first:])
    H_i, _T_i, _s_i = reference_curvature(
        immersed_part.values, C.dtheta, immersed_part.scale_hint
    )
    assert np.array_equal(vstar_calculus(immersed_part).c_ss, H_i)


def test_flows_reject_a_non_finite_a_or_stop_displacement():
    # The checks run before the first step, and NaN fails them too.
    c = unit_circle(n=64)
    for A in (np.nan, np.inf, -1.0):
        with pytest.raises(InputDataError, match="the arclength flow needs A >= 0"):
            next(iter_curve_flow(c, A, steps=0))
    C = translating_circle(n_theta=64, n_v=8)
    for stop in (np.nan, np.inf, -1.0):
        with pytest.raises(InputDataError, match="stop_displacement must be a finite number"):
            next(flows.iter_homotopy_flow(C, steps=0, stop_displacement=stop))
