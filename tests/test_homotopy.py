"""Tests for homotopy grids, quadrature, and reparameterizations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvemetrics.errors import GridTooCoarseError, InputDataError, NotImmersedError
from curvemetrics.homotopy import (
    HomotopyGrid,
    homotopy_frame,
    length_profile,
    linear_homotopy,
    max_tangential_speed,
    optimal_unwind_shift,
    periodic_interp,
    reparam_arclength,
    reparam_horizontal,
    sample_homotopy,
    shift_unwind,
)

from helpers import as_grid, ellipse, smooth_random_grid, translating_circle, unit_circle


def test_grid_validation_rejects_bad_shapes():
    good = np.zeros((4, 8, 2))
    good[..., 0] = 1.0
    with pytest.raises(InputDataError):
        HomotopyGrid(values=good[0])
    with pytest.raises(InputDataError):
        HomotopyGrid(values=good[:1])
    with pytest.raises(InputDataError):
        HomotopyGrid(values=good[:, :2])
    with pytest.raises(InputDataError):
        HomotopyGrid(values=good[..., :1])
    bad = good.copy()
    bad[1, 3, 0] = np.nan
    with pytest.raises(InputDataError):
        HomotopyGrid(values=bad)


def test_grid_spacings():
    C = translating_circle(n_theta=64, n_v=9)
    assert C.dtheta == pytest.approx(2.0 * np.pi / 64, abs=0.0)
    assert C.dv == pytest.approx(1.0 / 8, abs=0.0)
    open_grid = HomotopyGrid(values=np.random.default_rng(0).random((5, 33, 2)), periodic=False)
    assert open_grid.dtheta == pytest.approx(1.0 / 32, abs=0.0)
    assert open_grid.theta_values()[-1] == 1.0


def test_scale_hint_matches_the_reduction_and_is_computed_once():
    # The reference is the whole-grid reduction the cached column-wise
    # bounding box replaced.
    C = smooth_random_grid(n_theta=64, n_v=9, seed=3)
    flat = C.values.reshape(-1, C.dim)
    reference = float(np.linalg.norm(flat.max(axis=0) - flat.min(axis=0)))
    assert C.scale_hint == reference
    assert "scale_hint" in vars(C)
    assert HomotopyGrid(values=np.zeros((2, 4, 3))).scale_hint == 1.0


def test_integrate_theta_trig_exact():
    # The periodic sum rule integrates low Fourier modes to machine accuracy.
    C = translating_circle(n_theta=64, n_v=3)
    thetas = C.theta_values()
    assert C.integrate_theta(np.cos(thetas) ** 2) == pytest.approx(np.pi, abs=1e-13)
    assert abs(C.integrate_theta(np.sin(3 * thetas))) < 1e-13
    stacked = np.tile(np.cos(thetas) ** 2, (C.n_v, 1))
    per_slice = C.integrate_theta(stacked)
    assert per_slice.shape == (3,)
    np.testing.assert_allclose(per_slice, np.pi, atol=1e-13)


def test_integrate_v_linear_exact():
    C = translating_circle(n_theta=16, n_v=11)
    vs = C.v_grid()
    assert C.integrate_v(3.0 * vs - 1.0) == pytest.approx(0.5, abs=1e-14)


def test_sample_homotopy_and_slices():
    C = sample_homotopy(
        lambda thetas, v: np.stack([(1 + v) * np.cos(thetas), (1 + v) * np.sin(thetas)], axis=1),
        n_theta=32,
        n_v=5,
    )
    assert C.values.shape == (5, 32, 2)
    c0, c1 = C.endpoints
    assert c0.n_samples == 32
    np.testing.assert_allclose(np.linalg.norm(c1.points, axis=1), 2.0, atol=1e-14)
    # Slices share the grid's scale hint so immersion thresholds agree.
    assert C.slice_curve(2).scale_hint == pytest.approx(C.scale_hint)


def test_open_grid_has_no_slice_curves():
    grid = HomotopyGrid(values=np.random.default_rng(1).random((4, 16, 2)), periodic=False)
    with pytest.raises(InputDataError):
        grid.slice_curve(0)


def test_linear_homotopy_endpoints_bit_exact():
    c0 = unit_circle(n=64)
    c1 = ellipse(n=64)
    C = linear_homotopy(c0, c1, n_v=17)
    assert np.array_equal(C.values[0], c0.points)
    assert np.array_equal(C.values[-1], c1.points)
    with pytest.raises(InputDataError):
        linear_homotopy(c0, ellipse(n=48), n_v=5)
    with pytest.raises(InputDataError):
        linear_homotopy(c0, c1, n_v=1)


def test_d_v_exact_on_linear_homotopy():
    C = linear_homotopy(unit_circle(n=32), ellipse(n=32), n_v=9)
    expected = C.values[-1] - C.values[0]
    d_v = homotopy_frame(C).V
    np.testing.assert_allclose(d_v, np.broadcast_to(expected, d_v.shape), atol=1e-12)


def test_length_profile_translating_circle():
    C = translating_circle(n_theta=256, n_v=8)
    profile = length_profile(C)
    # Central differences shorten the circle by the usual sin(h)/h factor.
    np.testing.assert_allclose(profile, 2.0 * np.pi, rtol=2e-4)
    assert np.ptp(profile) < 1e-12


def test_periodic_interp_reproduces_nodes():
    thetas = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
    values = np.stack([np.cos(thetas), np.sin(2 * thetas)], axis=1)
    dtheta = thetas[1] - thetas[0]
    out = periodic_interp(values, thetas, dtheta)
    np.testing.assert_allclose(out, values, atol=1e-12)
    # Shifts by whole grid steps reduce to rolls.
    out = periodic_interp(values, thetas + 3 * dtheta, dtheta)
    np.testing.assert_allclose(out, np.roll(values, -3, axis=0), atol=1e-9)


def test_periodic_interp_cubic_accuracy():
    def worst_error(n):
        thetas = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        dtheta = thetas[1] - thetas[0]
        tau = thetas + 0.37 * dtheta
        out = periodic_interp(np.sin(thetas), tau, dtheta)
        return np.max(np.abs(out - np.sin(tau)))

    e64 = worst_error(64)
    e128 = worst_error(128)
    assert e64 < 1e-5
    # Fourth-order convergence: halving the spacing gains about 16x.
    assert e64 / e128 > 10.0


def test_periodic_interp_linear_fallback_below_eight():
    thetas = np.linspace(0.0, 2.0 * np.pi, 6, endpoint=False)
    dtheta = thetas[1] - thetas[0]
    values = np.sin(thetas)
    mid = periodic_interp(values, thetas + 0.5 * dtheta, dtheta)
    expected = 0.5 * (values + np.roll(values, -1))
    np.testing.assert_allclose(mid, expected, atol=1e-14)


def test_reparam_arclength_uniformizes_speed():
    c0 = ellipse(n=256, a=2.0, b=1.0)
    c1 = ellipse(n=256, a=2.5, b=0.8)
    C = linear_homotopy(c0, c1, n_v=9)
    before = homotopy_frame(C).speed
    cv_before = np.std(before, axis=1) / np.mean(before, axis=1)
    out = reparam_arclength(C)
    after = homotopy_frame(out).speed
    cv_after = np.std(after, axis=1) / np.mean(after, axis=1)
    assert np.all(cv_after < 0.01)
    assert np.all(cv_after < cv_before / 10.0)
    # The gauge is fixed by keeping the first sample of every slice.
    np.testing.assert_allclose(out.values[:, 0], C.values[:, 0], atol=1e-12)
    np.testing.assert_allclose(length_profile(out), length_profile(C), rtol=1e-3)


def test_reparam_arclength_rejects_degenerate_slice():
    circle = unit_circle(n=64).points
    C = as_grid([circle, np.zeros_like(circle)])
    with pytest.raises(NotImmersedError, match="slice 1 is degenerate"):
        reparam_arclength(C)


def test_two_slice_grid_has_the_frame_of_its_line():
    # Two slices define only the linear homotopy between them, so d_v is
    # its slope on both rows and the frame needs no third slice.
    circle = unit_circle(n=64).points
    C = as_grid([circle, 2.0 * circle])
    frame = homotopy_frame(C)
    assert np.array_equal(frame.V, np.stack([circle, circle]))
    np.testing.assert_allclose(length_profile(C), [2.0 * np.pi, 4.0 * np.pi], rtol=1e-2)


def test_max_tangential_speed_translating_circle():
    # <d_v C, T> = -sin(theta) and the grid contains theta = pi/2.
    C = translating_circle(n_theta=128, n_v=16)
    assert max_tangential_speed(C) == pytest.approx(1.0, abs=1e-12)


def test_reparam_horizontal_translating_circle():
    C = translating_circle(n_theta=128, n_v=64)
    res = reparam_horizontal(C)
    # Dominated by the second-order v-differences used to measure it;
    # halving both spacings brings this under 1e-3.
    assert res.residual < 5e-3
    np.testing.assert_allclose(res.phi[0], C.theta_values(), atol=0.0)
    np.testing.assert_allclose(res.grid.values[0], C.values[0], atol=1e-9)
    # Each output slice still lies on the unit circle about (v, 0).
    vs = C.v_grid()
    centered = res.grid.values - np.stack([vs, np.zeros_like(vs)], axis=1)[:, None, :]
    radii = np.linalg.norm(centered, axis=2)
    assert np.max(np.abs(radii - 1.0)) < 1e-3


def test_reparam_horizontal_rejects_under_resolved_grid():
    # A circle of radius 0.05 translating a full unit across two v steps
    # has tangential rates near 20, far beyond what RK4 with dv = 0.5 can
    # track; the computed map loses monotonicity and the solver says so.
    def tiny(thetas, v):
        return np.stack([0.05 * np.cos(thetas) + v, 0.05 * np.sin(thetas)], axis=1)

    C = sample_homotopy(tiny, n_theta=16, n_v=3)
    with pytest.raises(GridTooCoarseError):
        reparam_horizontal(C)


def test_shift_unwind_integer_steps_roll_the_samples():
    C = translating_circle(n_theta=64, n_v=5)
    shifts = np.array([0, 1, 2, 3, 5]) * C.dtheta
    out = shift_unwind(C, shifts)
    for j, m in enumerate([0, 1, 2, 3, 5]):
        np.testing.assert_allclose(out.values[j], np.roll(C.values[j], -m, axis=0), atol=1e-9)
    with pytest.raises(InputDataError):
        shift_unwind(C, shifts[:3])


@settings(max_examples=25, deadline=None)
@given(rate=st.floats(min_value=-5.0, max_value=5.0))
def test_shift_unwind_preserves_slice_lengths(rate):
    C = translating_circle(n_theta=128, n_v=9)
    out = shift_unwind(C, rate * C.v_grid())
    np.testing.assert_allclose(length_profile(out), length_profile(C), rtol=1e-6)


def test_optimal_unwind_shift_on_already_unwound_grid():
    C = translating_circle(n_theta=128, n_v=32)
    phi = optimal_unwind_shift(C)
    assert np.max(np.abs(phi)) < 1e-12


def test_optimal_unwind_shift_recovers_twist():
    C = translating_circle(n_theta=256, n_v=64)
    for k in (1, 2):
        twisted = shift_unwind(C, 2.0 * np.pi * k * C.v_grid())
        phi = optimal_unwind_shift(twisted)
        assert phi[0] == 0.0
        assert phi[-1] == pytest.approx(-2.0 * np.pi * k, abs=0.1)
        unwound = shift_unwind(twisted, phi)
        # The twisted grid peaks near 2*pi*k + 1; unwinding brings the
        # tangential motion back to the base grid's level (1 plus the
        # second-order error of the recovered rate).
        assert max_tangential_speed(twisted) > 2.0 * np.pi * k
        assert max_tangential_speed(unwound) < 1.2
