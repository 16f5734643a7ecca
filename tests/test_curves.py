import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from curvemetrics.curves import (
    EPS_IMMERSED,
    SampledCurve,
    _open_derivative_adjoint,
    _per_speed,
    _resample_rows,
    arclength,
    curvature,
    curvature_kernel,
    derivative_frame,
    dot,
    immersed,
    lift_direction,
    open_derivative,
    periodic_derivative,
    planar_normal,
    resample_arclength,
    scale,
    tangent_frame,
    theta_grid,
    unlift_direction,
)
from curvemetrics.errors import InputDataError, NotImmersedError
from curvemetrics.homotopy import homotopy_frame

from helpers import bits, ellipse, figure_eight, smooth_random_grid, unit_circle, v4_cone


def test_theta_grid_spacing_and_no_endpoint():
    th = theta_grid(8)
    assert th.shape == (8,)
    assert th[0] == 0.0
    assert np.allclose(np.diff(th), np.pi / 4)
    assert th[-1] < 2.0 * np.pi


def test_periodic_derivative_fourier_mode():
    n = 128
    th = theta_grid(n)
    errs = []
    for m in (n, 2 * n):
        t = theta_grid(m)
        d = periodic_derivative(np.sin(3.0 * t), 2.0 * np.pi / m)
        errs.append(np.max(np.abs(d - 3.0 * np.cos(3.0 * t))))
    ratio = errs[0] / errs[1]
    assert 0.7 * 4.0 < ratio < 1.4 * 4.0


def test_periodic_derivative_axis_handling():
    n = 64
    th = theta_grid(n)
    field = np.stack([np.cos(th), np.sin(th)], axis=1)
    d = periodic_derivative(field, 2.0 * np.pi / n, axis=0)
    assert d.shape == field.shape
    assert np.max(np.abs(d[:, 0] + np.sin(th))) < 2e-3


def _periodic_derivative_by_roll(values, spacing, axis):
    """The np.roll form of the periodic stencil, kept as the reference."""
    v = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
    out = (np.roll(v, -1, axis=0) - np.roll(v, 1, axis=0)) / (2.0 * spacing)
    return np.moveaxis(out, 0, axis)


# Two random draws per shape.
@pytest.mark.parametrize("draw", [2, 4])
@pytest.mark.parametrize(
    "shape, axis",
    [
        ((37,), 0),
        ((37,), -1),
        ((36, 5), 0),
        ((5, 36), 1),
        ((36, 5), -2),
        ((36, 7, 2), 0),
        ((7, 36, 2), 1),
        ((7, 37, 3), -2),
    ],
)
def test_periodic_derivative_matches_the_roll_formula_bit_for_bit(shape, axis, draw):
    rng = np.random.default_rng(len(shape) * 10 + draw)
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-5, 5, size=shape)
    expected = _periodic_derivative_by_roll(values, 0.0491, axis)
    got = periodic_derivative(values, 0.0491, axis=axis)
    assert got.shape == expected.shape
    np.testing.assert_array_equal(bits(got), bits(expected))


def test_periodic_derivative_rejects_bad_arguments():
    with pytest.raises(InputDataError, match="axis 2 is out of range"):
        periodic_derivative(np.zeros((16, 2)), 0.1, axis=2)
    with pytest.raises(InputDataError, match="axis -3 is out of range"):
        periodic_derivative(np.zeros((16, 2)), 0.1, axis=-3)
    # One sample is enough for the stencil: it reads itself.
    assert np.array_equal(periodic_derivative(np.ones((1, 2)), 0.1), np.zeros((1, 2)))


def test_open_derivative_exact_on_polynomials():
    x = np.linspace(0.0, 1.0, 21)
    h = x[1] - x[0]
    d2 = open_derivative(x**2, h)
    assert np.max(np.abs(d2 - 2.0 * x)) < 1e-12


@pytest.mark.parametrize("shape, axis", [((33,), 0), ((33, 17, 2), 0), ((5, 33, 2), 1)])
def test_open_derivative_matches_the_plain_stencil_bit_for_bit(shape, axis):
    rng = np.random.default_rng(len(shape))
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-5, 5, size=shape)
    v = np.moveaxis(values, axis, 0)
    h = 0.0371
    expected = np.empty_like(v)
    expected[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    expected[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    expected[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    got = open_derivative(values, h, axis=axis)
    np.testing.assert_array_equal(bits(got), bits(np.moveaxis(expected, 0, axis)))


@pytest.mark.parametrize("m", [2, 3, 4, 17])
def test_open_derivative_adjoint_is_the_transpose(m):
    # <D x, y> = <x, D^T y> on every pair of stacks, end rows included.
    rng = np.random.default_rng(m)
    x = rng.normal(size=(m, 5, 2))
    y = rng.normal(size=(m, 5, 2))
    h = 0.37
    lhs = np.sum(open_derivative(x, h) * y)
    rhs = np.sum(x * _open_derivative_adjoint(y, h))
    assert abs(lhs - rhs) <= 1e-12 * np.sum(np.abs(x)) * np.sum(np.abs(y))


def test_open_derivative_rejects_a_single_sample():
    with pytest.raises(InputDataError, match="need at least 2 samples"):
        open_derivative(np.zeros((1, 3)), 0.1)
    with pytest.raises(InputDataError, match="need at least 2 samples"):
        open_derivative(np.zeros((4, 1)), 0.1, axis=1)


def test_sampled_curve_validation():
    with pytest.raises(InputDataError):
        SampledCurve(points=np.zeros((2, 2)))
    with pytest.raises(InputDataError):
        SampledCurve(points=np.zeros((8,)))
    bad = np.zeros((8, 2))
    bad[3, 0] = np.nan
    with pytest.raises(InputDataError):
        SampledCurve(points=bad)
    with pytest.raises(InputDataError):
        SampledCurve(points=np.zeros((8, 1)))


def test_scale_hint_defaults_to_bbox_diagonal():
    c = unit_circle(64)
    assert c.scale_hint == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_scale_hint_default_matches_the_reduction(n):
    # The reference is the whole-array reduction the column-wise
    # bounding box replaced; max and min are exact, so the two agree.
    rng = np.random.default_rng(n)
    pts = rng.normal(size=(97, n)) * 10.0 ** rng.integers(-8, 8, size=n)
    reference = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    assert SampledCurve(points=pts).scale_hint == reference
    assert SampledCurve(points=np.ones((5, n))).scale_hint == 1.0


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("shape", [(7,), (33, 65)])
def test_dot_matches_numpy_reductions_bit_for_bit(n, shape):
    rng = np.random.default_rng(n)
    size = shape + (n,)
    a = rng.normal(size=size) * 10.0 ** rng.integers(-150, 150, size=size)
    b = rng.normal(size=size) * 10.0 ** rng.integers(-150, 150, size=size)
    a[rng.random(size) < 0.2] = -0.0
    b[rng.random(size) < 0.2] = 0.0
    # A row of -0.0 products: np.sum gives +0.0 there.
    a[0] = -0.0
    b[0] = 1.0
    np.testing.assert_array_equal(bits(dot(a, b)), bits(np.sum(a * b, axis=-1)))
    np.testing.assert_array_equal(
        bits(np.sqrt(dot(a, a))), bits(np.linalg.norm(a, axis=-1))
    )
    assert not np.signbit(dot(a, b)[0]).any()


@pytest.mark.parametrize("divide", [False, True])
@pytest.mark.parametrize("n", [2, 3])
def test_scale_matches_the_broadcast_form_bit_for_bit(n, divide):
    rng = np.random.default_rng(n + 2 * divide)
    V = rng.normal(size=(9, 33, n)) * 10.0 ** rng.integers(-100, 100, size=(9, 33, n))
    s = rng.normal(size=(9, 33)) * 10.0 ** rng.integers(-100, 100, size=(9, 33))
    V[rng.random(V.shape) < 0.1] = -0.0
    s[rng.random(s.shape) < 0.1] = -0.0
    per_row = rng.normal(size=9)
    # Zeros, overflow and underflow are part of the comparison.
    with np.errstate(all="ignore"):
        if divide:
            pairs = [
                (scale(V, s, divide=True), V / s[..., None]),
                (scale(V, per_row[:, None], divide=True), V / per_row[:, None, None]),
            ]
        else:
            pairs = [
                (scale(V, s), s[..., None] * V),
                (scale(V, per_row[:, None]), per_row[:, None, None] * V),
            ]
    for got, expected in pairs:
        np.testing.assert_array_equal(bits(got), bits(expected))


def test_per_speed_zeroes_degenerate_samples_bit_for_bit():
    rng = np.random.default_rng(5)
    f = rng.normal(size=(17, 64, 2))
    speed = np.abs(rng.normal(size=(17, 64)))
    floor = 0.3
    speed[rng.random(speed.shape) < 0.2] = 0.0
    speed[0, :5] = floor
    f[1, :5] = -0.0
    good = (speed > floor)[..., None]
    expected = np.divide(f, speed[..., None], out=np.zeros_like(f), where=good)
    got = _per_speed(f, speed, floor)
    np.testing.assert_array_equal(bits(got), bits(expected))
    assert not np.signbit(got[~good[..., 0]]).any()


def test_immersed_flags_pinched_curve():
    assert immersed(unit_circle(64))
    pts = unit_circle(64).points.copy()
    pts[10] = pts[9]
    assert not immersed(SampledCurve(points=pts))


def test_tangent_frame_circle():
    c = unit_circle(256)
    frame = tangent_frame(c)
    th = c.thetas()
    expected = np.stack([-np.sin(th), np.cos(th)], axis=1)
    assert np.max(np.abs(frame.T - expected)) < 1e-3
    assert np.allclose(np.linalg.norm(frame.T, axis=1), 1.0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_projection_splits_deformations(seed):
    c = unit_circle(32)
    frame = tangent_frame(c)
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(32, 2))
    hn = frame.project_normal(h)
    ht = h - hn
    assert np.max(np.abs(np.sum(hn * frame.T, axis=1))) < 1e-12
    # The remainder is tangential: parallel to T.
    assert np.max(np.abs(ht[:, 0] * frame.T[:, 1] - ht[:, 1] * frame.T[:, 0])) < 1e-12


def test_arclength_circle():
    assert arclength(unit_circle(256)) == pytest.approx(2.0 * np.pi, rel=1e-3)


def test_arclength_ellipse_against_quadrature():
    a, b = 2.0, 1.0
    oracle, _ = quad(lambda t: np.hypot(a * np.sin(t), b * np.cos(t)), 0, 2 * np.pi)
    assert arclength(ellipse(512, a, b)) == pytest.approx(oracle, rel=1e-4)


def test_curvature_circle_values():
    c = unit_circle(256, radius=2.0)
    field = curvature(c)
    assert np.max(np.abs(field.kappa - 0.5)) < 1e-3
    assert np.max(np.abs(np.linalg.norm(field.H, axis=1) - 0.5)) < 1e-3
    assert field.total_mass == pytest.approx(2.0 * np.pi, rel=1e-6)


def test_curvature_sign_convention():
    # Anticlockwise circles curve toward the planar normal, kappa > 0;
    # reversing orientation flips the sign but not the curvature vector.
    c = unit_circle(128)
    field = curvature(c)
    assert np.all(field.kappa > 0.0)
    clockwise = SampledCurve(points=c.points[::-1])
    flipped = curvature(clockwise)
    assert np.all(flipped.kappa < 0.0)
    inward = -clockwise.points / np.linalg.norm(clockwise.points, axis=1, keepdims=True)
    assert np.max(np.abs(flipped.H - inward)) < 1e-3


def test_turning_mass_counts_double_winding():
    th = theta_grid(512)
    double = SampledCurve(
        points=np.stack([np.cos(2.0 * th), np.sin(2.0 * th)], axis=1)
    )
    assert curvature(double).total_mass == pytest.approx(4.0 * np.pi, rel=1e-6)


def test_curvature_requires_immersion():
    pts = np.zeros((16, 2))
    with pytest.raises(NotImmersedError):
        curvature(SampledCurve(points=pts, scale_hint=1.0))


def test_curvature_kernel_degenerate_samples_vanish():
    pts = np.full((16, 2), 0.5)
    dtheta = 2.0 * np.pi / 16
    frame = derivative_frame(periodic_derivative(pts, dtheta), scale_hint=1.0)
    H = curvature_kernel(frame, dtheta)
    assert np.all(H == 0.0)
    assert np.all(frame.T == 0.0)
    assert np.all(frame.speed == 0.0)


def test_derivative_frame_zeroes_degenerate_samples():
    # Speeds 5, 0, 1e-12 (below the floor), 0.5 (at it) and 2.
    deriv = np.array([[3.0, 4.0], [0.0, 0.0], [1e-12, 0.0], [0.5, 0.0], [0.0, -2.0]])
    # A scale_hint of 5e8 puts the floor at EPS_IMMERSED * 5e8 = 0.5 exactly.
    frame = derivative_frame(deriv, scale_hint=5e8)
    assert frame.floor == 0.5
    np.testing.assert_array_equal(frame.speed, [5.0, 0.0, 1e-12, 0.5, 2.0])
    np.testing.assert_array_equal(
        frame.T, [[0.6, 0.8], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, -1.0]]
    )
    grid = np.stack([deriv, 4.0 * deriv, np.zeros_like(deriv)])
    frame3 = derivative_frame(grid, scale_hint=5e8)
    assert frame3.speed.shape == (3, 5) and frame3.T.shape == (3, 5, 2)
    np.testing.assert_array_equal(frame3.T[0], frame.T)
    # Scaled by 4 the sample at the floor (now speed 2) becomes a unit tangent.
    np.testing.assert_array_equal(frame3.T[1, 3], [1.0, 0.0])
    np.testing.assert_array_equal(frame3.T[1, 2], [0.0, 0.0])
    assert np.all(frame3.T[2] == 0.0)


def test_require_immersed_names_the_sample_or_the_slice():
    deriv = np.array([[3.0, 4.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
    assert derivative_frame(deriv[[0, 2]], 1.0).require_immersed("x").floor == 1e-9
    with pytest.raises(NotImmersedError, match="x needs an immersed curve; sample 1 is"):
        derivative_frame(deriv, 1.0).require_immersed("x")
    grid = np.stack([deriv[[0, 2, 0]], deriv[[2, 2, 3]], deriv[[1, 0, 0]]])
    with pytest.raises(NotImmersedError, match="y needs immersed slices; slice 1 is"):
        derivative_frame(grid, 1.0).require_immersed("y")


@pytest.mark.parametrize("name", ["cone", "random"])
def test_curvature_kernel_grid_matches_per_slice(name):
    grid = v4_cone(n_theta=64, n_v=9) if name == "cone" else smooth_random_grid(seed=4)
    frame = homotopy_frame(grid)
    H = curvature_kernel(frame, grid.dtheta)
    for j in range(grid.n_v):
        fj = derivative_frame(
            periodic_derivative(grid.values[j], grid.dtheta), grid.scale_hint
        )
        assert np.array_equal(H[j], curvature_kernel(fj, grid.dtheta))
        assert np.array_equal(frame.T[j], fj.T)
        assert np.array_equal(frame.speed[j], fj.speed)
    if name == "cone":
        # The first slice is a point, so all its samples are zeroed.
        assert np.all(frame.T[0] == 0.0) and np.all(H[0] == 0.0)


def test_planar_normal_is_left_of_tangent():
    T = np.array([[1.0, 0.0], [0.0, 1.0]])
    N = planar_normal(T)
    assert np.allclose(N, [[0.0, 1.0], [-1.0, 0.0]])


def test_lift_direction_circle():
    d = lift_direction(unit_circle(256))
    assert d.winding == 1
    s = d.s_grid()
    # Tangent angle of the unit circle is s + pi/2.
    assert np.max(np.abs(d.theta_of_s - (s + np.pi / 2))) < 1e-3


def test_lift_direction_double_circle_winding():
    th = theta_grid(512)
    # Two turns traced at unit speed: radius 1/2, length 2*pi.
    double = SampledCurve(
        points=0.5 * np.stack([np.cos(2.0 * th), np.sin(2.0 * th)], axis=1)
    )
    assert lift_direction(double).winding == 2


def test_lift_direction_rejects_wrong_length():
    with pytest.raises(InputDataError):
        lift_direction(unit_circle(256, radius=2.0))


def test_lift_direction_rejects_nonuniform_sampling():
    assert abs(arclength(ellipse(256, 1.2, 0.86)) - 2 * np.pi) < 0.05 * 2 * np.pi
    with pytest.raises(InputDataError):
        lift_direction(ellipse(256, 1.2, 0.86))


def test_unlift_round_trip():
    d = lift_direction(unit_circle(512))
    c, defect = unlift_direction(d)
    assert defect < 1e-4
    radii = np.linalg.norm(c.points - c.points.mean(axis=0), axis=1)
    assert np.max(np.abs(radii - 1.0)) < 1e-3


def test_resample_arclength_uniformizes():
    th = theta_grid(256)
    warped = SampledCurve(
        points=np.stack([np.cos(th + 0.3 * np.sin(th)), np.sin(th + 0.3 * np.sin(th))], axis=1)
    )
    out = resample_arclength(warped, 256)
    edges = out.edge_lengths()
    assert (edges.max() - edges.min()) / edges.mean() < 1e-3
    poly_len = float(np.sum(warped.edge_lengths()))
    assert float(np.sum(out.edge_lengths())) == pytest.approx(poly_len, rel=1e-4)


def test_resample_arclength_validates():
    with pytest.raises(InputDataError):
        resample_arclength(unit_circle(64), 2)
    with pytest.raises(NotImmersedError):
        resample_arclength(SampledCurve(points=np.zeros((8, 2)), scale_hint=1.0), 16)


def test_figure_eight_is_valid_curve_but_lift_needs_length():
    c = figure_eight(256)
    assert immersed(c)
    with pytest.raises(InputDataError):
        lift_direction(c)


def _resample_reference(points, m, scale_hint):
    """Equal-arclength resampling of one (N, n) curve, one row at a time."""
    edges_vec = np.roll(points, -1, axis=0) - points
    edges = np.sqrt(dot(edges_vec, edges_vec))
    if not np.all(edges > EPS_IMMERSED * scale_hint):
        raise NotImmersedError("arclength resampling needs an immersed curve")
    cum = np.concatenate([[0.0], np.cumsum(edges)])
    total = cum[-1]
    targets = np.arange(m) * (total / m)
    idx = np.clip(np.searchsorted(cum, targets, side="right") - 1, 0, len(edges) - 1)
    frac = (targets - cum[idx]) / edges[idx]
    nxt = np.roll(points, -1, axis=0)
    return points[idx] + frac[:, None] * (nxt[idx] - points[idx])


def _random_immersed_stack(rng, rows, n_samples, dim):
    """Star-shaped closed curves, unevenly parameterized, tilted into R^dim."""
    th = theta_grid(n_samples)
    out = np.empty((rows, n_samples, dim))
    for r in range(rows):
        warp = th + 0.4 * np.sin(th + rng.uniform(0.0, 2.0 * np.pi))
        radius = 1.0 + 0.2 * np.cos(rng.integers(2, 5) * warp + rng.uniform(0.0, 6.0))
        out[r, :, 0] = radius * np.cos(warp) + rng.normal()
        out[r, :, 1] = radius * np.sin(warp) + rng.normal()
        if dim == 3:
            out[r, :, 2] = 0.3 * np.sin(2.0 * warp) * rng.normal()
    return out


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n_samples, m", [(64, 64), (63, 63), (64, 101), (65, 40)])
def test_resample_rows_matches_the_per_row_reference(dim, n_samples, m):
    rng = np.random.default_rng(n_samples * m + dim)
    stack = _random_immersed_stack(rng, 6, n_samples, dim)
    expected = np.stack([_resample_reference(p, m, 3.0) for p in stack])
    got = _resample_rows(stack, m, 3.0)
    np.testing.assert_array_equal(bits(got), bits(expected))
    # Leading axes are kept, and one curve is a stack of one.
    nested = _resample_rows(stack.reshape(2, 3, n_samples, dim), m, 3.0)
    np.testing.assert_array_equal(bits(nested), bits(expected.reshape(2, 3, m, dim)))
    single = resample_arclength(SampledCurve(points=stack[4], scale_hint=3.0), m)
    np.testing.assert_array_equal(bits(single.points), bits(expected[4]))
    assert single.scale_hint == 3.0


def test_resample_rows_rejects_a_degenerate_row_with_the_curve_message():
    rng = np.random.default_rng(11)
    stack = _random_immersed_stack(rng, 5, 48, 2)
    stack[3, 17] = stack[3, 16]
    with pytest.raises(NotImmersedError) as per_row:
        _resample_reference(stack[3], 48, 1.0)
    with pytest.raises(NotImmersedError) as stacked:
        _resample_rows(stack, 48, 1.0)
    with pytest.raises(NotImmersedError) as single:
        resample_arclength(SampledCurve(points=stack[3], scale_hint=1.0), 48)
    assert str(stacked.value) == str(per_row.value) == str(single.value)
    assert str(stacked.value) == "arclength resampling needs an immersed curve"
