"""Tests for metric inner products, path energies, and their identities."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from curvemetrics import curveio, homotopy
from curvemetrics.counterexamples import conformal_stretch, tessellate
from curvemetrics.cli import main
from curvemetrics.curves import SampledCurve, tangent_frame, theta_grid
from curvemetrics.energies import (
    ConformalFactor,
    EnergySpec,
    area_swept,
    area_swept_bound_check,
    cross_identity_check,
    energy,
    energy_gradient,
    holder_length_check,
    inner_product,
    normalize_kind,
    path_len_energy,
    scaling_check,
    stable_lambda,
)
from curvemetrics.errors import (
    InputDataError,
    NotImmersedError,
    NumericalFailureError,
    StalledHomotopyError,
)
from curvemetrics.flows import vstar_calculus
from curvemetrics.homotopy import (
    HomotopyGrid,
    homotopy_frame,
    length_profile,
    max_tangential_speed,
    row_windows,
    sample_homotopy,
    shift_unwind,
)
from curvemetrics.shapedist import sup_speed_length

from helpers import (
    bits,
    constant_grid,
    radial_circle,
    raised,
    reference_frame,
    reference_per_slice_integrand,
    smooth_random_grid,
    translating_circle,
    unit_circle,
    v4_cone,
    wobbled,
    wobbled_grid,
)


def test_normalize_kind_aliases():
    assert normalize_kind("en") == "geom_H0"
    assert normalize_kind("H0") == "geom_H0"
    assert normalize_kind("param") == "param_H0"
    assert normalize_kind("bend") == "J"
    assert normalize_kind("enbend") == "MM"
    assert normalize_kind("AB") == "alpha_beta"
    with pytest.raises(InputDataError):
        normalize_kind("sobolev")


def test_spec_and_factor_validation():
    with pytest.raises(InputDataError):
        EnergySpec(kind="MM", A=-1.0)
    with pytest.raises(InputDataError):
        EnergySpec(kind="alpha_beta", alpha=0.0)
    with pytest.raises(InputDataError):
        ConformalFactor(kind="exp_lambda_L", lam=-0.5)
    with pytest.raises(InputDataError, match="unknown conformal factor kind"):
        ConformalFactor(kind="custom")
    with pytest.raises(InputDataError, match="must stay positive"):
        ConformalFactor.length().value(0.0)
    assert ConformalFactor.length().value(2.5) == 2.5
    assert ConformalFactor.length().derivative(2.5) == 1.0
    f = ConformalFactor.exp_length(0.5)
    assert f.value(2.0) == pytest.approx(np.e)
    assert f.derivative(2.0) == pytest.approx(0.5 * np.e)
    assert ConformalFactor.identity().value(7.0) == 1.0


def test_translating_circle_energies():
    C = translating_circle(n_theta=256, n_v=64)
    # The unit translation splits as cos^2(theta) normal and sin^2(theta)
    # tangential energy against a unit-speed circle.
    en = energy(C, EnergySpec(kind="geom_H0"))
    assert en.total == pytest.approx(np.pi, rel=3e-4)
    param = energy(C, EnergySpec(kind="param_H0"))
    assert param.total == pytest.approx(2.0 * np.pi, abs=1e-12)
    mm = energy(C, EnergySpec(kind="MM", A=4.0))
    # kappa = 1 on every slice, so MM = (1 + 4) * geom_H0.
    assert mm.total == pytest.approx(5.0 * en.total, rel=1e-4)
    assert en.resolution == (256, 64)
    assert en.total == pytest.approx(float(C.integrate_v(en.per_slice)), abs=1e-14)
    assert "trapezoid-v" in en.quadrature


def test_radial_circle_energies_match_closed_forms():
    # Radius 1 + v about the origin: per slice the motion is purely
    # normal with speed 1, so E^N = 2 pi int (1+v) dv = 3 pi and
    # J = 2 pi int dv / (1+v) = 2 pi ln 2.
    C = radial_circle(n_theta=256, n_v=129)
    en = energy(C, EnergySpec(kind="geom_H0"))
    assert en.total == pytest.approx(3.0 * np.pi, rel=1e-3)
    bend = energy(C, EnergySpec(kind="J"))
    assert bend.total == pytest.approx(2.0 * np.pi * np.log(2.0), rel=1e-3)
    mm = energy(C, EnergySpec(kind="MM", A=4.0))
    assert mm.total == pytest.approx(2.0 * np.pi * (1.5 + 4.0 * np.log(2.0)), rel=1e-3)


def test_cone_bending_energy():
    # Radius v^4 collapses at v = 0 with finite bending energy
    # J = 2 pi int (r')^2 / r dv = 32 pi / 3.
    C = v4_cone(n_theta=256, n_v=257)
    bend = energy(C, EnergySpec(kind="J"))
    assert bend.total == pytest.approx(32.0 * np.pi / 3.0, rel=1e-2)


def test_alpha_beta_21_equals_geom_h0():
    C = smooth_random_grid(seed=3)
    ab = energy(C, EnergySpec(kind="alpha_beta", alpha=2.0, beta=1.0))
    en = energy(C, EnergySpec(kind="geom_H0"))
    # m^1 * speed^1 is m * speed bit for bit.
    assert ab.total == en.total
    assert np.array_equal(ab.per_slice, en.per_slice)


def test_alpha_beta_on_open_graph_grid():
    # Graph homotopy (u, v u) over the open square: the (2, 1) integrand
    # reduces to u^2 / sqrt(1 + v^2).
    def fn(us, v):
        return np.stack([us, v * us], axis=1)

    C = sample_homotopy(fn, n_theta=129, n_v=65, periodic=False)
    ab = energy(C, EnergySpec(kind="alpha_beta", alpha=2.0, beta=1.0))
    oracle = quad(lambda v: 1.0 / (3.0 * np.sqrt(1.0 + v * v)), 0.0, 1.0)[0]
    assert ab.total == pytest.approx(oracle, rel=1e-3)
    with pytest.raises(InputDataError):
        energy(C, EnergySpec(kind="J"))


def test_energy_rejects_inner_only_kind():
    C = translating_circle(n_theta=64, n_v=9)
    with pytest.raises(InputDataError):
        energy(C, EnergySpec(kind="intermediate"))


def test_conformal_energy_scales_geom():
    C = radial_circle(n_theta=128, n_v=33)
    base = energy(C, EnergySpec(kind="geom_H0"))
    conf = energy(C, EnergySpec(kind="conformal", factor=ConformalFactor.exp_length(0.1)))
    # Slice lengths grow from 2 pi to 4 pi, so the factor is sandwiched.
    assert conf.total > np.exp(0.1 * 2.0 * np.pi) * base.total * 0.999
    assert conf.total < np.exp(0.1 * 4.0 * np.pi) * base.total * 1.001
    ident = energy(C, EnergySpec(kind="conformal", factor=ConformalFactor.identity()))
    assert ident.total == pytest.approx(base.total, rel=1e-14)


def test_conformal_descent_raises_plain_energy_above_half_stable_lambda():
    # Circles with center a v and radius r = 1 + k v (v - 1): the normal
    # speed is a cos(theta) + r', so E^N = int pi r (a^2 + 2 r'^2) dv and
    # to first order in k the weight e^(2 pi lam r) r integrates to
    # e^(2 pi lam) (1 - (1 + 2 pi lam) k / 6). The conformal energy is
    # least near k = (1 + 2 pi lam) a^2 / 8, the plain one near a^2 / 8,
    # so shrinking the middle slices to lower the conformal energy raises
    # E^N exactly when lam > 1 / (2 pi). The stable lam of translated
    # unit circles is 1 / pi, which is why the level-set geodesic may end
    # with plain E^N above the linear homotopy's.
    a = 0.35

    def circles(k):
        def fn(thetas, v):
            r = 1.0 + k * v * (v - 1.0)
            return np.stack([a * v + r * np.cos(thetas), r * np.sin(thetas)], axis=1)

        return sample_homotopy(fn, n_theta=256, n_v=64)

    plain = EnergySpec(kind="geom_H0")
    linear = circles(0.0)
    for lam, rises in ((1.0 / np.pi, True), (0.4 / np.pi, False)):
        conf = EnergySpec(kind="conformal", factor=ConformalFactor.exp_length(lam))
        shrunk = circles((1.0 + 2.0 * np.pi * lam) * a * a / 8.0)
        conf_ratio = energy(shrunk, conf).total / energy(linear, conf).total
        plain_ratio = energy(shrunk, plain).total / energy(linear, plain).total
        # Measured: -1.13% / +0.38% at lam = 1/pi, -0.41% / -0.05% at
        # lam = 0.4/pi; the bounds sit well inside either sign.
        assert conf_ratio < 1.0 - 3e-3
        if rises:
            assert plain_ratio > 1.0 + 2e-3
        else:
            assert plain_ratio < 1.0 - 2e-4


def test_inner_product_values_on_unit_circle():
    c = unit_circle(n=256)
    frame = tangent_frame(c)
    N = np.stack([-frame.T[:, 1], frame.T[:, 0]], axis=1)
    two_pi = 2.0 * np.pi
    assert inner_product(c, N, N, "param_H0") == pytest.approx(two_pi, abs=1e-12)
    assert inner_product(c, N, N, "geom_H0") == pytest.approx(two_pi, rel=3e-4)
    assert inner_product(c, N, N, "intermediate") == pytest.approx(two_pi, rel=3e-4)
    mm = EnergySpec(kind="MM", A=4.0)
    assert inner_product(c, N, N, mm) == pytest.approx(10.0 * np.pi, rel=3e-4)
    conf = EnergySpec(kind="conformal", factor=ConformalFactor.exp_length(1.0))
    assert inner_product(c, N, N, conf) == pytest.approx(
        np.exp(two_pi) * two_pi, rel=1e-3
    )
    # Tangential fields are invisible to the geometric kinds.
    assert abs(inner_product(c, frame.T, frame.T, "geom_H0")) < 1e-12
    assert abs(inner_product(c, frame.T, N, "geom_H0")) < 1e-12
    with pytest.raises(InputDataError):
        inner_product(c, N, N, "J")
    with pytest.raises(InputDataError):
        inner_product(c, N[: c.n_samples // 2], N, "geom_H0")


def test_inner_product_needs_immersion_for_geometric_kinds():
    points = unit_circle(n=64).points.copy()
    points[1] = points[0]
    pinched = SampledCurve(points=points)
    h = np.ones_like(points)
    assert inner_product(pinched, h, h, "param_H0") == pytest.approx(4.0 * np.pi)
    with pytest.raises(NotImmersedError):
        inner_product(pinched, h, h, "geom_H0")


def test_inner_product_rejects_zero_central_speed_naming_the_sample(tmp_path, capsys):
    # Every polygon edge is long, so immersed() passes, but the
    # central-difference speed at sample 4 is zero: curvature() rejects
    # this curve, and so must every geometric inner product.
    pts = unit_circle(n=32).points.copy()
    pts[5] = pts[3]
    c = SampledCurve(points=pts)
    h = np.ones_like(pts)
    assert np.isfinite(inner_product(c, h, h, "param_H0"))
    for metric in ("geom_H0", "intermediate", "conformal", EnergySpec(kind="MM", A=1.0)):
        with pytest.raises(NotImmersedError, match="sample 4 is degenerate"):
            inner_product(c, h, h, metric)
    curve_path = tmp_path / "spike.csv"
    curveio.save_curve_csv(curve_path, c)
    np.savetxt(tmp_path / "h.csv", h, delimiter=",")
    for metric in ("geom_H0", "conformal", "MM"):
        argv = ["inner", "--curve", str(curve_path), "--h", str(tmp_path / "h.csv"),
                "--k", str(tmp_path / "h.csv"), "--metric", metric, "--A", "1"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "NotImmersedError" in err and "sample 4 is degenerate" in err


@settings(max_examples=20, deadline=None)
@given(
    a=st.floats(min_value=-1.0, max_value=1.0),
    b=st.floats(min_value=-1.0, max_value=1.0),
    scale=st.floats(min_value=0.1, max_value=3.0),
    stretch=st.floats(min_value=0.5, max_value=2.0),
    wobble=st.floats(min_value=-0.15, max_value=0.15),
    lobes=st.integers(min_value=2, max_value=5),
    phase=st.floats(min_value=0.0, max_value=2.0 * np.pi),
)
def test_inner_product_is_symmetric_bilinear(a, b, scale, stretch, wobble, lobes, phase):
    # A stretched, wobbled circle: kappa and the length are not those
    # of the unit circle, so MM's H and conformal's length both count.
    thetas = theta_grid(64)
    r = 1.0 + wobble * np.cos(lobes * thetas + phase)
    c = SampledCurve(
        points=np.stack([stretch * r * np.cos(thetas), r * np.sin(thetas)], axis=1)
    )
    h = np.stack([np.cos(2 * thetas) + a, np.sin(thetas)], axis=1)
    k = np.stack([b * np.sin(3 * thetas), np.cos(thetas) - b], axis=1)
    metrics = (
        "param_H0",
        "intermediate",
        "geom_H0",
        EnergySpec(kind="MM", A=0.7),
        EnergySpec(kind="conformal", factor=ConformalFactor.exp_length(0.3)),
    )
    for kind in metrics:
        hk = inner_product(c, h, k, kind)
        assert inner_product(c, k, h, kind) == pytest.approx(hk, abs=1e-12)
        assert inner_product(c, scale * h, k, kind) == pytest.approx(
            scale * hk, rel=1e-12, abs=1e-12
        )
        hh = inner_product(c, h, h, kind)
        kk = inner_product(c, k, k, kind)
        assert hk * hk <= hh * kk * (1.0 + 1e-9) + 1e-12


def test_scaling_ratios_are_exact():
    grids = [translating_circle(n_theta=128, n_v=17), wobbled_grid()]
    grids += [smooth_random_grid(seed=seed) for seed in (0, 3, 8)]
    for C in grids:
        for eps in (0.5, 2.0, 0.3, 3.0):
            ratio_en, ratio_j = scaling_check(C, eps)
            assert ratio_en == pytest.approx(eps**3, rel=1e-12)
            assert ratio_j == pytest.approx(eps, rel=1e-12)
    with pytest.raises(InputDataError):
        scaling_check(grids[0], -1.0)


def test_area_swept_translating_circle():
    # |V x W| = |cos(theta)| integrates to 4: the circle sweeps a width-2
    # band of length 1 with double cover top and bottom.
    C = translating_circle(n_theta=256, n_v=64)
    assert area_swept(C) == pytest.approx(4.0, rel=1e-3)
    assert area_swept_bound_check(C)


def test_area_swept_bound_on_random_grids():
    for seed in range(4):
        assert area_swept_bound_check(smooth_random_grid(seed=seed))


def test_cross_identity_residuals():
    rng = np.random.default_rng(7)
    for _ in range(50):
        V = rng.normal(size=3)
        W = rng.normal(size=3)
        assert cross_identity_check(W, V) < 1e-12
    assert cross_identity_check(np.array([1.0, 0.0]), np.array([0.3, 0.4])) < 1e-12
    with pytest.raises(InputDataError):
        cross_identity_check(np.zeros(3), np.ones(3))


def test_path_length_energy_inequality():
    C = translating_circle(n_theta=256, n_v=64)
    length, total = path_len_energy(C, EnergySpec(kind="geom_H0"))
    # Constant slice speed makes Cauchy-Schwarz an equality here.
    assert length**2 == pytest.approx(total, rel=1e-10)
    assert length == pytest.approx(np.sqrt(np.pi), rel=2e-4)
    for seed in range(4):
        length, total = path_len_energy(smooth_random_grid(seed=seed), EnergySpec(kind="geom_H0"))
        assert length**2 <= total * (1.0 + 1e-12)
    with pytest.raises(InputDataError):
        path_len_energy(C, EnergySpec(kind="J"))


def test_holder_length_bound_near_tight_on_radial_circle():
    ratio = holder_length_check(radial_circle(n_theta=256, n_v=129))
    assert ratio <= 1.0 + 1e-3
    # sqrt(4 pi) - sqrt(2 pi) against (1/2) sqrt(2 pi ln 2) is 0.9956.
    assert ratio == pytest.approx(0.9956, abs=2e-3)


def test_holder_length_bound_on_random_grids():
    for seed in range(4):
        assert holder_length_check(smooth_random_grid(seed=seed)) <= 1.0 + 1e-3


def test_stable_lambda_translating_circle():
    C = translating_circle(n_theta=256, n_v=64)
    assert stable_lambda(C) == pytest.approx(1.0 / np.pi, rel=5e-3)


def test_stable_lambda_stalls_on_constant_grid():
    with pytest.raises(StalledHomotopyError):
        stable_lambda(constant_grid())


def test_degenerate_slice_contributes_nothing():
    # A slice collapsed to a point has zero arclength weight, so the
    # geometric energy ignores it instead of dividing by zero.
    circle = unit_circle(n=64).points
    values = np.stack([np.zeros_like(circle), 0.5 * circle, circle], axis=0)
    C = HomotopyGrid(values=values)
    report = energy(C, EnergySpec(kind="geom_H0"))
    assert np.isfinite(report.total)
    assert report.total > 0.0


GEOMETRIC_SPECS = [
    EnergySpec(kind="geom_H0"),
    EnergySpec(kind="conformal", factor=ConformalFactor.exp_length(0.3)),
    EnergySpec(kind="J"),
    EnergySpec(kind="MM", A=0.5),
    EnergySpec(kind="alpha_beta", alpha=2.0, beta=1.0),
    EnergySpec(kind="alpha_beta", alpha=1.0, beta=2.0),
]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    angle=st.floats(0.0, 2.0 * np.pi),
    offset=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    shift=st.integers(-40, 40),
)
def test_geometric_energies_invariant_under_rigid_motion_and_sample_shift(
    seed, angle, offset, shift
):
    C = smooth_random_grid(n_theta=48, n_v=9, seed=seed)
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    moved = HomotopyGrid(values=C.values @ rot.T + np.asarray(offset))
    # A whole number of samples, the same on every slice: a relabeling.
    shifted = shift_unwind(C, np.full(C.n_v, shift * C.dtheta))
    for spec in GEOMETRIC_SPECS:
        base = energy(C, spec).total
        assert energy(moved, spec).total == pytest.approx(base, rel=1e-12, abs=0.0)
        assert energy(shifted, spec).total == pytest.approx(base, rel=1e-12, abs=0.0)


def test_energy_lambda_vstar_and_sup_speed_share_one_m():
    C = smooth_random_grid(seed=5)
    frame = homotopy_frame(C)
    big_m = C.integrate_theta(frame.m * frame.speed)
    fields = vstar_calculus(C)
    assert np.array_equal(fields.m, frame.m)
    assert np.array_equal(fields.big_m, big_m)
    assert energy(C, EnergySpec(kind="geom_H0")).total == float(C.integrate_v(big_m))
    factor = ConformalFactor.exp_length(0.3)
    conformal = energy(C, EnergySpec(kind="conformal", factor=factor)).total
    phi = factor.value(C.integrate_theta(frame.speed))
    assert conformal == float(C.integrate_v(phi * big_m))
    assert stable_lambda(C) == float(np.max(frame.m / big_m[:, None]))
    sup = float(C.integrate_v(np.sqrt(np.max(frame.m, axis=1))))
    assert sup_speed_length(C) == sup


WINDOW_SPECS = [
    EnergySpec(kind="param_H0"),
    EnergySpec(kind="geom_H0"),
    EnergySpec(kind="J"),
    EnergySpec(kind="MM", A=0.7),
    EnergySpec(kind="alpha_beta", alpha=2.0, beta=1.0),
    EnergySpec(kind="alpha_beta", alpha=1.3, beta=0.6),
    EnergySpec(kind="conformal", factor=ConformalFactor.length()),
    EnergySpec(kind="conformal", factor=ConformalFactor.exp_length(0.3)),
]


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 4),
    k=st.integers(0, 4),
    tail=st.integers(0, 2),
    periodic=st.booleans(),
    n_theta=st.integers(3, 24),
    dim=st.integers(2, 3),
    pinch=st.booleans(),
    seed=st.integers(0, 2**16),
    stall=st.booleans(),
)
# Two rows; three rows in windows of two, a one-row tail; k windows of
# one row each, the stalled slice in the third.
@example(rows=1, k=0, tail=2, periodic=True, n_theta=8, dim=2, pinch=False, seed=1,
         stall=False)
@example(rows=2, k=1, tail=1, periodic=False, n_theta=8, dim=2, pinch=False, seed=2,
         stall=False)
@example(rows=1, k=4, tail=0, periodic=True, n_theta=8, dim=2, pinch=True, seed=3,
         stall=True)
def test_row_windows_match_the_whole_grid_kernel(
    rows, k, tail, periodic, n_theta, dim, pinch, seed, stall
):
    n_v = max(k * rows + tail, 2)
    values = np.random.default_rng(seed).normal(size=(n_v, n_theta, dim))
    if pinch:
        # Sample 1 has central-difference speed 0 on every slice.
        values[:, 2] = values[:, 0]
    if stall:
        # Slice n_v - 2 does not move (d_v C = 0), and on a two-slice
        # grid neither slice does, so stable_lambda raises.
        values[-1] = values[max(n_v - 3, 0)]
    C = HomotopyGrid(values=values, periodic=periodic)
    # A budget of exactly `rows` rows per window.
    with mock.patch.object(homotopy, "_WINDOW_BYTES", rows * values[0].nbytes):
        full, last = divmod(n_v, rows)
        assert [b - a for a, b in row_windows(C)] == [rows] * full + [last] * (last > 0)
        for spec in WINDOW_SPECS:
            want = raised(reference_per_slice_integrand, C, spec)
            if want is not None:
                assert raised(energy, C, spec) == want
                continue
            per_slice = reference_per_slice_integrand(C, spec)
            report = energy(C, spec)
            assert np.array_equal(bits(report.per_slice), bits(per_slice))
            assert bits(report.total) == bits(float(C.integrate_v(per_slice)))
            if spec.kind == "J":
                continue
            length = float(C.integrate_v(np.sqrt(np.maximum(per_slice, 0.0))))
            got = path_len_energy(C, spec)
            assert np.array_equal(bits(got), bits([length, report.total]))
        want = _whole_grid_reductions(C)
        for name, reducer in _streamed_reducers(C).items():
            try:
                got = reducer(C)
            except StalledHomotopyError as e:
                got = str(e)
            if isinstance(want[name], str):
                assert got == want[name], name
            else:
                assert np.array_equal(bits(got), bits(want[name])), name


def _streamed_reducers(C):
    """The per-slice reducers that stream over windows, by name."""
    reducers = {
        "length_profile": length_profile,
        "max_tangential_speed": max_tangential_speed,
        "area_swept": area_swept,
        "sup_speed_length": sup_speed_length,
    }
    if C.periodic:
        reducers["stable_lambda"] = stable_lambda
    return reducers


def _whole_grid_reductions(C):
    """What each streamed reducer gives, from the frame of the whole grid.

    stable_lambda maps to its StalledHomotopyError message when it raises.
    """
    f = reference_frame(C)
    big_m = C.integrate_theta(f.m * f.speed)
    stalled = big_m <= 1e-12 * C.scale_hint**2
    j = int(np.argmin(big_m))
    return {
        "length_profile": C.integrate_theta(f.speed),
        "max_tangential_speed": float(np.max(np.abs(f.tangential))),
        "area_swept": float(C.integrate_v(C.integrate_theta(np.sqrt(f.m) * f.speed))),
        "sup_speed_length": float(C.integrate_v(np.sqrt(np.max(f.m, axis=1)))),
        "stable_lambda": (
            f"slice {j} has vanishing normal motion (M = {big_m[j]:.3e})"
            if np.any(stalled)
            else float(np.max(f.m / big_m[:, None]))
        ),
    }


def test_energy_of_a_large_grid_traces_about_one_window():
    # The 257 x 4001 grid of the h = 4 tessellation is 15.7 MB; its
    # whole-grid frame traced 94.1 MB (31.4 MB for param_H0's d_v).
    C = tessellate(conformal_stretch(0.25, 1.0), 4)
    assert len(row_windows(C)) > 30
    for spec in (
        EnergySpec(kind="geom_H0"),
        EnergySpec(kind="conformal", factor=ConformalFactor.length()),
        EnergySpec(kind="alpha_beta", alpha=2.0, beta=1.0),
        EnergySpec(kind="param_H0"),
    ):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            energy(C, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < 8 * 2**20, spec.kind


def test_per_slice_reducers_of_a_large_grid_trace_about_one_window():
    # The whole-grid frame of either 16 MB grid traced 40 MB
    # (length_profile) to 94 MB (the reducers that read m).
    grids = {
        "tessellation": tessellate(conformal_stretch(0.25, 1.0), 4),
        "wobbled": sample_homotopy(wobbled, 4000, 257),
    }
    for name, C in grids.items():
        assert len(row_windows(C)) > 30
        for reducer in _streamed_reducers(C).values():
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                reducer(C)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - start < 8 * 2**20, (name, reducer.__name__)


GRADIENT_FACTORS = {
    "geom_H0": ConformalFactor.identity(),
    "conformal": ConformalFactor.exp_length(0.3),
}


@pytest.mark.parametrize("kind", sorted(GRADIENT_FACTORS))
@pytest.mark.parametrize("n_v", [2, 3, 4, 17])
def test_energy_gradient_matches_central_differences_of_energy(n_v, kind):
    # Perturbations move every sample, the end slices included, so the
    # one-sided v-stencils (the slope on two rows) are checked too.
    factor = GRADIENT_FACTORS[kind]
    spec = EnergySpec(kind=kind, factor=factor)
    C = smooth_random_grid(n_theta=32, n_v=n_v, seed=n_v)
    G = energy_gradient(C, factor)
    assert G.shape == C.values.shape
    rng = np.random.default_rng(n_v)
    h = 1e-6
    for _ in range(4):
        P = rng.normal(size=C.values.shape)
        plus = energy(HomotopyGrid(values=C.values + h * P), spec).total
        minus = energy(HomotopyGrid(values=C.values - h * P), spec).total
        fd = (plus - minus) / (2.0 * h)
        assert abs(np.sum(P * G) - fd) <= 1e-6 * abs(fd)


def test_energy_gradient_obeys_the_euler_identity_of_the_cubic_h0_energy():
    # E^N(a C) = a^3 E^N(C) for the discrete energy too, so
    # sum C . grad E = 3 E; translations leave E fixed, so sum grad E = 0.
    C = smooth_random_grid(n_theta=32, n_v=9, seed=3)
    G = energy_gradient(C, ConformalFactor.identity())
    total = energy(C, EnergySpec(kind="geom_H0")).total
    assert abs(np.sum(C.values * G) - 3.0 * total) < 1e-12 * total
    np.testing.assert_allclose(G.sum(axis=(0, 1)), 0.0, atol=1e-14 * np.sum(np.abs(G)))


def test_energy_gradient_needs_immersed_periodic_grids():
    with pytest.raises(NotImmersedError, match="the energy gradient"):
        energy_gradient(v4_cone(n_theta=32, n_v=9), ConformalFactor.identity())
    values = smooth_random_grid(n_theta=32, n_v=5).values
    # energy() takes open grids; their gradient needs the open stencil.
    assert energy(HomotopyGrid(values=values, periodic=False), EnergySpec()).total > 0.0
    with pytest.raises(InputDataError, match="periodic slices"):
        energy_gradient(HomotopyGrid(values=values, periodic=False), ConformalFactor.identity())


@settings(max_examples=15, deadline=None)
@given(
    angle=st.floats(-np.pi, np.pi),
    shift=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    kind=st.sampled_from(sorted(GRADIENT_FACTORS)),
    seed=st.integers(0, 2**16),
)
def test_energy_gradient_is_rigid_motion_equivariant(angle, shift, kind, seed):
    # E(R C + b) = E(C), so the gradient at R C + b is R times the one at C.
    C = smooth_random_grid(n_theta=16, n_v=5, seed=seed)
    R = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    moved = HomotopyGrid(values=C.values @ R.T + np.array(shift))
    G = energy_gradient(C, GRADIENT_FACTORS[kind])
    got = energy_gradient(moved, GRADIENT_FACTORS[kind])
    np.testing.assert_allclose(got, G @ R.T, rtol=0.0, atol=1e-9 * np.max(np.abs(G)))


def test_energy_spec_and_factor_reject_non_finite_parameters():
    bad = [
        dict(kind="MM", A=np.nan), dict(kind="MM", A=np.inf), dict(kind="MM", A=-1.0),
        dict(kind="alpha_beta", alpha=np.nan), dict(kind="alpha_beta", beta=np.inf),
        dict(kind="alpha_beta", alpha=0.0),
    ]
    for params in bad:
        with pytest.raises(InputDataError):
            EnergySpec(**params)
    for lam in (np.nan, np.inf, -1.0):
        with pytest.raises(InputDataError, match="exp_lambda_L needs lambda >= 0"):
            ConformalFactor.exp_length(lam)


def overflowing_grid():
    """A 9x64 translating circle whose slices 4 to 8 are scaled by 1e160.

    The central v-difference at slice 3 reaches slice 4, so slice 3 is
    the first whose squared speeds overflow double precision.
    """
    C = translating_circle(n_theta=64, n_v=9, offset=0.5)
    scale = np.where(np.arange(9) >= 4, 1e160, 1.0)
    return HomotopyGrid(values=scale[:, None, None] * C.values)


@pytest.mark.parametrize(
    "spec, value",
    [
        (EnergySpec(kind="geom_H0"), "inf"),
        # J multiplies an overflowed curvature weight by a zero.
        (EnergySpec(kind="J"), "nan"),
        (EnergySpec(kind="param_H0"), "inf"),
        (EnergySpec(kind="MM", A=1.0), "inf"),
        (EnergySpec(kind="alpha_beta"), "inf"),
        (EnergySpec(kind="conformal", factor=ConformalFactor.length()), "inf"),
    ],
    ids=lambda x: x.kind if isinstance(x, EnergySpec) else x,
)
def test_an_energy_that_overflows_raises_naming_its_kind_and_slice(spec, value):
    C = overflowing_grid()
    want = f"the {spec.kind} energy overflowed: slice 3 gives {value}"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalFailureError, match=want):
            energy(C, spec)
        if spec.kind != "J":
            with pytest.raises(NumericalFailureError, match=want):
                path_len_energy(C, spec)


def test_stable_lambda_says_that_m_overflowed():
    # An overflowed M is not a stalled homotopy, whose M vanishes.
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalFailureError, match=r"slice 3: M = int m ds overflowed \(M = inf\)"):
            stable_lambda(overflowing_grid())


def test_the_stretch_energy_that_overflows_raises():
    C = conformal_stretch(0.1, 1e155)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalFailureError, match="the conformal energy overflowed: slice 0 gives nan"):
            energy(C, EnergySpec(kind="conformal", factor=ConformalFactor.length()))
