"""Acceptance battery: one test per shipping criterion.

Every test states its tolerance inline and runs at the reference
resolution of 256 theta samples by 64 slices unless a criterion calls
for another grid. Run with -v to get one pass/fail line per criterion.
"""

import numpy as np
import pytest

from curvemetrics.counterexamples import (
    conformal_stretch,
    graph_wiggle,
    pulley,
    tessellate,
    winding_family,
    zigzag_cone,
)
from curvemetrics.curves import DirectionFunctionSample
from curvemetrics.energies import (
    ConformalFactor,
    EnergySpec,
    energy,
    holder_length_check,
    scaling_check,
    stable_lambda,
)
from curvemetrics.errors import FlatSetError
from curvemetrics.flows import (
    commutator_check,
    energy_derivative_check,
    identity_residuals,
    integrate_heat_flow,
    mm_normal_speed,
    run_homotopy_flow,
)
from curvemetrics.homotopy import linear_homotopy, reparam_horizontal
from curvemetrics.levelset import run_geodesic
from curvemetrics.shapedist import (
    CompactSet,
    dirfn_constraints,
    dirfn_project,
    hausdorff_distance,
    hausdorff_path_length,
)

from helpers import (
    horizontal_circle_closed_form,
    radial_circle,
    smooth_random_grid,
    translating_circle,
    unit_circle,
    v4_cone,
)

GEOM = EnergySpec(kind="geom_H0")
PARAM = EnergySpec(kind="param_H0")
AB21 = EnergySpec(kind="alpha_beta", alpha=2.0, beta=1.0)


def test_criterion_01_translating_circle_normal_energy():
    total = energy(translating_circle(), GEOM).total
    assert abs(total / np.pi - 1.0) < 5e-3, f"E = {total}, want pi within 0.5%"


def test_criterion_02_quartic_cone_j_energy():
    total = energy(v4_cone(), EnergySpec(kind="J")).total
    expected = 32.0 * np.pi / 3.0
    assert abs(total / expected - 1.0) < 1e-2, f"J = {total}, want 32 pi/3 within 1%"


def test_criterion_03_scaling_laws():
    C = translating_circle()
    for eps in (0.5, 2.0):
        r_en, r_j = scaling_check(C, eps)
        assert abs(r_en / eps**3 - 1.0) < 1e-3, f"eps={eps}: E ratio {r_en}"
        assert abs(r_j / eps - 1.0) < 1e-3, f"eps={eps}: J ratio {r_j}"


def test_criterion_04_winding_invariance():
    C = translating_circle()
    base = energy(C, GEOM).total
    params = []
    for k in (1, 2, 3):
        Ck = winding_family(C, k)
        twisted = energy(Ck, GEOM).total
        assert abs(twisted - base) / base < 1e-3, f"k={k}: E^N drifted to {twisted}"
        params.append(energy(Ck, PARAM).total)
    assert params[0] < params[1] < params[2], f"param energies not monotone: {params}"


def test_criterion_05_horizontal_reparameterization_closed_form():
    C = translating_circle(n_theta=256, n_v=128)
    res = reparam_horizontal(C)
    closed = horizontal_circle_closed_form(n_theta=256, n_v=128)
    err = float(np.max(np.linalg.norm(res.grid.values - closed.values, axis=2)))
    assert err < 1e-3, f"max point error {err}"
    assert res.residual < 1e-3, f"tangential residual {res.residual}"


def test_criterion_06_tessellation_invariance_and_wiggle_decay():
    strip = conformal_stretch(0.25, 1.0)
    base = energy(strip, AB21).total
    for h in (1, 2, 4):
        glued = energy(tessellate(strip, h), AB21).total
        assert abs(glued / base - 1.0) < 1e-2, f"h={h}: energy {glued} vs {base}"
    wiggles = [energy(graph_wiggle(j), AB21).total for j in (1, 2, 4, 8, 16)]
    assert all(b < a for a, b in zip(wiggles, wiggles[1:])), f"not decreasing: {wiggles}"


def test_criterion_07_zigzag_cone_energy_decay():
    # The first phase integrates to (2k/eps^3) int z^4/sqrt(1+z^2), about
    # (2/5) pi^2 / k, so the (4/5) pi^2 / k ceiling holds with room; the
    # 10% cushion covers the quadrature.
    c1 = unit_circle()
    bound_const = 0.8 * np.pi**2
    totals = []
    for k in (4, 8, 16):
        cone = zigzag_cone(k, c1)
        first = cone.first_phase_energy()
        assert first <= 1.1 * bound_const / k, (
            f"k={k}: first phase {first} vs bound {bound_const / k}"
        )
        totals.append(cone.total_normal_energy())
    assert totals[0] > totals[1] > totals[2], f"totals not decreasing: {totals}"


def test_criterion_08_pulley_growth_with_unit_normal_speed():
    records = [pulley(h) for h in (2, 4, 8)]
    params = [r.param_energy for r in records]
    assert params[0] < params[1] < params[2], f"param energies not increasing: {params}"
    for h, r in zip((2, 4, 8), records):
        assert r.max_normal_speed <= 1.0 + 1e-6, (
            f"h={h}: normal speed {r.max_normal_speed}"
        )


def test_criterion_09_energy_derivative_consistency():
    C = translating_circle()
    for kind in ("h0", "conformal"):
        rel = energy_derivative_check(C, kind, trials=10)
        assert rel < 1e-6, f"{kind}: relative derivative error {rel}"


def test_criterion_10_calculus_identities_second_order():
    coarse_grid = smooth_random_grid(n_theta=64, n_v=33, seed=1)
    fine_grid = smooth_random_grid(n_theta=128, n_v=65, seed=1)
    r_coarse = commutator_check(coarse_grid)
    r_fine = commutator_check(fine_grid)
    ratio = r_coarse / r_fine
    assert 3.5 < ratio < 4.5, f"commutator refinement ratio {ratio}"
    coarse = identity_residuals(coarse_grid)
    fine = identity_residuals(fine_grid)
    for key, value in fine.items():
        if key in ("c_s.c_s=1", "c_s.c_vstar=0"):
            assert value < 1e-12, f"{key}: {value}"
        else:
            assert value < 2e-3, f"{key}: residual {value}"
            assert value < coarse[key] / 3.0, (
                f"{key}: {coarse[key]} -> {value} not second order"
            )


def test_criterion_11_stability_lambda_and_margin():
    C = translating_circle()
    lam = stable_lambda(C)
    assert abs(lam * np.pi - 1.0) < 5e-3, f"lambda = {lam}, want 1/pi within 0.5%"
    margin = run_homotopy_flow(C, kind="conformal", steps=1, lam=lam).margin_trace[0]
    assert margin >= -1e-9, f"stability margin {margin}"


def test_criterion_12_holder_length_bound():
    grids = [
        translating_circle(),
        radial_circle(),
        smooth_random_grid(seed=0),
        smooth_random_grid(seed=1),
        smooth_random_grid(seed=2),
    ]
    for i, C in enumerate(grids):
        worst = holder_length_check(C)
        assert worst <= 1.0 + 1e-3, f"grid {i}: ratio {worst}"


def test_criterion_13_heat_flow_radius_law():
    final, lengths = integrate_heat_flow(unit_circle(), 0.25)
    radius = float(np.mean(np.linalg.norm(final.points, axis=1)))
    assert abs(radius / np.sqrt(0.5) - 1.0) < 1e-2, f"radius {radius}"
    assert np.all(np.diff(lengths) < 0.0), "arclength not strictly decreasing"


def test_criterion_14_bounded_speed_values():
    expected = {0.25: 0.2, 0.5: 0.25, 1.0: 0.2}
    for kappa, value in expected.items():
        got = mm_normal_speed(kappa, 4.0)
        assert abs(got - value) < 1e-12, f"kappa={kappa}: speed {got}"


def test_criterion_15_levelset_geodesic_translated_circles():
    # Offset 0.35 keeps the settled slices genuinely within the 2%
    # circle-deviation bar at this resolution; larger offsets blur the
    # coarse-grid extraction past it.
    c0 = unit_circle()
    c1 = unit_circle(center=(0.35, 0.0))
    result = run_geodesic(c0, c1, max_steps=1800)
    assert result.converged, f"no convergence in 1800 steps ({result.residual})"

    H = result.homotopy
    devs = []
    for j in range(H.n_v):
        pts = H.values[j]
        center = pts.mean(axis=0)
        rad = np.linalg.norm(pts - center, axis=1)
        devs.append(float(np.max(np.abs(rad - np.mean(rad))) / np.mean(rad)))
    assert max(devs) <= 0.02, f"worst best-fit circle deviation {max(devs)}"

    centers = H.values.mean(axis=1)
    assert np.all(np.diff(centers[:, 0]) > 0.0), "centers not monotone"

    two_dx = 2.0 * result.grid.dx
    for pts, target in ((H.values[0], c0.points), (H.values[-1], c1.points)):
        gap = float(
            np.max(np.linalg.norm(pts - target.mean(axis=0), axis=1) - 1.0)
        )
        assert abs(gap) < two_dx, f"endpoint contour off by {gap}"

    # The solver descends the conformal energy with factor e^(lam L) at
    # the stable lam (1/pi here), not plain E^N: plain H^0 distances
    # vanish, so plain E^N has no minimal geodesic to settle on.
    linear = linear_homotopy(c0, c1, 17)
    conf_spec = EnergySpec(
        kind="conformal", factor=ConformalFactor.exp_length(result.lam)
    )
    conf = result.conformal_trace
    c_linear = energy(linear, conf_spec).total
    # No worse than the linear homotopy in the descended energy; measured
    # 2.7877 against 2.8424 (-1.9%).
    assert conf[-1] <= c_linear, (
        f"extracted conformal energy {conf[-1]} exceeds the linear "
        f"homotopy's {c_linear}"
    )
    # A real drop: the t = 0 extraction bias is only -0.19%, so a solver
    # that never moved fails this; measured ratio 0.983.
    assert conf[-1] < 0.995 * conf[0], f"conformal energy barely moved: {conf}"
    # Descent at every snapshot, up to re-extraction noise; measured
    # largest rise 1.26e-4 relative.
    assert np.max(np.diff(conf)) < 5e-4 * conf[0], f"conformal energy rose: {conf}"
    # The run ends at the lowest conformal energy it reached, up to that
    # noise; measured 4.5e-5 relative above the trace minimum. A fixed
    # reinitialization cadence made it climb 1.1e-3 after its minimum.
    assert conf[-1] <= (1.0 + 2e-4) * conf.min(), f"conformal energy climbed: {conf}"
    # Plain E^N ends no higher than linear; measured -0.30%. The
    # conformal descent need not lower it: the exact conformal minimizer
    # over circle families ends +0.40% above linear at lam = 1/pi (see
    # test_energies).
    e_final = result.energy_trace[-1]
    e_linear = energy(linear, GEOM).total
    assert e_final <= e_linear, (
        f"extracted E^N {e_final} exceeds the linear homotopy's {e_linear} "
        f"by {100 * (e_final / e_linear - 1):.2f}%"
    )


def test_criterion_16_direction_function_constraints():
    s = np.linspace(0.0, 2.0 * np.pi, 257)
    circle = DirectionFunctionSample(theta_of_s=s, winding=1)
    assert np.max(np.abs(dirfn_constraints(circle))) < 1e-8

    theta = s + 0.05 * np.sin(3.0 * s) + 0.02
    theta[-1] = theta[0] + 2.0 * np.pi
    member = dirfn_project(DirectionFunctionSample(theta_of_s=theta, winding=1))
    again = dirfn_project(member)
    assert np.max(np.abs(again.theta_of_s - member.theta_of_s)) < 1e-10

    with pytest.raises(FlatSetError):
        dirfn_project(DirectionFunctionSample(theta_of_s=np.full(257, 0.7), winding=0))


def test_criterion_17_hausdorff_metric():
    a = CompactSet(points=np.array([[0.0, 0.0]]))
    b = CompactSet(points=np.array([[3.0, 4.0]]))
    assert hausdorff_distance(a, b) == 5.0

    rng = np.random.default_rng(41)
    pool = [
        CompactSet(points=rng.normal(size=(int(rng.integers(1, 25)), 2)))
        for _ in range(30)
    ]
    for _ in range(100):
        x, y = rng.choice(len(pool), size=2)
        d_xy = hausdorff_distance(pool[x], pool[y])
        assert d_xy >= 0.0
        assert d_xy == hausdorff_distance(pool[y], pool[x])
        assert hausdorff_distance(pool[x], pool[x]) == 0.0
        z = int(rng.integers(len(pool)))
        assert d_xy <= (
            hausdorff_distance(pool[x], pool[z])
            + hausdorff_distance(pool[z], pool[y])
            + 1e-12
        )

    base = unit_circle(n=64).points
    path = [
        CompactSet(points=base + np.array([t, 0.0]))
        for t in np.linspace(0.0, 0.5, 11)
    ]
    total = hausdorff_path_length(path)
    assert abs(total - 0.5) < 1e-12
    assert abs(total - hausdorff_distance(path[0], path[-1])) < 1e-12


def test_criterion_18_conformal_factor_restores_lower_bound():
    factor = ConformalFactor.length()
    for eps in (0.1, 0.25):
        for lam in (0.5, 1.0, 2.0):
            strip = conformal_stretch(eps, lam)
            conf = energy(
                strip, EnergySpec(kind="conformal", factor=factor)
            ).total
            assert conf >= 1.0, f"eps={eps} lam={lam}: E_phi = {conf}"
