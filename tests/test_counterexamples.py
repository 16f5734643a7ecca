"""Tests for the pathological homotopy families against closed forms."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad

from curvemetrics.counterexamples import (
    PULLEY_FILLET,
    PULLEY_N_THETA,
    STRETCH_N_U,
    STRETCH_N_V,
    ZIGZAG_N_V,
    _feature_positions,
    _pulley_features,
    _pulley_rails,
    conformal_stretch,
    graph_wiggle,
    pulley,
    tessellate,
    winding_family,
    zigzag_cone,
)
from curvemetrics.curves import theta_grid
from curvemetrics.energies import ConformalFactor, EnergySpec, energy
from curvemetrics.errors import InputDataError
from curvemetrics.homotopy import length_profile, sample_homotopy, shift_unwind

from helpers import (
    bits,
    reference_feature_positions,
    reference_zigzag_quad,
    translating_circle,
    unit_circle,
)


AB21 = EnergySpec(kind="alpha_beta", alpha=2.0, beta=1.0)


def test_winding_family_validation():
    C = translating_circle(n_theta=64, n_v=9)
    with pytest.raises(InputDataError):
        winding_family(C, 1.5)


@pytest.mark.parametrize("k", [4, -4, 5, 12, 10**17])
def test_winding_family_rejects_an_aliased_k(k):
    # On 9 slices k and k +- 8 shift every slice alike, so only
    # 2|k| < 8 names one grid.
    C = translating_circle(n_theta=64, n_v=9)
    want = f"winding number k = {k} needs 2|k| < n_v - 1 = 8"
    with pytest.raises(InputDataError, match=re.escape(want)):
        winding_family(C, k)
    aliased = shift_unwind(C, 2.0 * np.pi * (3 - 8) * C.v_grid())
    assert np.allclose(winding_family(C, 3).values, aliased.values, atol=1e-12)


def test_winding_preserves_geometric_energy():
    C = translating_circle(n_theta=256, n_v=64)
    base = energy(C, EnergySpec(kind="geom_H0")).total
    for k in (1, 2, 3):
        twisted = energy(winding_family(C, k), EnergySpec(kind="geom_H0")).total
        assert twisted == pytest.approx(base, rel=1e-3)


def test_winding_blows_up_parametric_energy():
    # |d_v C_k|^2 integrates to 2 pi (1 + (2 pi k)^2) on the translating
    # circle, so the parametric energy runs away quadratically in k.
    C = translating_circle(n_theta=256, n_v=64)
    totals = []
    for k in (0, 1, 2, 3):
        Ck = winding_family(C, k)
        totals.append(energy(Ck, EnergySpec(kind="param_H0")).total)
        expected = 2.0 * np.pi * (1.0 + (2.0 * np.pi * k) ** 2)
        # Central differences see the rotation rate through a sinc
        # factor, about 3% low by k = 3 at 64 slices.
        assert totals[-1] == pytest.approx(expected, rel=5e-2)
    assert all(b > a for a, b in zip(totals, totals[1:]))


def test_tessellate_validation():
    strip = conformal_stretch(0.25, 1.0)
    with pytest.raises(InputDataError):
        tessellate(strip, 0)
    with pytest.raises(InputDataError):
        tessellate(translating_circle(n_theta=64, n_v=9), 2)

    def skewed(us, v):
        return np.stack([us, v + 0.1 * v * us * (1.0 - us)], axis=1)

    bad = sample_homotopy(skewed, n_theta=33, n_v=9, periodic=False)
    with pytest.raises(InputDataError):
        tessellate(bad, 2)


def test_tessellate_shapes_and_shrinking():
    strip = conformal_stretch(0.25, 1.0)
    C2 = tessellate(strip, 2)
    assert C2.values.shape == (2 * STRETCH_N_V - 1, 2 * STRETCH_N_U - 1, 2)
    # Each tile is the original at scale 1/h, so the deviation from the
    # identity embedding shrinks exactly like 1/h.
    def identity_deviation(C):
        u = np.linspace(0.0, 1.0, C.n_theta)
        v = np.linspace(0.0, 1.0, C.n_v)
        ident = np.stack(np.broadcast_arrays(u[None, :], v[:, None]), axis=2)
        return float(np.max(np.abs(C.values - ident)))

    dev1 = identity_deviation(tessellate(strip, 1))
    assert dev1 == pytest.approx(0.25, abs=1e-6)
    assert identity_deviation(C2) == pytest.approx(dev1 / 2.0, abs=1e-6)
    assert identity_deviation(tessellate(strip, 4)) == pytest.approx(dev1 / 4.0, abs=1e-6)


def test_tessellate_preserves_stretch_energy():
    # The (2,1) energy of the stretch strip is 1 - 2 eps + 2 eps / sqrt(2)
    # and gluing scaled copies keeps it, up to seam quadrature.
    strip = conformal_stretch(0.25, 1.0)
    base = energy(strip, AB21).total
    assert base == pytest.approx(0.5 + 0.5 / np.sqrt(2.0), rel=2e-3)
    for h in (2, 4):
        glued = energy(tessellate(strip, h), AB21).total
        assert glued == pytest.approx(base, rel=1e-2)


def test_graph_wiggle_identity_and_validation():
    with pytest.raises(InputDataError):
        graph_wiggle(-1)
    ident = graph_wiggle(0)
    assert energy(ident, AB21).total == pytest.approx(1.0, abs=1e-12)


def test_graph_wiggle_energy_oracle():
    # Exact integrand of the (2,1) energy for the tent-amplitude wiggle:
    # (1 + s sin(2 pi j u))^2 / sqrt(1 + (2 pi j gamma cos(2 pi j u))^2)
    # with s = dgamma/dv; the two tent halves contribute equally.
    j = 2.0

    def integrand(u, v):
        wy = 2.0 * np.pi * j * v * np.cos(2.0 * np.pi * j * u)
        vy = 1.0 + np.sin(2.0 * np.pi * j * u)
        return vy * vy / np.sqrt(1.0 + wy * wy)

    oracle = 2.0 * dblquad(integrand, 0.0, 0.5, 0.0, 1.0)[0]
    measured = energy(graph_wiggle(2), AB21).total
    assert measured == pytest.approx(oracle, rel=5e-2)


def test_graph_wiggle_energy_decreases():
    totals = [energy(graph_wiggle(j), AB21).total for j in (1, 2, 4, 8, 16)]
    assert all(b < a for a, b in zip(totals, totals[1:]))
    assert 0.15 < totals[-1] < 0.45


def test_zigzag_validation():
    c1 = unit_circle(n=512)
    with pytest.raises(InputDataError):
        zigzag_cone(0, c1)
    with pytest.raises(InputDataError):
        zigzag_cone(4, unit_circle(n=512, radius=2.0))
    thetas = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
    warped = np.stack(
        [np.cos(thetas + 0.3 * np.sin(thetas)), np.sin(thetas + 0.3 * np.sin(thetas))],
        axis=1,
    )
    from curvemetrics.curves import SampledCurve

    with pytest.raises(InputDataError):
        zigzag_cone(4, SampledCurve(points=warped))


def test_zigzag_endpoints_and_grid():
    cone = zigzag_cone(4, unit_circle(n=512))
    assert cone.grid.n_v == ZIGZAG_N_V
    assert np.max(np.abs(cone.grid.values[0])) == 0.0
    np.testing.assert_allclose(cone.grid.values[-1], unit_circle(n=512).points, atol=1e-12)
    assert cone.epsilon == pytest.approx(np.pi / 4.0)


def test_zigzag_first_phase_matches_quadrature():
    # Exact reduction: E_1 = (2k / eps^3) int_0^eps z^4 / sqrt(1+z^2) dz.
    for k in (4, 8):
        eps = np.pi / k
        oracle = (2.0 * k / eps**3) * quad(
            lambda z: z**4 / np.sqrt(1.0 + z * z), 0.0, eps
        )[0]
        cone = zigzag_cone(k, unit_circle(n=512))
        assert cone.first_phase_energy() == pytest.approx(oracle, rel=1e-3)
        # Small-width asymptotics: about (2/5) pi^2 / k, always under the
        # worst-case bound (4/5) pi^2 / k.
        assert cone.first_phase_energy() < 0.8 * np.pi**2 / k


def test_zigzag_total_energy_deflates():
    cones = [zigzag_cone(k, unit_circle(n=512)) for k in (4, 8, 16)]
    totals = [c.total_normal_energy() for c in cones]
    firsts = [c.first_phase_energy() for c in cones]
    assert all(t > f for t, f in zip(totals, firsts))
    assert all(b < a for a, b in zip(totals, totals[1:]))


def test_pulley_validation():
    with pytest.raises(InputDataError):
        pulley(0)
    # A few slices of a huge h still need about 4h features per slice.
    with pytest.raises(InputDataError, match="pulley h = 100000000000000000000"):
        pulley(10**20)


def test_pulley_inextensible_and_sliding():
    res = pulley(2)
    assert res.grid.values.shape == (17, PULLEY_N_THETA, 2)
    # The channel is inextensible and rescaled to length 2 pi.
    np.testing.assert_allclose(length_profile(res.grid), 2.0 * np.pi, rtol=2e-2)
    assert res.scale == pytest.approx(2.0 * np.pi / res.length)
    assert res.max_normal_speed == pytest.approx(0.5 * res.scale)
    # Material already outruns the normal motion at h = 2; the growth
    # test below checks the trend in h.
    assert res.slide_rate_max > res.max_normal_speed


def test_pulley_param_energy_grows():
    res2 = pulley(2)
    res4 = pulley(4)
    assert res4.param_energy > res2.param_energy
    assert res4.slide_rate_max > res2.slide_rate_max
    # Normal motion stays bounded while the sliding energy grows.
    assert res4.max_normal_speed < 1.0


@settings(max_examples=30, deadline=None)
@given(
    h=st.integers(1, 8),
    v=st.floats(0.0, 1.0),
    fillet=st.sampled_from([0.005, 0.02, 0.05, 0.1]),
    n=st.integers(1, 300),
    seed=st.integers(0, 2**16),
)
def test_feature_positions_match_the_masked_loop_bit_for_bit(h, v, fillet, n, seed):
    feats = _pulley_features(h, v, _pulley_rails(h, fillet))
    cum = np.concatenate([[0.0], np.cumsum([f[-1] for f in feats])])
    total = cum[-1]
    # Both ends, past both ends, every feature join, and random points.
    s = np.concatenate([
        [0.0, total, -1.0, total + 1.0, np.nextafter(total, 0.0)],
        cum,
        np.random.default_rng(seed).uniform(0.0, total, n),
    ])
    got = _feature_positions(feats, s)
    assert np.array_equal(bits(got), bits(reference_feature_positions(feats, s)))


def test_pulley_grid_and_probe_match_the_masked_loop_bit_for_bit():
    # Other fillets and sample arclengths are swept on the features above.
    for h in (1, 2, 5):
        res = pulley(h)
        n_v = 8 * h + 1
        rails = _pulley_rails(h, PULLEY_FILLET)
        s = (theta_grid(PULLEY_N_THETA) / (2.0 * np.pi)) * res.length
        s_probe = None
        cum = 0.0
        for f in _pulley_features(h, 0.0, rails):
            if f[0] == "seg" and abs(f[1][1] + 2.5) < 1e-12 and f[-1] > 5.0:
                s_probe = cum + (2.0 - f[1][0])
                break
            cum += f[-1]
        probe_dist = np.empty(n_v)
        for j, v in enumerate(np.linspace(0.0, 1.0, n_v)):
            feats = _pulley_features(h, float(v), rails)
            expected = res.scale * reference_feature_positions(feats, s)
            assert np.array_equal(bits(res.grid.values[j]), bits(expected))
            probe = reference_feature_positions(feats, np.array([s_probe]))[0]
            probe_dist[j] = res.scale * float(np.linalg.norm(probe - np.array([2.0, 0.0])))
        slide = float(np.max(np.abs(np.diff(probe_dist)))) / (1.0 / (n_v - 1))
        assert bits(res.slide_rate_max) == bits(slide)


@settings(max_examples=25, deadline=None)
@given(
    k=st.integers(1, 32),
    phase=st.sampled_from([1, 2]),
    n_theta=st.integers(8, 1200),
    n_v=st.integers(1, 40),
)
@example(k=4, phase=1, n_theta=2048, n_v=256)
@example(k=32, phase=2, n_theta=2048, n_v=256)
def test_zigzag_quadrature_matches_the_row_loop_bit_for_bit(k, phase, n_theta, n_v):
    cone = zigzag_cone(k, unit_circle(n=256))
    v_lo, v_hi = (0.0, 0.5) if phase == 1 else (0.5, 1.0)
    got = cone._quad(phase, v_lo, v_hi, n_theta, n_v)
    expected = reference_zigzag_quad(cone, phase, v_lo, v_hi, n_theta, n_v)
    assert bits(got) == bits(expected)


def test_conformal_stretch_validation():
    with pytest.raises(InputDataError):
        conformal_stretch(0.6, 1.0)
    with pytest.raises(InputDataError):
        conformal_stretch(0.25, -1.0)


def test_conformal_stretch_energies():
    # Plain normal energy of the tent strip drops below 1; weighting by
    # phi(len) = len restores it: both values have closed forms.
    eps, lam = 0.25, 1.0
    strip = conformal_stretch(eps, lam)
    root = np.sqrt(1.0 + lam * lam)
    plain_expected = 1.0 - 2.0 * eps + 2.0 * eps / root
    length_expected = 1.0 - 2.0 * eps + 2.0 * eps * root
    plain = energy(strip, EnergySpec(kind="geom_H0")).total
    assert plain == pytest.approx(plain_expected, rel=2e-3)
    assert plain < 1.0
    np.testing.assert_allclose(length_profile(strip), length_expected, rtol=2e-3)
    conf = energy(
        strip, EnergySpec(kind="conformal", factor=ConformalFactor.length())
    ).total
    assert conf == pytest.approx(plain_expected * length_expected, rel=2e-3)
    assert conf >= 1.0
