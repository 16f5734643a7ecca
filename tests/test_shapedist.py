"""Tests for direction-function and Hausdorff distances."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from curvemetrics.curves import DirectionFunctionSample
from curvemetrics.errors import FlatSetError, InputDataError
from curvemetrics.shapedist import (
    CompactSet,
    dirfn_constraints,
    dirfn_distance,
    dirfn_project,
    hausdorff_distance,
    hausdorff_path_length,
    sup_speed_length,
)

from helpers import bits, reference_quotient_shift, translating_circle, unit_circle


def circle_dirfn(m=256):
    s = np.linspace(0.0, 2.0 * np.pi, m + 1)
    return DirectionFunctionSample(theta_of_s=s, winding=1)


def perturbed_member(m=256, amp=0.05, phase=3.0, offset=0.02):
    s = np.linspace(0.0, 2.0 * np.pi, m + 1)
    theta = s + amp * np.sin(phase * s) + offset
    theta[-1] = theta[0] + 2.0 * np.pi
    return dirfn_project(DirectionFunctionSample(theta_of_s=theta, winding=1))


def random_member(rng, m=128):
    s = np.linspace(0.0, 2.0 * np.pi, m + 1)
    theta = s + rng.uniform(-0.05, 0.05)
    for k in range(1, 4):
        theta = theta + rng.normal(0.0, 0.08 / k) * np.sin(k * s)
        theta = theta + rng.normal(0.0, 0.08 / k) * (np.cos(k * s) - 1.0)
    theta[-1] = theta[0] + 2.0 * np.pi
    return dirfn_project(DirectionFunctionSample(theta_of_s=theta, winding=1))


def test_circle_satisfies_constraints():
    r = dirfn_constraints(circle_dirfn())
    assert np.max(np.abs(r)) < 1e-8


def test_projection_lands_on_constraints_and_is_idempotent():
    member = perturbed_member()
    assert np.linalg.norm(dirfn_constraints(member)) < 1e-10
    again = dirfn_project(member)
    np.testing.assert_allclose(again.theta_of_s, member.theta_of_s, atol=1e-10)


def test_projection_moves_little_for_small_violations():
    s = np.linspace(0.0, 2.0 * np.pi, 257)
    theta = s + 0.05 * np.sin(3.0 * s) + 0.02
    theta[-1] = theta[0] + 2.0 * np.pi
    member = dirfn_project(DirectionFunctionSample(theta_of_s=theta, winding=1))
    assert np.max(np.abs(member.theta_of_s - theta)) < 0.1


def test_projection_raises_near_flat_set():
    theta = np.full(257, 0.7)
    with pytest.raises(FlatSetError):
        dirfn_project(DirectionFunctionSample(theta_of_s=theta, winding=0))


def test_distance_requires_members():
    circle = circle_dirfn()
    s = circle.s_grid()
    bad = DirectionFunctionSample(theta_of_s=s + 0.5, winding=1)
    with pytest.raises(InputDataError):
        dirfn_distance(circle, bad)
    with pytest.raises(InputDataError):
        dirfn_distance(circle, circle_dirfn(m=128))
    with pytest.raises(InputDataError):
        dirfn_distance(circle, circle, mode="hausdorff")


def test_quotient_shift_never_exceeds_l2():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = random_member(rng)
        b = random_member(rng)
        l2 = dirfn_distance(a, b)
        q = dirfn_distance(a, b, mode="quotient_shift")
        assert q <= l2 + 1e-12


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(8, 1024),
    winding=st.sampled_from([1, 2]),
    seed=st.integers(0, 2**16),
)
@example(m=8, winding=1, seed=0)
@example(m=1024, winding=2, seed=1)
def test_quotient_shift_matches_the_concatenating_loop_bit_for_bit(m, winding, seed):
    rng = np.random.default_rng(seed)
    s = np.linspace(0.0, 2.0 * np.pi, m + 1)
    members = []
    for _ in range(2):
        theta = winding * s + rng.uniform(-0.05, 0.05)
        for k in (1, 2, 3):
            theta = theta + rng.uniform(-0.05, 0.05) * np.sin(k * s + rng.uniform(0.0, 2.0 * np.pi))
        theta[-1] = theta[0] + 2.0 * np.pi * winding
        members.append(dirfn_project(DirectionFunctionSample(theta_of_s=theta, winding=winding)))
    got = dirfn_distance(*members, mode="quotient_shift")
    assert bits(got) == bits(reference_quotient_shift(*members))


def test_triangle_inequality_circle_ellipse_wobble():
    circle = circle_dirfn()
    squashed = dirfn_project(
        DirectionFunctionSample(
            theta_of_s=circle.s_grid() + 0.2 * np.sin(2.0 * circle.s_grid()),
            winding=1,
        )
    )
    wobble = perturbed_member()
    for mode in ("l2", "quotient_shift"):
        d_cw = dirfn_distance(circle, wobble, mode=mode)
        d_cs = dirfn_distance(circle, squashed, mode=mode)
        d_sw = dirfn_distance(squashed, wobble, mode=mode)
        assert d_cw <= d_cs + d_sw + 1e-9


def test_metric_axioms_on_random_members():
    rng = np.random.default_rng(19)
    members = [random_member(rng) for _ in range(12)]
    for mode in ("l2", "quotient_shift"):
        for a in members:
            assert dirfn_distance(a, a, mode=mode) < 1e-12
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                d_ab = dirfn_distance(a, b, mode=mode)
                d_ba = dirfn_distance(b, a, mode=mode)
                assert d_ab >= 0.0
                assert abs(d_ab - d_ba) < 1e-10


def test_hausdorff_point_pair():
    a = CompactSet(points=np.array([[0.0, 0.0]]))
    b = CompactSet(points=np.array([[3.0, 4.0]]))
    assert hausdorff_distance(a, b) == 5.0
    assert hausdorff_distance(a, a) == 0.0


SET_SIZE = st.one_of(st.just(1), st.integers(2, 300))


@settings(max_examples=60, deadline=None)
@given(
    dim=st.sampled_from([2, 3, 5]),
    log_scale=st.floats(-8.0, 6.0),
    sizes=st.tuples(SET_SIZE, SET_SIZE).filter(lambda s: s[0] != s[1]),
    seed=st.integers(0, 2**32 - 1),
)
def test_hausdorff_matches_cdist_bit_for_bit(dim, log_scale, sizes, seed):
    # scipy is the independent reference here, as scipy.integrate is for the quadratures.
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    pa, pb = (rng.normal(size=(m, dim)) * scale + rng.normal(size=dim) * scale for m in sizes)
    d = cdist(pa, pb)
    expected = max(d.min(axis=1).max(), d.min(axis=0).max())
    a, b = CompactSet(points=pa), CompactSet(points=pb)
    assert bits(hausdorff_distance(a, b)) == bits(expected)
    assert bits(hausdorff_distance(b, a)) == bits(expected)


def test_hausdorff_axioms_random_sets():
    rng = np.random.default_rng(23)
    sets = [CompactSet(points=rng.normal(size=(rng.integers(2, 30), 2))) for _ in range(10)]
    for i, a in enumerate(sets):
        assert hausdorff_distance(a, a) == 0.0
        for b in sets[i + 1 :]:
            assert hausdorff_distance(a, b) == hausdorff_distance(b, a)
    for a in sets:
        for b in sets:
            for c in sets:
                lhs = hausdorff_distance(a, c)
                rhs = hausdorff_distance(a, b) + hausdorff_distance(b, c)
                assert lhs <= rhs + 1e-12


def test_hausdorff_input_validation():
    with pytest.raises(InputDataError):
        CompactSet(points=np.empty((0, 2)))
    with pytest.raises(InputDataError):
        CompactSet(points=np.array([[np.nan, 0.0]]))
    a = CompactSet(points=np.zeros((3, 2)))
    b = CompactSet(points=np.zeros((3, 3)))
    with pytest.raises(InputDataError):
        hausdorff_distance(a, b)
    with pytest.raises(InputDataError):
        hausdorff_path_length([a])


def test_translation_path_telescopes():
    base = unit_circle(n=64).points
    shifts = np.linspace(0.0, 0.5, 11)
    sets = [CompactSet(points=base + np.array([t, 0.0])) for t in shifts]
    total = hausdorff_path_length(sets)
    np.testing.assert_allclose(total, 0.5, atol=1e-12)
    direct = hausdorff_distance(sets[0], sets[-1])
    np.testing.assert_allclose(total, direct, atol=1e-12)


def test_sup_speed_length_translating_circle():
    C = translating_circle()
    np.testing.assert_allclose(sup_speed_length(C), 1.0, atol=1e-12)
