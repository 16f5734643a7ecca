"""Shared curve and homotopy builders for the test suite."""

import numpy as np

from curvemetrics.curves import (
    EPS_IMMERSED,
    SampledCurve,
    dot,
    periodic_derivative,
    scale,
    theta_grid,
)
from curvemetrics.homotopy import HomotopyGrid, sample_homotopy


def unit_circle(n=256, radius=1.0, center=(0.0, 0.0)):
    th = theta_grid(n)
    pts = np.stack(
        [center[0] + radius * np.cos(th), center[1] + radius * np.sin(th)], axis=1
    )
    return SampledCurve(points=pts)


def ellipse(n=256, a=2.0, b=1.0):
    th = theta_grid(n)
    return SampledCurve(points=np.stack([a * np.cos(th), b * np.sin(th)], axis=1))


def translating_circle(n_theta=256, n_v=64, offset=1.0):
    """Unit circle moving right by `offset` as v runs over [0, 1]."""

    def fn(th, v):
        return np.stack([offset * v + np.cos(th), np.sin(th)], axis=1)

    return sample_homotopy(fn, n_theta, n_v)


def radial_circle(n_theta=256, n_v=64, r0=1.0, r1=2.0):
    """Concentric circles growing linearly from radius r0 to r1."""

    def fn(th, v):
        r = r0 + (r1 - r0) * v
        return np.stack([r * np.cos(th), r * np.sin(th)], axis=1)

    return sample_homotopy(fn, n_theta, n_v)


def v4_cone(n_theta=256, n_v=64):
    """Circles of radius v^4 collapsing to a point at v = 0."""

    def fn(th, v):
        return (v**4) * np.stack([np.cos(th), np.sin(th)], axis=1)

    return sample_homotopy(fn, n_theta, n_v)


def horizontal_circle_closed_form(n_theta=256, n_v=128):
    """The horizontal reparameterization of the translating unit circle.

    Closed form of the purely normal motion with the identity gauge at
    v = 0: each slice is the unit circle centered at (v, 0), traced so
    that no point moves tangentially.
    """

    def fn(th, v):
        e2v = np.exp(2.0 * v)
        denom = (1.0 + e2v) + (1.0 - e2v) * np.cos(th)
        x = v + ((1.0 - e2v) + (1.0 + e2v) * np.cos(th)) / denom
        y = 2.0 * np.exp(v) * np.sin(th) / denom
        return np.stack([x, y], axis=1)

    return sample_homotopy(fn, n_theta, n_v)


def smooth_random_grid(n_theta=64, n_v=33, seed=0, amplitude=0.08):
    """Immersed radial-graph homotopy with random smooth wobble.

    r(theta, v) = 1 + amplitude * sum of low Fourier-in-theta,
    polynomial-in-v modes, small enough to stay star-shaped.
    """
    rng = np.random.default_rng(seed)
    coef = rng.normal(size=(3, 3))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=3)

    def fn(th, v):
        r = np.ones_like(th)
        for p in range(3):
            for q in range(3):
                r = r + amplitude * coef[p, q] * np.cos((p + 1) * th + phase[p]) * v**q / (p + 1 + q)
        return np.stack([r * np.cos(th), r * np.sin(th)], axis=1)

    return sample_homotopy(fn, n_theta, n_v)


def wobbled(th, v):
    """A wobbling circle translating right by 1/2 as v runs over [0, 1]."""
    r = 1.0 + 0.05 * (1.0 - v) * np.cos(3.0 * th) + 0.04 * v * np.sin(2.0 * th)
    return np.stack([0.5 * v + r * np.cos(th), r * np.sin(th)], axis=1)


def wobbled_grid(n_theta=64, n_v=9):
    return sample_homotopy(wobbled, n_theta, n_v)


def constant_grid(n_theta=64, n_v=9):
    """The trivial homotopy: every slice is the same unit circle."""

    def fn(th, v):
        return np.stack([np.cos(th), np.sin(th)], axis=1)

    return sample_homotopy(fn, n_theta, n_v)


def figure_eight(n=128):
    """A self-intersecting closed curve (lemniscate of Gerono)."""
    th = theta_grid(n)
    return SampledCurve(
        points=np.stack([np.sin(2.0 * th) * 0.5, np.sin(th)], axis=1)
    )


def as_grid(rows, periodic=True):
    return HomotopyGrid(values=np.asarray(rows, dtype=float), periodic=periodic)


def reference_curvature(points, dtheta, scale_hint, order=2):
    """(H, T, speed) of an (..., N, n) stack straight from its points.

    The standalone curvature kernel the library had before curvature
    was read from the tangent frame: its own d_theta of the points,
    its own unit tangent, then a second d_theta pass for H = d_s T,
    with T and H zero where the speed is at or below the immersion
    floor. Tests hold the frame-based values to it bit for bit.
    """
    floor = EPS_IMMERSED * scale_hint
    deriv = periodic_derivative(points, dtheta, axis=-2, order=order)
    speed = np.sqrt(dot(deriv, deriv))
    T = scale(deriv, speed, divide=True, where=speed > floor)
    T_theta = periodic_derivative(T, dtheta, axis=-2, order=order)
    H = scale(T_theta, speed, divide=True, where=speed > floor)
    return H, T, speed
