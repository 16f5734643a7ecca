"""Alternative distances between curves and compact sets.

Two constructions that sidestep homotopy energies entirely: the
direction-function preshape space (tangent angle against normalized
arclength, with the closure and mean constraints projected by a
Gauss-Newton sweep) and Hausdorff-type distances between compact
point sets.
"""

import math
from dataclasses import dataclass

import numpy as np

from .curves import DirectionFunctionSample
from .errors import FlatSetError, InputDataError, NumericalFailureError
from .homotopy import HomotopyGrid, _per_row

GRAM_CONDITION_CAP = 1e8
CONSTRAINT_TOL = 1e-6
# dirfn_project stops below this residual norm, or fails after this many sweeps.
PROJECT_TOL = 1e-10
PROJECT_MAX_ITER = 50


@dataclass
class CompactSet:
    """Finite point sample of a compact subset of euclidean space."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise InputDataError("a compact set needs at least one point")
        if not np.all(np.isfinite(pts)):
            raise InputDataError("compact set contains non-finite points")
        self.points = pts


def _trapezoid_weights(m_intervals):
    ds = 2.0 * np.pi / m_intervals
    w = np.full(m_intervals + 1, ds)
    w[0] = 0.5 * ds
    w[-1] = 0.5 * ds
    return w


def dirfn_constraints(d: DirectionFunctionSample) -> np.ndarray:
    """Residuals of the three preshape constraints.

    Returns (integral of theta minus 2*pi^2, integral of cos theta,
    integral of sin theta), all over normalized arclength [0, 2*pi]
    by the periodic trapezoid rule. Zero residuals mean the direction
    function closes up and carries the standard rotation section.
    """
    theta = d.theta_of_s
    w = _trapezoid_weights(d.m_intervals)
    return np.array(
        [
            float(w @ theta - 2.0 * np.pi**2),
            float(w @ np.cos(theta)),
            float(w @ np.sin(theta)),
        ]
    )


def dirfn_project(d: DirectionFunctionSample) -> DirectionFunctionSample:
    """Nearest direction function satisfying the preshape constraints.

    Gauss-Newton on the constraint map: each sweep removes the component
    of the residual along the constraint gradients (1, -sin theta,
    cos theta) in the L2 sense. The update is equal at both endpoint
    samples, so the winding is preserved. A nearly singular Gram matrix
    means the function sits close to the flat set where the projection
    is ill-posed, and raises FlatSetError.
    """
    theta = d.theta_of_s.copy()
    w = _trapezoid_weights(d.m_intervals)
    for _ in range(PROJECT_MAX_ITER):
        probe = DirectionFunctionSample(theta_of_s=theta, winding=d.winding)
        r = dirfn_constraints(probe)
        if np.linalg.norm(r) < PROJECT_TOL:
            return probe
        g = np.vstack([np.ones_like(theta), -np.sin(theta), np.cos(theta)])
        gram = (g * w) @ g.T
        cond = np.linalg.cond(gram)
        if not np.isfinite(cond) or cond > GRAM_CONDITION_CAP:
            raise FlatSetError(
                f"constraint Gram matrix has condition {cond:.3g}; "
                "the direction function is too close to the flat set"
            )
        alpha = np.linalg.solve(gram, r)
        theta = theta - g.T @ alpha
    raise NumericalFailureError(
        f"constraint projection did not converge in {PROJECT_MAX_ITER} sweeps"
    )


def _check_member(d: DirectionFunctionSample, label: str):
    r = dirfn_constraints(d)
    if np.max(np.abs(r)) > CONSTRAINT_TOL:
        raise InputDataError(
            f"{label} violates the preshape constraints "
            f"(residuals {r}); project it first"
        )


def dirfn_distance(
    d1: DirectionFunctionSample,
    d2: DirectionFunctionSample,
    mode: str = "l2",
) -> float:
    """Distance between two direction functions on the preshape set.

    mode "l2" is the plain flat distance. mode "quotient_shift" also
    minimizes over base-point shifts (cyclic grid shifts with the
    2*pi*winding continuation) and rotations (an additive constant,
    optimal at the mean difference), so it never exceeds the l2 value.
    Both inputs must satisfy the preshape constraints.
    """
    if d1.m_intervals != d2.m_intervals:
        raise InputDataError("direction functions live on different grids")
    _check_member(d1, "first argument")
    _check_member(d2, "second argument")
    w = _trapezoid_weights(d1.m_intervals)
    t1 = d1.theta_of_s
    t2 = d2.theta_of_s

    if mode == "l2":
        diff = t1 - t2
        return float(np.sqrt(w @ diff**2))
    if mode != "quotient_shift":
        raise InputDataError(f"unknown distance mode '{mode}'")

    # Shift k samples t2 from base point k on: body[k:], then body[:k]
    # continued by one turn, then the closing sample. That is
    # ext[k:k + m + 1] of the body followed by its one-turn continuation.
    m = d2.m_intervals
    body = t2[:-1]
    ext = np.concatenate([body, body + 2.0 * np.pi * d2.winding])
    best = np.inf
    diff = np.empty(m + 1)
    for k in range(m):
        np.subtract(t1, ext[k:k + m + 1], out=diff)
        diff -= float(w @ diff) / (2.0 * np.pi)
        diff *= diff
        best = min(best, math.sqrt(w @ diff))
    return best


def hausdorff_distance(a: CompactSet, b: CompactSet) -> float:
    """Hausdorff distance between two finite point sets.

    Squared distances summed one coordinate at a time, as cdist sums
    them, then one sqrt of the reduced value: cdist's value bit for bit.
    """
    if a.points.shape[1] != b.points.shape[1]:
        raise InputDataError("point sets live in different dimensions")
    p, q = a.points, b.points
    sq = (p[:, None, 0] - q[None, :, 0]) ** 2
    for k in range(1, p.shape[1]):
        sq += (p[:, None, k] - q[None, :, k]) ** 2
    return float(np.sqrt(max(sq.min(axis=1).max(), sq.min(axis=0).max())))


def hausdorff_path_length(sets) -> float:
    """Length of a discrete path of compact sets.

    Sums the Hausdorff distances between consecutive members; for a
    rigid translation family this telescopes to the total displacement.
    """
    sets = list(sets)
    if len(sets) < 2:
        raise InputDataError("a path needs at least two sets")
    total = 0.0
    for a, b in zip(sets[:-1], sets[1:]):
        total += hausdorff_distance(a, b)
    return total


def sup_speed_length(C: HomotopyGrid) -> float:
    """Homotopy length measured by the worst normal speed of each slice.

    Integrates max over theta of the normal velocity magnitude along v;
    this dominates the Hausdorff path length of the swept family and
    agrees with it for rigid translations.
    """
    m_max = _per_row(C, lambda frame: np.max(frame.m, axis=-1))
    return float(C.integrate_v(np.sqrt(m_max)))
