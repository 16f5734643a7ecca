"""Numerics for metrics on the space of closed curves.

Curve calculus, homotopy energies and inner products, horizontal and
unwinding reparameterizations, counterexample families with degenerate
or unstable energy behavior, gradient flows with a conformal
stabilization, a level-set geodesic solver, and alternative distances
(direction-function preshapes, Hausdorff).
"""

from .curves import (
    CurvatureField,
    DirectionFunctionSample,
    SampledCurve,
    TangentFrame,
    arclength,
    curvature,
    immersed,
    lift_direction,
    resample_arclength,
    tangent_frame,
    theta_grid,
    unlift_direction,
)
from .energies import (
    ConformalFactor,
    EnergyReport,
    EnergySpec,
    area_swept,
    area_swept_bound_check,
    cross_identity_check,
    energy,
    energy_gradient,
    holder_length_check,
    inner_product,
    path_len_energy,
    scaling_check,
    stable_lambda,
)
from .errors import (
    CFLError,
    CurveMetricsError,
    FlatSetError,
    GridTooCoarseError,
    InputDataError,
    LevelSetError,
    NotImmersedError,
    NumericalFailureError,
    StalledHomotopyError,
)
from .flows import (
    FlowState,
    VStarField,
    commutator_check,
    energy_derivative_check,
    identity_residuals,
    integrate_heat_flow,
    mm_normal_speed,
    run_homotopy_flow,
    vstar_calculus,
)
from .homotopy import (
    HomotopyFrame,
    HomotopyGrid,
    HorizontalResult,
    homotopy_frame,
    length_profile,
    linear_homotopy,
    optimal_unwind_shift,
    reparam_arclength,
    reparam_horizontal,
    sample_homotopy,
    shift_unwind,
)
from .levelset import (
    GeodesicResult,
    LevelSetGrid,
    SliceContours,
    embed,
    evolve_step,
    extract_slices,
    reinitialize,
    run_geodesic,
)
from .shapedist import (
    CompactSet,
    dirfn_constraints,
    dirfn_distance,
    dirfn_project,
    hausdorff_distance,
    hausdorff_path_length,
    sup_speed_length,
)

__version__ = "0.1.0"
