"""Error types shared across the library.

Each class carries the CLI's exit code: malformed inputs exit with 3,
numerical failures (stability violations, stalls, singular systems,
vanished level sets) exit with 4.
"""


class CurveMetricsError(Exception):
    """Base class for all library errors."""

    exit_code = 4


class InputDataError(CurveMetricsError):
    """Malformed or inconsistent input data: bad shapes, sizes, or values."""

    exit_code = 3


class NotImmersedError(CurveMetricsError):
    """An operation that needs an immersed curve met a degenerate edge."""

    exit_code = 3


class GridTooCoarseError(CurveMetricsError):
    """The grid cannot resolve the requested reparameterization.

    Raised when the monotonicity check on the reparameterization map
    fails, which happens when the tangential motion stretches the
    parameter faster than the grid can represent.
    """


class StalledHomotopyError(CurveMetricsError):
    """A slice has no normal motion, so quantities divided by M = int |C_v*|^2 ds are undefined."""


class FlatSetError(CurveMetricsError):
    """Direction function too close to the flat set: the constraint Gram matrix is singular."""


class LevelSetError(CurveMetricsError):
    """Level-set evolution failure: vanished zero set or degenerate gradient in the band."""


class CFLError(CurveMetricsError):
    """Requested time step exceeds the stability bound of the explicit scheme."""


class NumericalFailureError(CurveMetricsError):
    """An iteration failed to converge or a computed field blew up."""
