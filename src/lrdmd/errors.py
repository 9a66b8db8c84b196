"""Exception and warning types shared across the package.

Two error families matter for the CLI exit-code contract: ValidationError
(bad input or usage, exit 2) and NumericalGuardError (a numerical safety
guard tripped or LAPACK broke down, exit 3). The CLI also exits 3 on a
RankClampWarning, and on a RankDeficiencyWarning under --strict-rank,
which it turns into errors, and on a LinAlgError that numpy raises outside
linalg.qr_factor and linalg.thin_svd. Anything else is an internal error
(exit 1).
"""


class LowRankDmdError(Exception):
    """Base class for all package errors."""


class ValidationError(LowRankDmdError, ValueError):
    """Invalid input data or arguments."""


class SnapshotFormatError(ValidationError):
    """Malformed snapshot CSV (ragged trajectories, bad grid, bad cells)."""


class NumericalGuardError(LowRankDmdError, RuntimeError):
    """A numerical safety guard refused to continue, or LAPACK broke down
    (raised from numpy's LinAlgError)."""


class RankGuardError(NumericalGuardError):
    """Requested rank is not supported by the numerical rank of the data."""


class OverflowGuardError(NumericalGuardError):
    """A simulated trajectory exceeded the allowed magnitude."""


class RankDeficiencyWarning(UserWarning):
    """X is numerically rank-deficient: the fits then act through the
    thresholded pseudo-inverse of its rank-r part."""


class RankClampWarning(UserWarning):
    """An optimal fit's requested rank exceeds the numerical rank of Y V_x:
    the fit then clamps it to that rank."""


class DegenerateModeWarning(UserWarning):
    """A spectral mode had to be dropped (zero eigenvalue or collapse)."""


class ReconstructionWarning(UserWarning):
    """Modal reconstruction produced a non-negligible imaginary part, judged
    over the steps it expanded: for ``lrdmd simulate --path modal --stride``
    the written steps alone."""
