"""Exception types shared across the package.

Numerical failures are deliberately loud: a backward Riccati solve that
diverges means the problem is not solvable on the given horizon, and callers
must see that instead of silently clipped values.
"""


class MFLQGError(Exception):
    """Base class for all package errors."""


class NonFiniteError(MFLQGError):
    """A computation produced NaN/Inf or exceeded the blow-up norm bound."""


class NotSymmetricError(MFLQGError):
    """A matrix required to be symmetric exceeds the asymmetry tolerance."""


class RegularityLostError(MFLQGError):
    """R + D'PD lost strict positive definiteness along the solve."""


class GridMismatchError(MFLQGError):
    """Operands live on different time grids."""


class CouplingPresentError(MFLQGError):
    """An operation that requires F = Ftilde = 0 was called with coupling."""


class ConfigError(MFLQGError):
    """Base class for bad input: configuration files and run settings."""


class SettingError(ConfigError):
    """A run setting (path or agent count, MFLQG_THREADS) is out of range."""


class InvalidNError(SettingError):
    """Population size out of range for the requested operation."""


class ParseError(ConfigError):
    """An input file is unreadable or not UTF-8 JSON (names the file, line, column)."""


class SchemaError(ConfigError):
    """An input file is JSON but violates its schema (names the file and field)."""


class NearSingularError(MFLQGError):
    """A fundamental-matrix block became numerically singular."""


class NotReducedCaseError(MFLQGError):
    """The closed-form decoupling formula only applies to the reduced case."""


class StationarityError(MFLQGError):
    """The centralized oracle failed its finite-difference stationarity check."""


class MissingTrajectoriesError(MFLQGError):
    """Full trajectories were thinned away but are required for this call."""
