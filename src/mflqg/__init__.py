"""Decentralized social-optimal control for large weakly coupled LQ
populations with multiplicative noise: Riccati/consistency-condition solvers,
convexity certificates, an N-agent Monte Carlo simulator with a brute-force
centralized oracle, and the convergence/optimality-gap experiments.
"""

from .errors import (
    ConfigError,
    CouplingPresentError,
    GridMismatchError,
    InvalidNError,
    MFLQGError,
    MissingTrajectoriesError,
    NearSingularError,
    NonFiniteError,
    NotReducedCaseError,
    NotSymmetricError,
    ParseError,
    RegularityLostError,
    SchemaError,
    SettingError,
    StationarityError,
)
from .model import AugmentedCoeffs, AugmentedSystem, ModelParams, build_augmented, load_config, save_config, validate
from .ode import TimeGrid, Trajectory, eigvals_sym, integrate_rk4, quadrature

__version__ = "0.1.0"
