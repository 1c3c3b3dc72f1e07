"""Factor positive-determinant matrices into short SPD products.

The library splits a matrix into its polar stretch and rotation, block
diagonalizes the rotation, realizes each planar block as a chain of
optimal transport maps between rotated Gaussian covariances, and can run
the volume-preserving gradient flows whose endpoint maps those factors
are. Six SPD factors suffice for any real square matrix with positive
determinant.
"""

from . import ballantine, cli, errors, flowsim, matfun, planar, spectral, transport
from .ballantine import (
    FactorOptions,
    FactorStats,
    VerificationReport,
    factor_matrix,
    factor_orthogonal,
    factor_rotation2,
    verify,
)
from .errors import (
    DimensionMismatch,
    InputError,
    InvalidInput,
    InvalidParams,
    InvalidStep,
    NegativeDeterminant,
    NonPositiveDeterminant,
    NotARotation,
    NotOrthogonal,
    NotPositiveDefinite,
    NumericError,
    NumericalFailure,
    PdfactorError,
    SingularInput,
    TargetUnreachable,
)
from .flowsim import (
    FlowSegment,
    ParticleCloud,
    Trajectory,
    segments_from_chain,
    simulate,
    transition_matrix,
    write_trajectory_csv,
)
from .matfun import (
    EigenPair,
    cond,
    expm,
    polar,
    spd_log,
    spd_sqrt,
    sym_eig,
    sym_exp,
)
from .planar import (
    ChainParams,
    FactorChain,
    SweepTable,
    build_chain,
    chain_covariances,
    chain_product,
    gradient_generator,
    net_rotation,
    phi_sweep,
    plan_scheme,
    rotation2,
    solve_theta,
)
from .spectral import (
    OrthogonalDecomposition,
    RotationBlock,
    UnitBlock,
    assemble,
    block_diagonalize,
)
from .transport import ot_map, ot_residual

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ballantine",
    "cli",
    "errors",
    "flowsim",
    "matfun",
    "planar",
    "spectral",
    "transport",
    "PdfactorError",
    "InputError",
    "NumericError",
    "InvalidInput",
    "InvalidParams",
    "InvalidStep",
    "DimensionMismatch",
    "NotPositiveDefinite",
    "SingularInput",
    "NotOrthogonal",
    "NotARotation",
    "NegativeDeterminant",
    "NonPositiveDeterminant",
    "TargetUnreachable",
    "NumericalFailure",
    "EigenPair",
    "sym_eig",
    "spd_sqrt",
    "spd_log",
    "sym_exp",
    "expm",
    "polar",
    "cond",
    "ot_map",
    "ot_residual",
    "ChainParams",
    "FactorChain",
    "SweepTable",
    "rotation2",
    "chain_covariances",
    "chain_product",
    "build_chain",
    "net_rotation",
    "phi_sweep",
    "solve_theta",
    "plan_scheme",
    "gradient_generator",
    "OrthogonalDecomposition",
    "RotationBlock",
    "UnitBlock",
    "block_diagonalize",
    "assemble",
    "FactorOptions",
    "FactorStats",
    "VerificationReport",
    "factor_rotation2",
    "factor_orthogonal",
    "factor_matrix",
    "verify",
    "FlowSegment",
    "ParticleCloud",
    "Trajectory",
    "segments_from_chain",
    "simulate",
    "transition_matrix",
    "write_trajectory_csv",
]
