"""Factor positive-determinant matrices into short SPD products.

The library splits a matrix into its polar stretch and rotation, block
diagonalizes the rotation, realizes each planar block as a chain of
optimal transport maps between rotated Gaussian covariances, and can run
the volume-preserving gradient flows whose endpoint maps those factors
are. Six SPD factors suffice for any real square matrix with positive
determinant.
"""

from . import ballantine, cli, errors, flowsim, matfun, planar, spectral, transport
from .ballantine import *
from .errors import *
from .flowsim import *
from .matfun import *
from .planar import *
from .spectral import *
from .transport import *

__version__ = "0.1.0"

# Each library module's __all__ is its export list; cli's names stay in cli.
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
    *errors.__all__,
    *matfun.__all__,
    *transport.__all__,
    *planar.__all__,
    *spectral.__all__,
    *ballantine.__all__,
    *flowsim.__all__,
]
