"""Isothermal fully-symmetric Gaussian probe states for private distributed
phase sensing: state construction, Fisher information, precision/privacy
optimization, homodyne measurement simulation, and figure-reproduction CLI.

The top level exports the product API and the dense references that the
benchmark's output checks use; everything else lives in its module.
"""

from .errors import DomainError, FsgSenseError, InfeasibleError, NumericalError
from .family import FsgParams
from .homodyne import (
    HomodyneOpt,
    McConfig,
    McReport,
    homodyne_fim,
    mc_estimate,
    optimize_homodyne_angle,
    optimize_homodyne_angles,
)
from .metrology import StructuredFim
from .optimize import OptResult, maximize_precision, maximize_privacy, optimize_batch
from .reference import (
    FsgBlocks,
    homodyne_cov,
    homodyne_cov_derivatives,
    qfim_fsg_numeric,
    scan_free_parameter,
)

__version__ = "0.1.0"
