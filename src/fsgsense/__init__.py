"""Isothermal fully-symmetric Gaussian probe states for private distributed
phase sensing: state construction, Fisher information, precision/privacy
optimization, homodyne measurement simulation, and figure-reproduction CLI.

The top level exports the product API and the dense references that the
benchmark's output checks use; everything else lives in its module.
"""

import os

# No product module calls BLAS or LAPACK, yet OpenBLAS starts one worker per
# CPU when numpy loads, and each idle worker spins before it sleeps.  Load
# numpy with one BLAS thread unless the caller chose a count; OpenBLAS reads
# the variable only at load, so the environment is restored at once.
if "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

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
