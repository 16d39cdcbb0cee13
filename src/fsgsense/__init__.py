"""Isothermal fully-symmetric Gaussian probe states for private distributed
phase sensing: state construction, Fisher information, precision/privacy
optimization, homodyne measurement simulation, and figure-reproduction CLI.
"""

from .errors import (
    ConvergenceError,
    DegenerateError,
    DomainError,
    FsgSenseError,
    InfeasibleError,
    NumericalError,
    OutOfRangeError,
    PhysicalityError,
    SingularError,
    UndefinedError,
)
from .family import (
    FsgBlocks,
    FsgParams,
    blocks_from_params,
    free_parameter_range,
    optimal_precision_blocks,
    params_from_blocks,
    privacy_condition_residual,
    solve_s,
    tmsv_blocks,
    total_photons,
)
from .homodyne import (
    HomodyneOpt,
    McConfig,
    McReport,
    homodyne_cov,
    homodyne_cov_derivatives,
    homodyne_fim,
    mc_estimate,
    optimize_homodyne_angle,
    optimize_homodyne_angles,
)
from .metrology import (
    FimInverse,
    StructuredFim,
    WeightVector,
    closed_form_privacy_of_optimum,
    fim_inverse,
    mean_weights,
    precision,
    privacy,
    qfim_fsg,
    qfim_fsg_numeric,
    qfim_general_gaussian,
    weight_matrix_spectrum,
)
from .optimize import (
    OptResult,
    ScanPoint,
    maximize_precision,
    maximize_privacy,
    optimize_batch,
    scan_free_parameter,
)
from .symplectic import (
    CovarianceState,
    PhysicalityReport,
    assemble_covariance,
    fsg_determinant,
    fsg_symplectic_eigenvalues,
    phase_rotation,
    physicality_check,
    symplectic_form,
    symplectic_spectrum_numeric,
)

__version__ = "0.1.0"
