"""The isothermal fully-symmetric Gaussian state family.

States are parametrized by (M, n_th, s, t): a collective-mode squeezing
parameter s and an orthogonal-modes squeezing parameter t, on top of a
common thermal occupation n_th.  The construction makes both symplectic
eigenvalues equal to nu = 1 + 2 n_th by design, so isothermality never has
to be solved for.  At fixed total photon number the family is a
one-parameter manifold in t.  The chart is the canonical representation:
the covariance blocks (chart_blocks) are derived from it for the report,
and FsgBlocks, with its vacuum check, serves states built by hand and the
dense oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DomainError, InfeasibleError
from .symplectic import fsg_symplectic_eigenvalues

#: Eigenvalue slack allowed below the vacuum limit nu = 1.
_TOL_NU = 1e-9


@dataclass(frozen=True)
class FsgParams:
    """Chart coordinates (M, n_th, s, t) of an isothermal FSG state."""

    M: int
    n_th: float
    s: float
    t: float

    def __post_init__(self):
        if self.M < 2:
            raise DomainError(f"M must be >= 2, got {self.M}")
        if self.n_th < 0.0:
            raise DomainError(f"n_th must be >= 0, got {self.n_th}")

    @property
    def nu(self) -> float:
        return 1.0 + 2.0 * self.n_th


@dataclass(frozen=True)
class FsgBlocks:
    """Covariance entries (eps1, eps2, gam1, gam2) of the 2x2 block form."""

    M: int
    eps1: float
    eps2: float
    gam1: float
    gam2: float

    def __post_init__(self):
        if self.M < 2:
            raise DomainError(f"M must be >= 2, got {self.M}")
        nu_minus, nu_plus = fsg_symplectic_eigenvalues(self)
        if nu_minus < 1.0 - _TOL_NU or nu_plus < 1.0 - _TOL_NU:
            raise DomainError(
                f"symplectic eigenvalues below vacuum: nu-={nu_minus}, nu+={nu_plus}"
            )


@dataclass(frozen=True)
class SolveSResult:
    s: float
    feasible: bool


def chart_blocks(m, nu, s, t):
    """Covariance entries (eps1, eps2, gam1, gam2) of the chart (M, nu, s, t).

    eps1 = nu (e^{2s} + (M-1) e^{2t}) / M,   gam1 = nu (e^{2s} - e^{2t}) / M,
    and eps2, gam2 with both signs of the exponents flipped.  The blocks
    satisfy nu- = nu+ = nu identically.  Array-aware.
    """
    a = np.exp(2.0 * s)
    b = np.exp(2.0 * t)
    return (
        nu * (a + (m - 1) * b) / m,
        nu * (1.0 / a + (m - 1) / b) / m,
        nu * (a - b) / m,
        nu * (1.0 / a - 1.0 / b) / m,
    )


def blocks_from_params(params: FsgParams) -> FsgBlocks:
    """Checked covariance blocks of the chart state (see chart_blocks)."""
    return FsgBlocks(params.M, *chart_blocks(params.M, params.nu, params.s, params.t))


def params_from_blocks(blocks: FsgBlocks) -> FsgParams:
    """Invert the chart: recover (M, n_th, s, t) from isothermal blocks.

    Uses eps1 - gam1 = nu e^{2t} and eps1 + (M-1) gam1 = nu e^{2s}.
    Raises DomainError if the blocks are not isothermal.
    """
    m = blocks.M
    nu_minus, nu_plus = fsg_symplectic_eigenvalues(blocks)
    if abs(nu_plus - nu_minus) > 1e-8 * max(1.0, nu_plus):
        raise DomainError(f"blocks not isothermal: nu-={nu_minus}, nu+={nu_plus}")
    nu = max(0.5 * (nu_minus + nu_plus), 1.0)  # clamp rounding below vacuum
    t = 0.5 * np.log((blocks.eps1 - blocks.gam1) / nu)
    s = 0.5 * np.log((blocks.eps1 + (m - 1) * blocks.gam1) / nu)
    return FsgParams(M=m, n_th=0.5 * (nu - 1.0), s=float(s), t=float(t))


def total_photons(blocks: FsgBlocks) -> float:
    """Mean photon number above vacuum: N_tot = M (eps1 + eps2 - 2) / 4."""
    return blocks.M * (blocks.eps1 + blocks.eps2 - 2.0) / 4.0


def check_budget(M: int, n_th: float, N_tot: float) -> None:
    """Raise DomainError for a negative budget, InfeasibleError for one
    below the thermal floor M * n_th."""
    if N_tot < 0.0:
        raise DomainError(f"N_tot must be >= 0, got {N_tot}")
    floor = M * n_th
    if N_tot < floor * (1.0 - 1e-12) - 1e-15:
        raise InfeasibleError(
            f"photon budget N_tot={N_tot} below thermal floor M*n_th={floor}"
        )


def squeezed_photons(M, n_th, N_tot):
    """N_eff = (N_tot - M n_th) / nu, clamped at 0; array-aware.

    In normal modes the photon constraint nu [cosh(2s) + (M-1) cosh(2t)]
    = 2 N_tot + M reads sinh^2 s + (M-1) sinh^2 t = N_eff, which does not
    cancel near the floor.
    """
    return np.maximum(N_tot - M * n_th, 0.0) / (1.0 + 2.0 * n_th)


def solve_s(M: int, n_th: float, N_tot: float, t: float) -> SolveSResult:
    """Solve the photon constraint for s >= 0 at fixed t.

    sinh^2 s = N_eff - (M-1) sinh^2 t (see squeezed_photons).  Returns
    feasible=False when |t| exceeds the budget.  Raises InfeasibleError
    when the budget is below the thermal floor M * n_th.
    """
    check_budget(M, n_th, N_tot)
    n_eff = squeezed_photons(M, n_th, N_tot)
    if (M - 1) * np.sinh(t) ** 2 > n_eff + 5e-13:
        return SolveSResult(s=0.0, feasible=False)
    return SolveSResult(s=float(kernels.family_states(t, M, n_eff)), feasible=True)


def free_parameter_range(M: int, n_th: float, N_tot: float) -> float:
    """Largest |t| compatible with the photon budget.

    (M-1) sinh^2(t_max) = N_eff (see squeezed_photons); the feasible set of
    solve_s on the s >= 0 branch is exactly [-t_max, t_max].
    """
    check_budget(M, n_th, N_tot)
    return float(np.arcsinh(np.sqrt(squeezed_photons(M, n_th, N_tot) / (M - 1))))


def optimal_precision_blocks(M: int, N_tot: float) -> FsgBlocks:
    """Pure blocks of the precision-optimal state at budget N_tot.

    gam_i = [2 N - 2 (-1)^i sqrt(N (N+1))] / M and eps_i = 1 + gam_i;
    the state is pure and reaches the ultimate precision 8 N (N + 1).
    """
    if N_tot < 0.0:
        raise DomainError(f"N_tot must be >= 0, got {N_tot}")
    root = np.sqrt(N_tot * (N_tot + 1.0))
    gam1 = (2.0 * N_tot + 2.0 * root) / M
    gam2 = (2.0 * N_tot - 2.0 * root) / M
    return FsgBlocks(M=M, eps1=1.0 + gam1, eps2=1.0 + gam2, gam1=gam1, gam2=gam2)


def tmsv_blocks(N_tot: float) -> FsgBlocks:
    """Two-mode squeezed vacuum blocks at budget N_tot (M = 2).

    eps1 = eps2 = 1 + N_tot, gam1 = -gam2 = sqrt(N_tot (N_tot + 2)); the
    unique FSG state with perfect privacy at finite photon number.
    """
    if N_tot < 0.0:
        raise DomainError(f"N_tot must be >= 0, got {N_tot}")
    g = float(np.sqrt(N_tot * (N_tot + 2.0)))
    return FsgBlocks(M=2, eps1=1.0 + N_tot, eps2=1.0 + N_tot, gam1=g, gam2=-g)


def privacy_condition_residual(blocks: FsgBlocks) -> float:
    """Residual of the perfect-privacy condition for pure FSG states.

    residual = (gam1^2 + gam2^2) - (eps1^2 + eps2^2 - 2); zero exactly at
    the states whose pure-state Fisher matrix is proportional to the
    all-ones matrix (TMSV for any photon budget).
    """
    return float(
        (blocks.gam1**2 + blocks.gam2**2) - (blocks.eps1**2 + blocks.eps2**2 - 2.0)
    )
