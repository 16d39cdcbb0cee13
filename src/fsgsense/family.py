"""The isothermal fully-symmetric Gaussian state family.

States are parametrized by (M, n_th, s, t): a collective-mode squeezing
parameter s and an orthogonal-modes squeezing parameter t, on top of a
common thermal occupation n_th.  The construction makes both symplectic
eigenvalues equal to nu = 1 + 2 n_th by design, so isothermality never has
to be solved for.  At fixed total photon number the family is a
one-parameter manifold in t.  The chart is the canonical representation:
chart_blocks derives the covariance blocks from it for the report, and is
the one product function that writes the block format.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfeasibleError


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


def check_budget(M: int, n_th: float, N_tot: float) -> None:
    """Raise DomainError for M < 2 or a negative or NaN n_th or budget,
    InfeasibleError for a budget below the thermal floor M * n_th.

    The rule is strict and exact in floating point, N_tot < M * n_th, so
    that every command and the CSV's feasible column agree on it.
    """
    if M < 2:
        raise DomainError(f"M must be >= 2, got {M}")
    if not n_th >= 0.0:
        raise DomainError(f"n_th must be >= 0, got {n_th}")
    if not N_tot >= 0.0:
        raise DomainError(f"N_tot must be >= 0, got {N_tot}")
    floor = M * n_th
    if N_tot < floor:
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


def free_parameter_range(M: int, n_th: float, N_tot: float) -> float:
    """Largest |t| compatible with the photon budget.

    (M-1) sinh^2(t_max) = N_eff (see squeezed_photons); the photon
    constraint has a solution s >= 0 (kernels.family_states) exactly for
    t in [-t_max, t_max].
    """
    check_budget(M, n_th, N_tot)
    return float(np.arcsinh(np.sqrt(squeezed_photons(M, n_th, N_tot) / (M - 1))))
