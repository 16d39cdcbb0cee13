"""The isothermal fully-symmetric Gaussian state family.

States are parametrized by (M, n_th, s, t): a collective-mode squeezing
parameter s and an orthogonal-modes squeezing parameter t, on top of a
common thermal occupation n_th.  The construction makes both symplectic
eigenvalues equal to nu = 1 + 2 n_th by design, so isothermality never has
to be solved for.  At fixed total photon number the family is a
one-parameter manifold in t, and solve_s gives its s.  The chart is the
canonical representation: chart_blocks derives the covariance blocks from
it for the report, and is the one product function that writes the block
format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfeasibleError, NumericalError

# every factor of the chart closed forms is at most about (2 N_eff + M)^2,
# so it stays finite while N_eff and M are at most MAX_CHART_N (budget)
MAX_CHART_N = 1e150


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
        if not self.n_th >= 0.0:
            raise DomainError(f"n_th must be >= 0, got {self.n_th}")
        # sinh^2 x > MAX_CHART_N past |x| = 174, and math.sinh stays finite
        if not (abs(self.s) <= 174.0 and abs(self.t) <= 174.0 and self.M <= MAX_CHART_N):
            raise DomainError(f"chart out of range: M={self.M}, s={self.s}, t={self.t}")
        # the chart's own N_eff, with slack for the rounding of s and t
        n_eff = math.sinh(self.s) ** 2 + (self.M - 1) * math.sinh(self.t) ** 2
        if not n_eff <= MAX_CHART_N * (1.0 + 1e-12):
            raise DomainError(f"chart N_eff={n_eff:.3e} above {MAX_CHART_N:.0e}")

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


def below_floor(M: int, n_th: float, N_tot: float) -> bool:
    """Whether the row (M, n_th, N_tot) lies below its thermal floor, the
    one home of the rule: strict and exact in floating point, N_tot < M n_th,
    so that budget (every command) and the CSV's feasible column agree.
    Raises DomainError for M < 2 or a negative or NaN n_th or N_tot first."""
    if M < 2:
        raise DomainError(f"M must be >= 2, got {M}")
    if not n_th >= 0.0:
        raise DomainError(f"n_th must be >= 0, got {n_th}")
    if not N_tot >= 0.0:
        raise DomainError(f"N_tot must be >= 0, got {N_tot}")
    return N_tot < M * n_th


def budget(M: int, n_th: float, N_tot: float) -> tuple[float, float, float]:
    """Photon budget (nu, N_eff, t_max) of the row (M, n_th, N_tot).

    nu = 1 + 2 n_th.  In normal modes the photon constraint
    nu [cosh(2s) + (M-1) cosh(2t)] = 2 N_tot + M reads sinh^2 s
    + (M-1) sinh^2 t = N_eff = (N_tot - M n_th) / nu, which does not cancel
    near the floor, and has a solution s >= 0 (solve_s) exactly for |t| <=
    t_max, (M-1) sinh^2 t_max = N_eff.

    Raises below_floor's DomainError, InfeasibleError where below_floor
    holds, and NumericalError for M or N_eff above MAX_CHART_N, where the
    Fisher information overflows (M is compared exactly, as FsgParams does).
    """
    if below_floor(M, n_th, N_tot):
        raise InfeasibleError(
            f"photon budget N_tot={N_tot} below thermal floor M*n_th={M * n_th}"
        )
    nu = 1.0 + 2.0 * n_th
    n_eff = (N_tot - M * n_th) / nu
    if not (M <= MAX_CHART_N and n_eff <= MAX_CHART_N):
        raise NumericalError(
            f"M={M:.3g} or photon budget N_tot={N_tot!r} at n_th={n_th!r} is too large: "
            "the Fisher information overflows"
        )
    return nu, n_eff, float(np.arcsinh(np.sqrt(n_eff / (M - 1))))


def solve_s(t, M, n_eff):
    """Squeezing s >= 0 of the family states at free parameter t, from the
    photon constraint sinh^2 s + (M-1) sinh^2 t = n_eff (budget);
    (M, nu, s, t) is the state's chart.  Array-aware."""
    m = np.asarray(M, dtype=float)
    # endpoint rounding; inside [-t_max, t_max] the square is >= 0
    return np.arcsinh(np.sqrt(np.maximum(n_eff - (m - 1.0) * np.sinh(t) ** 2, 0.0)))
