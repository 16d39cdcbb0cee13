"""One-dimensional constrained optimization over the free parameter t.

Both objectives (estimation precision and privacy) are smooth scalar
functions of t on [-t_max, t_max].  The algebra fixes the precision
optimum at t = 0 and confines the privacy optimum to [-t_max, 0], where a
golden-section search finds it (see optimize_batch).  Every state is
handled in its chart (M, nu, s, t): s solves the photon constraint, and
the QFIM comes from metrology.chart_fisher_coeffs, so the search, the
reported values and reference.scan_free_parameter share one closed form.
The result carries the optimum's chart (OptResult.params), not its
covariance blocks.  Rows (M, n_th, N_tot) sharing an objective are
optimized as one batch: privacy runs one lockstep golden-section search
over every row.  The single-row functions are batches of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .errors import DomainError, NumericalError
from .family import FsgParams, free_parameter_range, squeezed_photons
from .metrology import (
    StructuredFim,
    chart_fisher_coeffs,
    one_minus_privacy_from_ab,
    privacy_from_ab,
    xi_from_ab,
)

BRACKET_TOL = 1e-10
OBJECTIVES = ("precision", "privacy")
# every factor of the chart closed forms is at most about (2 N_eff + M)^2,
# so it stays finite while N_eff and M are at most MAX_CHART_N
# (family.squeezed_photons)
MAX_CHART_N = 1e150


@dataclass(frozen=True)
class OptResult:
    objective: str  # "precision" | "privacy"
    params: FsgParams  # the optimum's chart (M, n_th, s, t)
    fim: StructuredFim  # the QFIM of the state, from its chart
    xi: float
    privacy: float
    one_minus_privacy: float
    ratio_to_best_xi: float
    iterations: int


def _chart_values(m, nu, n2, s, t):
    """QFIM (a, b), xi and 1 - P of the chart states (M, nu, s, t); rows
    broadcast on the last axis.  1 - P keeps its relative accuracy as
    P -> 1, so the privacy search minimizes it."""
    a, b = chart_fisher_coeffs(m, nu, s, t)
    return a, b, xi_from_ab(a, b, m), one_minus_privacy_from_ab(a, b, m, n2)


def optimize_batch(
    rows: Sequence[tuple[int, float, float]], objective: str
) -> list[OptResult]:
    """Optimize each (M, n_th, N_tot) row under one objective, as one batch.

    With mean weights (n2 = 1/M) and y = cosh 2t on the photon constraint,
    two rules decide the optimum:

    - Precision: xi/2k = x^2 - 1 + (M-1)(y^2 - 1) with x = cosh 2s =
      C - (M-1) y, C = (2 N_tot + M)/nu, a convex quadratic in y on
      [1, y(t_max)], so the optimum is an endpoint.  With u = C - M >= 0,
      xi(t=0) - xi(+-t_max) is proportional to u^2 (1 - 1/(M-1)) >= 0:
      t = 0 wins (tied with +-t_max for M = 2, where the least |t| is
      taken), with no search.
    - Privacy: 1 - P = (M-1) a / [M (a + b)] falls as a falls or b grows.
      At equal |t| the squeezing s >= 0 is the same, and for t >= 0
      a(-t) <= a(t), because sinh^2(s-t) <= sinh^2(s+t), while
      b(-t) - b(t) is proportional to sinh^2(s+t) - sinh^2(s-t) >= 0, by
      cosh 2x = 1 + 2 sinh^2 x.  So 1 - P(-t) <= 1 - P(t), and the
      half-interval [-t_max, 0] holds the global optimum; one lockstep
      golden-section search over every row minimizes 1 - P there (a row
      with t_max = 0 starts closed, at t = 0).  That 1 - P has a single
      local minimum there is observed, not proven; the tests check the
      result against a dense full-interval grid.

    Raises InfeasibleError if a row's budget is below its thermal floor,
    and NumericalError if its Fisher information would overflow (N_eff or
    M above MAX_CHART_N), or underflow: a or b nonzero but subnormal, where
    the closed forms lose their relative accuracy, or both 0 at N_eff > 0.
    """
    if objective not in OBJECTIVES:
        raise DomainError(f"unknown objective {objective!r}")
    if not rows:
        return []
    t_max = np.array([free_parameter_range(*row) for row in rows])
    m, n_th, n_tot = (np.array(col, dtype=float) for col in zip(*rows))
    nu = 1.0 + 2.0 * n_th
    n_eff = squeezed_photons(m, n_th, n_tot)
    huge = np.flatnonzero(~(np.maximum(n_eff, m) <= MAX_CHART_N))
    if huge.size:
        M, nth, N = rows[huge[0]]
        raise NumericalError(
            f"M={M:.3g} or photon budget N_tot={N!r} at n_th={nth!r} is too large: "
            "the Fisher information overflows"
        )
    n2 = 1.0 / m

    t_star = np.zeros(len(rows))
    iterations = np.zeros(len(rows), dtype=int)
    if objective == "privacy":

        def neg_omp(t):
            s = kernels.family_states(t, m, n_eff)
            return -_chart_values(m, nu, n2, s, t)[3]

        t_star, _, _, iterations = kernels.golden_max(
            neg_omp, -t_max, np.zeros_like(t_max), BRACKET_TOL
        )
    s_star = kernels.family_states(t_star, m, n_eff)
    a, b, xi, omp = _chart_values(m, nu, n2, s_star, t_star)
    tiny = np.finfo(float).tiny
    lost = (a > 0.0) & (a < tiny) | (b > 0.0) & (b < tiny) | (n_eff > 0.0) & (a + b == 0.0)
    if lost.any():
        M, nth, N = rows[np.argmax(lost)]
        raise NumericalError(
            f"the Fisher information of M={M!r}, N_tot={N!r} at n_th={nth!r} "
            "underflows to zero or a subnormal number"
        )
    p = privacy_from_ab(a, b, m, n2)
    # the precision optimum is the t = 0 state (see the docstring), so a
    # ratio above 1 is rounding between two closed-form evaluations and is
    # clamped
    best_xi = _chart_values(m, nu, n2, kernels.family_states(0.0, m, n_eff), 0.0)[2]
    ratio = np.divide(xi, best_xi, out=np.ones(len(rows)), where=best_xi > 0.0)
    ratio = np.minimum(ratio, 1.0)
    return [
        OptResult(
            objective=objective,
            params=FsgParams(M=M, n_th=nth, s=float(s_star[i]), t=float(t_star[i])),
            fim=StructuredFim(M=M, a=float(a[i]), b=float(b[i])),
            xi=float(xi[i]),
            privacy=float(p[i]),
            one_minus_privacy=float(omp[i]),
            ratio_to_best_xi=float(ratio[i]),
            iterations=int(iterations[i]),
        )
        for i, (M, nth, _) in enumerate(rows)
    ]


def maximize_precision(M: int, n_th: float, N_tot: float) -> OptResult:
    """FSG state maximizing estimation precision of the mean phase: the
    t = 0 state (see optimize_batch)."""
    return optimize_batch([(M, n_th, N_tot)], "precision")[0]


def maximize_privacy(M: int, n_th: float, N_tot: float) -> OptResult:
    """FSG state maximizing the privacy parameter of the mean phase.

    ratio_to_best_xi reports the precision retained relative to the
    precision-maximal state of the same (M, n_th, N_tot).
    """
    return optimize_batch([(M, n_th, N_tot)], "privacy")[0]
