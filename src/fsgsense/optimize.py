"""One-dimensional constrained optimization over the free parameter t.

Both objectives (estimation precision and privacy) are smooth scalar
functions of t on [-t_max, t_max].  The algebra fixes the precision
optimum at t = 0 and confines the privacy optimum to [-t_max, 0], where it
is a root of the closed-form slope (see optimize_batch).  Every state is
handled in its chart (M, nu, s, t), and one evaluator, _chart_values,
serves the reported optimum, the t = 0 reference and
reference.scan_free_parameter.
The result carries the optimum's chart (OptResult.params), not its
covariance blocks.  Rows (M, n_th, N_tot) sharing an objective are
optimized as one batch: privacy runs one lockstep bisection over every
row with M >= 3.  The single-row functions are batches of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from . import kernels
from .errors import DomainError, NumericalError
from .family import FsgParams, budget, solve_s
from .metrology import (
    StructuredFim,
    chart_fisher_coeffs,
    one_minus_privacy_from_ab,
    privacy_from_ab,
    xi_from_ab,
)

OBJECTIVES = ("precision", "privacy")


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


def _chart_values(m, nu, n_eff, t, s=None):
    """s (family.solve_s, unless given), QFIM (a, b), xi and 1 - P of the
    family states at t; rows broadcast on the last axis.  1 - P keeps its
    relative accuracy as P -> 1."""
    s = solve_s(t, m, n_eff) if s is None else s
    a, b = chart_fisher_coeffs(m, nu, s, t)
    return s, a, b, xi_from_ab(a, b, m), one_minus_privacy_from_ab(a, b, m)


def _privacy_slope(m, n_eff, t):
    """S d ln(B/A)/dt / 2 of the family states at t (see optimize_batch)."""
    s = solve_s(t, m, n_eff)
    S, q, u = np.sinh(2.0 * s), np.sinh(2.0 * t), 2.0 * (s + t)
    A, T = 2.0 * np.sinh(s + t) ** 2 + (m - 2.0) * q**2, (m - 1.0) * q
    return ((-T - S) / np.tanh(s - t) + np.tanh(u) * (S - T)
            - (np.sinh(u) * (S - T) + (m - 2.0) * np.sinh(4.0 * t) * S) / A)


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
      half-interval [-t_max, 0] holds the global optimum: t = -s, where
      a = 0 and P = 1, at M = 2.  For M >= 3 it maximizes B/A, a = 2k A/M,
      b = 4k B/M^2.  With S = sinh 2s and T = (M-1) sinh 2t, S ds/dt = -T,
      S d ln(B/A)/dt / 2 = (-T - S) coth(s-t) + tanh 2(s+t) (S - T)
      - [sinh 2(s+t) (S - T) + (M-2) sinh 4t S] / A is S (tanh 2s -
      2 coth s) < 0 at t = 0 and positive as t -> -t_max, so one lockstep
      bisection finds a root for every row (t_max = 0 keeps t = 0).  That
      it is unique is observed, not proven; the tests check the result
      against a dense full-interval grid.

    Raises InfeasibleError if a row's budget is below its thermal floor,
    and NumericalError if its Fisher information would overflow (see
    family.budget), or underflow: a or b nonzero but subnormal, where the
    closed forms lose their relative accuracy, b = 0 at s != t, or both 0
    at N_eff > 0.
    """
    if objective not in OBJECTIVES:
        raise DomainError(f"unknown objective {objective!r}")
    if not rows:
        return []
    nu, n_eff, t_max = (np.array(col) for col in zip(*(budget(*row) for row in rows)))
    m = np.array([row[0] for row in rows], dtype=float)

    t_star = np.zeros(len(rows))
    iterations = np.zeros(len(rows), dtype=int)
    pair = (objective == "privacy") & (m == 2.0) & (t_max > 0.0)
    t_star[pair] = -np.arcsinh(np.sqrt(n_eff[pair] / 2.0))
    if objective == "privacy":
        search = (m > 2.0) & (t_max > 0.0)
        t_star[search], iterations[search] = kernels.bisect_max(
            partial(_privacy_slope, m[search], n_eff[search]), -t_max[search], 0.0
        )
    s_star = np.where(pair, -t_star, solve_s(t_star, m, n_eff))  # s + t = 0 at M = 2
    _, a, b, xi, omp = _chart_values(m, nu, n_eff, t_star, s_star)
    tiny = np.finfo(float).tiny
    # b = 4k sinh^2(s - t) cosh(2s + 2t) / M^2 is exactly 0 only at s = t
    lost = (a > 0.0) & (a < tiny) | (b < tiny) & (s_star != t_star)
    lost |= (n_eff > 0.0) & (a + b == 0.0)
    if lost.any():
        M, nth, N = rows[np.argmax(lost)]
        raise NumericalError(
            f"the Fisher information of M={M!r}, N_tot={N!r} at n_th={nth!r} "
            "underflows to zero or a subnormal number"
        )
    p = privacy_from_ab(a, b, m, 1.0 / m)
    # the precision optimum is the t = 0 state (see the docstring), so a
    # ratio above 1 is rounding between two closed-form evaluations and is
    # clamped
    best_xi = _chart_values(m, nu, n_eff, 0.0)[3]
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
