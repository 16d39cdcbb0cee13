"""One-dimensional constrained optimization over the free parameter t.

Both objectives (estimation precision and privacy) are smooth scalar
functions of t on [-t_max, t_max]; a coarse uniform grid guards against
multimodality and a golden-section refinement polishes the best bracket.
Every state is handled in its chart (M, nu, s, t): s solves the photon
constraint, and the QFIM comes from metrology.chart_fisher_coeffs, so the
search, the reported values and the scan share one closed form.  Rows
(M, n_th, N_tot) sharing an objective are optimized as one batch: one
(grid x rows) scan, then golden-section on every row in lockstep.  The
single-row functions are batches of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .errors import ConvergenceError, DomainError, NumericalError
from .family import (
    FsgBlocks,
    FsgParams,
    blocks_from_params,
    free_parameter_range,
    solve_s,
    squeezed_photons,
)
from .metrology import (
    StructuredFim,
    chart_fisher_coeffs,
    mean_weights,
    one_minus_privacy_from_ab,
    privacy_from_ab,
    xi_from_ab,
)

GRID_POINTS = 2001
BRACKET_TOL = 1e-10
TIE_TOL = 1e-12
# s = arcsinh(sqrt(x)) near x = 0 (t near +-t_max) amplifies rounding to
# ~sqrt(eps) in s, which shows up in the secondary criterion at the
# 1e-9..1e-8 scale; ties in the tie-break value itself are therefore
# resolved at a much looser scale
SEC_TIE_TOL = 1e-6
OBJECTIVES = ("precision", "privacy")
# every factor of the chart closed forms is at most about (2 N_eff + M)^2,
# so it stays finite while N_eff <= MAX_CHART_N (family.squeezed_photons)
MAX_CHART_N = 1e150


@dataclass(frozen=True)
class OptResult:
    objective: str  # "precision" | "privacy"
    t_star: float
    s_star: float
    blocks: FsgBlocks
    fim: StructuredFim  # the QFIM of the state, from its chart
    xi: float
    privacy: float
    one_minus_privacy: float
    ratio_to_best_xi: float
    iterations: int


@dataclass(frozen=True)
class ScanPoint:
    t: float
    xi: float
    privacy: float


def _chart_values(m, nu, n2, s, t):
    """QFIM (a, b), xi and 1 - P of the chart states (M, nu, s, t); rows
    broadcast on the last axis.  1 - P keeps its relative accuracy as
    P -> 1, so the privacy search minimizes it."""
    a, b = chart_fisher_coeffs(m, nu, s, t)
    return a, b, xi_from_ab(a, b, m), one_minus_privacy_from_ab(a, b, m, n2)


def _tie_break(obj, sec, ts):
    """Grid index per row: best objective, then best secondary criterion,
    then least |t|; grid along axis 0, rows along axis 1."""
    best = obj.max(axis=0)
    near = obj >= best - TIE_TOL * np.maximum(1.0, np.abs(best))
    sec_near = np.where(near, np.nan_to_num(sec, nan=-np.inf), -np.inf)
    best_sec = sec_near.max(axis=0)
    near &= sec_near >= best_sec - SEC_TIE_TOL * np.maximum(1.0, np.abs(best_sec))
    # objective and tie-break both degenerate: pick the least-squeezed state
    return np.argmin(np.where(near, np.abs(ts), np.inf), axis=0)


def optimize_batch(
    rows: Sequence[tuple[int, float, float]], objective: str
) -> list[OptResult]:
    """Optimize each (M, n_th, N_tot) row under one objective, as one batch.

    Raises InfeasibleError if a row's budget is below its thermal floor,
    and NumericalError if its Fisher information would overflow.
    """
    if objective not in OBJECTIVES:
        raise DomainError(f"unknown objective {objective!r}")
    if not rows:
        return []
    key = OBJECTIVES.index(objective)
    t_max = np.array([free_parameter_range(*row) for row in rows])
    m, n_th, n_tot = (np.array(col, dtype=float) for col in zip(*rows))
    nu = 1.0 + 2.0 * n_th
    n_eff = squeezed_photons(m, n_th, n_tot)
    huge = np.flatnonzero(~(n_eff <= MAX_CHART_N))
    if huge.size:
        _, nth, N = rows[huge[0]]
        raise NumericalError(
            f"photon budget N_tot={N!r} at n_th={nth!r} is too large: "
            "the Fisher information overflows"
        )
    n2 = np.array([mean_weights(int(row[0])).norm2_sq for row in rows])

    def evaluate(t, idx):
        """(xi, -(1 - P)) at one t per row, both to be maximized."""
        s = kernels.family_states(t, m[idx], n_eff[idx])
        _, _, xi, omp = _chart_values(m[idx], nu[idx], n2[idx], s, t)
        return xi, -omp

    t_star = np.zeros(len(rows))
    iterations = np.zeros(len(rows), dtype=int)
    scan = np.flatnonzero(t_max > 0.0)
    if scan.size:
        ts = np.linspace(-t_max[scan], t_max[scan], GRID_POINTS)
        s_grid = kernels.family_scan(ts, m[scan], n_eff[scan])
        _, _, xi_arr, omp_arr = _chart_values(m[scan], nu[scan], n2[scan], s_grid, ts)
        q_arr = -omp_arr
        obj_arr = xi_arr if key == 0 else np.nan_to_num(q_arr, nan=-np.inf)
        idx = _tie_break(obj_arr, q_arr if key == 0 else xi_arr, ts)
        cols = np.arange(scan.size)
        lo = ts[np.maximum(idx - 1, 0), cols]
        hi = ts[np.minimum(idx + 1, GRID_POINTS - 1), cols]
        refined, _, _, iterations[scan] = kernels.golden_max(
            lambda t, r: evaluate(t, scan[r])[key], lo, hi, BRACKET_TOL
        )
        # the refined point may sit a hair off the true optimum; keep the
        # better of grid and refined values under the objective
        grid_better = obj_arr[idx, cols] > evaluate(refined, scan)[key]
        t_star[scan] = np.where(grid_better, ts[idx, cols], refined)
        near_zero = scan[(t_star[scan] != 0.0) & (np.abs(t_star[scan]) < 1e-6)]
        if near_zero.size:
            here = evaluate(t_star[near_zero], near_zero)[key]
            zero = evaluate(np.zeros(near_zero.size), near_zero)[key]
            snap = zero >= here - TIE_TOL * np.maximum(1.0, np.abs(here))
            t_star[near_zero[snap]] = 0.0

    s_star = np.array([solve_s(*row, t).s for row, t in zip(rows, t_star.tolist())])
    a, b, xi, omp = _chart_values(m, nu, n2, s_star, t_star)
    p = privacy_from_ab(a, b, m, n2)
    # xi on the photon constraint is convex in cosh(2t), so the precision
    # optimum sits at t = 0 (tied with +-t_max when M = 2)
    best_xi = xi if key == 0 else evaluate(np.zeros(len(rows)), np.arange(len(rows)))[0]
    ratio = np.divide(xi, best_xi, out=np.ones(len(rows)), where=best_xi > 0.0)
    return [
        OptResult(
            objective=objective,
            t_star=float(t_star[i]),
            s_star=float(s_star[i]),
            blocks=blocks_from_params(
                FsgParams(M=M, n_th=nth, s=float(s_star[i]), t=float(t_star[i]))
            ),
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
    """FSG state maximizing estimation precision of the mean phase."""
    return optimize_batch([(M, n_th, N_tot)], "precision")[0]


def maximize_privacy(M: int, n_th: float, N_tot: float) -> OptResult:
    """FSG state maximizing the privacy parameter of the mean phase.

    ratio_to_best_xi reports the precision retained relative to the
    precision-maximal state of the same (M, n_th, N_tot).
    """
    return optimize_batch([(M, n_th, N_tot)], "privacy")[0]


def scan_free_parameter(
    M: int, n_th: float, N_tot: float, grid_points: int
) -> list[ScanPoint]:
    """Raw (t, xi, privacy) curve on a uniform grid over [-t_max, t_max]."""
    if grid_points < 3:
        raise ConvergenceError(f"grid_points must be >= 3, got {grid_points}")
    t_max = free_parameter_range(M, n_th, N_tot)
    ts = np.linspace(-t_max, t_max, grid_points)
    nu, n2 = 1.0 + 2.0 * n_th, mean_weights(M).norm2_sq
    s = kernels.family_scan(ts, M, squeezed_photons(M, n_th, N_tot))
    a, b, xi_arr, _ = _chart_values(M, nu, n2, s, ts)
    p_arr = privacy_from_ab(a, b, M, n2)
    return [
        ScanPoint(t=float(t), xi=float(x), privacy=float(p))
        for t, x, p in zip(ts, xi_arr, p_arr)
    ]
