"""One-dimensional constrained optimization over the free parameter t.

Both objectives (estimation precision and privacy) are smooth scalar
functions of t on [-t_max, t_max]; a coarse uniform grid guards against
multimodality and a golden-section refinement polishes the best bracket.
Rows (M, n_th, N_tot) sharing an objective are optimized as one batch: one
(grid x rows) scan, then golden-section on every row in lockstep.  The
single-row functions are batches of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .errors import ConvergenceError, DomainError
from .family import (
    FsgBlocks,
    FsgParams,
    blocks_from_params,
    free_parameter_range,
    solve_s,
)
from .metrology import (
    StructuredFim,
    fisher_coeffs,
    mean_weights,
    precision,
    privacy_from_ab,
    qfim_coeffs,
    qfim_fsg,
    xi_from_ab,
)

GRID_POINTS = 2001
BRACKET_TOL = 1e-10
TIE_TOL = 1e-12
# arccosh(h) near h = 1 amplifies rounding to ~sqrt(eps) in s, which shows
# up in the secondary criterion at the 1e-9..1e-8 scale; ties in the
# tie-break value itself are therefore resolved at a much looser scale
SEC_TIE_TOL = 1e-6
OBJECTIVES = ("precision", "privacy")


@dataclass(frozen=True)
class OptResult:
    objective: str  # "precision" | "privacy"
    t_star: float
    s_star: float
    blocks: FsgBlocks
    fim: StructuredFim  # the QFIM of blocks
    xi: float
    privacy: float
    ratio_to_best_xi: float
    iterations: int


@dataclass(frozen=True)
class ScanPoint:
    t: float
    xi: float
    privacy: float


def _xi_privacy_arrays(m, nu, n_tot, n2, ts):
    """Unchecked (xi, privacy) on a grid of t; rows broadcast on the last axis."""
    _, e1, e2, g1, g2 = kernels.family_scan(ts, m, nu, n_tot)
    a, b = fisher_coeffs(e1, e2, g1, g2, nu)
    return xi_from_ab(a, b, m), privacy_from_ab(a, b, m, n2)


def _checked_objectives(m, nu, n_tot, n2, t):
    """(xi, privacy) at one t per row, through every check of FsgBlocks and
    qfim_fsg; xi is 0 where a + M b <= 0."""
    _, e1, e2, g1, g2 = kernels.family_states(t, m, nu, n_tot)
    a, b = qfim_coeffs(e1, e2, g1, g2, m)
    xi = np.where(a + m * b > 0.0, xi_from_ab(a, b, m), 0.0)
    return xi, privacy_from_ab(a, b, m, n2)


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
    and the error of the first failed check if a state the search visits
    is unphysical.
    """
    if objective not in OBJECTIVES:
        raise DomainError(f"unknown objective {objective!r}")
    if not rows:
        return []
    key = OBJECTIVES.index(objective)
    t_max = np.array([free_parameter_range(*row) for row in rows])
    m, n_th, n_tot = (np.array(col, dtype=float) for col in zip(*rows))
    nu = 1.0 + 2.0 * n_th
    weights = [mean_weights(int(row[0])) for row in rows]
    n2 = np.array([w.norm2_sq for w in weights])

    def evaluate(t, idx):
        return _checked_objectives(m[idx], nu[idx], n_tot[idx], n2[idx], t)

    t_star = np.zeros(len(rows))
    iterations = np.zeros(len(rows), dtype=int)
    scan = np.flatnonzero(t_max > 0.0)
    if scan.size:
        ts = np.linspace(-t_max[scan], t_max[scan], GRID_POINTS)
        xi_arr, p_arr = _xi_privacy_arrays(m[scan], nu[scan], n_tot[scan], n2[scan], ts)
        obj_arr = xi_arr if key == 0 else np.nan_to_num(p_arr, nan=-np.inf)
        idx = _tie_break(obj_arr, p_arr if key == 0 else xi_arr, ts)
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

    # xi on the photon constraint is convex in cosh(2t), so the precision
    # optimum sits at t = 0 (tied with +-t_max when M = 2)
    best_xi = evaluate(np.zeros(len(rows)), np.arange(len(rows)))[0] if key else None
    results = []
    for i, (M, nth, N) in enumerate(rows):
        # the reported state and values come from the scalar path, which
        # rounds exactly like the arrays above
        t = float(t_star[i])
        s = solve_s(M, nth, N, t).s
        blocks = blocks_from_params(FsgParams(M=M, n_th=nth, s=s, t=t))
        fim = qfim_fsg(blocks)
        xi = precision(fim, weights[i]) if fim.a + M * fim.b > 0.0 else 0.0
        best = xi if key == 0 else float(best_xi[i])
        results.append(OptResult(
            objective=objective,
            t_star=t,
            s_star=s,
            blocks=blocks,
            fim=fim,
            xi=xi,
            privacy=float(privacy_from_ab(fim.a, fim.b, M, n2[i])),
            ratio_to_best_xi=xi / best if best > 0.0 else 1.0,
            iterations=int(iterations[i]),
        ))
    return results


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
    xi_arr, p_arr = _xi_privacy_arrays(
        M, 1.0 + 2.0 * n_th, N_tot, mean_weights(M).norm2_sq, ts
    )
    return [
        ScanPoint(t=float(t), xi=float(x), privacy=float(p))
        for t, x, p in zip(ts, xi_arr, p_arr)
    ]
