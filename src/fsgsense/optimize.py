"""One-dimensional constrained optimization over the free parameter t.

Both objectives (estimation precision and privacy) are smooth scalar
functions of t on [-t_max, t_max]; a coarse uniform grid guards against
multimodality and a golden-section refinement polishes the best bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernels
from .errors import ConvergenceError
from .family import (
    FsgBlocks,
    FsgParams,
    blocks_from_params,
    free_parameter_range,
    solve_s,
)
from .metrology import mean_weights, precision, qfim_fsg
from .metrology import fisher_coeffs, privacy_from_ab, xi_from_ab

GRID_POINTS = 2001
BRACKET_TOL = 1e-10
TIE_TOL = 1e-12
# arccosh(h) near h = 1 amplifies rounding to ~sqrt(eps) in s, which shows
# up in the secondary criterion at the 1e-9..1e-8 scale; ties in the
# tie-break value itself are therefore resolved at a much looser scale
SEC_TIE_TOL = 1e-6
_MAX_GOLDEN_ITER = 200
_INV_GOLDEN = 0.5 * (math.sqrt(5.0) - 1.0)


@dataclass(frozen=True)
class OptResult:
    objective: str  # "precision" | "privacy"
    t_star: float
    s_star: float
    blocks: FsgBlocks
    xi: float
    privacy: float
    ratio_to_best_xi: float
    iterations: int


@dataclass(frozen=True)
class ScanPoint:
    t: float
    xi: float
    privacy: float


def _xi_privacy_arrays(M, n_th, N_tot, ts):
    nu = 1.0 + 2.0 * n_th
    _, e1, e2, g1, g2 = kernels.family_scan(ts, M, nu, N_tot)
    a, b = fisher_coeffs(e1, e2, g1, g2, nu)
    return xi_from_ab(a, b, M), privacy_from_ab(a, b, mean_weights(M))


def _scalar_objectives(M, n_th, N_tot) -> Callable[[float], tuple]:
    weights = mean_weights(M)

    def evaluate(t: float) -> tuple[float, float]:
        sol = solve_s(M, n_th, N_tot, t)
        blocks = blocks_from_params(FsgParams(M=M, n_th=n_th, s=sol.s, t=t))
        fim = qfim_fsg(blocks)
        xi = precision(fim, weights) if fim.a + M * fim.b > 0.0 else 0.0
        return xi, float(privacy_from_ab(fim.a, fim.b, weights))

    return evaluate


def _golden_max(f, lo, hi, tol=BRACKET_TOL):
    """Golden-section maximization; returns (x, f(x), iterations)."""
    a, b = lo, hi
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    iterations = 0
    while b - a > tol:
        if iterations >= _MAX_GOLDEN_ITER:
            raise ConvergenceError(
                f"golden-section refinement stalled at width {b - a:.3e}"
            )
        if f1 > f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLDEN * (b - a)
            f2 = f(x2)
        iterations += 1
    x = x1 if f1 >= f2 else x2
    fx = max(f1, f2)
    return x, fx, iterations


def _optimize(M, n_th, N_tot, objective: str) -> OptResult:
    t_max = free_parameter_range(M, n_th, N_tot)
    evaluate = _scalar_objectives(M, n_th, N_tot)
    key = 0 if objective == "precision" else 1

    if t_max == 0.0:
        xi, p = evaluate(0.0)
        t_star, iterations = 0.0, 0
    else:
        ts = np.linspace(-t_max, t_max, GRID_POINTS)
        xi_arr, p_arr = _xi_privacy_arrays(M, n_th, N_tot, ts)
        obj_arr = xi_arr if objective == "precision" else np.nan_to_num(p_arr, nan=-np.inf)
        sec_arr = p_arr if objective == "precision" else xi_arr
        best = float(np.max(obj_arr))
        near = np.flatnonzero(obj_arr >= best - TIE_TOL * max(1.0, abs(best)))
        sec_near = np.nan_to_num(sec_arr[near], nan=-np.inf)
        best_sec = float(np.max(sec_near))
        near = near[sec_near >= best_sec - SEC_TIE_TOL * max(1.0, abs(best_sec))]
        # objective and tie-break both degenerate: pick the least-squeezed state
        idx = int(near[np.argmin(np.abs(ts[near]))])
        lo = ts[max(idx - 1, 0)]
        hi = ts[min(idx + 1, GRID_POINTS - 1)]
        t_star, _, iterations = _golden_max(lambda t: evaluate(t)[key], lo, hi)
        xi, p = evaluate(t_star)
        # the refined point may sit a hair off the true optimum; keep the
        # better of grid and refined values under the objective
        if obj_arr[idx] > (xi, p)[key]:
            t_star = float(ts[idx])
            xi, p = evaluate(t_star)
        if t_star != 0.0 and abs(t_star) < 1e-6:
            xi0, p0 = evaluate(0.0)
            if (xi0, p0)[key] >= (xi, p)[key] - TIE_TOL * max(1.0, abs((xi, p)[key])):
                t_star, xi, p = 0.0, xi0, p0

    sol = solve_s(M, n_th, N_tot, t_star)
    blocks = blocks_from_params(FsgParams(M=M, n_th=n_th, s=sol.s, t=t_star))
    # xi on the photon constraint is convex in cosh(2t), so the precision
    # optimum sits at t = 0 (tied with +-t_max when M = 2)
    best_xi = xi if objective == "precision" else evaluate(0.0)[0]
    ratio = xi / best_xi if best_xi > 0.0 else 1.0
    return OptResult(
        objective=objective,
        t_star=float(t_star),
        s_star=float(sol.s),
        blocks=blocks,
        xi=float(xi),
        privacy=float(p),
        ratio_to_best_xi=float(ratio),
        iterations=iterations,
    )


def maximize_precision(M: int, n_th: float, N_tot: float) -> OptResult:
    """FSG state maximizing estimation precision of the mean phase."""
    return _optimize(M, n_th, N_tot, "precision")


def maximize_privacy(M: int, n_th: float, N_tot: float) -> OptResult:
    """FSG state maximizing the privacy parameter of the mean phase.

    ratio_to_best_xi reports the precision retained relative to the
    precision-maximal state of the same (M, n_th, N_tot).
    """
    return _optimize(M, n_th, N_tot, "privacy")


def scan_free_parameter(
    M: int, n_th: float, N_tot: float, grid_points: int
) -> list[ScanPoint]:
    """Raw (t, xi, privacy) curve on a uniform grid over [-t_max, t_max]."""
    if grid_points < 3:
        raise ConvergenceError(f"grid_points must be >= 3, got {grid_points}")
    t_max = free_parameter_range(M, n_th, N_tot)
    ts = np.linspace(-t_max, t_max, grid_points)
    xi_arr, p_arr = _xi_privacy_arrays(M, n_th, N_tot, ts)
    return [
        ScanPoint(t=float(t), xi=float(x), privacy=float(p))
        for t, x, p in zip(ts, xi_arr, p_arr)
    ]
