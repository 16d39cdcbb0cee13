"""Hot numeric kernels, written as numpy array expressions: the lockstep
searches (golden_max, z_search) and the Monte-Carlo likelihood
(mle_trials).

Per-row parameters broadcast against the trailing axis, so an array of
points evaluates many rows at once.
"""

import math

import numpy as np

from .errors import NumericalError

MAX_GOLDEN_ITER = 200
_INV_GOLDEN = 0.5 * (math.sqrt(5.0) - 1.0)
# z_search scans z in steps of Z_STEP, a block of 2 Z_PAD / Z_STEP + 1 points
# round each peak of a homodyne objective, and refines to Z_TOL
Z_STEP = 0.25
Z_PAD = 2.0
Z_TOL = 1e-10


def golden_max(f, lo, hi, tol):
    """Golden-section maximization on independent brackets, in lockstep.

    f(x) returns the objective at x, one point for every bracket.  Each
    step moves every bracket still wider than tol; a closed bracket keeps
    its state, though f still sees a point of it.  NaN values compare
    false, as in the scalar algorithm.  Raises NumericalError when a
    bracket is still open after MAX_GOLDEN_ITER steps.

    Returns (x, a, b, iterations): the better final interior point, the
    final bracket [a, b] and the number of steps each bracket took.
    """
    a = np.array(lo, dtype=float)
    b = np.array(hi, dtype=float)
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    # one column per bracket: a, b, x1, x2, f(x1), f(x2)
    state = np.array([a, b, x1, x2, f(x1), f(x2)])
    iterations = np.zeros(a.size, dtype=int)
    open_ = b - a > tol
    while open_.any():
        if iterations.max() == MAX_GOLDEN_ITER:
            width = float(np.max((state[1] - state[0])[open_]))
            raise NumericalError(
                f"golden-section refinement stalled at width {width:.3e}"
            )
        a, b, x1, x2, f1, f2 = state
        left = f1 > f2  # the maximum lies in [a, x2]
        na, nb = np.where(left, a, x1), np.where(left, x2, b)
        new_x = np.where(left, nb - _INV_GOLDEN * (nb - na), na + _INV_GOLDEN * (nb - na))
        new_f = f(new_x)
        moved = np.where(left, [na, nb, new_x, x1, new_f, f1], [na, nb, x2, new_x, f2, new_f])
        state = np.where(open_, moved, state)
        iterations += open_
        open_ = state[1] - state[0] > tol
    a, b, x1, x2, f1, f2 = state
    return np.where(f1 >= f2, x1, x2), a, b, iterations


def sech(u):
    """sech u without overflow; 0 at u = +-inf."""
    e = np.exp(-np.abs(u))
    return 2.0 * e / (1.0 + e * e)


def z_search(f, lo, hi):
    """Each row's maximum of f over z = ln|tan theta|, for a homodyne
    objective whose maximum lies within Z_PAD of one of the row's peak
    centres lo <= hi: a sum of sech^2 peaks there is below half their
    heights' sum farther than arccosh sqrt 2 ~ 0.88 from both.  f(z) sees
    every row: z holds one point per row, or a (points, rows) block.  Row
    i's scan steps by Z_STEP from lo_i - Z_PAD: a block of 2 Z_PAD / Z_STEP
    + 1 points round lo_i and, where some row has hi > lo, the block
    ceil((hi_i - lo_i) / Z_STEP) steps along, which must beat a row's best
    strictly, so the lower peak wins a tie.  golden_max refines one step
    each side of the best point, in lockstep, to width Z_TOL.

    Returns (z, edge): the maxima, and whether z lies within one Z_STEP of
    either end of the row's scan.
    """
    block = round(2.0 * Z_PAD / Z_STEP) + 1
    first = lo - Z_PAD
    last = np.ceil((hi - lo) / Z_STEP)  # where each row's upper block starts
    rows = np.arange(lo.size)
    z0, peak = first, np.full(lo.size, -np.inf)
    for start in [0, last] if last.any() else [0]:
        grid = first + Z_STEP * (start + np.arange(block)[:, None])
        values = f(grid)
        best = np.argmax(values, axis=0)
        better = values[best, rows] > peak
        z0 = np.where(better, grid[best, rows], z0)
        peak = np.where(better, values[best, rows], peak)
    z = golden_max(f, z0 - Z_STEP, z0 + Z_STEP, Z_TOL)[0]
    edge = (z - first < Z_STEP) | (first + Z_STEP * (last + block - 1) - z < Z_STEP)
    return z, edge


def mle_trials(common, rest, modes, s, t, z_hd):
    """Per-trial maximum-likelihood estimates of the common phase.

    Measured at z* = z_hd = ln|tan theta_hd|, the chart state (M, nu, s, t)
    has outcome variance nu lambda_s on the common mode and nu lambda_t on
    the other M - 1 modes, lambda_x(z) = cosh(z - 2x) / cosh z; a common
    phase phi moves z* to z = ln|tan(theta_hd + phi)|.  common and rest are
    each trial's second moments of the common mode and (per mode) of the
    others, in units of their variances at z*.  A mode whose variance moves
    by q, q - 1 = -sinh 2x sech(z* - 2x) sinh(z - z*) sech z, adds
    ln q + rho (1/q - 1) to the negative log-likelihood, rho its moment;
    nu drops out, and the weights 1/M and 1 - 1/M keep the M - 1 rest term
    from overflowing.  The estimates spread by O(1/sqrt(samples)) in z, so
    z_search maximizes each trial's likelihood round the one centre z*, 17
    points whatever the budget, within z* +- (Z_PAD + Z_STEP).  There q >
    e^-4.5 ~ 0.011, as ln q = ln cosh(z - 2x) - ln cosh z minus its value
    at z* has |d ln q / dz| < 2: log1p(q - 1) amplifies the rounding of
    q - 1 by |q - 1| / q < 90.  phi = arctan(sinh(d/2) / cosh(z* + d/2)),
    d = z - z*, is exact however close theta_hd is to pi/2.

    Returns (phi_hat, hit_edge) arrays; hit_edge marks the trials whose
    maximum lies at the edge of the z scan (z_search).
    """
    # (q - 1 per unit sinh(z - z*) sech z, weight) of the common and rest modes
    modes_at = [
        (-math.sinh(2.0 * x) * float(sech(z_hd - 2.0 * x)), weight)
        for x, weight in ((s, 1.0 / modes), (t, 1.0 - 1.0 / modes))
    ]

    def log_likelihood(z):
        shift = np.sinh(z - z_hd) * sech(z)
        total = 0.0
        for (rate, w), rho in zip(modes_at, (common, rest)):
            ln_q = np.log1p(rate * shift)
            total = total - w * (ln_q + rho * np.expm1(-ln_q))
        return total

    centre = np.full_like(common, z_hd)
    z, edge = z_search(log_likelihood, centre, centre)
    half = 0.5 * (z - z_hd)
    return np.arctan(np.sinh(half) / np.cosh(z_hd + half)), edge
