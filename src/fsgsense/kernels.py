"""Hot numeric kernels, written as numpy array expressions: the lockstep
searches (bisect_max, z_search) and the Monte-Carlo likelihood
(mle_trials).

Per-row parameters broadcast against the trailing axis, so an array of
points evaluates many rows at once.
"""

import math

import numpy as np

# z_search scans z in steps of Z_STEP, a block of 2 Z_PAD / Z_STEP + 1 points
# round each peak of a homodyne objective
Z_STEP = 0.25
Z_PAD = 2.0


def bisect_max(slope, lo, hi):
    """Each row's maximum on [lo, hi] by bisection, in lockstep: slope(x)
    has the sign of the objective's derivative, at one point x per row.
    Each step halves every row whose midpoint x lies strictly between its
    ends, to [lo, x] where slope(x) < 0 and to [x, hi] otherwise (NaN
    included); a row with adjacent ends keeps them, though slope still
    sees its midpoint.  Returns (x, halvings): the final midpoints and each
    row's number of halvings.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    halvings = np.zeros(np.broadcast(lo, hi).shape, dtype=int)
    while True:
        x = 0.5 * (lo + hi)
        open_ = (lo < x) & (x < hi)
        if not open_.any():
            return x, halvings
        left = slope(x) < 0.0
        lo, hi = np.where(open_ & ~left, x, lo), np.where(open_ & left, x, hi)
        halvings += open_


def sech(u):
    """sech u without overflow; 0 at u = +-inf."""
    e = np.exp(-np.abs(u))
    return 2.0 * e / (1.0 + e * e)


def z_search(f, slope, lo, hi):
    """Each row's maximum of f over z = ln|tan theta|, for a homodyne
    objective whose maximum lies within Z_PAD of one of the row's peak
    centres lo <= hi: a sum of sech^2 peaks there is below half their
    heights' sum farther than arccosh sqrt 2 ~ 0.88 from both.  f(z) sees
    every row: z holds one point per row, or a (points, rows) block.  Row
    i's scan steps by Z_STEP from lo_i - Z_PAD: a block of 2 Z_PAD / Z_STEP
    + 1 points round lo_i and, where some row has hi > lo, the block
    ceil((hi_i - lo_i) / Z_STEP) steps along, which must beat a row's best
    strictly, so the lower peak wins a tie.  bisect_max refines one step
    each side of the best point on the sign of slope(z), f's derivative.

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
    z = bisect_max(slope, z0 - Z_STEP, z0 + Z_STEP)[0]
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
    from overflowing.  Its slope is -cosh z* sech^2 z sum w rate (q - rho)
    / q^2, rate = (q - 1) / (sinh(z - z*) sech z) and w the weight.  The
    estimates spread by O(1/sqrt(samples)) in z, so z_search maximizes each
    trial's likelihood round the one centre z*, 17 points whatever the
    budget, within z* +- (Z_PAD + Z_STEP).  There q >
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

    def slope(z):  # over its positive factor cosh z* sech^2 z
        shift = np.sinh(z - z_hd) * sech(z)
        return -sum(w * rate * (1.0 + rate * shift - rho) / (1.0 + rate * shift) ** 2
                    for (rate, w), rho in zip(modes_at, (common, rest)))

    centre = np.full_like(common, z_hd)
    z, edge = z_search(log_likelihood, slope, centre, centre)
    half = 0.5 * (z - z_hd)
    return np.arctan(np.sinh(half) / np.cosh(z_hd + half)), edge
