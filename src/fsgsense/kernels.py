"""Hot numeric kernels, written as numpy array expressions.

Per-row chart parameters (modes, s, t, n_eff) broadcast against the
trailing axis, so a (grid x rows) array of points evaluates many states
at once.
"""

import math

import numpy as np

from .errors import ConvergenceError

MAX_GOLDEN_ITER = 200
_INV_GOLDEN = 0.5 * (math.sqrt(5.0) - 1.0)


def family_states(ts, modes, n_eff):
    """Squeezing s of the isothermal-family states at free parameter t.

    Solves the photon constraint in normal modes,
    sinh^2 s + (modes-1) sinh^2 t = n_eff (family.squeezed_photons), on
    the s >= 0 branch; (modes, nu, s, t) is the state's chart.
    """
    m = np.asarray(modes, dtype=float)
    # endpoint rounding; inside [-t_max, t_max] the square is >= 0
    return np.arcsinh(np.sqrt(np.maximum(n_eff - (m - 1.0) * np.sinh(ts) ** 2, 0.0)))


def golden_max(f, lo, hi, tol):
    """Golden-section maximization on independent brackets, in lockstep.

    f(x, rows) returns the objective at the points x of the brackets with
    indices rows.  Each step moves every bracket still wider than tol and
    evaluates only those; NaN values compare false, as in the scalar
    algorithm.  Raises ConvergenceError when a bracket is still open after
    MAX_GOLDEN_ITER steps.

    Returns (x, a, b, iterations): the better final interior point, the
    final bracket [a, b] and the number of steps each bracket took.
    """
    a = np.array(lo, dtype=float)
    b = np.array(hi, dtype=float)
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    everything = np.arange(a.size)
    # one column per bracket: a, b, x1, x2, f(x1), f(x2)
    state = np.array([a, b, x1, x2, f(x1, everything), f(x2, everything)])
    iterations = np.zeros(a.size, dtype=int)
    rows = np.flatnonzero(b - a > tol)
    step = 0
    while rows.size:
        if step == MAX_GOLDEN_ITER:
            width = float(np.max(state[1, rows] - state[0, rows]))
            raise ConvergenceError(
                f"golden-section refinement stalled at width {width:.3e}"
            )
        a, b, x1, x2, f1, f2 = state[:, rows]
        left = f1 > f2  # the maximum lies in [a, x2]
        na, nb = np.where(left, a, x1), np.where(left, x2, b)
        new_x = np.where(left, nb - _INV_GOLDEN * (nb - na), na + _INV_GOLDEN * (nb - na))
        new_f = f(new_x, rows)
        state[:, rows] = np.where(
            left, [na, nb, new_x, x1, new_f, f1], [na, nb, x2, new_x, f2, new_f]
        )
        iterations[rows] += 1
        step += 1
        rows = rows[state[1, rows] - state[0, rows] > tol]
    a, b, x1, x2, f1, f2 = state
    return np.where(f1 >= f2, x1, x2), a, b, iterations


def mle_trials(common, rest, modes, s, t, theta_hd, lo, hi, grid_points, tol):
    """Per-trial 1-D maximum-likelihood estimates of the common phase.

    At common phase phi the outcome covariance of the chart state
    (M, nu, s, t) has eigenvalue nu lambda_s(theta_hd + phi) on the common
    mode and nu lambda_t(theta_hd + phi) on the other M - 1 modes, with
    lambda_x(theta) = e^{2x} cos^2 theta + e^{-2x} sin^2 theta.  common and
    rest are each trial's second moments of the common mode and (per mode)
    of the others, in units of their phi = 0 variances.  A mode whose
    variance moves by q = 1 + d / lambda(theta_hd), with
    d = -2 sinh 2x sin(2 theta_hd + phi) sin(phi), adds ln q + rho (1/q - 1)
    to the negative log-likelihood, rho its moment; nothing cancels, even
    at M = 1e20, and nu drops out.  A (grid x trials) scan on [lo, hi]
    picks each trial's bracket, then golden_max refines all trials in
    lockstep to width tol; the estimate is the final bracket's midpoint.

    Returns (theta_hat, hit_boundary) arrays.
    """
    m = float(modes)
    c0, s0 = math.cos(theta_hd) ** 2, math.sin(theta_hd) ** 2
    # (e^{2x}, e^{-2x}, lambda_x(theta_hd), 2 sinh 2x, weight) per mode; the
    # weights divide by M, so that (M - 1) x term cannot overflow
    modes_at = []
    for x, weight in ((s, 1.0 / m), (t, 1.0 - 1.0 / m)):
        up, down = math.exp(2.0 * x), math.exp(-2.0 * x)
        modes_at.append((up, down, up * c0 + down * s0, 2.0 * math.sinh(2.0 * x), weight))

    def neg_ll(th, rho_common, rho_rest):
        phi = theta_hd + th
        c2, s2 = np.cos(phi) ** 2, np.sin(phi) ** 2
        shift = -np.sin(2.0 * theta_hd + th) * np.sin(th)
        total = 0.0
        for (up, down, lam0, rate, w), rho in zip(modes_at, (rho_common, rho_rest)):
            d = rate * shift
            total = total + w * (np.log1p(d / lam0) - rho * d / (up * c2 + down * s2))
        return total

    # one row per grid angle, one column per trial
    grid = lo + (hi - lo) * np.arange(grid_points)[:, None] / (grid_points - 1.0)
    best_th = grid[np.argmin(neg_ll(grid, common, rest), axis=0), 0]
    step = (hi - lo) / (grid_points - 1.0)
    _, a, b, _ = golden_max(
        lambda th, rows: -neg_ll(th, common[rows], rest[rows]),
        np.maximum(best_th - step, lo),
        np.minimum(best_th + step, hi),
        tol,
    )
    theta_hat = 0.5 * (a + b)
    boundary = (theta_hat - lo < 1e-6) | (hi - theta_hat < 1e-6)
    return theta_hat, boundary
