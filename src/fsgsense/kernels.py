"""Hot numeric kernels, written as numpy array expressions.

Per-row parameters (modes, nu, n_tot, the covariance blocks) broadcast
against the trailing axis, so a (grid x rows) array of points evaluates
many states at once.
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


def _angle_cov(eps1, eps2, gam1, gam2, m, phi):
    """Equal-angle homodyne covariance G = g I + c J and its inverse.

    At common angle phi the diagonal is E = eps1 c^2 + eps2 s^2 and the
    off-diagonal C = gam1 c^2 + gam2 s^2, so g = E - C.  G has eigenvalues
    g (M-1 times) and g + M c, and G^-1 = alpha I + beta J with
    alpha = 1/g and beta = -c / [g (g + M c)].

    Returns (g, g + M c, alpha, beta).
    """
    c2 = np.cos(phi) ** 2
    s2 = 1.0 - c2
    e = eps1 * c2 + eps2 * s2
    c = gam1 * c2 + gam2 * s2
    g = e - c
    gp = g + m * c
    return g, gp, 1.0 / g, -c / g / gp  # g * gp may overflow


def homodyne_scan(eps1, eps2, gam1, gam2, modes, thetas):
    """Structured homodyne Fisher matrix over a grid of common angles.

    The parameter derivatives of G at zero prior have diagonal entry
    D = (eps2 - eps1) sin(2 theta) and off-diagonal entry
    O = (gam2 - gam1) sin(2 theta) / 2.  The Fisher matrix
    F_jk = Tr[G^-1 (d_j G) G^-1 (d_k G)] / 2 then reduces to scalar
    algebra in (D, O) and the structured inverse of G.

    Returns arrays (a, b) with F = a I + b J.
    """
    m = np.asarray(modes, dtype=float)
    _, _, alpha, beta = _angle_cov(eps1, eps2, gam1, gam2, m, thetas)
    q = alpha + m * beta
    ab = alpha + beta
    s2t = np.sin(2.0 * thetas)
    dd = (eps2 - eps1) * s2t
    oo = 0.5 * (gam2 - gam1) * s2t
    d = dd - 2.0 * oo
    f11 = 0.5 * (
        2.0 * oo * q * (oo * q + oo * m * ab + d * ab)
        + d * (2.0 * oo * q * ab + d * ab * ab)
    )
    f12 = 0.5 * (
        2.0 * oo * q * (oo * (q + m * beta) + d * beta)
        + d * (2.0 * oo * q * beta + d * beta * beta)
    )
    return f11 - f12, f12


def mle_trials(tr_s, sum_s, modes, n_samples, eps1, eps2, gam1, gam2,
               theta_hd, lo, hi, grid_points, tol):
    """Per-trial 1-D maximum-likelihood estimates of the common phase.

    The negative log-likelihood per shot (up to a constant) is
    [ln det G(theta) + tr(G(theta)^-1 S)] / 2
    with S summarized per trial by (tr S, 1^T S 1), since
    G(theta) = g I + c J for the symmetric direction.  A coarse
    (grid x trials) scan on [lo, hi] picks each trial's bracket, then
    golden_max refines all trials in lockstep until every bracket is
    narrower than tol; the estimate is the final bracket's midpoint.

    Returns (theta_hat, hit_boundary) arrays.
    """
    m = float(modes)

    def neg_ll(th, tr, sm):
        g, gp, alpha, beta = _angle_cov(eps1, eps2, gam1, gam2, m, theta_hd + th)
        return 0.5 * ((m - 1.0) * np.log(g) + np.log(gp) + alpha * tr + beta * sm)

    # one row per grid angle, one column per trial
    grid = lo + (hi - lo) * np.arange(grid_points)[:, None] / (grid_points - 1.0)
    best_th = grid[np.argmin(neg_ll(grid, tr_s, sum_s), axis=0), 0]
    step = (hi - lo) / (grid_points - 1.0)
    _, a, b, _ = golden_max(
        lambda th, rows: -neg_ll(th, tr_s[rows], sum_s[rows]),
        np.maximum(best_th - step, lo),
        np.minimum(best_th + step, hi),
        tol,
    )
    theta_hat = 0.5 * (a + b)
    boundary = (theta_hat - lo < 1e-6) | (hi - theta_hat < 1e-6)
    return theta_hat, boundary
