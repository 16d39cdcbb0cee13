"""Hot numeric kernels, written as numpy array expressions over 1-D grids."""

import math

import numpy as np


def family_scan(ts, modes, nu, n_tot):
    """Isothermal-family scan over the free squeezing parameter t.

    For each t, solves the photon constraint
    nu * [cosh(2s) + (modes-1) cosh(2t)] = 2*n_tot + modes
    on the s >= 0 branch and evaluates the covariance blocks.

    Returns arrays (s, eps1, eps2, gam1, gam2).
    """
    m = float(modes)
    rhs = (2.0 * n_tot + m) / nu
    # endpoint rounding; inside [-t_max, t_max] h >= 1
    h = np.maximum(rhs - (m - 1.0) * np.cosh(2.0 * ts), 1.0)
    s = 0.5 * np.arccosh(h)
    a = np.exp(2.0 * s)
    b = np.exp(2.0 * ts)
    e1 = nu * (a + (m - 1.0) * b) / m
    g1 = nu * (a - b) / m
    e2 = nu * (1.0 / a + (m - 1.0) / b) / m
    g2 = nu * (1.0 / a - 1.0 / b) / m
    return s, e1, e2, g1, g2


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
    return g, gp, 1.0 / g, -c / (g * gp)


def homodyne_scan(eps1, eps2, gam1, gam2, modes, thetas):
    """Structured homodyne Fisher matrix over a grid of common angles.

    The parameter derivatives of G at zero prior have diagonal entry
    D = (eps2 - eps1) sin(2 theta) and off-diagonal entry
    O = (gam2 - gam1) sin(2 theta) / 2.  The Fisher matrix
    F_jk = Tr[G^-1 (d_j G) G^-1 (d_k G)] / 2 then reduces to scalar
    algebra in (D, O) and the structured inverse of G.

    Returns arrays (a, b) with F = a I + b J.
    """
    m = float(modes)
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
    (trials x grid) scan on [lo, hi] picks each trial's bracket, then
    golden-section refinement runs on all trials in lockstep until every
    bracket is narrower than tol.

    Returns (theta_hat, hit_boundary) arrays.
    """
    m = float(modes)
    # one row per trial; angles broadcast along the columns
    tr_s = tr_s[:, None]
    sum_s = sum_s[:, None]

    def neg_ll(th):
        g, gp, alpha, beta = _angle_cov(eps1, eps2, gam1, gam2, m, theta_hd + th)
        return 0.5 * ((m - 1.0) * np.log(g) + np.log(gp)
                      + alpha * tr_s + beta * sum_s)

    grid = lo + (hi - lo) * np.arange(grid_points) / (grid_points - 1.0)
    best_th = grid[np.argmin(neg_ll(grid), axis=1)][:, None]

    gr = 0.5 * (math.sqrt(5.0) - 1.0)
    step = (hi - lo) / (grid_points - 1.0)
    a = np.maximum(best_th - step, lo)
    b = np.minimum(best_th + step, hi)
    x1 = b - gr * (b - a)
    x2 = a + gr * (b - a)
    f1 = neg_ll(x1)
    f2 = neg_ll(x2)
    active = b - a > tol
    while active.any():
        left = f1 < f2  # the minimum lies in [a, x2]
        na, nb = np.where(left, a, x1), np.where(left, x2, b)
        keep_x, keep_f = np.where(left, x1, x2), np.where(left, f1, f2)
        new_x = np.where(left, nb - gr * (nb - na), na + gr * (nb - na))
        new_f = neg_ll(new_x)
        stepped = (
            na, nb,
            np.where(left, new_x, keep_x), np.where(left, keep_x, new_x),
            np.where(left, new_f, keep_f), np.where(left, keep_f, new_f),
        )
        # converged trials keep their bracket
        a, b, x1, x2, f1, f2 = (
            np.where(active, new, old)
            for new, old in zip(stepped, (a, b, x1, x2, f1, f2))
        )
        active = b - a > tol
    theta_hat = 0.5 * (a + b)[:, 0]
    boundary = (theta_hat - lo < 1e-6) | (hi - theta_hat < 1e-6)
    return theta_hat, boundary
