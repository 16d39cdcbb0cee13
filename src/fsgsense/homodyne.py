"""Local homodyne measurement model and Monte-Carlo validation.

All nodes share one local-oscillator angle theta_hd; the prior value of
every encoded phase is zero.  The measurement outcome of the network is a
zero-mean M-variate normal with covariance Gamma, whose classical Fisher
matrix F_jk = Tr[Gamma^-1 (d_j Gamma) Gamma^-1 (d_k Gamma)] / 2 inherits
the a I + b J structure of the probe state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .errors import ConvergenceError, DegenerateError, DomainError, NumericalError
from .family import FsgBlocks
from .metrology import StructuredFim, xi_from_ab

ANGLE_GRID_POINTS = 1001
ANGLE_TOL = 1e-10
MLE_BRACKET = 0.3
_MLE_GRID = 121


@dataclass(frozen=True)
class McConfig:
    """Monte-Carlo run configuration; (config, seed) fixes the sample stream."""

    n_samples: int
    trials: int
    seed: int

    def __post_init__(self):
        if self.n_samples < 2:
            raise DomainError(f"n_samples must be >= 2, got {self.n_samples}")
        if self.trials < 2:
            raise DomainError(f"trials must be >= 2, got {self.trials}")
        if not 0 <= self.seed < 2**64:
            raise DomainError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class McReport:
    empirical_var: float
    crb: float
    ratio: float
    ci95: tuple[float, float]
    xi_hd: float


@dataclass(frozen=True)
class HomodyneOpt:
    theta_star: float
    fim: StructuredFim
    xi_hd: float


def homodyne_cov(
    blocks: FsgBlocks, theta_hd: float, thetas: np.ndarray | None = None
) -> np.ndarray:
    """Outcome covariance Gamma of local homodyne detection.

    Gamma_jk = b1 cos(phi_j) cos(phi_k) + b2 sin(phi_j) sin(phi_k) with
    phi_j = theta_hd + theta_j, where (b1, b2) are the diagonal entries of
    the covariance block coupling nodes j and k (eps on the diagonal, gam
    off it).  thetas=None means zero prior at every node.
    """
    m = blocks.M
    if thetas is None:
        phi = np.full(m, theta_hd)
    else:
        thetas = np.asarray(thetas, dtype=float)
        if thetas.shape != (m,):
            raise DomainError(f"expected {m} node angles, got shape {thetas.shape}")
        phi = theta_hd + thetas
    c, s = np.cos(phi), np.sin(phi)
    gamma = blocks.gam1 * np.outer(c, c) + blocks.gam2 * np.outer(s, s)
    diag = (blocks.eps1 - blocks.gam1) * c**2 + (blocks.eps2 - blocks.gam2) * s**2
    gamma[np.diag_indices(m)] += diag
    min_eig = float(np.linalg.eigvalsh(gamma)[0])
    if min_eig <= 1e-10:
        raise NumericalError(
            f"homodyne covariance lost positive definiteness (min eig {min_eig:.3e})"
        )
    return gamma


def homodyne_cov_derivatives(blocks: FsgBlocks, theta_hd: float) -> list[np.ndarray]:
    """Derivatives of Gamma in each node phase, at zero prior.

    d Gamma / d theta_j has (j, j) entry (eps2 - eps1) sin(2 theta_hd),
    (j, k) entries (gam2 - gam1) sin(2 theta_hd) / 2 for k != j, zero
    elsewhere.
    """
    m = blocks.M
    s2 = np.sin(2.0 * theta_hd)
    diag = (blocks.eps2 - blocks.eps1) * s2
    off = 0.5 * (blocks.gam2 - blocks.gam1) * s2
    out = []
    for j in range(m):
        d = np.zeros((m, m))
        d[j, :] = off
        d[:, j] = off
        d[j, j] = diag
        out.append(d)
    return out


def _cov_spectrum(blocks: FsgBlocks, theta_hd: float) -> tuple[float, float]:
    """Eigenvalues (g, g + M c) of the equal-angle covariance G = g I + c J.

    g + M c belongs to the common mode 1/sqrt(M), g to the M - 1 modes
    orthogonal to it.  Raises NumericalError when G is not positive definite.
    """
    g, gp, _, _ = kernels._angle_cov(
        blocks.eps1, blocks.eps2, blocks.gam1, blocks.gam2, blocks.M, theta_hd
    )
    min_eig = min(g, gp)
    if min_eig <= 1e-10:
        raise NumericalError(
            f"homodyne covariance lost positive definiteness (min eig {min_eig:.3e})"
        )
    return float(g), float(gp)


def homodyne_fim(blocks: FsgBlocks, theta_hd: float) -> StructuredFim:
    """Classical Fisher matrix of equal-angle homodyne detection.

    F_jk = Tr[G^-1 (d_j G) G^-1 (d_k G)] / 2 in its a I + b J form, from
    the structured inverse of G = g I + c J (see kernels.homodyne_scan).
    """
    _cov_spectrum(blocks, theta_hd)
    a_arr, b_arr = kernels.homodyne_scan(
        blocks.eps1, blocks.eps2, blocks.gam1, blocks.gam2, blocks.M, np.array([theta_hd])
    )
    a, b = float(a_arr[0]), float(b_arr[0])
    scale = max(1.0, abs(a + b), abs(b))
    if -1e-12 * scale < a < 0.0:
        a = 0.0
    return StructuredFim(M=blocks.M, a=a, b=b)


def optimize_homodyne_angles(blocks: Sequence[FsgBlocks]) -> list[HomodyneOpt | None]:
    """Best common homodyne angle of each state, as one batch.

    Maximizes the mean-phase precision xi_hd / M^2 = a / M + b: one
    (angle grid x states) scan on [0, pi), then golden-section on every
    state in lockstep.  The angle is reported in [0, pi/2]:
    Gamma(pi - theta) = Gamma(theta) and F is quadratic in sin(2 theta),
    so theta and pi - theta are equally good.  A state whose homodyne
    Fisher matrix vanishes at every grid angle gets None.
    """
    eps1, eps2, gam1, gam2, m = (
        np.array([getattr(b, name) for b in blocks], dtype=float)
        for name in ("eps1", "eps2", "gam1", "gam2", "M")
    )
    n2 = 1.0 / m
    thetas = np.linspace(0.0, np.pi, ANGLE_GRID_POINTS, endpoint=False)[:, None]
    a_arr, b_arr = kernels.homodyne_scan(eps1, eps2, gam1, gam2, m, thetas)
    flat = np.max(np.abs(a_arr) + m * np.abs(b_arr), axis=0) <= 1e-14
    live = np.flatnonzero(~flat)
    out: list[HomodyneOpt | None] = [None] * len(blocks)
    if not live.size:
        return out

    def proxy_at(th, rows):
        a, b = kernels.homodyne_scan(
            eps1[rows], eps2[rows], gam1[rows], gam2[rows], m[rows], th
        )
        return n2[rows] * a + b

    proxy = n2[live] * a_arr[:, live] + b_arr[:, live]
    idx = np.argmax(proxy, axis=0)
    lo = thetas[np.maximum(idx - 1, 0), 0]
    hi = thetas[np.minimum(idx + 1, ANGLE_GRID_POINTS - 1), 0]
    refined, _, _, _ = kernels.golden_max(
        lambda th, rows: proxy_at(th, live[rows]), lo, hi, ANGLE_TOL
    )
    grid_better = proxy[idx, np.arange(live.size)] > proxy_at(refined, live)
    theta_star = np.where(grid_better, thetas[idx, 0], refined)
    for i, theta in zip(live, np.minimum(theta_star, np.pi - theta_star)):
        fim = homodyne_fim(blocks[i], float(theta))
        xi_hd = float(xi_from_ab(fim.a, fim.b, fim.M))
        out[i] = HomodyneOpt(theta_star=float(theta), fim=fim, xi_hd=xi_hd)
    return out


def optimize_homodyne_angle(blocks: FsgBlocks) -> HomodyneOpt:
    """Best common homodyne angle in [0, pi/2]; see optimize_homodyne_angles.

    Raises DegenerateError when the homodyne Fisher matrix vanishes at
    every angle.
    """
    (best,) = optimize_homodyne_angles([blocks])
    if best is None:
        raise DegenerateError("homodyne Fisher matrix vanishes for every angle")
    return best


def mc_estimate(blocks: FsgBlocks, theta_hd: float, mc: McConfig) -> McReport:
    """Empirical check of the Cramér-Rao bound along the common direction.

    Each trial stands for n_samples outcomes x_i ~ N(0, Gamma) and forms the
    1-D maximum-likelihood estimate of the common phase on
    [-MLE_BRACKET, MLE_BRACKET]; the variance of the estimates over trials
    is compared with 1 / (n_samples * xi_hd), xi_hd = 1^T F 1.  Gamma at
    common phase phi depends on theta_hd + phi only through cos^2 and sin^2,
    so the likelihood is even about every phi = k pi/2 - theta_hd; the
    bracket stops at the nearest such reflection point on each side, which
    would otherwise hold a mirror image of the true minimum.

    The likelihood sees the outcomes only through the sample covariance
    S = sum_i x_i x_i^T / n via tr S and 1^T S 1, and both are drawn
    exactly: Gamma = g I + c J has eigenvalue l+ = g + M c on the common
    mode and l- = g on the other M - 1, so with independent chi-square
    draws X ~ chi2(n) and Y ~ chi2(n (M - 1)),
    n tr S = l+ X + l- Y  and  n 1^T S 1 = M l+ X.
    One generator seeded with `seed` draws every X, then every Y, so the
    cost is O(trials) and results are bitwise reproducible.
    """
    m = blocks.M
    n = mc.n_samples
    lam_minus, lam_plus = _cov_spectrum(blocks, theta_hd)
    rng = np.random.default_rng(mc.seed)
    common = rng.chisquare(n, mc.trials)
    rest = rng.chisquare(n * (m - 1), mc.trials)
    tr_s = (lam_plus * common + lam_minus * rest) / n
    sum_s = m * lam_plus * common / n

    half_pi = 0.5 * math.pi
    lo = max(-MLE_BRACKET, (math.ceil(theta_hd / half_pi) - 1) * half_pi - theta_hd)
    hi = min(MLE_BRACKET, (math.floor(theta_hd / half_pi) + 1) * half_pi - theta_hd)
    theta_hat, boundary = kernels.mle_trials(
        tr_s, sum_s, m, n,
        blocks.eps1, blocks.eps2, blocks.gam1, blocks.gam2,
        theta_hd, lo, hi, _MLE_GRID, 1e-10,
    )
    if np.any(boundary):
        first = int(np.flatnonzero(boundary)[0])
        raise ConvergenceError(
            f"likelihood search hit the bracket boundary in trial {first}"
        )

    empirical_var = float(np.var(theta_hat, ddof=1))
    fim = homodyne_fim(blocks, theta_hd)
    xi_hd = float(xi_from_ab(fim.a, fim.b, m))
    if xi_hd <= 0.0:
        raise DegenerateError("homodyne Fisher information vanishes at this angle")
    crb = 1.0 / (n * xi_hd)
    from scipy.special import gammaincinv  # only here: scipy is slow to import

    # the chi2(dof) quantile at p is 2 gammaincinv(dof / 2, p)
    dof = mc.trials - 1
    ci95 = (
        float(dof * empirical_var / (2.0 * gammaincinv(dof / 2, 0.975))),
        float(dof * empirical_var / (2.0 * gammaincinv(dof / 2, 0.025))),
    )
    return McReport(
        empirical_var=empirical_var,
        crb=crb,
        ratio=empirical_var / crb,
        ci95=ci95,
        xi_hd=xi_hd,
    )
