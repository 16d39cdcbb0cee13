"""Local homodyne measurement model and Monte-Carlo validation.

All nodes share one local-oscillator angle theta_hd; the prior value of
every encoded phase is zero.  The measurement outcome of the network is a
zero-mean M-variate normal with covariance Gamma, whose classical Fisher
matrix F_jk = Tr[Gamma^-1 (d_j Gamma) Gamma^-1 (d_k Gamma)] / 2 inherits
the a I + b J structure of the probe state.

States are taken in their chart (M, nu, s, t), where the Fisher matrix
and the likelihood are closed forms (chart_homodyne_coeffs,
kernels.mle_trials).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .errors import DomainError, NumericalError
from .family import FsgParams
from .metrology import StructuredFim

# the rest modes' moment Y / k, Y ~ chi2(k), spreads by sqrt(2 / k); beyond
# this k, rounding near 1 (1.1e-16) adds over 1e-3 of its variance
_MAX_REST_DOF = 1e29
_CHI2_MAX_ITER = 20
# the least Cramér-Rao deviation in z that mc estimates
_MIN_Z_DEV = 1e-8
# Stirling series of ln Gamma(a + 1) - [(a + 1/2) ln a - a + ln(2 pi)/2],
# the coefficients of a^-1, a^-3, ..., a^-13
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


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
    z_star: float
    fim: StructuredFim
    xi_hd: float

    @property
    def theta_star(self) -> float:
        """arctan e^{z*} in (0, pi/2); it rounds to pi/2 past z* ~ 36."""
        return float(np.arctan(np.exp(self.z_star)))


def chart_homodyne_coeffs(m, s, t, z):
    """Homodyne Fisher matrix F = a I + b J of the chart state (M, nu, s, t)
    at z = ln|tan theta_hd|, and xi_hd = 1^T F 1; array-aware.

    lambda_x(theta) = cosh(z - 2x) / cosh z, so the common phase moves the
    log-variance of a mode squeezed by x at the rate
    -r_x = -2 sinh 2x sech(z - 2x).  Then
    xi_hd = [(M-1) r_t^2 + r_s^2] / 2,
    a = (sinh 2s + sinh 2t)^2 sech(z - 2s) sech(z - 2t) / M
        + (M-2) r_t^2 / (2M),
    b = (xi_hd / M - a) / M.
    None of them depends on nu.  sinh 2s + sinh 2t = 2 sinh(s+t) cosh(s-t)
    does not cancel near t = -s (the M = 2 privacy optimum), but b still
    cancels away from z*.  Each peak of xi_hd has unit width in z whatever
    s and t are, and z = +-inf (theta_hd = 0 or pi/2) gives zeros.
    """
    sech_s, sech_t = kernels.sech(z - 2.0 * s), kernels.sech(z - 2.0 * t)
    r_s, r_t = 2.0 * np.sinh(2.0 * s) * sech_s, 2.0 * np.sinh(2.0 * t) * sech_t
    xi = 0.5 * ((m - 1.0) * r_t * r_t + r_s * r_s)
    sinh_sum = 2.0 * np.sinh(s + t) * np.cosh(s - t)  # sinh 2s + sinh 2t
    a = sinh_sum**2 * sech_s * sech_t / m + (m - 2.0) * r_t * r_t / (2.0 * m)
    return a, (xi / m - a) / m, xi


def homodyne_fim(params: FsgParams, theta_hd: float) -> StructuredFim:
    """Classical Fisher matrix of equal-angle homodyne detection on the
    chart state params, in its a I + b J form (chart_homodyne_coeffs).

    Raises DomainError for a non-finite theta_hd.
    """
    if not math.isfinite(theta_hd):
        raise DomainError(f"theta_hd must be finite, got {theta_hd}")
    with np.errstate(divide="ignore"):  # z = -inf at theta_hd = 0
        z = np.log(np.abs(np.tan(theta_hd)))
    a, b, _ = chart_homodyne_coeffs(params.M, params.s, params.t, z)
    return StructuredFim(M=params.M, a=float(a), b=float(b))


def optimize_homodyne_angles(states: Sequence[FsgParams]) -> list[HomodyneOpt | None]:
    """Best common homodyne angle of each chart state, as one batch.

    xi_hd is a sum of two unit-width sech^2 peaks in z at 2s and 2t
    (chart_homodyne_coeffs), so its maximum lies within arccosh sqrt 2 ~
    0.88 of one of them; kernels.z_search, told both centres, finds it on
    d xi_hd/dz = -[r_s^2 tanh(z - 2s) + (M-1) r_t^2 tanh(z - 2t)], and z*
    <= 0 where s + t = 0, as xi_hd is even in z there.
    theta* = arctan e^{z*} is in (0, pi/2); pi - theta* gives the same
    Gamma and F.  A state with xi_hd = 0 at z* (s = t = 0) gets None.
    """
    if not states:
        return []
    m, s, t = (
        np.array([getattr(p, name) for p in states], dtype=float)
        for name in ("M", "s", "t")
    )
    p, q = 2.0 * np.sinh(2.0 * s), 2.0 * np.sinh(2.0 * t)

    def slope(z):  # d xi_hd / dz
        r_s, r_t = p * kernels.sech(z - 2.0 * s), q * kernels.sech(z - 2.0 * t)
        return -(r_s * r_s * np.tanh(z - 2.0 * s) + (m - 1.0) * r_t * r_t * np.tanh(z - 2.0 * t))

    z_star, _ = kernels.z_search(
        lambda z: chart_homodyne_coeffs(m, s, t, z)[2], slope,
        2.0 * np.minimum(s, t), 2.0 * np.maximum(s, t),
    )
    z_star = np.where(s + t == 0.0, -np.abs(z_star), z_star)
    a, b, xi_hd = chart_homodyne_coeffs(m, s, t, z_star)
    return [
        HomodyneOpt(
            z_star=float(z_star[i]),
            fim=StructuredFim(M=p.M, a=float(a[i]), b=float(b[i])),
            xi_hd=float(xi_hd[i]),
        )
        if xi_hd[i] > 0.0
        else None
        for i, p in enumerate(states)
    ]


def optimize_homodyne_angle(params: FsgParams) -> HomodyneOpt:
    """Best common homodyne angle in (0, pi/2); see optimize_homodyne_angles.

    Raises NumericalError when the homodyne Fisher matrix vanishes at
    every angle.
    """
    (best,) = optimize_homodyne_angles([params])
    if best is None:
        raise NumericalError("homodyne Fisher matrix vanishes for every angle")
    return best


def mc_estimate(params: FsgParams, z_hd: float, mc: McConfig) -> McReport:
    """Empirical check of the Cramér-Rao bound along the common direction,
    for homodyne detection at z_hd = ln|tan theta_hd|.

    Each trial stands for n_samples outcomes x_i ~ N(0, Gamma) and forms the
    1-D maximum-likelihood estimate of the common phase, searched in z
    (kernels.mle_trials); the variance of the estimates over trials is
    compared with 1 / (n_samples * xi_hd), xi_hd = 1^T F 1.

    The likelihood sees the outcomes only through the sample second moments
    of the common mode and of the other M - 1 normal modes, drawn exactly
    in units of their variances as X / n and Y / (n (M - 1)),
    X ~ chi2(n) and Y ~ chi2(n (M - 1)).  One generator seeded with `seed`
    draws every X, then every Y, so the cost is O(trials) and results are
    bitwise reproducible.

    The 95% interval of the variance is the chi-square one,
    ci95 = dof var / chi2_dof(0.975 ... 0.025), with dof = trials - 1.
    Raises DomainError for a NaN z_hd, and NumericalError when the
    Cramér-Rao variance underflows or its deviation in z is below
    _MIN_Z_DEV, when n (M - 1) exceeds _MAX_REST_DOF, or when a
    trial's maximum lies at the edge of the z scan.
    """
    if math.isnan(z_hd):
        raise DomainError("z_hd must be a number, got nan")
    m = params.M
    n = mc.n_samples
    xi_hd = float(chart_homodyne_coeffs(m, params.s, params.t, z_hd)[2])
    if xi_hd <= 0.0:
        raise NumericalError("homodyne Fisher information vanishes at this angle")
    crb = 1.0 / (n * xi_hd)
    if crb < np.finfo(float).tiny:
        raise NumericalError(f"the Cramer-Rao variance {crb:.1e} underflows")
    # dz/dtheta = 2 cosh z
    z_dev = math.exp(float(np.logaddexp(z_hd, -z_hd)) + 0.5 * math.log(crb))
    if z_dev < _MIN_Z_DEV:
        raise NumericalError(f"the Cramer-Rao deviation in z, {z_dev:.1e}, is below {_MIN_Z_DEV}")
    if n * (m - 1) > _MAX_REST_DOF:
        raise NumericalError(
            f"samples x (M - 1) = {float(n) * (m - 1):.1e} exceeds {_MAX_REST_DOF:.0e}: "
            "the sampled moments round off more than they spread"
        )
    rng = np.random.default_rng(mc.seed)
    common = rng.chisquare(n, mc.trials) / n
    rest = rng.chisquare(n * (m - 1), mc.trials) / (n * (m - 1))

    phi_hat, edge = kernels.mle_trials(common, rest, m, params.s, params.t, z_hd)
    if np.any(edge):
        trial = int(np.argmax(edge))  # the first
        raise NumericalError(f"likelihood maximum on the z scan's edge in trial {trial}")

    empirical_var = float(np.var(phi_hat, ddof=1))
    dof = mc.trials - 1
    ci95 = (
        dof * empirical_var / _chi2_quantile(0.975, dof),
        dof * empirical_var / _chi2_quantile(0.025, dof),
    )
    return McReport(
        empirical_var=empirical_var,
        crb=crb,
        ratio=empirical_var / crb,
        ci95=ci95,
        xi_hd=xi_hd,
    )


def _incomplete_gamma(a: float, x: float) -> tuple[float, float, float]:
    """(P, Q, D): the regularized incomplete gamma P(a, x), Q = 1 - P, and
    D = x^a e^-x / Gamma(a + 1), so that x dP/dx = a D.

    P by its series for x < a + 1, Q by the Lentz continued fraction
    otherwise (Numerical Recipes, section 6.2).  For a >= 15, D is
    exp(-a phi(x/a) - r(a)) / sqrt(2 pi a), with phi(l) = l - 1 - ln l and
    r the Stirling remainder, which avoids the cancellation in
    a ln x - x - lgamma(a + 1); phi near l = 1 comes from the series
    ln l = 2 atanh w, w = (l - 1)/(l + 1).
    """
    if a < 15.0:
        d = math.pow(x, a) * math.exp(-x) / math.gamma(a + 1.0)
    else:
        lam = x / a
        w = (lam - 1.0) / (lam + 1.0)
        if abs(w) < 0.25:
            # phi = 2 w^2 / (1 - w) - 2 (w^3/3 + w^5/5 + ...)
            w2 = w * w
            term, odd, k = w * w2, 0.0, 3
            while abs(term) > 1e-17 * w2:
                odd += term / k
                term *= w2
                k += 2
            phi = 2.0 * w2 / (1.0 - w) - 2.0 * odd
        else:
            phi = lam - 1.0 - math.log(lam)
        rem, power, inv2 = 0.0, 1.0 / a, 1.0 / (a * a)
        for c in _STIRLING:
            rem += c * power
            power *= inv2
        d = math.exp(-(a * phi + rem)) / math.sqrt(2.0 * math.pi * a)
    if x < a + 1.0:
        term = total = 1.0
        n = a
        while term > 1e-17 * total:
            n += 1.0
            term *= x / n
            total += term
        p = d * total
        return p, 1.0 - p, d
    tiny = 1e-300
    b = x + 1.0 - a
    c, e = 1.0 / tiny, 1.0 / b
    h, delta, i = e, 0.0, 0
    while abs(delta - 1.0) > 2.3e-16:
        i += 1
        an = -i * (i - a)
        b += 2.0
        e = an * e + b
        e = 1.0 / (e if abs(e) >= tiny else tiny)
        c = b + an / c
        c = c if abs(c) >= tiny else tiny
        delta = e * c
        h *= delta
    q = a * d * h
    return 1.0 - q, q, d


def _chi2_quantile(p: float, dof: float) -> float:
    """The p quantile of the chi-square distribution with dof degrees of
    freedom, 2 x with P(dof/2, x) = p.

    Newton in ln x on the smaller tail, P for p < 0.5 and Q otherwise, from
    the Wilson-Hilferty start; both ln P and ln Q are concave in ln x, so
    the iteration cannot overshoot away from the root.  Raises
    NumericalError after _CHI2_MAX_ITER steps.
    """
    a = 0.5 * dof
    lower = p < 0.5
    target = p if lower else 1.0 - p
    # normal quantile, Abramowitz-Stegun 26.2.23 (error < 4.5e-4)
    t = math.sqrt(-2.0 * math.log(target))
    z = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308))
    )
    h = 2.0 / (9.0 * dof)
    base = 1.0 + (-z if lower else z) * math.sqrt(h) - h
    x = a * base**3 if base > 0.0 else (p * math.gamma(a + 1.0)) ** (1.0 / a)
    for _ in range(_CHI2_MAX_ITER):
        lo, hi, d = _incomplete_gamma(a, x)
        tail = lo if lower else hi
        if not (tail > 0.0 and d > 0.0):
            break
        # d ln tail / d ln x = +-a D / tail
        step = math.log(target / tail) * tail / (a * d)
        step = max(-1.0, min(1.0, step if lower else -step))
        x *= math.exp(step)
        if abs(step) < 1e-11:
            return 2.0 * x
    raise NumericalError(
        f"chi-square quantile did not converge (p={p}, dof={dof})"
    )
