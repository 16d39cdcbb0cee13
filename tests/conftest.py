"""Shared fixtures plus the acceptance-criteria summary hook.

Acceptance tests register one human-readable PASS/FAIL line per criterion;
the lines are echoed in the terminal summary so a plain ``pytest -v`` run
shows the verdict for every criterion in one place.
"""

import dataclasses

import mpmath
import numpy as np
import pytest

from fsgsense import kernels
from fsgsense.reference import homodyne_cov, homodyne_cov_derivatives

_CRITERION_LINES: dict[int, str] = {}


def record_criterion(number: int, verdict: str, detail: str) -> None:
    _CRITERION_LINES[number] = f"criterion {number}: {verdict} - {detail}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_CRITERION_LINES):
        terminalreporter.write_line(_CRITERION_LINES[number])


def dense_homodyne_fim(blocks, theta_hd):
    """Oracle (a, b) of the homodyne Fisher matrix, evaluated densely.

    F_jk = Tr[G^-1 (d_j G) G^-1 (d_k G)] / 2 from homodyne_cov and
    homodyne_cov_derivatives; asserts that F has the a I + b J structure.
    """
    m = blocks.M
    gamma = homodyne_cov(blocks, theta_hd)
    derivs = homodyne_cov_derivatives(blocks, theta_hd)
    prods = [np.linalg.solve(gamma, d) for d in derivs]
    fim = np.array([[0.5 * np.sum(pj * pk.T) for pk in prods] for pj in prods])
    diag, offs = np.diag(fim), fim[~np.eye(m, dtype=bool)]
    scale = max(1.0, float(np.max(np.abs(fim))))
    assert np.ptp(diag) <= 1e-8 * scale and np.ptp(offs) <= 1e-8 * scale
    b = float(np.mean(offs))
    return float(np.mean(diag)) - b, b


def dense_sufficient_stats(blocks, theta_hd, n_samples, trials, seed):
    """Oracle per-trial (tr S, 1^T S 1) from explicitly drawn outcomes.

    Trial k draws n_samples outcomes as standard_normal((n, M)) @ chol^T,
    chol the Cholesky factor of homodyne_cov, from the generator seeded
    with (seed, k), and reduces their sample covariance S to the two
    statistics the likelihood uses.
    """
    chol = np.linalg.cholesky(homodyne_cov(blocks, theta_hd))
    tr_s = np.empty(trials)
    sum_s = np.empty(trials)
    for k in range(trials):
        rng = np.random.default_rng([seed, k])
        x = rng.standard_normal((n_samples, blocks.M)) @ chol.T
        tr_s[k] = np.sum(x * x) / n_samples
        sum_s[k] = np.sum(x.sum(axis=1) ** 2) / n_samples
    return tr_s, sum_s


def exact_chart_values(m, nu, s, t):
    """Oracle (a, b, xi, 1 - P) of the chart state (M, nu, s, t) with mean
    weights, in mpmath: from the covariance entries (family.chart_blocks)
    through qfim_fsg's block formula, F11 = [(eps1^2 + eps2^2)/2 - nu^2]
    2/(1 + nu^2) and b = F12 = (gam1^2 + gam2^2)/(1 + nu^2), a = F11 - F12.

    The block formula cancels near vacuum, where a and b are of order
    N_eff/M against entries of order nu, and 1 - P cancels where a << b,
    so the working precision grows with the budget's scale:
    50 + 2 (|log10 N_eff| + log10 M) digits.  Needs N_eff > 0.
    """
    with mpmath.workdps(20):
        n_eff = mpmath.sinh(s) ** 2 + (m - 1) * mpmath.sinh(t) ** 2
    with mpmath.workdps(_digits(m, n_eff)):
        m, nu, s, t = (mpmath.mpf(v) for v in (m, nu, s, t))
        x, y = mpmath.exp(2 * s), mpmath.exp(2 * t)
        eps1, gam1 = nu * (x + (m - 1) * y) / m, nu * (x - y) / m
        eps2, gam2 = nu * (1 / x + (m - 1) / y) / m, nu * (1 / x - 1 / y) / m
        scale = 2 / (1 + nu**2)
        b = (gam1**2 + gam2**2) / 2 * scale
        a = ((eps1**2 + eps2**2) / 2 - nu**2) * scale - b
        return a, b, m * (a + m * b), 1 - (a / m + b) / (a + b)


def _digits(m, n_eff):
    """mpmath working precision for a row of scale (M, N_eff), as in
    exact_chart_values: 50 + 2 (|log10 N_eff| + log10 M) digits."""
    with mpmath.workdps(20):
        return int(50 + 2 * (abs(mpmath.log10(n_eff)) + mpmath.log10(m)))


def exact_privacy_root(m, n_eff, t0):
    """Oracle privacy optimum t* of the pure row (M, N_eff), M >= 3: the
    root near t0 of S d ln(B/A)/dt on the photon constraint (see
    optimize_batch's docstring), in mpmath, at _digits(M, N_eff) digits."""
    with mpmath.workdps(_digits(m, n_eff)):
        m, n_eff = mpmath.mpf(m), mpmath.mpf(n_eff)

        def slope(t):
            s = mpmath.asinh(mpmath.sqrt(n_eff - (m - 1) * mpmath.sinh(t) ** 2))
            big_s, big_t, u = mpmath.sinh(2 * s), (m - 1) * mpmath.sinh(2 * t), 2 * (s + t)
            a = 2 * mpmath.sinh(s + t) ** 2 + (m - 2) * mpmath.sinh(2 * t) ** 2
            return (
                (-big_t - big_s) * mpmath.coth(s - t) + mpmath.tanh(u) * (big_s - big_t)
                - (mpmath.sinh(u) * (big_s - big_t) + (m - 2) * mpmath.sinh(4 * t) * big_s) / a
            ) / (big_s - big_t)  # in units of its terms' scale, for findroot's tolerance

        t0 = mpmath.mpf(t0)
        return mpmath.findroot(slope, (t0 * (1 - 1e-9), t0 * (1 + 1e-9)), solver="anderson")


def exact_angle_root(m, s, t, z0):
    """Oracle homodyne angle z* of the chart (M, s, t): the root near z0 of
    d xi_hd/dz = -4 [p^2 sech^2(z-2s) tanh(z-2s) + (M-1) q^2 sech^2(z-2t)
    tanh(z-2t)], p = sinh 2s and q = sinh 2t, in mpmath at 60 digits."""
    with mpmath.workdps(60):
        m, s, t = (mpmath.mpf(v) for v in (m, s, t))
        p, q = mpmath.sinh(2 * s), mpmath.sinh(2 * t)

        def slope(z):
            u, v = z - 2 * s, z - 2 * t
            return -4 * (
                p**2 * mpmath.sech(u) ** 2 * mpmath.tanh(u)
                + (m - 1) * q**2 * mpmath.sech(v) ** 2 * mpmath.tanh(v)
            ) / (p**2 + (m - 1) * q**2)  # in units of its terms' scale

        step = 1e-9 * max(1.0, abs(z0))
        return mpmath.findroot(slope, (mpmath.mpf(z0) - step, mpmath.mpf(z0) + step),
                               solver="anderson")


def full_z_scan(f, slope, lo, hi):
    """Oracle for kernels.z_search: each row's whole grid, from lo_i - Z_PAD
    in steps of Z_STEP to at least hi_i + Z_PAD, in one call of f; the first
    maximum, refined by kernels.bisect_max on one step each side.

    Returns (z, edge) like kernels.z_search.
    """
    step, first = kernels.Z_STEP, lo - kernels.Z_PAD
    steps = np.ceil((hi - lo) / step) + round(2 * kernels.Z_PAD / step) + 1
    index = np.arange(np.max(steps))[:, None]
    values = f(first + step * index)
    values[index >= steps] = -np.inf  # past the row's own grid
    z0 = first + step * np.argmax(values, axis=0)
    z = kernels.bisect_max(slope, z0 - step, z0 + step)[0]
    edge = (z - first < step) | (first + step * (steps - 1) - z < step)
    return z, edge


def same_fields(x, y) -> bool:
    """Equality of two records of one type, dataclasses or NamedTuples,
    nested records and tuples included, with NaN == NaN."""

    def fields(value):
        if dataclasses.is_dataclass(value):
            return [getattr(value, f.name) for f in dataclasses.fields(value)]
        return list(value) if isinstance(value, tuple) else None

    fx, fy = fields(x), fields(y)
    if fx is None and fy is None:
        return x == y or (x != x and y != y)
    return (
        type(x) is type(y)
        and len(fx) == len(fy)
        and all(map(same_fields, fx, fy))
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
