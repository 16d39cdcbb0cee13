"""Shared fixtures plus the acceptance-criteria summary hook.

Acceptance tests register one human-readable PASS/FAIL line per criterion;
the lines are echoed in the terminal summary so a plain ``pytest -v`` run
shows the verdict for every criterion in one place.
"""

import dataclasses
import math

import mpmath
import numpy as np
import pytest

from fsgsense import kernels
from fsgsense.errors import NumericalError
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
        digits = 50 + 2 * (abs(mpmath.log10(n_eff)) + mpmath.log10(m))
    with mpmath.workdps(int(digits)):
        m, nu, s, t = (mpmath.mpf(v) for v in (m, nu, s, t))
        x, y = mpmath.exp(2 * s), mpmath.exp(2 * t)
        eps1, gam1 = nu * (x + (m - 1) * y) / m, nu * (x - y) / m
        eps2, gam2 = nu * (1 / x + (m - 1) / y) / m, nu * (1 / x - 1 / y) / m
        scale = 2 / (1 + nu**2)
        b = (gam1**2 + gam2**2) / 2 * scale
        a = ((eps1**2 + eps2**2) / 2 - nu**2) * scale - b
        return a, b, m * (a + m * b), 1 - (a / m + b) / (a + b)


def scalar_golden_max(f, lo, hi, tol, max_iter=200):
    """Oracle: one-bracket golden-section maximization, as a plain loop.

    Returns (x, a, b, iterations) like kernels.golden_max does per bracket.
    """
    inv = 0.5 * (math.sqrt(5.0) - 1.0)
    a, b = lo, hi
    x1 = b - inv * (b - a)
    x2 = a + inv * (b - a)
    f1, f2 = f(x1), f(x2)
    iterations = 0
    while b - a > tol:
        if iterations >= max_iter:
            raise NumericalError(f"stalled at width {b - a:.3e}")
        if f1 > f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv * (b - a)
            f2 = f(x2)
        iterations += 1
    return (x1 if f1 >= f2 else x2), a, b, iterations


def full_z_scan(f, lo, hi):
    """Oracle for kernels.z_search: each row's whole grid, from lo_i - Z_PAD
    in steps of Z_STEP to at least hi_i + Z_PAD, in one call of f; the first
    maximum, refined by kernels.golden_max on one step each side to Z_TOL.

    Returns (z, edge) like kernels.z_search.
    """
    step, first = kernels.Z_STEP, lo - kernels.Z_PAD
    steps = np.ceil((hi - lo) / step) + round(2 * kernels.Z_PAD / step) + 1
    index = np.arange(np.max(steps))[:, None]
    values = f(first + step * index)
    values[index >= steps] = -np.inf  # past the row's own grid
    z0 = first + step * np.argmax(values, axis=0)
    z = kernels.golden_max(f, z0 - step, z0 + step, kernels.Z_TOL)[0]
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
