"""Shared fixtures plus the acceptance-criteria summary hook.

Acceptance tests register one human-readable PASS/FAIL line per criterion;
the lines are echoed in the terminal summary so a plain ``pytest -v`` run
shows the verdict for every criterion in one place.
"""

import numpy as np
import pytest

from fsgsense.homodyne import homodyne_cov, homodyne_cov_derivatives

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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
