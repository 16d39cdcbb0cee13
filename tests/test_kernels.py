import numpy as np
import pytest
from conftest import dense_homodyne_fim, scalar_golden_max
from scipy.optimize import minimize_scalar

from fsgsense import kernels
from fsgsense.errors import ConvergenceError
from fsgsense.family import (
    FsgParams,
    blocks_from_params,
    free_parameter_range,
    solve_s,
    squeezed_photons,
)
from fsgsense.homodyne import homodyne_cov, optimize_homodyne_angle
from fsgsense.metrology import chart_fisher_coeffs, qfim_fsg


@pytest.mark.parametrize(
    "m, n_th, n_tot", [(4, 1.0, 30.0), (2, 0.0, 1.0), (2, 0.5, 40.0), (6, 2.0, 300.0)]
)
def test_family_scan_matches_scalar_path(m, n_th, n_tot):
    nu = 1.0 + 2.0 * n_th
    t_max = free_parameter_range(m, n_th, n_tot)
    ts = np.linspace(-t_max, t_max, 41)
    s_arr = kernels.family_states(ts, m, squeezed_photons(m, n_th, n_tot))
    for i, t in enumerate(ts):
        assert s_arr[i] == pytest.approx(solve_s(m, n_th, n_tot, float(t)).s, abs=1e-12)
    # the photon constraint in its covariance form
    photons = nu * (np.cosh(2.0 * s_arr) + (m - 1) * np.cosh(2.0 * ts))
    assert photons == pytest.approx(np.full(ts.size, 2.0 * n_tot + m), rel=1e-12)


def test_homodyne_scan_matches_dense_fim():
    blocks = blocks_from_params(FsgParams(M=3, n_th=0.5, s=0.8, t=-0.3))
    thetas = np.linspace(0.05, np.pi - 0.05, 17)
    a_arr, b_arr = kernels.homodyne_scan(
        blocks.eps1, blocks.eps2, blocks.gam1, blocks.gam2, blocks.M, thetas
    )
    for i, th in enumerate(thetas):
        a, b = dense_homodyne_fim(blocks, float(th))
        scale = max(1.0, abs(a) + abs(b))
        assert a_arr[i] == pytest.approx(a, abs=1e-9 * scale)
        assert b_arr[i] == pytest.approx(b, abs=1e-9 * scale)


def test_mle_trials_recovers_zero_phase():
    # noiseless sufficient statistics at theta = 0 must give theta_hat ~ 0
    blocks = blocks_from_params(FsgParams(M=2, n_th=0.0, s=0.7, t=-0.7))
    theta_hd = 0.4
    gamma = homodyne_cov(blocks, theta_hd)
    tr_s = np.array([float(np.trace(gamma))])
    sum_s = np.array([float(gamma.sum())])
    theta_hat, boundary = kernels.mle_trials(
        tr_s, sum_s, 2, 1, blocks.eps1, blocks.eps2, blocks.gam1, blocks.gam2,
        theta_hd, -0.3, 0.3, 121, 1e-10,
    )
    assert not boundary[0]
    assert abs(theta_hat[0]) < 1e-4


def test_mle_trials_matches_dense_likelihood():
    # each trial's estimate must equal a bounded scalar search on the dense
    # Gaussian log-likelihood of the same sample second moments
    blocks = blocks_from_params(FsgParams(M=3, n_th=0.5, s=0.6, t=-0.4))
    theta_hd = optimize_homodyne_angle(blocks).theta_star
    gamma = homodyne_cov(blocks, theta_hd)
    chol = np.linalg.cholesky(gamma)
    rng = np.random.default_rng(11)
    n_samples, lo, hi = 200, -0.3, 0.3
    moments = []
    for _ in range(20):
        x = rng.standard_normal((n_samples, blocks.M)) @ chol.T
        moments.append(x.T @ x / n_samples)
    tr_s = np.array([np.trace(S) for S in moments])
    sum_s = np.array([S.sum() for S in moments])
    theta_hat, boundary = kernels.mle_trials(
        tr_s, sum_s, blocks.M, n_samples, blocks.eps1, blocks.eps2, blocks.gam1,
        blocks.gam2, theta_hd, lo, hi, 121, 1e-10,
    )
    assert not boundary.any()

    def neg_ll(th, S):
        G = homodyne_cov(blocks, theta_hd, np.full(blocks.M, th))
        return 0.5 * (np.linalg.slogdet(G)[1] + np.trace(np.linalg.solve(G, S)))

    for k, S in enumerate(moments):
        ref = minimize_scalar(
            neg_ll, bounds=(lo, hi), args=(S,), method="bounded",
            options={"xatol": 1e-11},
        )
        assert theta_hat[k] == pytest.approx(ref.x, abs=1e-6)


def test_qfim_consistency_between_kernel_scan_and_closed_form():
    # the optimizer's chart coefficients on the family states must match
    # qfim_fsg of the blocks built from the same chart coordinates
    m, n_th, n_tot = 5, 1.0, 60.0
    nu = 1.0 + 2.0 * n_th
    ts = np.linspace(-0.5, 0.5, 21)
    s_arr = kernels.family_states(ts, m, squeezed_photons(m, n_th, n_tot))
    a, b = chart_fisher_coeffs(m, nu, s_arr, ts)
    for i, t in enumerate(ts):
        sol = solve_s(m, n_th, n_tot, float(t))
        fim = qfim_fsg(blocks_from_params(FsgParams(M=m, n_th=n_th, s=sol.s, t=float(t))))
        assert a[i] + b[i] == pytest.approx(fim.f11, rel=1e-9)
        assert b[i] == pytest.approx(fim.f12, rel=1e-9)


def test_golden_max_matches_the_scalar_loop():
    # brackets of different widths finish after different step counts, one
    # starts converged, and the last objective is NaN left of 0.65; each
    # bracket must end exactly where the one-bracket loop ends
    centers = np.array([0.3, -1.2, 2.0, 0.0, 5.0, 0.7])
    cuts = np.array([-np.inf] * 5 + [0.65])
    lo = np.array([0.2995, -1.5, 0.5, -5e-12, 4.9, 0.0])
    hi = np.array([0.3004, -0.9, 2.6, 5e-12, 5.3, 1.0])

    def objective(x, c, cut):
        return np.where(x < cut, np.nan, -(x - c) * (x - c))

    x, a, b, its = kernels.golden_max(
        lambda x, rows: objective(x, centers[rows], cuts[rows]), lo, hi, 1e-10
    )
    assert its[3] == 0 and its.max() > its[0] > 0
    for k in range(centers.size):
        ref = scalar_golden_max(
            lambda t: float(objective(t, centers[k], cuts[k])),
            float(lo[k]), float(hi[k]), 1e-10,
        )
        assert (x[k], a[k], b[k], its[k]) == ref
    assert x[5] == pytest.approx(0.7, abs=1e-9)


def test_golden_max_gives_up_after_the_step_limit():
    with pytest.raises(ConvergenceError):
        kernels.golden_max(
            lambda x, rows: -x * x, np.array([-1.0]), np.array([1.0]), -1.0
        )
