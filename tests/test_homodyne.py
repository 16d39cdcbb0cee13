import mpmath
import numpy as np
import pytest
from conftest import dense_homodyne_fim, dense_sufficient_stats
from hypothesis import given, settings
from hypothesis import strategies as st

from fsgsense import homodyne
from fsgsense.errors import DomainError, NumericalError
from fsgsense.family import FsgParams, budget
from fsgsense import kernels
from fsgsense.homodyne import (
    McConfig,
    chart_homodyne_coeffs,
    homodyne_fim,
    mc_estimate,
    optimize_homodyne_angle,
    optimize_homodyne_angles,
)
from fsgsense.metrology import one_minus_privacy_from_ab
from fsgsense.optimize import maximize_privacy, optimize_batch
from fsgsense.reference import (
    blocks_from_params,
    homodyne_cov,
    homodyne_cov_derivatives,
    params_from_blocks,
    tmsv_blocks,
)
from fsgsense.symplectic import assemble_covariance, phase_rotation, physicality_check


TMSV = params_from_blocks(tmsv_blocks(1.0))
VACUUM = FsgParams(M=2, n_th=0.0, s=0.0, t=0.0)


def random_params(rng):
    return FsgParams(
        M=int(rng.integers(2, 7)),
        n_th=float(rng.uniform(0.0, 3.0)),
        s=float(rng.uniform(-1.2, 1.2)),
        t=float(rng.uniform(-1.2, 1.2)),
    )


def random_blocks(rng):
    return blocks_from_params(random_params(rng))


def quadrature_projection_cov(blocks, theta_hd, thetas):
    """Oracle: rotate the full covariance and project each node onto x."""
    m = blocks.M
    state = assemble_covariance(blocks)
    rot = phase_rotation(np.full(m, theta_hd) + thetas)
    V = rot @ state.V @ rot.T
    idx = np.arange(0, 2 * m, 2)
    return V[np.ix_(idx, idx)]


def test_homodyne_cov_matches_projection_oracle(rng):
    for _ in range(25):
        blocks = random_blocks(rng)
        theta_hd = float(rng.uniform(0.0, np.pi))
        thetas = rng.uniform(-0.5, 0.5, size=blocks.M)
        gamma = homodyne_cov(blocks, theta_hd, thetas)
        oracle = quadrature_projection_cov(blocks, theta_hd, thetas)
        assert np.allclose(gamma, oracle, rtol=1e-12, atol=1e-12)


def test_homodyne_cov_rejects_wrong_prior_shape():
    with pytest.raises(DomainError):
        homodyne_cov(tmsv_blocks(1.0), 0.3, np.zeros(3))


def test_derivatives_match_central_differences(rng):
    h = 1e-5
    for _ in range(25):
        blocks = random_blocks(rng)
        theta_hd = float(rng.uniform(0.0, np.pi))
        derivs = homodyne_cov_derivatives(blocks, theta_hd)
        for j in range(blocks.M):
            bump = np.zeros(blocks.M)
            bump[j] = h
            fd = (
                homodyne_cov(blocks, theta_hd, bump)
                - homodyne_cov(blocks, theta_hd, -bump)
            ) / (2.0 * h)
            scale = max(1.0, float(np.max(np.abs(fd))))
            assert np.allclose(derivs[j], fd, rtol=0.0, atol=1e-6 * scale)


def test_fim_structure_and_kernel_parity(rng):
    for _ in range(25):
        params = random_params(rng)
        theta = float(rng.uniform(0.05, np.pi - 0.05))
        fim = homodyne_fim(params, theta)
        a, b = dense_homodyne_fim(blocks_from_params(params), theta)
        scale = max(1.0, abs(a) + abs(b))
        assert fim.a == pytest.approx(a, abs=1e-9 * scale)
        assert fim.b == pytest.approx(b, abs=1e-9 * scale)


def test_near_singular_covariance_in_the_dense_oracle_and_the_chart():
    # pure squeezed nodes whose x-quadrature variance is ~1e-11: at
    # theta_hd = 0 the dense homodyne covariance is numerically singular,
    # while the chart's normal-mode variances stay positive at every angle
    params = FsgParams(M=2, n_th=0.0, s=0.5 * np.log(1e-11), t=0.5 * np.log(1e-11))
    blocks = blocks_from_params(params)
    assert blocks.eps1 == pytest.approx(1e-11, rel=1e-12)
    assert blocks.gam1 == blocks.gam2 == 0.0
    assert physicality_check(assemble_covariance(blocks)).physical
    with pytest.raises(NumericalError):
        homodyne_cov(blocks, 0.0)
    # theta_hd = 0 reads no phase; the peak sits at z = 2s, theta = 1e-11,
    # where each node gives 2 sinh^2 2s
    fim = homodyne_fim(params, 0.0)
    assert (fim.a, fim.b) == (0.0, 0.0)
    hd = optimize_homodyne_angle(params)
    assert hd.theta_star == pytest.approx(1e-11, rel=1e-9)
    assert hd.xi_hd == pytest.approx(4.0 * np.sinh(2.0 * params.s) ** 2, rel=1e-12)
    assert hd.fim.b == pytest.approx(0.0, abs=1e-12 * hd.fim.a)


@pytest.mark.parametrize("theta", [0.0, np.pi / 2])
def test_fim_is_finite_where_z_is_infinite(theta):
    # z = ln|tan theta| is -inf at 0 and about 37 at the float nearest pi/2
    for params in (TMSV, FsgParams(M=5, n_th=1.0, s=3.0, t=-2.0)):
        fim = homodyne_fim(params, theta)
        assert np.isfinite([fim.a, fim.b]).all()
        assert fim.a + params.M * fim.b <= 1e-20
    for z in (-np.inf, np.inf):
        assert chart_homodyne_coeffs(5, 3.0, -2.0, z) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("z", [-np.inf, np.inf])
def test_mc_at_an_infinite_angle_raises(z):
    # the chart's xi_hd is 0 at z = +-inf, so the Cramer-Rao bound is
    # undefined; the CLI never gets here, as its angle search raises first
    with pytest.raises(NumericalError, match="homodyne Fisher information vanishes at this angle"):
        mc_estimate(FsgParams(3, 0.0, 1.0, -0.3), z, McConfig(100, 10, 1))


def test_fim_never_exceeds_quantum_limit(rng):
    from fsgsense.reference import qfim_fsg

    for _ in range(25):
        params = random_params(rng)
        theta = float(rng.uniform(0.0, np.pi))
        hd = homodyne_fim(params, theta)
        q = qfim_fsg(blocks_from_params(params))
        gap = np.linalg.eigvalsh(q.dense() - hd.dense())
        assert gap[0] >= -1e-8 * max(1.0, abs(gap[-1]))


def test_tmsv_angle_optimization_anchor():
    hd = optimize_homodyne_angle(TMSV)
    assert hd.xi_hd == pytest.approx(6.125, rel=1e-9)
    assert np.cos(2.0 * hd.theta_star) ** 2 == pytest.approx(20.0 / 27.0, abs=0.01)
    # homodyne keeps just over half of the collective precision 12
    assert hd.xi_hd / 12.0 == pytest.approx(0.5104, abs=1e-3)


def test_angle_optimization_degenerate_on_vacuum_like_state():
    with pytest.raises(NumericalError, match="vanishes for every angle"):
        optimize_homodyne_angle(VACUUM)


def test_angle_is_reported_in_the_first_quadrant(rng):
    # Gamma(pi - theta) = Gamma(theta) and F is quadratic in sin(2 theta),
    # so theta and pi - theta are equally good; the smaller one is reported
    states = [random_params(rng) for _ in range(12)] + [TMSV]
    batch = optimize_homodyne_angles(states)
    for params, hd in zip(states, batch):
        assert 0.0 <= hd.theta_star <= np.pi / 2
        assert hd == optimize_homodyne_angle(params)
        for theta in (hd.theta_star, float(rng.uniform(0.05, np.pi / 2 - 0.05))):
            near, far = homodyne_fim(params, theta), homodyne_fim(params, np.pi - theta)
            scale = max(1.0, abs(near.a) + abs(near.b))
            assert far.a == pytest.approx(near.a, abs=1e-12 * scale)
            assert far.b == pytest.approx(near.b, abs=1e-12 * scale)


def test_angle_batch_leaves_degenerate_states_empty():
    none, hd = optimize_homodyne_angles([VACUUM, TMSV])
    assert none is None
    assert hd == optimize_homodyne_angle(TMSV)
    assert optimize_homodyne_angles([]) == []


def test_precision_ratio_anchors():
    def ratio(M, n_th, N_tot):
        best = maximize_privacy(M, n_th, N_tot)
        return optimize_homodyne_angle(best.params).xi_hd / best.xi

    assert ratio(2, 0.0, 10.0) == pytest.approx(0.5, abs=0.05)
    assert ratio(4, 0.0, 100.0) > 0.99


def _leakage(rows, objective):
    """(1 - P_hd, 1 - P) of each row's optimum, homodyne at its best angle."""
    optima = optimize_batch(rows, objective)
    angles = optimize_homodyne_angles([r.params for r in optima])
    hd = [
        one_minus_privacy_from_ab(h.fim.a, h.fim.b, r.params.M)
        for r, h in zip(optima, angles)
    ]
    return np.array(hd), np.array([r.one_minus_privacy for r in optima])


def test_homodyne_leakage_at_the_precision_optimum():
    # at t = 0, r_t = 0, so xi_hd peaks at z* = 2s, where 1 - P_hd =
    # (M-1) sech 2s / ((M-1) sech 2s + 2) = (M-1) / (M + 1 + 4 N_eff): half
    # the QFIM's (M-1) / (M + 1 + 2 N_eff) as N_eff grows.  z* is found to
    # about sqrt(eps) on the flat maximum, which moves sech z* by as much
    rows = [
        (m, n_th, m * n_th + (1.0 + 2.0 * n_th) * n_eff)
        for m in (2, 3, 10, 1000, 10**6)
        for n_th in (0.0, 1.0, 5.0)
        for n_eff in np.logspace(0, 140, 29)
    ]
    hd, qfim = _leakage(rows, "precision")
    m = np.array([row[0] for row in rows], dtype=float)
    n_eff = np.array([budget(*row)[1] for row in rows])
    assert hd == pytest.approx((m - 1.0) / (m + 1.0 + 4.0 * n_eff), rel=1e-7)
    assert qfim == pytest.approx((m - 1.0) / (m + 1.0 + 2.0 * n_eff), rel=1e-12)


def test_homodyne_leakage_at_the_privacy_optimum_is_a_third_of_the_qfim():
    # at z* = 2s homodyne sees the t modes through sech(2s - 2t) ~ 2 e^{2t-2s}:
    # 1 - P_hd ~ (M-1) e^{2t-2s}, half the first term of the QFIM's
    # 1 - P ~ (M-1) [2 e^{2t-2s} + (M-2) e^{-4t-4s}], and that term is 2/3
    # of 1 - P* at t*
    hd, qfim = _leakage([(m, 0.0, 1e12) for m in (3, 10, 1000)], "privacy")
    assert hd / qfim == pytest.approx(np.full(3, 1.0 / 3.0), abs=1e-6)


@pytest.mark.parametrize("objective", ["precision", "privacy"])
def test_homodyne_leakage_at_the_optimized_angle_matches_the_dense_fim(objective):
    # the dense FIM holds the bound up to N = 3e7, the largest N here; at
    # N = 1e8 eps1 - gam1 of the M = 2 privacy optimum rounds to 0, and
    # FsgBlocks rejects its reference blocks
    rows = [
        (m, n_th, n_tot)
        for m in range(2, 9)
        for n_th in (0.0, 1.0)
        for n_tot in (0.5, 3.0, 30.0, 300.0, 1000.0, 3e3, 1e4, 1e6, 3e7)
        if n_tot > m * n_th
    ]
    optima = optimize_batch(rows, objective)
    for r, hd in zip(optima, optimize_homodyne_angles([r.params for r in optima])):
        m = r.params.M
        a, b = dense_homodyne_fim(blocks_from_params(r.params), hd.theta_star)
        chart = one_minus_privacy_from_ab(hd.fim.a, hd.fim.b, m)
        assert chart == pytest.approx(one_minus_privacy_from_ab(a, b, m), abs=1e-12)


@pytest.mark.parametrize(
    "m, n_tot",
    [(2, 10.0), (2, 1e3), (2, 1e140), (3, 10.0), (3, 1e6), (10, 1e3), (10, 1e140)],
)
def test_homodyne_leakage_at_the_privacy_optimum_matches_mpmath(m, n_tot):
    # near t = -s, at the M = 2 optima, sinh 2s + sinh 2t cancels in
    # floating point (up to 4e-4 relative in 1 - P_hd); the oracle takes
    # the plain sum with enough digits to absorb that
    params = maximize_privacy(m, 0.0, n_tot).params
    hd = optimize_homodyne_angle(params)
    with mpmath.workdps(400):
        s, t, z = (mpmath.mpf(x) for x in (params.s, params.t, hd.z_star))
        sech_s, sech_t = mpmath.sech(z - 2 * s), mpmath.sech(z - 2 * t)
        r_s, r_t = 2 * mpmath.sinh(2 * s) * sech_s, 2 * mpmath.sinh(2 * t) * sech_t
        xi = ((m - 1) * r_t**2 + r_s**2) / 2
        a = (mpmath.sinh(2 * s) + mpmath.sinh(2 * t)) ** 2 * sech_s * sech_t / m
        a += (m - 2) * r_t**2 / (2 * m)
        b = (xi / m - a) / m
        exact = float((m - 1) * a / (m * (a + b)))
    got = one_minus_privacy_from_ab(hd.fim.a, hd.fim.b, m)
    assert got == pytest.approx(exact, rel=1e-13, abs=0.0)


# ------------------------------------------------------------- Monte Carlo


def test_mc_config_validation():
    with pytest.raises(DomainError):
        McConfig(n_samples=1, trials=10, seed=0)
    with pytest.raises(DomainError):
        McConfig(n_samples=10, trials=1, seed=0)
    with pytest.raises(DomainError):
        McConfig(n_samples=10, trials=10, seed=-1)


def test_mc_is_reproducible():
    hd = optimize_homodyne_angle(TMSV)
    cfg = McConfig(n_samples=500, trials=40, seed=11)
    a = mc_estimate(TMSV, hd.z_star, cfg)
    b = mc_estimate(TMSV, hd.z_star, cfg)
    assert a == b
    c = mc_estimate(TMSV, hd.z_star, McConfig(n_samples=500, trials=40, seed=12))
    assert c.empirical_var != a.empirical_var


def test_mc_variance_tracks_the_bound():
    hd = optimize_homodyne_angle(TMSV)
    report = mc_estimate(TMSV, hd.z_star, McConfig(n_samples=2000, trials=150, seed=3))
    assert report.xi_hd == pytest.approx(6.125, rel=1e-9)
    assert report.crb == pytest.approx(1.0 / (2000 * 6.125), rel=1e-9)
    assert 0.8 < report.ratio < 1.25
    assert report.ci95[0] < report.empirical_var < report.ci95[1]
    # the interval is the chi-square one, computed without scipy.stats
    from scipy import stats

    var = report.empirical_var
    for bound, p in zip(report.ci95, (0.975, 0.025)):
        assert bound == pytest.approx(149 * var / stats.chi2.ppf(p, 149), rel=1e-15)


_CHI2_DOFS = sorted(
    set(range(1, 201)) | {int(d) for d in np.round(np.logspace(np.log10(200), 6, 40))}
)


def test_chi2_quantile_matches_forty_digits():
    with mpmath.workdps(40):
        for dof in _CHI2_DOFS:
            a = mpmath.mpf(dof) / 2
            for p in (0.025, 0.975):
                q = homodyne._chi2_quantile(p, dof)
                exact = mpmath.findroot(
                    lambda x: mpmath.gammainc(a, 0, x / 2, regularized=True) - p,
                    mpmath.mpf(q),
                )
                assert abs(q / exact - 1) <= 1e-15, (dof, p)


def test_chi2_quantile_raises_instead_of_returning_an_unconverged_value(monkeypatch):
    monkeypatch.setattr(homodyne, "_CHI2_MAX_ITER", 1)
    for dof in (1, 149):
        with pytest.raises(NumericalError, match="chi-square quantile did not converge"):
            homodyne._chi2_quantile(0.025, dof)


@pytest.mark.parametrize("side", [1.0, -1.0])
def test_mc_bracket_stops_at_the_reflection_point(side):
    # G(theta_hd + phi) is even about phi = pi/2 - theta_hd, 0.0303 away
    # here; a +-0.3 bracket in phi held a mirror minimum at 2 x 0.0303 from
    # the true one.  The likelihood is now searched in z, whose line holds
    # no mirror image, so the +-1 cases only check that ln|tan theta| folds
    # both sides of pi/2 into one z; the mc run is one computation in both.
    params = maximize_privacy(5, 1.0, 30.0).params
    hd = optimize_homodyne_angle(params)
    assert np.pi / 2 - hd.theta_star == pytest.approx(0.0303, abs=1e-4)
    theta_hd = np.pi / 2 + side * (np.pi / 2 - hd.theta_star)
    z = np.log(abs(np.tan(theta_hd)))
    assert z == pytest.approx(hd.z_star, rel=1e-12)
    report = mc_estimate(params, z, McConfig(n_samples=5000, trials=200, seed=2))
    from scipy import stats

    lo, hi = stats.chi2.ppf([1e-6, 1.0 - 1e-6], 199) / 199
    assert lo < report.ratio < hi
    assert report.ci95[0] <= report.crb <= report.ci95[1]


def _mc_ratio(m, n_th, n_eff):
    params = maximize_privacy(m, n_th, (1.0 + 2.0 * n_th) * n_eff + m * n_th).params
    hd = optimize_homodyne_angle(params)
    return mc_estimate(params, hd.z_star, McConfig(n_samples=1000, trials=200, seed=1)).ratio


@given(
    m=st.sampled_from([3, 10]),
    n_th=st.sampled_from([0.0, 1.0]),
    log_n_eff=st.floats(min_value=4.0, max_value=149.0),
)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_mc_ratio_does_not_move_with_the_budget(m, n_th, log_n_eff):
    # the draws depend on (samples, M, seed) alone, the likelihood in z is
    # scale-free, and nu drops out: the same draws give the same var/CRB
    # at every budget, however close theta_hd is to pi/2
    ratio = _mc_ratio(m, n_th, 10.0**log_n_eff)
    assert ratio == pytest.approx(_mc_ratio(m, 0.0, 1e4), rel=1e-6)


def _sampled_stats(monkeypatch, params, theta_hd, mc):
    """The (tr S, 1^T S 1) of the moments mc_estimate hands to the likelihood.

    mle_trials receives the common-mode and per-mode rest moments in units
    of their variances; the dense covariance's eigenvalues restore S.
    """
    seen = []

    def spy(common, rest, *args):
        seen.append((common, rest))
        return np.zeros_like(common), np.zeros(common.shape, dtype=bool)

    monkeypatch.setattr(kernels, "mle_trials", spy)
    mc_estimate(params, np.log(abs(np.tan(theta_hd))), mc)
    common, rest = seen[0]
    m = params.M
    gamma = homodyne_cov(blocks_from_params(params), theta_hd)
    lam_plus = gamma.sum() / m
    lam_minus = (np.trace(gamma) - lam_plus) / (m - 1)
    return lam_plus * common + (m - 1) * lam_minus * rest, m * lam_plus * common


@pytest.mark.parametrize(
    "params, theta_hd",
    [
        (TMSV, 0.3),
        (FsgParams(M=2, n_th=1.0, s=0.4, t=-0.2), 1.1),
        (maximize_privacy(5, 1.0, 20.0).params, 0.7),
        (FsgParams(M=5, n_th=0.0, s=0.6, t=0.3), 2.0),
    ],
    ids=["M2-pure", "M2-thermal", "M5-thermal", "M5-pure"],
)
def test_mc_sampler_matches_dense_sampler(monkeypatch, params, theta_hd):
    n = 20
    blocks = blocks_from_params(params)
    tr_new, sum_new = _sampled_stats(
        monkeypatch, params, theta_hd, McConfig(n_samples=n, trials=20_000, seed=5)
    )
    tr_old, sum_old = dense_sufficient_stats(blocks, theta_hd, n, 3_000, seed=5)
    # exact moments from the dense covariance: the common mode 1/sqrt(M)
    # has eigenvalue 1^T G 1 / M, the other M - 1 modes share the rest
    m = blocks.M
    gamma = homodyne_cov(blocks, theta_hd)
    lam_plus = gamma.sum() / m
    lam_minus = (np.trace(gamma) - lam_plus) / (m - 1)
    var_tr = 2.0 * (lam_plus**2 + (m - 1) * lam_minus**2) / n
    var_sum = 2.0 * m**2 * lam_plus**2 / n
    # both statistics share the common-mode draw: Cov = 2 M lam_plus^2 / n
    var_both = var_tr + var_sum + 4.0 * m * lam_plus**2 / n
    exact = {
        "tr S": (np.trace(gamma), var_tr),
        "1^T S 1": (m * lam_plus, var_sum),
        "tr S + 1^T S 1": (np.trace(gamma) + m * lam_plus, var_both),
    }
    k = 5.0  # standard errors; the draws are seeded, so this never flakes

    def moments(x):
        """Sample mean and variance with their standard errors."""
        dev = x - x.mean()
        var = np.mean(dev**2)
        return x.mean(), var, np.sqrt(var / len(x)), np.std(dev**2) / np.sqrt(len(x))

    pairs = (
        ("tr S", tr_new, tr_old),
        ("1^T S 1", sum_new, sum_old),
        ("tr S + 1^T S 1", tr_new + sum_new, tr_old + sum_old),
    )
    for name, new, old in pairs:
        mean, var = exact[name]
        mn, vn, se_mn, se_vn = moments(new)
        mo, vo, se_mo, se_vo = moments(old)
        assert abs(mn - mo) <= k * np.hypot(se_mn, se_mo), name
        assert abs(vn - vo) <= k * np.hypot(se_vn, se_vo), name
        for m_hat, v_hat, se_m, se_v in ((mn, vn, se_mn, se_vn), (mo, vo, se_mo, se_vo)):
            assert abs(m_hat - mean) <= k * se_m, name
            assert abs(v_hat - var) <= k * se_v, name
