import numpy as np
import pytest
from conftest import dense_homodyne_fim, full_z_scan
from scipy.optimize import minimize_scalar

from fsgsense import kernels
from fsgsense.family import FsgParams, budget, solve_s
from fsgsense.homodyne import (
    chart_homodyne_coeffs,
    optimize_homodyne_angle,
    optimize_homodyne_angles,
)
from fsgsense.metrology import chart_fisher_coeffs
from fsgsense.optimize import maximize_privacy, optimize_batch
from fsgsense.reference import blocks_from_params, homodyne_cov, qfim_fsg


@pytest.mark.parametrize(
    "m, n_th, n_tot", [(4, 1.0, 30.0), (2, 0.0, 1.0), (2, 0.5, 40.0), (6, 2.0, 300.0)]
)
def test_solve_s_agrees_on_scalars_and_arrays(m, n_th, n_tot):
    nu, n_eff, t_max = budget(m, n_th, n_tot)
    ts = np.linspace(-t_max, t_max, 41)
    s_arr = solve_s(ts, m, n_eff)
    for i, t in enumerate(ts):
        assert s_arr[i] == pytest.approx(solve_s(float(t), m, n_eff), abs=1e-12)
    # the photon constraint in its covariance form
    photons = nu * (np.cosh(2.0 * s_arr) + (m - 1) * np.cosh(2.0 * ts))
    assert photons == pytest.approx(np.full(ts.size, 2.0 * n_tot + m), rel=1e-12)


def test_chart_homodyne_coeffs_match_dense_fim():
    rng = np.random.default_rng(12)
    for _ in range(60):
        params = FsgParams(
            M=int(rng.integers(2, 9)),
            n_th=float(rng.choice([0.0, 0.5, 1.0, 5.0])),
            s=float(rng.uniform(-3.0, 3.0)),
            t=float(rng.uniform(-3.0, 3.0)),
        )
        theta = float(rng.uniform(0.02, np.pi - 0.02))
        a_ref, b_ref = dense_homodyne_fim(blocks_from_params(params), theta)
        a, b, xi = chart_homodyne_coeffs(
            params.M, params.s, params.t, np.log(abs(np.tan(theta)))
        )
        scale = max(1.0, abs(a_ref) + abs(b_ref))
        assert a == pytest.approx(a_ref, abs=1e-9 * scale)
        assert b == pytest.approx(b_ref, abs=1e-9 * scale)
        assert xi == pytest.approx(params.M * (a + params.M * b), rel=1e-12, abs=1e-300)


def test_angle_search_matches_a_dense_z_grid():
    # the z scan plus bisection against a 20,001-point grid over the
    # whole half-period of the same closed form, at large |s| and |t|
    rng = np.random.default_rng(13)
    states = [
        FsgParams(
            M=int(rng.integers(2, 1001)),
            n_th=0.0,
            s=float(rng.uniform(0.0, 12.0)),
            t=float(rng.uniform(-12.0, 12.0)),
        )
        for _ in range(200)
    ]
    for params, hd in zip(states, optimize_homodyne_angles(states)):
        m, s, t = params.M, params.s, params.t
        zs = np.linspace(min(2 * s, 2 * t) - 5.0, max(2 * s, 2 * t) + 5.0, 20_001)
        brute = float(np.max(chart_homodyne_coeffs(m, s, t, zs)[2]))
        assert hd.xi_hd >= brute * (1.0 - 1e-13)
        assert 0.0 < hd.theta_star < np.pi / 2


def test_z_search_work_per_row_does_not_grow_with_the_budget(monkeypatch):
    # the 1e149 row's window spans about 1,400 z steps; batched with an
    # ordinary row it is still read in two 17-point blocks plus the
    # bisection's slope steps, and no call sees more than 17 z values per row
    states = [maximize_privacy(3, 0.0, n_tot).params for n_tot in (10.0, 1e149)]
    search = kernels.z_search
    per_call = []

    def spy(f, slope, lo, hi):
        def counted(g):
            def call(z):
                per_call.append(np.size(z) // 2)  # every call sees both rows
                return g(z)

            return call

        return search(counted(f), counted(slope), lo, hi)

    monkeypatch.setattr(kernels, "z_search", spy)
    optimize_homodyne_angles(states)
    assert max(per_call) == round(2 * kernels.Z_PAD / kernels.Z_STEP) + 1 == 17
    assert sum(per_call) < 100  # the values of the 1e149 row


def _xi_hd(m, s, t):
    return lambda z: chart_homodyne_coeffs(m, s, t, z)[2]


def _xi_hd_slope(m, s, t):
    """d xi_hd/dz over 4, p^2 and q^2 folded into the sech^2 factors."""

    def slope(z):
        r_s = np.sinh(2.0 * s) * kernels.sech(z - 2.0 * s)
        r_t = np.sinh(2.0 * t) * kernels.sech(z - 2.0 * t)
        return -(r_s * r_s * np.tanh(z - 2.0 * s) + (m - 1.0) * r_t * r_t * np.tanh(z - 2.0 * t))

    return slope


def test_z_search_matches_the_full_scan_bitwise():
    # the two end blocks against every point of each row's window: random
    # states up to |2t| = 350, the tied M = 2 privacy optima, s = t rows and
    # rows without homodyne information
    rng = np.random.default_rng(23)
    random = np.array([
        rng.integers(2, 1001, 300), rng.uniform(0.0, 175.0, 300), rng.uniform(-175.0, 175.0, 300)
    ])
    random[2, :40] = random[1, :40]  # s = t
    points = [(2, n_th, n) for n_th in (0.0, 0.5, 5.0) for n in np.logspace(-3, 60, 40)]
    optima = optimize_batch(
        [p for p in points if p[2] >= 2 * p[1]] + [(2, 0.0, 0.0), (3, 0.5, 1.5)], "privacy"
    )
    chart = np.array([(p.params.M, p.params.s, p.params.t) for p in optima]).T
    m, s, t = np.concatenate([chart, random, [[4.0], [0.0], [0.0]]], axis=1)
    lo, hi = 2.0 * np.minimum(s, t), 2.0 * np.maximum(s, t)
    f, slope = _xi_hd(m, s, t), _xi_hd_slope(m, s, t)
    z, _ = kernels.z_search(f, slope, lo, hi)
    assert np.array_equal(z, full_z_scan(f, slope, lo, hi)[0])
    assert np.count_nonzero(_xi_hd(m, s, t)(z) == 0.0) >= 3
    # mle_trials-shaped scans round one centre z*, some maxima beyond an end
    offset = rng.uniform(-2.5, 2.5, 200)
    centre = rng.uniform(-50.0, 50.0, 200)
    objective = lambda z: kernels.sech(z - centre - offset) ** 2
    slope = lambda z: -np.tanh(z - centre - offset)
    edge = kernels.z_search(objective, slope, centre, centre)[1]
    assert np.array_equal(edge, full_z_scan(objective, slope, centre, centre)[1])
    assert 0 < np.count_nonzero(edge) < edge.size


def _chart_moments(params, theta_hd, S):
    """Common-mode and per-mode rest moments of S in units of the outcome
    covariance's eigenvalues, as mle_trials takes them."""
    gamma = homodyne_cov(blocks_from_params(params), theta_hd)
    m = params.M
    lam_plus = gamma.sum() / m
    lam_minus = (np.trace(gamma) - lam_plus) / (m - 1)
    common = S.sum() / m
    return common / lam_plus, (np.trace(S) - common) / ((m - 1) * lam_minus)


def test_mle_trials_recovers_zero_phase():
    # noiseless moments at phi = 0 must give phi_hat ~ 0
    params = FsgParams(M=2, n_th=0.0, s=0.7, t=-0.7)
    phi_hat, edge = kernels.mle_trials(
        np.ones(1), np.ones(1), 2, params.s, params.t, np.log(np.tan(0.4)),
    )
    assert not edge[0]
    assert abs(phi_hat[0]) < 1e-9


def test_mle_trials_matches_dense_likelihood():
    # each trial's estimate must equal a bounded scalar search on the dense
    # Gaussian log-likelihood of the same sample second moments
    for params in (
        FsgParams(M=3, n_th=0.5, s=0.6, t=-0.4),
        FsgParams(M=5, n_th=1.0, s=0.4, t=0.1),
    ):
        blocks = blocks_from_params(params)
        hd = optimize_homodyne_angle(params)
        theta_hd = hd.theta_star
        gamma = homodyne_cov(blocks, theta_hd)
        chol = np.linalg.cholesky(gamma)
        rng = np.random.default_rng(11)
        n_samples, lo, hi = 200, -0.3, 0.3
        moments = []
        for _ in range(20):
            x = rng.standard_normal((n_samples, blocks.M)) @ chol.T
            moments.append(x.T @ x / n_samples)
        common, rest = np.array([_chart_moments(params, theta_hd, S) for S in moments]).T
        phi_hat, edge = kernels.mle_trials(
            common, rest, params.M, params.s, params.t, hd.z_star
        )
        assert not edge.any()

        def neg_ll(th, S):
            G = homodyne_cov(blocks, theta_hd, np.full(blocks.M, th))
            return 0.5 * (np.linalg.slogdet(G)[1] + np.trace(np.linalg.solve(G, S)))

        for k, S in enumerate(moments):
            ref = minimize_scalar(
                neg_ll, bounds=(lo, hi), args=(S,), method="bounded",
                options={"xatol": 1e-11},
            )
            assert phi_hat[k] == pytest.approx(ref.x, abs=1e-6)


def _spy_on_z_search(monkeypatch):
    """Patch kernels.z_search to record each (objective, slope) pair it is
    given and the shape of each 2-D block of z it evaluates; returns both
    lists."""
    search, objectives, blocks = kernels.z_search, [], []

    def spy(f, slope, lo, hi):
        objectives.append((f, slope))

        def counted(z):
            if np.ndim(z) == 2:
                blocks.append(np.shape(z))
            return f(z)

        return search(counted, slope, lo, hi)

    monkeypatch.setattr(kernels, "z_search", spy)
    return objectives, blocks


def test_mle_trials_scans_one_block_per_trial(monkeypatch):
    # at this z*, (z* - 2) + 4 lands in the next binade and rounds up: a
    # window measured from its ends would span 18 steps and two blocks
    _, blocks = _spy_on_z_search(monkeypatch)
    z_hd = 6.500000000000003
    phi_hat, edge = kernels.mle_trials(np.ones(4), np.ones(4), 3, 3.25, -0.3, z_hd)
    assert blocks == [(17, 4)]
    assert not edge.any() and np.all(np.abs(phi_hat) < 1e-9)


@pytest.mark.parametrize("m", [2, 3, 1000, 10**20])
def test_mle_trials_likelihood_matches_50_digits(monkeypatch, m):
    # the likelihood as mle_trials hands it to z_search, on the whole reach
    # of the search, z* +- (Z_PAD + Z_STEP), where q falls to e^-4.5: charts
    # up to N_eff = 1e150 (|2x| near 347), z* on each peak and between them.
    # log1p amplifies the rounding of z* - 2x (half an ulp, below 2.9e-14
    # while |z* - 2x| < 512) by |q - 1| / q < 90 on the far side.  The
    # slope the bisection reads is d/dz over cosh z* sech^2 z, against
    # d ln q / dz = tanh(z - 2x) - tanh z, within 1e-11 of its terms' scale
    mpmath = pytest.importorskip("mpmath")
    mpf = mpmath.mpf
    objectives, _ = _spy_on_z_search(monkeypatch)
    common, rest = np.array([0.5, 1.0, 1.7]), np.array([0.8, 1.0, 1.3])
    reach = kernels.Z_PAD + kernels.Z_STEP
    optima = optimize_batch([(m, 0.0, n) for n in (1.0, 1e3, 1e40, 1e150)], "privacy")
    for s, t in [(p.params.s, p.params.t) for p in optima]:
        for z_hd in (2.0 * s, 2.0 * t, s + t):
            kernels.mle_trials(common, rest, m, s, t, z_hd)
            zs = z_hd + np.linspace(-reach, reach, 37)
            f, slope = objectives.pop()
            values, slopes = f(zs[:, None]), slope(zs[:, None])

            def ln_q(z, x):  # ln of lambda_x(z) / lambda_x(z*)
                lam = lambda u: mpmath.cosh(u - 2 * mpf(x)) / mpmath.cosh(u)
                return mpmath.log(lam(mpf(z)) / lam(mpf(z_hd)))

            for z, row, slope_row in zip(zs, values, slopes):
                with mpmath.workdps(50):
                    weights = (1 / mpf(m), 1 - 1 / mpf(m))
                    logs = (ln_q(z, s), ln_q(z, t))
                    refs = [float(-sum(
                        w * (lq + rho * mpmath.expm1(-lq))
                        for w, lq, rho in zip(weights, logs, moments)
                    )) for moments in zip(common, rest)]
                    unit = mpmath.cosh(mpf(z_hd)) / mpmath.cosh(mpf(z)) ** 2
                    rates = [(mpmath.tanh(mpf(z) - 2 * mpf(x)) - mpmath.tanh(mpf(z))) / unit
                             for x in (s, t)]
                    slope_refs = [[
                        (w * d * (rho / mpmath.exp(lq) - 1),
                         w * abs(d) * (1 + rho / mpmath.exp(lq)))
                        for w, d, lq, rho in zip(weights, rates, logs, moments)
                    ] for moments in zip(common, rest)]
                for value, ref in zip(row, refs):
                    assert abs(value - ref) <= 3e-12 * max(1.0, abs(ref))
                for value, terms in zip(slope_row, slope_refs):
                    ref, scale = (float(sum(column)) for column in zip(*terms))
                    assert abs(value - ref) <= 1e-11 * scale


def test_chart_fisher_coeffs_match_the_block_form_qfim():
    # the optimizer's chart coefficients on the family states must match
    # qfim_fsg of the blocks built from the same chart coordinates
    m, n_th, n_tot = 5, 1.0, 60.0
    nu = 1.0 + 2.0 * n_th
    ts = np.linspace(-0.5, 0.5, 21)
    s_arr = solve_s(ts, m, budget(m, n_th, n_tot)[1])
    a, b = chart_fisher_coeffs(m, nu, s_arr, ts)
    for i, t in enumerate(ts):
        params = FsgParams(M=m, n_th=n_th, s=float(s_arr[i]), t=float(t))
        fim = qfim_fsg(blocks_from_params(params))
        assert a[i] + b[i] == pytest.approx(fim.f11, rel=1e-9)
        assert b[i] == pytest.approx(fim.f12, rel=1e-9)


def test_bisect_max_halves_each_row_alone_to_adjacent_doubles():
    # brackets of different widths finish after different halving counts,
    # one starts converged (adjacent doubles), and the last slope is NaN
    # left of 0.65, which counts as positive; each row must end within an
    # ulp of its root, exactly where it ends alone, and the slope must see
    # one point per row at every call
    centres = np.array([0.3, -1.2, 2.0, 1.0, 5.0, 0.7])
    cuts = np.array([-np.inf] * 5 + [0.65])
    lo = np.array([0.2995, -1.5, 0.5, 1.0, 4.9, 0.0])
    hi = np.array([0.3004, -0.9, 2.6, np.nextafter(1.0, 2.0), 1e3, 1.0])
    shapes = []

    def slope(x, c=centres, cut=cuts):
        shapes.append(np.shape(x))
        return np.where(x < cut, np.nan, c - x)  # of -(x - c)^2 / 2

    x, halvings = kernels.bisect_max(slope, lo, hi)
    assert set(shapes) == {(6,)} and len(shapes) == halvings.max()
    assert halvings[3] == 0 and halvings.max() > halvings[0] > 0
    assert np.all(np.abs(x - centres) <= np.abs(np.spacing(centres)))
    for k in range(centres.size):
        alone = kernels.bisect_max(
            lambda t: slope(t, centres[k], cuts[k]), lo[k : k + 1], hi[k : k + 1]
        )
        assert (alone[0][0], alone[1][0]) == (x[k], halvings[k])
