import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fsgsense.errors import DomainError, NumericalError
from fsgsense.family import FsgParams, budget, solve_s
from fsgsense.metrology import (
    StructuredFim,
    chart_fisher_coeffs,
    one_minus_privacy_from_ab,
    xi_from_ab,
)
from fsgsense.reference import (
    WeightVector,
    blocks_from_params,
    closed_form_privacy_of_optimum,
    fim_inverse,
    mean_weights,
    optimal_precision_blocks,
    precision,
    privacy,
    qfim_fsg,
    qfim_fsg_numeric,
    tmsv_blocks,
    weight_matrix_spectrum,
)
from fsgsense.symplectic import assemble_covariance


def random_weights(rng, m):
    raw = rng.uniform(0.2, 1.0, size=m)
    return WeightVector(raw / raw.sum())


# ---------------------------------------------------------------- structure


def test_structured_fim_dense_and_views():
    fim = StructuredFim(M=3, a=2.0, b=0.5)
    dense = fim.dense()
    assert np.allclose(dense, 2.0 * np.eye(3) + 0.5)
    assert fim.f11 == 2.5
    assert fim.f12 == 0.5


def test_structured_fim_rejects_indefinite():
    with pytest.raises(DomainError):
        StructuredFim(M=3, a=-1.0, b=0.1)
    with pytest.raises(DomainError):
        StructuredFim(M=3, a=0.1, b=-1.0)


def test_weight_vector_validation():
    with pytest.raises(DomainError):
        WeightVector(np.array([0.5, -0.1, 0.6]))
    with pytest.raises(DomainError):
        WeightVector(np.array([0.5, 0.6]))
    w = mean_weights(4)
    assert w.is_mean
    assert w.norm2_sq == pytest.approx(0.25)


# ------------------------------------------------------------------- QFIM


def test_qfim_closed_form_pure_anchor():
    # precision-optimal two-node state at unit budget
    fim = qfim_fsg(optimal_precision_blocks(2, 1.0))
    assert fim.f11 == pytest.approx(5.0, rel=1e-12)
    assert fim.f12 == pytest.approx(3.0, rel=1e-12)


def test_qfim_closed_form_tmsv_is_rank_one():
    fim = qfim_fsg(tmsv_blocks(1.0))
    assert fim.a == 0.0
    assert fim.b == pytest.approx(3.0, rel=1e-12)


def test_qfim_matches_numeric_oracle(rng):
    for n_th in (0.0, 1.0, 5.0):
        for _ in range(25):
            params = FsgParams(
                M=int(rng.integers(2, 7)),
                n_th=n_th,
                s=float(rng.uniform(-1.2, 1.2)),
                t=float(rng.uniform(-1.2, 1.2)),
            )
            blocks = blocks_from_params(params)
            fim = qfim_fsg(blocks)
            oracle = qfim_fsg_numeric(assemble_covariance(blocks))
            scale = max(1.0, float(np.max(np.abs(oracle))))
            assert np.allclose(fim.dense(), oracle, rtol=0.0, atol=1e-6 * scale)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_chart_closed_form_matches_numeric_oracle_on_the_figure_grid(m):
    # the figures' (n_th, N) grid, at t = -t_max/2, 0 and t_max/3
    for n_th in (0.0, 1.0, 5.0):
        nu = 1.0 + 2.0 * n_th
        for n_tot in np.geomspace(1.0, 1000.0, 25):
            if n_tot < m * n_th:
                continue
            t_max = budget(m, n_th, n_tot)[2]
            for t in (-0.5 * t_max, 0.0, t_max / 3.0):
                s = solve_s(t, m, budget(m, n_th, n_tot)[1])
                a, b = chart_fisher_coeffs(m, nu, s, t)
                state = assemble_covariance(blocks_from_params(FsgParams(m, n_th, s, t)))
                # mixed states need a finer cutoff: their kernel is full rank
                oracle = qfim_fsg_numeric(state, rcond=1e-10 if n_th == 0.0 else 1e-14)
                scale = max(1.0, float(np.max(np.abs(oracle))))
                err = np.max(np.abs(StructuredFim(m, a, b).dense() - oracle))
                assert err <= 1e-6 * scale, (m, n_th, n_tot, t)


@given(
    m=st.integers(min_value=2, max_value=1000),
    n_th=st.floats(min_value=0.0, max_value=10.0),
    n_tot=st.floats(min_value=0.0, max_value=1e8),
    u=st.floats(min_value=-1.0, max_value=1.0),
)
@settings(max_examples=300, deadline=None)
def test_chart_closed_form_is_finite_bounded_and_factorizes(m, n_th, n_tot, u):
    assume(n_tot >= m * n_th)
    nu = 1.0 + 2.0 * n_th
    t = u * budget(m, n_th, n_tot)[2]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = solve_s(t, m, budget(m, n_th, n_tot)[1])
        a, b = chart_fisher_coeffs(m, nu, s, t)
        xi = xi_from_ab(a, b, m)
        omp = one_minus_privacy_from_ab(a, b, m)
        a0, b0 = chart_fisher_coeffs(m, 1.0, s, t)
    assert np.isfinite([a, b, xi]).all() and a >= 0.0 and b >= 0.0
    # values below ~1e-300 pass through subnormal numbers, which carry
    # fewer digits; they get an absolute slack of that size
    tiny = 1e-300
    assert xi <= 8.0 * n_tot * (n_tot + 1.0) * (1.0 + 1e-12) + tiny
    if a + b > 0.0:
        assert 0.0 <= omp <= 1.0
    else:
        assert np.isnan(omp)
    # F(M, n_th, N; t) = k(nu) F(M, 0, N_eff; t): s solves both the thermal
    # constraint at N and the pure one at N_eff = ((2N + M)/nu - M)/2
    n_eff = 0.5 * ((2.0 * n_tot + m) / nu - m)
    k = 2.0 * nu * nu / (1.0 + nu * nu)
    cosh_sum = np.cosh(2.0 * s) + (m - 1) * np.cosh(2.0 * t)
    assert nu * cosh_sum == pytest.approx(2.0 * n_tot + m, rel=1e-12)
    assert cosh_sum == pytest.approx(2.0 * n_eff + m, rel=1e-12)
    scale = 1e-12 * (a + m * b) + tiny
    assert abs(a - k * a0) <= scale and abs(b - k * b0) <= scale


def test_qfim_rejects_non_isothermal():
    from fsgsense.reference import FsgBlocks

    # a squeezed-vacuum pair with unequal symplectic eigenvalues
    blocks = FsgBlocks(M=2, eps1=3.0, eps2=1.0, gam1=0.5, gam2=0.1)
    with pytest.raises(DomainError):
        qfim_fsg(blocks)


# ----------------------------------------------------------------- inverse


def test_structured_inverse_matches_dense(rng):
    for _ in range(100):
        m = int(rng.integers(2, 7))
        a = float(rng.uniform(0.1, 5.0))
        b = float(rng.uniform(-a / (m + 0.5), 5.0))
        fim = StructuredFim(M=m, a=a, b=b)
        inv = fim_inverse(fim)
        assert inv.kind == "regular"
        dense = np.linalg.inv(fim.dense())
        assert np.allclose(inv.dense(), dense, rtol=1e-9, atol=1e-12)


def test_rank_one_pseudo_inverse(rng):
    for _ in range(20):
        m = int(rng.integers(2, 7))
        b = float(rng.uniform(0.1, 5.0))
        fim = StructuredFim(M=m, a=0.0, b=b)
        inv = fim_inverse(fim)
        assert inv.kind == "pseudo"
        pinv = np.linalg.pinv(fim.dense())
        assert np.allclose(inv.dense(), pinv, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: fim_inverse(StructuredFim(M=2, a=0.0, b=0.0)),
         "Fisher matrix numerically zero"),
        (lambda: precision(StructuredFim(3, 0.0, 0.0), mean_weights(3)),
         "Fisher matrix numerically zero"),
        (lambda: fim_inverse(StructuredFim(3, 1.0, -1.0 / 3.0)),
         "rank-deficient along 1"),
    ],
    ids=["inverse_zero", "mean_precision_zero", "inverse_rank_deficient"],
)
def test_zero_fim_raises(call, message):
    with pytest.raises(NumericalError, match=message):
        call()


# --------------------------------------------------------------- precision


def test_precision_identity_for_mean_weights(rng):
    for _ in range(50):
        m = int(rng.integers(2, 7))
        a = float(rng.uniform(0.1, 5.0))
        b = float(rng.uniform(0.0, 5.0))
        fim = StructuredFim(M=m, a=a, b=b)
        w = mean_weights(m)
        brute = 1.0 / float(w.w @ np.linalg.inv(fim.dense()) @ w.w)
        assert precision(fim, w) == pytest.approx(brute, rel=1e-12)


def test_precision_general_weights_match_dense(rng):
    for _ in range(50):
        m = int(rng.integers(2, 7))
        a = float(rng.uniform(0.1, 5.0))
        b = float(rng.uniform(0.0, 5.0))
        fim = StructuredFim(M=m, a=a, b=b)
        w = random_weights(rng, m)
        brute = 1.0 / float(w.w @ np.linalg.inv(fim.dense()) @ w.w)
        assert precision(fim, w) == pytest.approx(brute, rel=1e-10)


def test_precision_rank_one_requires_uniform_direction():
    fim = StructuredFim(M=3, a=0.0, b=2.0)
    assert precision(fim, mean_weights(3)) == pytest.approx(18.0)
    skew = WeightVector(np.array([0.5, 0.25, 0.25]))
    with pytest.raises(NumericalError, match="leaves the range of a rank-one"):
        precision(fim, skew)


def test_tmsv_precision_closed_form():
    for n in (0.5, 1.0, 10.0, 100.0):
        fim = qfim_fsg(tmsv_blocks(n))
        xi = precision(fim, mean_weights(2))
        assert xi == pytest.approx(4.0 * n * (n + 2.0), rel=1e-10)


# ----------------------------------------------------------------- privacy


def test_privacy_structured_vs_dense(rng):
    for _ in range(50):
        m = int(rng.integers(2, 7))
        a = float(rng.uniform(0.0, 5.0))
        b = float(rng.uniform(0.1, 5.0))
        fim = StructuredFim(M=m, a=a, b=b)
        w = random_weights(rng, m)
        dense = fim.dense()
        dense_val = w.w @ dense @ w.w / (w.norm2_sq * np.trace(dense))
        assert privacy(fim, w) == pytest.approx(dense_val, rel=1e-12)


def test_privacy_perfect_for_rank_one_uniform():
    fim = StructuredFim(M=2, a=0.0, b=3.0)
    assert privacy(fim, mean_weights(2)) == pytest.approx(1.0, abs=1e-15)


def test_privacy_undefined_on_zero_trace():
    with pytest.raises(NumericalError, match="privacy undefined"):
        privacy(StructuredFim(M=2, a=0.0, b=0.0), mean_weights(2))


@given(
    m=st.one_of(
        st.integers(min_value=2, max_value=2**53),
        st.floats(min_value=2.0, max_value=1e150),
    )
)
@settings(max_examples=500, deadline=None)
def test_m_times_its_reciprocal_never_rounds_above_one(m):
    # one_minus_privacy_from_ab drops the (M n2 - 1) b term of 1 - P at
    # n2 = 1/M, which is 0 as long as fl(M fl(1/M)) <= 1
    assert m * (1.0 / m) <= 1.0


@pytest.mark.parametrize("m", [2, 3, 49, 10**6, 1e20])
@given(
    b=st.floats(min_value=1e-100, max_value=1e100),
    ratio=st.floats(min_value=1e-30, max_value=1e-3),
)
@settings(max_examples=100, deadline=None)
def test_one_minus_privacy_matches_mpmath_when_b_dominates(m, b, ratio):
    # at M = 49, fl(M fl(1/M)) is 1 - 2^-53, so n2 does not divide out exactly
    a = b * ratio
    with mpmath.workdps(50):
        exact = (mpmath.mpf(m) - 1) * a / (mpmath.mpf(m) * (mpmath.mpf(a) + b))
    got = one_minus_privacy_from_ab(a, b, m)
    assert abs(got - float(exact)) <= 1e-15 * float(exact)


def test_privacy_of_precision_optimum_closed_form():
    for m in (2, 3, 6):
        for n in (0.5, 1.0, 10.0):
            fim = qfim_fsg(optimal_precision_blocks(m, n))
            p = privacy(fim, mean_weights(m))
            assert p == pytest.approx(closed_form_privacy_of_optimum(m, n), abs=1e-12)


def test_precision_report_rank_one():
    fim = qfim_fsg(tmsv_blocks(1.0))
    assert precision(fim, mean_weights(2)) == pytest.approx(12.0, rel=1e-12)
    assert privacy(fim, mean_weights(2)) == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------ weight matrix


def test_weight_matrix_spectrum(rng):
    for _ in range(30):
        m = int(rng.integers(2, 8))
        w = random_weights(rng, m)
        spec = weight_matrix_spectrum(w)
        assert spec.principal == pytest.approx(w.norm2_sq, abs=1e-12)
        assert spec.nulls == m - 1
