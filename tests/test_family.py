import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsgsense import kernels
from fsgsense.errors import DomainError, InfeasibleError
from fsgsense.family import (
    FsgParams,
    check_budget,
    free_parameter_range,
    squeezed_photons,
)
from fsgsense.homodyne import McConfig, homodyne_fim, mc_estimate
from fsgsense.optimize import maximize_precision, maximize_privacy
from fsgsense.reference import (
    FsgBlocks,
    blocks_from_params,
    mean_weights,
    optimal_precision_blocks,
    params_from_blocks,
    privacy,
    qfim_fsg,
    tmsv_blocks,
    total_photons,
)

finite = dict(allow_nan=False, allow_infinity=False)


def test_params_validation():
    with pytest.raises(DomainError):
        FsgParams(M=1, n_th=0.0, s=0.0, t=0.0)
    with pytest.raises(DomainError):
        FsgParams(M=2, n_th=-0.1, s=0.0, t=0.0)
    assert FsgParams(M=2, n_th=1.0, s=0.0, t=0.0).nu == 3.0


def test_blocks_validation():
    with pytest.raises(DomainError):
        FsgBlocks(M=2, eps1=1.0, eps2=1.0, gam1=1.5, gam2=0.0)
    with pytest.raises(DomainError):
        # below the vacuum limit
        FsgBlocks(M=2, eps1=0.5, eps2=0.5, gam1=0.0, gam2=0.0)


@given(
    m=st.integers(min_value=2, max_value=6),
    n_th=st.floats(min_value=0.0, max_value=5.0, **finite),
    s=st.floats(min_value=-1.5, max_value=1.5, **finite),
    t=st.floats(min_value=-1.5, max_value=1.5, **finite),
)
@settings(max_examples=200, deadline=None)
def test_chart_roundtrip(m, n_th, s, t):
    params = FsgParams(M=m, n_th=n_th, s=s, t=t)
    back = params_from_blocks(blocks_from_params(params))
    assert back.M == m
    assert back.n_th == pytest.approx(n_th, abs=1e-9)
    assert back.s == pytest.approx(s, abs=1e-9)
    assert back.t == pytest.approx(t, abs=1e-9)


@given(
    m=st.integers(min_value=2, max_value=6),
    n_th=st.floats(min_value=0.0, max_value=5.0, **finite),
    s=st.floats(min_value=-1.5, max_value=1.5, **finite),
    t=st.floats(min_value=-1.5, max_value=1.5, **finite),
)
@settings(max_examples=200, deadline=None)
def test_total_photons_identity(m, n_th, s, t):
    # M (eps1 + eps2 - 2)/4 == [nu (cosh 2s + (M-1) cosh 2t) - M]/2
    blocks = blocks_from_params(FsgParams(M=m, n_th=n_th, s=s, t=t))
    nu = 1.0 + 2.0 * n_th
    expected = 0.5 * (nu * (np.cosh(2 * s) + (m - 1) * np.cosh(2 * t)) - m)
    assert total_photons(blocks) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_family_states_solve_the_photon_constraint(rng):
    for _ in range(100):
        m = int(rng.integers(2, 7))
        n_th = float(rng.uniform(0.0, 3.0))
        n_tot = float(rng.uniform(m * n_th + 0.1, m * n_th + 50.0))
        t_max = free_parameter_range(m, n_th, n_tot)
        t = float(rng.uniform(-t_max, t_max))
        s = float(kernels.family_states(t, m, squeezed_photons(m, n_th, n_tot)))
        assert s >= 0.0
        blocks = blocks_from_params(FsgParams(M=m, n_th=n_th, s=s, t=t))
        assert total_photons(blocks) == pytest.approx(n_tot, rel=1e-9, abs=1e-9)


def test_free_parameter_range_bounds_the_photon_constraint():
    # beyond t_max the t modes alone hold more squeezed photons than N_eff
    t_max = free_parameter_range(3, 0.0, 5.0)
    n_eff = squeezed_photons(3, 0.0, 5.0)
    assert 2 * np.sinh(t_max) ** 2 == pytest.approx(n_eff, rel=1e-12)
    assert 2 * np.sinh(1.5 * t_max + 0.1) ** 2 > n_eff


def test_family_states_endpoint_gives_zero_s():
    t_max = free_parameter_range(4, 1.0, 30.0)
    s = kernels.family_states(t_max, 4, squeezed_photons(4, 1.0, 30.0))
    assert s == pytest.approx(0.0, abs=1e-6)


def test_thermal_floor_raises():
    with pytest.raises(InfeasibleError):
        free_parameter_range(4, 5.0, 10.0)
    # the rule is exact: 3 * 0.1 rounds to 0.30000000000000004 > 0.3
    with pytest.raises(InfeasibleError):
        check_budget(3, 0.1, 0.3)
    check_budget(2, 5.0, 10.0)


_STATE = FsgParams(M=3, n_th=0.0, s=1.0, t=-0.3)


@pytest.mark.parametrize(
    "call",
    [
        lambda: maximize_privacy(3, -1.0, 10.0),
        lambda: maximize_privacy(1, 0.0, 10.0),
        lambda: maximize_privacy(3, 0.0, float("nan")),
        lambda: maximize_precision(3, float("nan"), 10.0),
        lambda: mc_estimate(_STATE, float("nan"), McConfig(100, 10, 1)),
        lambda: homodyne_fim(_STATE, float("nan")),
    ],
    ids=["negative_n_th", "M_1", "nan_N_tot", "nan_n_th", "nan_z_hd", "nan_angle"],
)
def test_invalid_input_raises_domain_error_before_any_arithmetic(call):
    # numpy warnings are errors in this suite, so a warning from arithmetic
    # on the bad input would surface here instead of the DomainError
    with pytest.raises(DomainError):
        call()


def test_free_parameter_range_zero_at_the_floor():
    assert free_parameter_range(4, 5.0, 20.0) == pytest.approx(0.0, abs=1e-7)


@pytest.mark.parametrize("m", [2, 3, 6])
@pytest.mark.parametrize("n_tot", [0.5, 1.0, 10.0])
def test_optimal_precision_blocks_are_pure_with_right_budget(m, n_tot):
    blocks = optimal_precision_blocks(m, n_tot)
    assert total_photons(blocks) == pytest.approx(n_tot, rel=1e-12)
    params = params_from_blocks(blocks)
    assert params.n_th == pytest.approx(0.0, abs=1e-9)
    assert params.t == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("n_tot", [0.5, 1.0, 10.0, 100.0])
def test_tmsv_blocks(n_tot):
    blocks = tmsv_blocks(n_tot)
    assert blocks.M == 2
    assert total_photons(blocks) == pytest.approx(n_tot, rel=1e-12)
    assert privacy(qfim_fsg(blocks), mean_weights(2)) == pytest.approx(1.0, abs=1e-12)
    params = params_from_blocks(blocks)
    assert params.n_th == pytest.approx(0.0, abs=1e-9)
    assert params.s == pytest.approx(-params.t, rel=1e-9)
