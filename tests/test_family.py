import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsgsense import cli
from fsgsense.errors import DomainError, InfeasibleError
from fsgsense.family import FsgParams, below_floor, budget, solve_s
from fsgsense.homodyne import (
    McConfig,
    homodyne_fim,
    mc_estimate,
    optimize_homodyne_angle,
)
from fsgsense.metrology import StructuredFim
from fsgsense.optimize import maximize_precision, maximize_privacy
from fsgsense.reference import (
    _TOL_NU,
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
from fsgsense.symplectic import fsg_symplectic_eigenvalues

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
    with pytest.raises(DomainError):
        # the slack scales with the entries, not with a deficit at eps ~ 1
        FsgBlocks(M=2, eps1=0.99, eps2=0.99, gam1=0.0, gam2=0.0)
    # large entries whose factors eps - gam are exact and of order 1: each
    # eigenvalue's slack scales with its own partner factors, not with eps^2
    with pytest.raises(DomainError):
        FsgBlocks(M=2, eps1=2e7, eps2=2e7, gam1=2e7 - 0.5, gam2=2e7 - 0.5)
    with pytest.raises(DomainError):
        FsgBlocks(M=2, eps1=1e6, eps2=1e6, gam1=1e6 - 1.0 + 1e-6, gam2=1e6 - 1.0 + 1e-6)


@pytest.mark.parametrize("n_tot", [3e3, 1e4, 1e6])
def test_blocks_of_large_privacy_optima_pass_the_vacuum_check(n_tot):
    # eps - gam rounds at the size of eps, so nu- of the M = 2 privacy
    # optimum falls below 1 by more than _TOL_NU; the slack scales with
    # that rounding, 2^-53 [(eps1 + gam1) f2 + (eps2 + |gam2|) f1] in nu-^2
    blocks = blocks_from_params(maximize_privacy(2, 0.0, n_tot).params)
    assert fsg_symplectic_eigenvalues(blocks)[0] < 1.0 - _TOL_NU


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
        t_max = budget(m, n_th, n_tot)[2]
        t = float(rng.uniform(-t_max, t_max))
        s = float(solve_s(t, m, budget(m, n_th, n_tot)[1]))
        assert s >= 0.0
        blocks = blocks_from_params(FsgParams(M=m, n_th=n_th, s=s, t=t))
        assert total_photons(blocks) == pytest.approx(n_tot, rel=1e-9, abs=1e-9)


def test_budget_t_max_bounds_the_photon_constraint():
    # beyond t_max the t modes alone hold more squeezed photons than N_eff
    _, n_eff, t_max = budget(3, 0.0, 5.0)
    assert 2 * np.sinh(t_max) ** 2 == pytest.approx(n_eff, rel=1e-12)
    assert 2 * np.sinh(1.5 * t_max + 0.1) ** 2 > n_eff


def test_family_states_endpoint_gives_zero_s():
    _, n_eff, t_max = budget(4, 1.0, 30.0)
    s = solve_s(t_max, 4, n_eff)
    assert s == pytest.approx(0.0, abs=1e-6)


def test_thermal_floor_raises():
    with pytest.raises(InfeasibleError):
        budget(4, 5.0, 10.0)
    # the rule is exact: 3 * 0.1 rounds to 0.30000000000000004 > 0.3
    with pytest.raises(InfeasibleError):
        budget(3, 0.1, 0.3)
    budget(2, 5.0, 10.0)
    assert below_floor(4, 5.0, 10.0)
    assert below_floor(3, 0.1, 0.3)
    # the floor row itself is feasible
    assert not below_floor(4, 5.0, 20.0)


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
        lambda: homodyne_fim(_STATE, float("inf")),
        lambda: homodyne_fim(_STATE, float("-inf")),
        lambda: FsgParams(3, float("nan"), 1.0, 0.0),
        lambda: optimize_homodyne_angle(FsgParams(3, 0.0, float("nan"), -0.3)),
        lambda: mc_estimate(
            FsgParams(3, 0.0, float("nan"), -0.3), 0.5, McConfig(100, 10, 1)
        ),
        lambda: FsgParams(3, 0.0, 1.0, float("inf")),
        lambda: FsgParams(3, 0.0, float("-inf"), 0.0),
        lambda: optimize_homodyne_angle(FsgParams(3, 0.0, 200.0, -200.0)),
        lambda: FsgParams(3, 0.0, 0.0, -400.0),
        lambda: FsgParams(10**151, 0.0, 0.0, 0.0),
        lambda: FsgParams(3, 0.0, 173.5, 0.0),
        # below the floor too: M < 2 is a DomainError, not an infeasible row
        lambda: cli.compute_record(1, 1.0, 0.5, "precision", False),
        lambda: StructuredFim(1, 1.0, 0.0),
    ],
    ids=["negative_n_th", "M_1", "nan_N_tot", "nan_n_th", "nan_z_hd", "nan_angle",
         "inf_angle", "minus_inf_angle", "nan_chart_n_th", "nan_s_angle_search",
         "nan_s_mc", "inf_t", "minus_inf_s", "huge_chart_angle_search", "huge_t",
         "huge_M", "chart_N_eff_past_the_bound", "sweep_row_M_1_below_floor",
         "structured_fim_M_1"],
)
def test_invalid_input_raises_domain_error_before_any_arithmetic(call):
    # numpy warnings are errors in this suite, so a warning from arithmetic
    # on the bad input would surface here instead of the DomainError
    with pytest.raises(DomainError):
        call()


def test_budget_t_max_zero_at_the_floor():
    assert budget(4, 5.0, 20.0)[2] == pytest.approx(0.0, abs=1e-7)


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
