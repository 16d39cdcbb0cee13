import math

import numpy as np
import pytest
from conftest import same_fields

from fsgsense.errors import ConvergenceError, DomainError, InfeasibleError
from fsgsense.family import (
    FsgParams,
    blocks_from_params,
    free_parameter_range,
    solve_s,
    total_photons,
)
from fsgsense.metrology import (
    closed_form_privacy_of_optimum,
    fisher_coeffs,
    mean_weights,
    precision,
    privacy,
    qfim_fsg,
)
from fsgsense.optimize import (
    _checked_objectives,
    maximize_precision,
    maximize_privacy,
    optimize_batch,
    scan_free_parameter,
)


def test_precision_optimum_pure_anchor():
    result = maximize_precision(2, 0.0, 1.0)
    assert result.objective == "precision"
    assert result.t_star == 0.0
    assert result.xi == pytest.approx(16.0, rel=1e-8)
    assert result.privacy == pytest.approx(0.8, rel=1e-8)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("n_tot", [0.5, 1.0, 10.0, 100.0])
def test_precision_optimum_reaches_ultimate_bound(m, n_tot):
    result = maximize_precision(m, 0.0, n_tot)
    assert result.t_star == pytest.approx(0.0, abs=1e-8)
    assert result.xi == pytest.approx(8.0 * n_tot * (n_tot + 1.0), rel=1e-8)
    assert result.privacy == pytest.approx(
        closed_form_privacy_of_optimum(m, n_tot), rel=1e-8
    )
    assert total_photons(result.blocks) == pytest.approx(n_tot, rel=1e-8)
    assert result.ratio_to_best_xi == pytest.approx(1.0)


def test_precision_thermal_state_stays_below_pure_bound():
    result = maximize_precision(3, 1.0, 50.0)
    assert result.xi < 8.0 * 50.0 * 51.0
    assert result.xi > 0.0
    assert result.t_star == pytest.approx(0.0, abs=1e-6)


def test_privacy_optimum_beats_unoptimized_privacy():
    for m, n_tot in [(3, 10.0), (4, 100.0), (6, 25.0)]:
        result = maximize_privacy(m, 0.0, n_tot)
        assert result.objective == "privacy"
        assert result.privacy > closed_form_privacy_of_optimum(m, n_tot)
        assert 0.0 < result.ratio_to_best_xi <= 1.0


def test_privacy_optimum_two_nodes_is_perfect():
    result = maximize_privacy(2, 0.0, 10.0)
    assert result.privacy == pytest.approx(1.0, abs=1e-9)
    # losing roughly half the precision is the price of perfect privacy
    assert result.ratio_to_best_xi == pytest.approx(0.5454545, abs=1e-4)


def test_privacy_matches_brute_force_grid():
    m, n_th, n_tot = 4, 0.0, 100.0
    result = maximize_privacy(m, n_th, n_tot)
    points = scan_free_parameter(m, n_th, n_tot, 50001)
    brute = max(p.privacy for p in points if not math.isnan(p.privacy))
    assert result.privacy >= brute - 1e-12


def test_precision_matches_brute_force_grid():
    m, n_th, n_tot = 5, 1.0, 40.0
    result = maximize_precision(m, n_th, n_tot)
    points = scan_free_parameter(m, n_th, n_tot, 50001)
    brute = max(p.xi for p in points)
    assert result.xi >= brute - 1e-9 * brute


@pytest.mark.parametrize("m", [2, 3, 6, 50])
@pytest.mark.parametrize("n_th", [0.0, 1.0, 5.0])
def test_precision_optimum_closed_form(m, n_th):
    # on the photon constraint xi is convex in cosh(2t), so the optimum is
    # the t = 0 state: xi = 4 nu^2 / (1 + nu^2) [(K - M + 1)^2 - 1]
    nu = 1.0 + 2.0 * n_th
    budgets = [n for n in np.geomspace(1.0, 2e3, 7) if n >= m * n_th]
    assert budgets
    for n_tot in budgets:
        k = (2.0 * n_tot + m) / nu
        expected = 4.0 * nu**2 / (1.0 + nu**2) * ((k - m + 1.0) ** 2 - 1.0)
        xi = maximize_precision(m, n_th, n_tot).xi
        assert xi == pytest.approx(expected, rel=1e-10)
        assert maximize_privacy(m, n_th, n_tot).ratio_to_best_xi <= 1.0


def test_scan_free_parameter_shape_and_symmetric_grid():
    points = scan_free_parameter(3, 0.0, 5.0, 101)
    assert len(points) == 101
    ts = np.array([p.t for p in points])
    assert ts[0] == pytest.approx(-ts[-1])
    assert np.all(np.diff(ts) > 0)


def test_scan_rejects_tiny_grid():
    with pytest.raises(ConvergenceError):
        scan_free_parameter(3, 0.0, 5.0, 2)


def test_infeasible_budget_raises():
    with pytest.raises(InfeasibleError):
        maximize_precision(4, 5.0, 10.0)
    with pytest.raises(InfeasibleError):
        maximize_privacy(4, 5.0, 10.0)


def test_budget_exactly_at_the_thermal_floor_degenerates():
    # all photons are thermal: no squeezing left, no information
    result = maximize_precision(4, 5.0, 20.0)
    assert result.t_star == 0.0
    assert result.xi == 0.0
    assert math.isnan(result.privacy)


def test_deterministic_output():
    a = maximize_privacy(5, 1.0, 60.0)
    b = maximize_privacy(5, 1.0, 60.0)
    assert a == b


def test_checked_objectives_round_like_the_scalar_path(rng):
    # the batch compares its array objective with values from the scalar
    # path (qfim_fsg of the state), so the two must agree to the last bit
    rows = [(2, 0.0, 10.0), (3, 0.5, 40.0), (7, 5.0, 300.0), (4, 1.0, 1e4)]
    for M, n_th, N in rows:
        t_max = free_parameter_range(M, n_th, N)
        ts = np.append(rng.uniform(-t_max, t_max, 20), 0.0)
        ones = np.ones_like(ts)
        xi, p = _checked_objectives(
            M * ones, (1.0 + 2.0 * n_th) * ones, N * ones,
            mean_weights(M).norm2_sq * ones, ts,
        )
        for k, t in enumerate(ts):
            blocks = blocks_from_params(
                FsgParams(M=M, n_th=n_th, s=solve_s(M, n_th, N, float(t)).s, t=float(t))
            )
            fim = qfim_fsg(blocks)
            assert xi[k] == precision(fim, mean_weights(M))
            assert p[k] == privacy(fim, mean_weights(M))


def test_fisher_coeffs_round_alike_on_scalars_and_arrays():
    # a scalar x ** 2 goes through libm pow, which misrounds a few x that an
    # array squares exactly; fisher_coeffs must not depend on which it gets
    x = np.random.default_rng(3).uniform(0.5, 50.0, 20_000)
    odd = x[np.array([np.float64(v) ** 2 for v in x]) != x * x]
    assert odd.size > 0
    arrays = fisher_coeffs(odd, odd[::-1], 0.5 * odd, -0.5 * odd[::-1], 1.5)
    for k, v in enumerate(odd):
        w = odd[::-1][k]
        scalars = fisher_coeffs(v, w, 0.5 * v, -0.5 * w, 1.5)
        assert scalars == (arrays[0][k], arrays[1][k])


def test_checked_objectives_reject_what_the_scalar_path_rejects():
    # M = 2 privacy at N = 5e3 visits states whose eigenvalues round below
    # vacuum; the batch raises the scalar path's error, also among good rows
    with pytest.raises(DomainError, match="below vacuum"):
        maximize_privacy(2, 0.0, 5e3)
    with pytest.raises(DomainError, match="below vacuum"):
        optimize_batch([(3, 0.0, 10.0), (2, 0.0, 5e3), (2, 0.0, 10.0)], "privacy")


def test_batch_rows_do_not_depend_on_their_neighbours():
    rows = [(2, 0.0, 1.0), (5, 1.0, 60.0), (3, 0.5, 1.5), (6, 0.0, 250.0), (2, 5.0, 10.0)]
    for objective in ("precision", "privacy"):
        batch = optimize_batch(rows, objective)
        singles = [optimize_batch([row], objective)[0] for row in rows]
        assert all(same_fields(x, y) for x, y in zip(batch, singles, strict=True))
        # rows 2 and 4 sit at the thermal floor, where t_max = 0
        assert [r.iterations > 0 for r in batch] == [True, True, False, True, False]
    with pytest.raises(InfeasibleError):
        optimize_batch(rows + [(4, 5.0, 10.0)], "privacy")
    with pytest.raises(DomainError):
        optimize_batch(rows, "accuracy")
    assert optimize_batch([], "privacy") == []
