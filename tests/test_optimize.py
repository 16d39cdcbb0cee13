import math

import mpmath
import numpy as np
import pytest
from conftest import exact_chart_values, exact_privacy_root, same_fields
from hypothesis import given, settings
from hypothesis import strategies as st

from fsgsense import kernels
from fsgsense.errors import DomainError, InfeasibleError, NumericalError
from fsgsense.family import budget, solve_s
from fsgsense.metrology import (
    chart_fisher_coeffs,
    one_minus_privacy_from_ab,
    privacy_from_ab,
)
from fsgsense.optimize import (
    OBJECTIVES,
    _chart_values,
    maximize_precision,
    maximize_privacy,
    optimize_batch,
)
from fsgsense.reference import (
    ScanPoint,
    blocks_from_params,
    closed_form_privacy_of_optimum,
    scan_free_parameter,
    total_photons,
)


def test_precision_optimum_pure_anchor():
    result = maximize_precision(2, 0.0, 1.0)
    assert result.objective == "precision"
    assert result.params.t == 0.0
    assert result.xi == pytest.approx(16.0, rel=1e-8)
    assert result.privacy == pytest.approx(0.8, rel=1e-8)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("n_tot", [0.5, 1.0, 10.0, 100.0])
def test_precision_optimum_reaches_ultimate_bound(m, n_tot):
    result = maximize_precision(m, 0.0, n_tot)
    assert result.params.t == pytest.approx(0.0, abs=1e-8)
    assert result.xi == pytest.approx(8.0 * n_tot * (n_tot + 1.0), rel=1e-8)
    assert result.privacy == pytest.approx(
        closed_form_privacy_of_optimum(m, n_tot), rel=1e-8
    )
    assert total_photons(blocks_from_params(result.params)) == pytest.approx(n_tot, rel=1e-8)
    assert result.ratio_to_best_xi == pytest.approx(1.0)


def test_precision_thermal_state_stays_below_pure_bound():
    result = maximize_precision(3, 1.0, 50.0)
    assert result.xi < 8.0 * 50.0 * 51.0
    assert result.xi > 0.0
    assert result.params.t == pytest.approx(0.0, abs=1e-6)


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


@pytest.mark.parametrize(
    "row, n",
    [((3, 1.0, 3.0), 5), ((2, 0.0, 1.0), 101), ((4, 0.0, 100.0), 4001), ((6, 5.0, 1e6), 333)],
)
def test_scan_free_parameter_is_the_chart_evaluator_on_the_grid(row, n):
    # (3, 1, 3) is the thermal floor: t_max = 0 and the privacy is NaN
    m, n_th, n_tot = row
    nu, n_eff, t_max = budget(m, n_th, n_tot)
    ts = np.linspace(-t_max, t_max, n)
    _, a, b, xi, _ = _chart_values(m, nu, n_eff, ts)
    expected = np.stack([ts, xi, privacy_from_ab(a, b, m, 1.0 / m)], axis=1)
    points = scan_free_parameter(m, n_th, n_tot, n)
    assert all(type(p) is ScanPoint for p in points)
    assert all(type(v) is float for p in points for v in p)
    got = np.array(points, dtype=float)
    assert got.shape == expected.shape
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    assert np.isnan(got[:, 2]).all() == (t_max == 0.0)


def test_scan_rejects_tiny_grid():
    with pytest.raises(DomainError, match="grid_points must be >= 3"):
        scan_free_parameter(3, 0.0, 5.0, 2)


def test_infeasible_budget_raises():
    with pytest.raises(InfeasibleError):
        maximize_precision(4, 5.0, 10.0)
    with pytest.raises(InfeasibleError):
        maximize_privacy(4, 5.0, 10.0)


def test_budget_exactly_at_the_thermal_floor_degenerates():
    # all photons are thermal: no squeezing left, no information
    result = maximize_precision(4, 5.0, 20.0)
    assert result.params.t == 0.0
    assert result.xi == 0.0
    assert math.isnan(result.privacy)


def test_deterministic_output():
    a = maximize_privacy(5, 1.0, 60.0)
    b = maximize_privacy(5, 1.0, 60.0)
    assert a == b


@pytest.mark.parametrize(
    "objective, m, n_th, n_tot",
    [
        ("privacy", 2, 0.0, 2.5e3),
        ("privacy", 2, 0.0, 5e3),
        ("privacy", 3, 0.0, 1e5),
        ("privacy", 4, 0.0, 6e4),
        ("privacy", 10, 1.0, 1e6),
        ("precision", 4, 0.0, 1e7),
        ("precision", 1000, 0.0, 1e8),
    ],
)
def test_large_budgets_optimize_without_domain_errors(objective, m, n_th, n_tot):
    # the block route raised DomainError ("below vacuum", "isothermal") at
    # these budgets; the chart route evaluates them without cancellation
    result = optimize_batch([(m, n_th, n_tot)], objective)[0]
    assert math.isfinite(result.xi) and 0.0 < result.xi <= 8.0 * n_tot * (n_tot + 1.0)
    assert 0.0 <= result.one_minus_privacy <= 1.0
    assert result.privacy == pytest.approx(1.0 - result.one_minus_privacy, abs=1e-15)
    if objective == "precision":
        assert result.xi == pytest.approx(8.0 * n_tot * (n_tot + 1.0), rel=1e-12)
    if m == 2:
        assert result.one_minus_privacy < 1e-12


@pytest.mark.parametrize("m, n_tot", [(3, 1e3), (4, 1e4), (6, 5e4)])
def test_one_minus_privacy_matches_fifty_digits(m, n_tot):
    # 1.0 - privacy lost up to 3.3e-10 relative here; the closed form keeps
    # 1 - P to a few ulp, at the optimum and against the true minimum
    result = maximize_privacy(m, 0.0, n_tot)
    exact = exact_chart_values(m, 1.0, result.params.s, result.params.t)[3]
    assert float(abs(result.one_minus_privacy - exact) / exact) <= 1e-14
    with mpmath.workdps(50):

        def one_minus_p(t):
            s = mpmath.asinh(mpmath.sqrt(n_tot - (m - 1) * mpmath.sinh(t) ** 2))
            return exact_chart_values(m, 1.0, s, t)[3]

        t_min = mpmath.findroot(lambda t: mpmath.diff(one_minus_p, t), result.params.t)
        best = one_minus_p(t_min)
    assert float(abs(result.one_minus_privacy - best) / best) <= 1e-14


def _assert_matches_oracle(m, nu, s, t, values):
    """values (a, b, xi, 1 - P) of the chart (M, nu, s, t) within 1e-13
    relative of the mpmath oracle; a and b must be normal numbers, but for
    the two-node privacy optimum, s + t = 0 at M = 2, where a = 0 and
    1 - P = 0 exactly (the oracle's a is its own rounding there).  The
    rounding of s + t and s - t (below 350 in size) moves sinh^2 and cosh
    by at most about 7e-14 relative.  Near perfect privacy 1 - P can itself
    be subnormal, where rounding is absolute: one subnormal step is allowed
    on top."""
    finfo = np.finfo(float)
    exact = exact_chart_values(m, nu, s, t)
    if m == 2 and s + t == 0.0:
        assert values[0] == values[3] == 0.0
        values, exact = values[1:3], exact[1:3]
    else:
        assert values[0] >= finfo.tiny
    assert values[1] >= finfo.tiny
    for got, want in zip(values, exact, strict=True):
        assert abs(got - want) <= 1e-13 * want + finfo.smallest_subnormal


@given(
    log_m=st.floats(math.log10(2.0), 150.0),
    n_th=st.sampled_from([0.0, 0.5, 5.0]),
    log_n_eff=st.floats(-300.0, 150.0),
    u=st.floats(-1.0, 1.0),
)
@settings(max_examples=300, deadline=None)
def test_closed_forms_match_the_oracle_over_the_whole_budget(log_m, n_th, log_n_eff, u):
    # integer M and N_eff up to MAX_CHART_N, N_eff down to 1e-300; where a
    # or b is 0 or subnormal the closed forms have lost their relative
    # accuracy (the documented underflow), and the optimizer raises there
    tiny = np.finfo(float).tiny
    m, n_eff, nu = max(2, round(10.0**log_m)), 10.0**log_n_eff, 1.0 + 2.0 * n_th
    t = u * budget(m, 0.0, n_eff)[2]  # t_max depends on M and N_eff alone
    s, *values = (float(v) for v in _chart_values(float(m), nu, n_eff, t))
    if min(values[:2]) >= tiny:
        _assert_matches_oracle(m, nu, s, t, values)
    # the optimizer on a row of about that budget, unless the floor
    # swallows N_eff or M n_th + nu N_eff rounds past MAX_CHART_N
    row = (m, n_th, m * n_th + nu * n_eff)
    try:
        n_eff = budget(*row)[1]
    except NumericalError:
        n_eff = 0.0
    if n_eff == 0.0:
        return
    for objective in OBJECTIVES:
        try:
            r = optimize_batch([row], objective)[0]
        except NumericalError as exc:
            assert "underflows" in str(exc)
            if objective == "precision":  # the t = 0 state
                a, b = _chart_values(float(m), nu, n_eff, 0.0)[1:3]
                assert min(a, b) < tiny
            continue
        values = (r.fim.a, r.fim.b, r.xi, r.one_minus_privacy)
        _assert_matches_oracle(m, nu, r.params.s, r.params.t, values)


def test_batch_rows_do_not_depend_on_their_neighbours():
    rows = [(2, 0.0, 1.0), (5, 1.0, 60.0), (3, 0.5, 1.5), (6, 0.0, 250.0), (2, 5.0, 10.0)]
    for objective in ("precision", "privacy"):
        batch = optimize_batch(rows, objective)
        singles = [optimize_batch([row], objective)[0] for row in rows]
        assert all(same_fields(x, y) for x, y in zip(batch, singles, strict=True))
        # precision never searches; privacy searches rows 1 and 3: row 0
        # has M = 2, where t = -s, and rows 2 and 4 sit at the thermal
        # floor, where t_max = 0
        searched = [objective == "privacy" and r in (1, 3) for r in range(5)]
        assert [r.iterations > 0 for r in batch] == searched
    with pytest.raises(InfeasibleError):
        optimize_batch(rows + [(4, 5.0, 10.0)], "privacy")
    with pytest.raises(DomainError):
        optimize_batch(rows, "accuracy")
    assert optimize_batch([], "privacy") == []


def test_privacy_search_sees_every_row_of_the_batch(monkeypatch):
    # rows of different t_max, two without any (N = 0 and a row at the
    # thermal floor) and one at M = 2: every call of the slope gets one
    # point per searched row, the M >= 3 rows with room, in one search; the
    # rows without room keep t = 0, and the M = 2 row takes t = -s
    rows = [(3, 0.0, 10.0), (2, 0.0, 1e6), (4, 0.0, 0.0), (3, 1.0, 3.0), (1000, 0.5, 1e4)]
    bisect = kernels.bisect_max
    shapes, searches = [], []

    def spy(slope, lo, hi):
        def counted(x):
            shapes.append(np.shape(x))
            return slope(x)

        searches.append(np.shape(lo))
        return bisect(counted, lo, hi)

    monkeypatch.setattr(kernels, "bisect_max", spy)
    results = optimize_batch(rows, "privacy")
    assert searches == [(2,)] and len(shapes) > 50 and set(shapes) == {(2,)}
    assert [(r.params.t, r.iterations) for r in results[2:4]] == [(0.0, 0)] * 2
    assert results[1].params.t == -results[1].params.s and results[1].iterations == 0
    assert min(results[i].iterations for i in (0, 4)) > 50


def test_subnormal_fisher_information_raises():
    # M is below MAX_CHART_N, but b ~ 8 N / M^2 is subnormal
    for objective in ("precision", "privacy"):
        with pytest.raises(NumericalError, match="subnormal"):
            optimize_batch([(3, 0.0, 10.0), (10**149, 0.0, 1e-20)], objective)
    # no information at all is exact, not subnormal
    fim = maximize_privacy(3, 0.0, 0.0).fim
    assert fim.a == fim.b == 0.0


def test_fisher_information_underflowing_to_zero_raises():
    # N_eff = 1e-300 > 0, but a ~ 4 N_eff / M and b ~ 8 N_eff / M^2 round to
    # 0; at M = 1e149, N_eff = 1e-30 b alone rounds to 0, away from s = t,
    # and xi = M (a + M b) read half its value, 4e-30 for 8e-30
    for row in [(10**30, 0.0, 1e-300), (10**149, 0.0, 1e-30)]:
        for objective in ("precision", "privacy"):
            with pytest.raises(NumericalError, match="underflows to zero"):
                optimize_batch([(3, 0.0, 10.0), row], objective)


def test_two_node_privacy_optimum_is_never_subnormal():
    # the README says 1 - P keeps its relative accuracy as P -> 1; a search
    # ended 1 ulp from t = -s and read 6.84e-313 at 1e145, 3.07e-320 at
    # 1e149.  t = -s exactly, so a = 0: 1 - P = 0 and P = 1 on every row
    rows = [(2, n_th, 2 * n_th + n) for n_th in (0.0, 0.5, 5.0) for n in np.logspace(-12, 149, 60)]
    rows += [(2, 0.0, 1e145), (2, 0.0, 1e149)]
    for result in optimize_batch(rows, "privacy"):
        assert result.params.s == -result.params.t > 0.0
        assert result.fim.a == 0.0 and result.one_minus_privacy == 0.0
        assert result.privacy == 1.0


def test_ratio_to_best_xi_never_exceeds_one():
    # at large N_eff the two closed-form evaluations of xi can round in the
    # privacy optimum's favour (the ratio read 1.0000000000000286 at 1e149);
    # the t = 0 state is the precision optimum, so no state beats it.  At
    # 1e46 the raw ratio still rounds above 1 (1.0000000000000144)
    rows = [(3, 0.0, 1e149), (3, 0.0, 1e46), (2, 0.0, 1e3), (5, 1.0, 50.0)]
    for result in optimize_batch(rows, "privacy"):
        assert 0.0 < result.ratio_to_best_xi <= 1.0
    result = maximize_privacy(3, 0.0, 1e46)
    assert result.xi / _chart_values(3.0, 1.0, 1e46, 0.0)[3] > 1.0
    assert result.ratio_to_best_xi == 1.0


def test_precision_is_the_t0_state_without_search():
    # xi/2k is convex in cosh 2t and xi(0) >= xi(+-t_max), so no search
    rows = [(2, 0.0, 1.0), (2, 0.5, 40.0), (3, 1.0, 50.0), (6, 5.0, 31.0), (50, 0.0, 1e3)]
    for (m, n_th, n_tot), result in zip(rows, optimize_batch(rows, "precision")):
        assert result.params.t == 0.0 and result.iterations == 0
        assert result.params.s == float(solve_s(0.0, m, budget(m, n_th, n_tot)[1]))
    # xi is flat here: a grid search lands anywhere within ~1e-4 of 0
    assert maximize_precision(4, 0.0, 1e7).params.t == 0.0


def _one_minus_privacy_at(m, n_th, n_tot, t):
    """1 - P (mean weights) of the family state at t, from its chart."""
    s = solve_s(t, m, budget(m, n_th, n_tot)[1])
    a, b = chart_fisher_coeffs(m, 1.0 + 2.0 * n_th, s, t)
    return one_minus_privacy_from_ab(a, b, m)


@given(
    m=st.integers(min_value=2, max_value=1000),
    n_th=st.floats(min_value=0.0, max_value=10.0),
    excess=st.floats(min_value=1e-3, max_value=9.9e6),
    u=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=300, deadline=None)
def test_reflection_lowers_one_minus_privacy(m, n_th, excess, u):
    # at equal |t| the squeezing s is the same, a(-t) <= a(t) and
    # b(-t) >= b(t), so the privacy optimum lies in [-t_max, 0]
    n_tot = m * n_th + excess
    t = u * budget(m, n_th, n_tot)[2]
    left = _one_minus_privacy_at(m, n_th, n_tot, -t)
    right = _one_minus_privacy_at(m, n_th, n_tot, t)
    # a few ulp of rounding in sinh and arcsinh
    assert left <= right * (1.0 + 1e-13)


@given(
    m=st.integers(min_value=2, max_value=1000),
    n_th=st.floats(min_value=0.0, max_value=10.0),
    excess=st.floats(min_value=1e-3, max_value=1e7),
)
@settings(max_examples=25, deadline=None)
def test_privacy_search_matches_a_dense_full_interval_grid(m, n_th, excess):
    # the half-interval search against the brute-force oracle on
    # [-t_max, t_max]: unimodality on [-t_max, 0] is observed, not proven
    n_tot = m * n_th + excess
    result = maximize_privacy(m, n_th, n_tot)
    brute = max(p.privacy for p in scan_free_parameter(m, n_th, n_tot, 20001))
    assert brute <= result.privacy + 1e-12


def _privacy_optimum_law(m, n_eff):
    """Leading terms of the M >= 3 privacy optimum as N_eff -> inf:
    (1 - P*, t*, 1 - r(t*)), from 1 - P ~ (M-1)[2 e^{2t-2s} + (M-2) e^{-4t-4s}]
    with e^{2s} ~ 4 N_eff, minimized over e^{2t}."""
    omp = 3.0 * (m - 1) * (m - 2) ** (1 / 3) * (4.0 * n_eff) ** (-4 / 3)
    t = math.log((m - 2) / (4.0 * n_eff)) / 6.0
    loss = (m - 1) * 4 ** (1 / 3) / (2.0 * (m - 2) ** (1 / 3)) * n_eff ** (-2 / 3)
    return omp, t, loss


@pytest.mark.parametrize("m", [3, 10, 100, 1000])
def test_privacy_optimum_follows_its_asymptotic_law(m):
    n_effs = [1e6, 1e8, 1e10, 1e12, 1e14]
    results = optimize_batch([(m, 0.0, n) for n in n_effs], "privacy")
    for n_eff, result in zip(n_effs, results):
        omp, t, loss = _privacy_optimum_law(m, n_eff)
        x = m / n_eff
        # the next terms are (M/N_eff)^{2/3} relative in 1 - P* and t* and
        # (M/N_eff)^{1/3} in 1 - r
        assert abs(result.one_minus_privacy / omp - 1.0) < x ** (2 / 3)
        assert abs(result.params.t - t) < 0.5 * x ** (2 / 3) + 1e-12
        assert abs((1.0 - result.ratio_to_best_xi) / loss - 1.0) < 2.0 * x ** (1 / 3)


@given(
    m=st.integers(min_value=2, max_value=1000),
    n_th=st.floats(min_value=0.0, max_value=10.0),
    excess=st.floats(min_value=1e-3, max_value=1e12),
)
@settings(max_examples=50, deadline=None, derandomize=True)
def test_thermal_privacy_optimum_is_the_pure_one_at_n_eff(m, n_th, excess):
    # F(M, n_th, N; t) = k(nu) F(M, 0, N_eff; t) and k cancels in 1 - P,
    # and in the slope the search follows (a value search found t* only to
    # about sqrt(eps): 6.2e-8 apart over 20,000 random rows)
    n_tot = m * n_th + excess
    n_eff = float(budget(m, n_th, n_tot)[1])
    thermal, pure = optimize_batch([(m, n_th, n_tot), (m, 0.0, n_eff)], "privacy")
    assert abs(thermal.params.t - pure.params.t) <= 1e-12
    assert thermal.one_minus_privacy == pytest.approx(pure.one_minus_privacy, rel=1e-13)


@given(
    log_m=st.floats(math.log10(3.0), 12.0),
    log_n_eff=st.floats(-12.0, 149.0),
)
@settings(max_examples=60, deadline=None)
def test_privacy_optimum_is_the_root_of_its_slope(log_m, log_n_eff):
    # bisection on the closed-form slope stops at adjacent doubles; against
    # the root in mpmath it holds 1e-14 relative over the typed range,
    # where a value search held about 1e-8
    m, n_eff = max(3, round(10.0**log_m)), 10.0**log_n_eff
    t = maximize_privacy(m, 0.0, n_eff).params.t
    exact = exact_privacy_root(m, n_eff, t)
    assert float(abs((t - exact) / exact)) <= 1e-14


def test_privacy_optimum_at_many_more_nodes_than_photons():
    # a value search stopped at an absolute bracket of 1e-10, wider than
    # t* itself: it reported t* = -4.61e-11 and xi = 846.30 (r = 0.9617)
    result = maximize_privacy(10**20, 0, 10)
    exact = exact_privacy_root(10**20, 10.0, result.params.t)
    assert float(abs((result.params.t - exact) / exact)) <= 1e-14
    assert result.params.t == pytest.approx(-3.7215797838e-20, rel=1e-10)
    assert result.xi == pytest.approx(880.0, rel=1e-12)
    assert result.ratio_to_best_xi == 1.0
