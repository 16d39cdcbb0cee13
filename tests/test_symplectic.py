import numpy as np
import pytest

from fsgsense.errors import DomainError, NumericalError
from fsgsense.family import FsgParams, blocks_from_params
from fsgsense.symplectic import (
    CovarianceState,
    assemble_covariance,
    fsg_determinant,
    fsg_symplectic_eigenvalues,
    phase_rotation,
    physicality_check,
    symplectic_form,
    symplectic_spectrum_numeric,
)


def random_blocks(rng, max_nth=5.0, max_sq=1.5):
    m = int(rng.integers(2, 7))
    n_th = float(rng.uniform(0.0, max_nth))
    s = float(rng.uniform(-max_sq, max_sq))
    t = float(rng.uniform(-max_sq, max_sq))
    return blocks_from_params(FsgParams(M=m, n_th=n_th, s=s, t=t))


def test_symplectic_form_properties():
    for m in (1, 2, 5):
        omega = symplectic_form(m)
        assert np.array_equal(omega, -omega.T)
        assert np.allclose(omega @ omega, -np.eye(2 * m))


def test_symplectic_form_rejects_zero_modes():
    with pytest.raises(DomainError):
        symplectic_form(0)


def test_covariance_state_symmetrizes_and_freezes():
    V = np.eye(4)
    state = CovarianceState(modes=2, V=V)
    with pytest.raises(ValueError):
        state.V[0, 0] = 2.0


def test_covariance_state_rejects_asymmetry_and_bad_shape():
    V = np.eye(4)
    V[0, 1] = 0.5
    with pytest.raises(DomainError):
        CovarianceState(modes=2, V=V)
    with pytest.raises(DomainError):
        CovarianceState(modes=2, V=np.eye(3))


def test_vacuum_is_physical_and_squashed_vacuum_is_not():
    vac = CovarianceState(modes=3, V=np.eye(6))
    report = physicality_check(vac)
    assert report.physical
    assert report.min_eig == pytest.approx(0.0, abs=1e-12)

    bad = CovarianceState(modes=1, V=0.5 * np.eye(2))
    assert not physicality_check(bad).physical


def test_assemble_covariance_layout(rng):
    blocks = random_blocks(rng)
    state = assemble_covariance(blocks)
    m = blocks.M
    V = state.V
    for j in range(m):
        assert V[2 * j, 2 * j] == pytest.approx(blocks.eps1)
        assert V[2 * j + 1, 2 * j + 1] == pytest.approx(blocks.eps2)
        assert V[2 * j, 2 * j + 1] == 0.0
    for j in range(m):
        for k in range(m):
            if j != k:
                assert V[2 * j, 2 * k] == pytest.approx(blocks.gam1)
                assert V[2 * j + 1, 2 * k + 1] == pytest.approx(blocks.gam2)
    assert physicality_check(state).physical


def test_closed_form_spectrum_matches_numeric(rng):
    for _ in range(50):
        blocks = random_blocks(rng)
        state = assemble_covariance(blocks)
        numeric = symplectic_spectrum_numeric(state)
        nu_minus, nu_plus = fsg_symplectic_eigenvalues(blocks)
        closed = np.sort(np.r_[np.full(blocks.M - 1, nu_minus), nu_plus])
        assert np.allclose(numeric, closed, rtol=1e-9, atol=1e-9)


def test_closed_form_determinant_matches_numeric(rng):
    for _ in range(50):
        blocks = random_blocks(rng)
        state = assemble_covariance(blocks)
        det = np.linalg.det(state.V)
        assert fsg_determinant(blocks) == pytest.approx(det, rel=1e-9)


def test_isothermal_spectrum_equals_nu(rng):
    for _ in range(20):
        n_th = float(rng.uniform(0.0, 5.0))
        params = FsgParams(
            M=int(rng.integers(2, 7)),
            n_th=n_th,
            s=float(rng.uniform(-1.5, 1.5)),
            t=float(rng.uniform(-1.5, 1.5)),
        )
        nu_minus, nu_plus = fsg_symplectic_eigenvalues(blocks_from_params(params))
        assert nu_minus == pytest.approx(1.0 + 2.0 * n_th, rel=1e-12)
        assert nu_plus == pytest.approx(1.0 + 2.0 * n_th, rel=1e-12)


def test_spectrum_eigensolver_failure_is_wrapped():
    state = CovarianceState(modes=1, V=np.diag([np.inf, np.inf]))
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
        symplectic_spectrum_numeric(state)


def test_phase_rotation_is_orthogonal_and_symplectic(rng):
    thetas = rng.uniform(-np.pi, np.pi, size=4)
    rot = phase_rotation(thetas)
    assert np.allclose(rot @ rot.T, np.eye(8), atol=1e-14)
    omega = symplectic_form(4)
    assert np.allclose(rot.T @ omega @ rot, omega, atol=1e-14)


def test_phase_rotation_composes():
    a, b = 0.3, -1.1
    left = phase_rotation(np.array([a])) @ phase_rotation(np.array([b]))
    assert np.allclose(left, phase_rotation(np.array([a + b])), atol=1e-14)
