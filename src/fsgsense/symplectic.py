"""Covariance-level Gaussian linear algebra.

Conventions: quadrature ordering (x1, p1, ..., xM, pM), vacuum covariance
equal to the identity, first moments fixed to zero.  The physicality of a
covariance matrix V is the uncertainty relation V + i*Omega >= 0.  The
block functions read M, eps1, eps2, gam1 and gam2 of a reference.FsgBlocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError

#: Tolerance on the minimum eigenvalue of V + i*Omega.
TOL_PHYS = 1e-9

#: Relative tolerance used when pairing conjugate eigenvalues of i*Omega*V.
TOL_PAIR = 1e-8


def symplectic_form(modes: int) -> np.ndarray:
    """Return the 2M x 2M symplectic form Omega (2x2 blocks [[0,1],[-1,0]])."""
    if modes < 1:
        raise DomainError(f"modes must be >= 1, got {modes}")
    omega = np.zeros((2 * modes, 2 * modes))
    for j in range(modes):
        omega[2 * j, 2 * j + 1] = 1.0
        omega[2 * j + 1, 2 * j] = -1.0
    return omega


@dataclass(frozen=True)
class CovarianceState:
    """A zero-mean Gaussian state: mode count and dense covariance matrix."""

    modes: int
    V: np.ndarray

    def __post_init__(self):
        if self.modes < 1:
            raise DomainError(f"modes must be >= 1, got {self.modes}")
        V = np.asarray(self.V, dtype=float)
        n = 2 * self.modes
        if V.shape != (n, n):
            raise DomainError(f"covariance must be {n}x{n}, got {V.shape}")
        if not np.allclose(V, V.T, rtol=0.0, atol=1e-12):
            raise DomainError("covariance matrix is not symmetric")
        V = 0.5 * (V + V.T)
        V.setflags(write=False)
        object.__setattr__(self, "V", V)


@dataclass(frozen=True)
class PhysicalityReport:
    min_eig: float
    physical: bool


def physicality_check(state: CovarianceState) -> PhysicalityReport:
    """Minimum eigenvalue of V + i*Omega; physical iff >= -TOL_PHYS."""
    omega = symplectic_form(state.modes)
    herm = state.V + 1j * omega
    min_eig = float(np.linalg.eigvalsh(herm)[0])
    return PhysicalityReport(min_eig=min_eig, physical=min_eig >= -TOL_PHYS)


def assemble_covariance(blocks) -> CovarianceState:
    """Build the 2M x 2M covariance with diag blocks diag(eps1, eps2) and
    off-diagonal blocks diag(gam1, gam2).

    Raises NumericalError if the result violates the uncertainty relation.
    """
    m = blocks.M
    eps = np.diag([blocks.eps1, blocks.eps2])
    gam = np.diag([blocks.gam1, blocks.gam2])
    V = np.kron(np.eye(m), eps - gam) + np.kron(np.ones((m, m)), gam)
    state = CovarianceState(modes=m, V=V)
    report = physicality_check(state)
    if not report.physical:
        raise NumericalError(
            f"assembled covariance is non-physical (min eig {report.min_eig:.3e})"
        )
    return state


def symplectic_spectrum_numeric(state: CovarianceState) -> np.ndarray:
    """Numeric symplectic spectrum: |eigenvalues| of i*Omega*V, paired.

    Returns the M symplectic eigenvalues sorted ascending.  This is the
    oracle the closed-form spectra are checked against.
    """
    omega = symplectic_form(state.modes)
    try:
        eigs = np.linalg.eigvals(1j * omega @ state.V)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed: {exc}") from exc
    mags = np.sort(np.abs(eigs))
    lo, hi = mags[0::2], mags[1::2]
    scale = np.maximum(hi, 1.0)
    if np.any((hi - lo) > TOL_PAIR * scale):
        raise NumericalError("could not pair conjugate symplectic eigenvalues")
    return 0.5 * (lo + hi)


def phase_rotation(thetas: np.ndarray) -> np.ndarray:
    """Block-diagonal phase-space rotation, one 2x2 block R(theta_j) per mode.

    R(theta) = [[cos, sin], [-sin, cos]]; the result is orthogonal and
    symplectic.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    m = thetas.shape[0]
    rot = np.zeros((2 * m, 2 * m))
    c, s = np.cos(thetas), np.sin(thetas)
    for j in range(m):
        rot[2 * j, 2 * j] = c[j]
        rot[2 * j, 2 * j + 1] = s[j]
        rot[2 * j + 1, 2 * j] = -s[j]
        rot[2 * j + 1, 2 * j + 1] = c[j]
    return rot


def fsg_determinant(blocks) -> float:
    """Closed-form determinant of the block covariance matrix.

    det V = (eps1 + (M-1) gam1)(eps2 + (M-1) gam2)
            * [(eps1 - gam1)(eps2 - gam2)]^(M-1)
    """
    m = blocks.M
    top = (blocks.eps1 + (m - 1) * blocks.gam1) * (blocks.eps2 + (m - 1) * blocks.gam2)
    base = (blocks.eps1 - blocks.gam1) * (blocks.eps2 - blocks.gam2)
    return float(top * base ** (m - 1))


def fsg_symplectic_eigenvalues(blocks) -> tuple[float, float]:
    """Closed-form symplectic eigenvalues (nu_minus, nu_plus).

    nu_minus = sqrt((eps1-gam1)(eps2-gam2)) with multiplicity M-1,
    nu_plus = sqrt((eps1+(M-1)gam1)(eps2+(M-1)gam2)) non-degenerate.
    """
    m = blocks.M
    f1 = blocks.eps1 - blocks.gam1
    f2 = blocks.eps2 - blocks.gam2
    f3 = blocks.eps1 + (m - 1) * blocks.gam1
    f4 = blocks.eps2 + (m - 1) * blocks.gam2
    if min(f1, f2, f3, f4) <= 0.0:
        raise DomainError(
            "symplectic eigenvalue factors must be positive, got "
            f"({f1:.3e}, {f2:.3e}, {f3:.3e}, {f4:.3e})"
        )
    # a product of square roots does not overflow
    return float(np.sqrt(f1) * np.sqrt(f2)), float(np.sqrt(f3) * np.sqrt(f4))
