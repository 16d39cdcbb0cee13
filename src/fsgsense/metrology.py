"""Fisher information, estimation precision and privacy for FSG states.

The quantum Fisher information matrix of an isothermal FSG state has the
structured form F = a I + b J (J is the all-ones matrix), which this module
stores as two scalars.  A dense numeric QFIM oracle for arbitrary zero-mean
Gaussian states is provided for validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DomainError,
    NumericalError,
    OutOfRangeError,
    SingularError,
    UndefinedError,
)
from .family import FsgBlocks, physical_eigenvalues
from .symplectic import CovarianceState, first_where, symplectic_form

#: Relative tolerance governing the regular/pseudo inverse switch.
TOL_RANK = 1e-10


@dataclass(frozen=True)
class StructuredFim:
    """Fisher matrix of the form a I_M + b J_M."""

    M: int
    a: float
    b: float

    def __post_init__(self):
        if self.M < 2:
            raise DomainError(f"M must be >= 2, got {self.M}")
        check_psd(self.a, self.b, self.M)

    def dense(self) -> np.ndarray:
        return self.a * np.eye(self.M) + self.b * np.ones((self.M, self.M))

    @property
    def f11(self) -> float:
        return self.a + self.b

    @property
    def f12(self) -> float:
        return self.b


@dataclass(frozen=True)
class WeightVector:
    """Positive, 1-norm-normalized weights of the target linear function."""

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 1 or w.shape[0] < 2:
            raise DomainError("weight vector must be 1-D with at least 2 entries")
        if np.any(w <= 0.0):
            raise DomainError("all weights must be positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise DomainError(f"weights must sum to 1, got {w.sum()!r}")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    @property
    def M(self) -> int:
        return self.w.shape[0]

    @property
    def norm2_sq(self) -> float:
        return float(self.w @ self.w)

    @property
    def is_mean(self) -> bool:
        return bool(np.max(np.abs(self.w - 1.0 / self.M)) <= 1e-12)


def mean_weights(M: int) -> WeightVector:
    return WeightVector(np.full(M, 1.0 / M))


@dataclass(frozen=True)
class FimInverse:
    """Inverse (or Moore-Penrose pseudo-inverse) of a structured Fisher matrix."""

    M: int
    kind: str  # "regular" | "pseudo"
    alpha: float
    beta: float

    def dense(self) -> np.ndarray:
        return self.alpha * np.eye(self.M) + self.beta * np.ones((self.M, self.M))


def check_psd(a, b, m) -> None:
    """Raise DomainError where F = a I + b J is not PSD; elementwise.

    The eigenvalues a and a + M b may dip below zero by 1e-12 of the scale
    |a| + M |b| (rounding).
    """
    tol = -1e-12 * np.maximum(1.0, np.abs(a) + m * np.abs(b))
    bad = (a < tol) | (a + m * b < tol)
    if np.count_nonzero(bad):
        raise DomainError(
            "structured Fisher matrix not PSD: a={}, b={}".format(*first_where(bad, a, b))
        )


def qfim_fsg(blocks: FsgBlocks) -> StructuredFim:
    """Structured QFIM of an isothermal FSG state under local phase shifts.

    F11 = [ (eps1^2 + eps2^2)/2 - nu^2 ] * 2 / (1 + nu^2)
    F12 = (gam1^2 + gam2^2) / (1 + nu^2)

    For pure states (nu = 1) this reduces to F11 = (eps1^2+eps2^2)/2 - 1 and
    F12 = (gam1^2+gam2^2)/2.  Valid for isothermal states only; raises
    DomainError when the two symplectic eigenvalues differ.
    """
    a, b = qfim_coeffs(blocks.eps1, blocks.eps2, blocks.gam1, blocks.gam2, blocks.M)
    return StructuredFim(M=blocks.M, a=float(a), b=float(b))


def qfim_coeffs(eps1, eps2, gam1, gam2, m):
    """qfim_fsg's (a, b) for arrays of blocks, with every check of the
    scalar path applied to each point.

    Raises DomainError where the blocks are unphysical (see
    physical_eigenvalues), not isothermal, or give a Fisher matrix that is
    not PSD.
    """
    nu_minus, nu_plus = physical_eigenvalues(eps1, eps2, gam1, gam2, m)
    # both eigenvalues are positive here
    split = np.abs(nu_plus - nu_minus) > 1e-8 * np.maximum(1.0, nu_plus)
    if np.count_nonzero(split):
        raise DomainError(
            "QFIM closed form needs an isothermal state; nu-={}, nu+={}".format(
                *first_where(split, nu_minus, nu_plus)
            )
        )
    nu = 0.5 * (nu_minus + nu_plus)
    a, b = fisher_coeffs(eps1, eps2, gam1, gam2, nu)
    # guard against rounding at the perfect-privacy point
    a = np.where((-1e-12 * np.maximum(1.0, np.abs(a + b)) < a) & (a < 0.0), 0.0, a)
    check_psd(a, b, m)
    return a, b


def fisher_coeffs(eps1, eps2, gam1, gam2, nu):
    """Structured QFIM coefficients (a, b) of isothermal blocks; array-aware.

    F11 = [ (eps1^2 + eps2^2)/2 - nu^2 ] * 2 / (1 + nu^2),
    F12 = (gam1^2 + gam2^2) / (1 + nu^2), a = F11 - F12 and b = F12.
    Squares are products: a scalar x ** 2 goes through libm pow, which
    can differ from an array's x * x in the last bit.
    """
    scale = 2.0 / (1.0 + nu * nu)
    f11 = (0.5 * (eps1 * eps1 + eps2 * eps2) - nu * nu) * scale
    f12 = 0.5 * (gam1 * gam1 + gam2 * gam2) * scale
    return f11 - f12, f12


def xi_from_ab(a, b, m: int):
    """Mean-phase precision xi = M (a + M b) of F = a I + b J; array-aware."""
    return m * (a + m * b)


def privacy_from_ab(a, b, m, n2):
    """Privacy (n2 a + b) / (M n2 (a + b)) of F = a I + b J, n2 = ||w||_2^2.

    Array-aware; NaN where the trace M (a + b) is not positive.
    """
    den = m * n2 * (a + b)
    out = np.full(np.shape(den), np.nan)
    return np.divide(n2 * a + b, den, out=out, where=a + b > 0.0)


def fim_inverse(fim: StructuredFim) -> FimInverse:
    """Structured inverse alpha I + beta J of F = a I + b J.

    Regular branch: alpha = 1/a, beta = -b / [a (a + M b)].  When a is
    numerically zero the matrix is rank one and the Moore-Penrose inverse
    J / (M^2 b) is returned instead.
    """
    m, a, b = fim.M, fim.a, fim.b
    scale = max(abs(a), abs(b), 1.0)
    if a > TOL_RANK * scale:
        full = a + m * b
        if full <= TOL_RANK * scale:
            raise SingularError(
                f"structured Fisher matrix rank-deficient along 1: a={a}, b={b}"
            )
        return FimInverse(M=m, kind="regular", alpha=1.0 / a, beta=-b / (a * full))
    if b > TOL_RANK * scale:
        coeff = 1.0 / (m * m * b)
        return FimInverse(M=m, kind="pseudo", alpha=0.0, beta=coeff)
    raise SingularError(f"Fisher matrix numerically zero: a={a}, b={b}")


def precision(fim: StructuredFim, weights: WeightVector) -> float:
    """Estimation precision xi = [w^T F^-1 w]^-1 for the structured QFIM.

    For uniform weights the algebraic identity xi = M (a + M b) is used;
    it is exact for both the regular and the rank-one (pseudo-inverse)
    branch and avoids cancellation when a -> 0.
    """
    if fim.M != weights.M:
        raise DomainError("Fisher matrix and weight vector sizes differ")
    m, a, b = fim.M, fim.a, fim.b
    if weights.is_mean:
        if a + m * b <= 0.0:
            raise SingularError(f"Fisher matrix numerically zero: a={a}, b={b}")
        return float(xi_from_ab(a, b, m))
    inv = fim_inverse(fim)
    if inv.kind == "pseudo":
        # range(F) = span(1); anything off the uniform direction is invisible
        resid = weights.w - 1.0 / m
        if float(np.linalg.norm(resid)) > 1e-9:
            raise OutOfRangeError(
                "weight vector leaves the range of a rank-one Fisher matrix"
            )
        return float(m * m * b)
    inv_quad = weights.norm2_sq * inv.alpha + inv.beta
    return float(1.0 / inv_quad)


def privacy(fim: StructuredFim | np.ndarray, weights: WeightVector) -> float:
    """Privacy parameter P = Tr(W F) / (||w||_2^2 Tr F) with W = w w^T.

    Structured inputs use the specialization
    P = (||w||_2^2 a + b) / (M ||w||_2^2 (a + b)); dense PSD matrices are
    evaluated directly (an extension used for reporting the homodyne FIM).
    Raises UndefinedError on a vanishing trace (vacuum: 0/0).
    """
    if isinstance(fim, StructuredFim):
        if fim.M != weights.M:
            raise DomainError("Fisher matrix and weight vector sizes differ")
        trace = fim.M * (fim.a + fim.b)
        if trace <= 1e-300:
            raise UndefinedError("privacy undefined: Fisher matrix has zero trace")
        return float(privacy_from_ab(fim.a, fim.b, fim.M, weights.norm2_sq))
    dense = np.asarray(fim, dtype=float)
    if dense.shape != (weights.M, weights.M):
        raise DomainError("Fisher matrix and weight vector sizes differ")
    trace = float(np.trace(dense))
    if trace <= 1e-300:
        raise UndefinedError("privacy undefined: Fisher matrix has zero trace")
    return float((weights.w @ dense @ weights.w) / (weights.norm2_sq * trace))


def closed_form_privacy_of_optimum(M: int, N_tot: float) -> float:
    """Privacy of the precision-optimal pure state: 1 - (M-1)/(1+M+2N)."""
    if M < 2:
        raise DomainError(f"M must be >= 2, got {M}")
    if N_tot < 0.0:
        raise DomainError(f"N_tot must be >= 0, got {N_tot}")
    return 1.0 - (M - 1.0) / (1.0 + M + 2.0 * N_tot)


@dataclass(frozen=True)
class WeightSpectrum:
    principal: float
    principal_vec: np.ndarray
    nulls: int


def weight_matrix_spectrum(weights: WeightVector) -> WeightSpectrum:
    """Numeric spectrum of W = w w^T: one eigenvalue ||w||_2^2, M-1 zeros."""
    W = np.outer(weights.w, weights.w)
    vals, vecs = np.linalg.eigh(W)
    idx = int(np.argmax(vals))
    nulls = int(np.sum(np.abs(vals) <= 1e-12))
    return WeightSpectrum(
        principal=float(vals[idx]), principal_vec=vecs[:, idx].copy(), nulls=nulls
    )


def phase_shift_generators(state: CovarianceState) -> list[np.ndarray]:
    """Derivatives dV/dtheta_j at zero angles for local phase encoding."""
    m = state.modes
    gen = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = []
    for j in range(m):
        G = np.zeros((2 * m, 2 * m))
        G[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = gen
        out.append(G @ state.V + state.V @ G.T)
    return out


def qfim_general_gaussian(
    state: CovarianceState, dV: Sequence[np.ndarray], rcond: float = 1e-10
) -> np.ndarray:
    """Numeric QFIM oracle for zero-mean Gaussian states.

    F_jk = vec(dV_j)^T (V (x) V - Omega (x) Omega)^+ vec(dV_k) / 2,
    evaluated through a symmetric eigendecomposition with eigenvalues below
    rcond * max clipped (the Moore-Penrose regularization needed for pure
    and near-pure states).  Calibrated against the single-mode pure
    squeezed-vacuum value 8 N (N + 1).
    """
    m = state.modes
    omega = symplectic_form(m)
    big = np.kron(state.V, state.V) - np.kron(omega, omega)
    try:
        vals, vecs = np.linalg.eigh(big)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed on the QFIM kernel: {exc}") from exc
    cutoff = rcond * float(np.max(np.abs(vals)))
    if cutoff <= 0.0:
        raise NumericalError("QFIM kernel is numerically zero")
    keep = np.abs(vals) > cutoff
    inv_vals = np.where(keep, 1.0 / np.where(keep, vals, 1.0), 0.0)
    mats = []
    for k, dv in enumerate(dV):
        dv = np.asarray(dv, dtype=float)
        if not np.allclose(dv, dv.T, rtol=0.0, atol=1e-10):
            raise DomainError(f"derivative matrix {k} is not symmetric")
        mats.append(dv.T.reshape(-1))
    vec = np.array(mats)  # (P, 4 M^2)
    proj = vec @ vecs
    fim = 0.5 * (proj * inv_vals) @ proj.T
    return 0.5 * (fim + fim.T)


def qfim_fsg_numeric(state: CovarianceState, rcond: float = 1e-10) -> np.ndarray:
    """Oracle QFIM of a state under local phase shifts on every mode."""
    return qfim_general_gaussian(state, phase_shift_generators(state), rcond=rcond)


__all__ = [
    "StructuredFim",
    "WeightVector",
    "FimInverse",
    "WeightSpectrum",
    "mean_weights",
    "qfim_fsg",
    "qfim_coeffs",
    "check_psd",
    "fisher_coeffs",
    "xi_from_ab",
    "privacy_from_ab",
    "fim_inverse",
    "precision",
    "privacy",
    "closed_form_privacy_of_optimum",
    "weight_matrix_spectrum",
    "phase_shift_generators",
    "qfim_general_gaussian",
    "qfim_fsg_numeric",
    "TOL_RANK",
]
