"""Fisher information, estimation precision and privacy for FSG states.

The quantum Fisher information matrix of an isothermal FSG state has the
structured form F = a I + b J (J is the all-ones matrix), which this module
stores as two scalars.  A dense numeric QFIM of any zero-mean Gaussian
state (qfim_fsg_numeric) serves as the oracle for the closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .family import FsgBlocks
from .symplectic import CovarianceState, fsg_symplectic_eigenvalues, symplectic_form

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
        scale = max(1.0, abs(self.a) + self.M * abs(self.b))
        if self.a < -1e-12 * scale or self.a + self.M * self.b < -1e-12 * scale:
            raise DomainError(
                f"structured Fisher matrix not PSD: a={self.a}, b={self.b}"
            )

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


def qfim_fsg(blocks: FsgBlocks) -> StructuredFim:
    """Structured QFIM of isothermal FSG blocks under local phase shifts.

    F11 = [ (eps1^2 + eps2^2)/2 - nu^2 ] * 2 / (1 + nu^2)
    F12 = (gam1^2 + gam2^2) / (1 + nu^2)

    For pure states (nu = 1) this reduces to F11 = (eps1^2+eps2^2)/2 - 1 and
    F12 = (gam1^2+gam2^2)/2.  Valid for isothermal states only; raises
    DomainError when the two symplectic eigenvalues differ.  States of the
    (M, n_th, s, t) chart are better served by chart_fisher_coeffs, which
    does not cancel.
    """
    m = blocks.M
    nu_minus, nu_plus = fsg_symplectic_eigenvalues(blocks)
    if abs(nu_plus - nu_minus) > 1e-8 * max(1.0, abs(nu_plus)):
        raise DomainError(
            f"QFIM closed form needs an isothermal state; nu-={nu_minus}, nu+={nu_plus}"
        )
    nu = 0.5 * (nu_minus + nu_plus)
    a, b = fisher_coeffs(blocks.eps1, blocks.eps2, blocks.gam1, blocks.gam2, nu)
    # guard against rounding at the perfect-privacy point
    if -1e-12 * max(1.0, abs(a + b)) < a < 0.0:
        a = 0.0
    return StructuredFim(M=m, a=float(a), b=float(b))


def chart_fisher_coeffs(m, nu, s, t):
    """QFIM coefficients (a, b), F = a I + b J, of the chart state (M, nu, s, t).

    A uniform phase shift commutes with the passive change to normal
    modes: one common mode squeezed by s and M - 1 modes squeezed by t,
    each with thermal factor nu.  With k = 2 / (1 + nu^-2),
    a = 2k [2 sinh^2(s+t) + (M-2) sinh^2 2t] / M and
    b = 4k sinh^2(s-t) cosh(2s+2t) / M^2.
    Every term is non-negative, so nothing cancels, and k cannot overflow.
    Array-aware.
    """
    k = 2.0 / (1.0 + (1.0 / nu) ** 2)
    a = 2.0 * k * (2.0 * np.sinh(s + t) ** 2 + (m - 2.0) * np.sinh(2.0 * t) ** 2) / m
    b = 4.0 * k * np.sinh(s - t) ** 2 * np.cosh(2.0 * (s + t)) / (m * m)
    return a, b


def fisher_coeffs(eps1, eps2, gam1, gam2, nu):
    """Structured QFIM coefficients (a, b) of isothermal blocks; array-aware.

    F11 = [ (eps1^2 + eps2^2)/2 - nu^2 ] * 2 / (1 + nu^2),
    F12 = (gam1^2 + gam2^2) / (1 + nu^2), a = F11 - F12 and b = F12.
    Squares are products: a scalar x ** 2 goes through libm pow, which
    can differ from an array's x * x in the last bit.  On the chart this
    cancels large numbers; see chart_fisher_coeffs.
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


def one_minus_privacy_from_ab(a, b, m, n2):
    """1 - P = [(M-1) n2 a + (M n2 - 1) b] / [M n2 (a + b)] of F = a I + b J.

    For a, b >= 0 every term is non-negative (M n2 >= 1 by Cauchy-Schwarz;
    it is clamped there against rounding), so 1 - P keeps its relative
    accuracy as P -> 1.  Array-aware; NaN where a + b is not positive.
    """
    num = (m - 1.0) * n2 * a + np.maximum(m * n2 - 1.0, 0.0) * b
    den = m * n2 * (a + b)
    out = np.full(np.shape(den), np.nan)
    return np.divide(num, den, out=out, where=a + b > 0.0)


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
            raise NumericalError(
                f"structured Fisher matrix rank-deficient along 1: a={a}, b={b}"
            )
        return FimInverse(M=m, kind="regular", alpha=1.0 / a, beta=-b / (a * full))
    if b > TOL_RANK * scale:
        coeff = 1.0 / (m * m * b)
        return FimInverse(M=m, kind="pseudo", alpha=0.0, beta=coeff)
    raise NumericalError(f"Fisher matrix numerically zero: a={a}, b={b}")


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
            raise NumericalError(f"Fisher matrix numerically zero: a={a}, b={b}")
        return float(xi_from_ab(a, b, m))
    inv = fim_inverse(fim)
    if inv.kind == "pseudo":
        # range(F) = span(1); anything off the uniform direction is invisible
        resid = weights.w - 1.0 / m
        if float(np.linalg.norm(resid)) > 1e-9:
            raise NumericalError(
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
    Raises NumericalError on a vanishing trace (vacuum: 0/0).
    """
    if isinstance(fim, StructuredFim):
        if fim.M != weights.M:
            raise DomainError("Fisher matrix and weight vector sizes differ")
        trace = fim.M * (fim.a + fim.b)
        if trace <= 1e-300:
            raise NumericalError("privacy undefined: Fisher matrix has zero trace")
        return float(privacy_from_ab(fim.a, fim.b, fim.M, weights.norm2_sq))
    dense = np.asarray(fim, dtype=float)
    if dense.shape != (weights.M, weights.M):
        raise DomainError("Fisher matrix and weight vector sizes differ")
    trace = float(np.trace(dense))
    if trace <= 1e-300:
        raise NumericalError("privacy undefined: Fisher matrix has zero trace")
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


def qfim_fsg_numeric(state: CovarianceState, rcond: float = 1e-10) -> np.ndarray:
    """Dense numeric QFIM oracle of a zero-mean Gaussian state under local
    phase shifts on every mode.

    F_jk = vec(dV_j)^T (V (x) V - Omega (x) Omega)^+ vec(dV_k) / 2, with
    dV_j = G_j V + V G_j^T and G_j = [[0, 1], [-1, 0]] on mode j, evaluated
    through a symmetric eigendecomposition with eigenvalues below
    rcond * max clipped (the Moore-Penrose regularization needed for pure
    and near-pure states).  Calibrated against the single-mode pure
    squeezed-vacuum value 8 N (N + 1).
    """
    m, V = state.modes, state.V
    omega = symplectic_form(m)
    big = np.kron(V, V) - np.kron(omega, omega)
    try:
        vals, vecs = np.linalg.eigh(big)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed on the QFIM kernel: {exc}") from exc
    cutoff = rcond * float(np.max(np.abs(vals)))
    if cutoff <= 0.0:
        raise NumericalError("QFIM kernel is numerically zero")
    keep = np.abs(vals) > cutoff
    inv_vals = np.where(keep, 1.0 / np.where(keep, vals, 1.0), 0.0)
    # G_j V maps the rows (x_j, p_j) of V to (p_j, -x_j); V G_j^T is its
    # transpose, so every dV_j is symmetric
    j = np.arange(m)
    gv = np.zeros((m, 2 * m, 2 * m))
    gv[j, 2 * j] = V[2 * j + 1]
    gv[j, 2 * j + 1] = -V[2 * j]
    vec = (gv + gv.transpose(0, 2, 1)).reshape(m, -1)  # (M, 4 M^2)
    proj = vec @ vecs
    fim = 0.5 * (proj * inv_vals) @ proj.T
    return 0.5 * (fim + fim.T)
