"""Reference implementations the tests and the benchmark's output checks
compare the product path against: the 2x2 covariance-block form
(FsgBlocks, with its vacuum check) and the algebra on it, the dense
numeric QFIM, general-weight precision and privacy, the dense homodyne
outcome covariance, and the brute-force free-parameter scan.  The product
path meets blocks only as CSV columns (family.chart_blocks); no product
module imports this one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NumericalError
from .family import FsgParams, budget, chart_blocks
from .metrology import StructuredFim, privacy_from_ab, xi_from_ab
from .optimize import _chart_values
from .symplectic import CovarianceState, fsg_symplectic_eigenvalues, symplectic_form

#: Eigenvalue slack allowed below the vacuum limit nu = 1, at entries of
#: order 1 (FsgBlocks scales it with the entries).
_TOL_NU = 1e-9

#: Relative tolerance governing the regular/pseudo inverse switch.
TOL_RANK = 1e-10


@dataclass(frozen=True)
class FsgBlocks:
    """Covariance entries (eps1, eps2, gam1, gam2) of the 2x2 block form."""

    M: int
    eps1: float
    eps2: float
    gam1: float
    gam2: float

    def __post_init__(self):
        if self.M < 2:
            raise DomainError(f"M must be >= 2, got {self.M}")
        m, e1, e2, g1, g2 = self.M, self.eps1, self.eps2, self.gam1, self.gam2
        nu_minus, nu_plus = fsg_symplectic_eigenvalues(self)
        # nu^2 = f1 f2 with f_i = eps_i - k gam_i, k = 1 for nu- and 1 - M for
        # nu+ (symplectic); f_i rounds at the size of its terms, which moves
        # nu^2 by a few times 2^-53 [(terms of f1) f2 + (terms of f2) f1]
        for nu, k in ((nu_minus, 1.0), (nu_plus, 1.0 - m)):
            f1, f2 = e1 - k * g1, e2 - k * g2
            rounding = (e1 + abs(k * g1)) * f2 + (e2 + abs(k * g2)) * f1
            if nu < 1.0 - _TOL_NU - 2.0**-50 * rounding:
                raise DomainError(
                    f"symplectic eigenvalues below vacuum: nu-={nu_minus}, nu+={nu_plus}"
                )


def _isothermal_nu(blocks: FsgBlocks, failure: str) -> float:
    """Mean symplectic eigenvalue of isothermal blocks; DomainError starting
    with `failure` when |nu+ - nu-| > 1e-8 max(1, nu+)."""
    nu_minus, nu_plus = fsg_symplectic_eigenvalues(blocks)
    if abs(nu_plus - nu_minus) > 1e-8 * max(1.0, nu_plus):
        raise DomainError(f"{failure}nu-={nu_minus}, nu+={nu_plus}")
    return 0.5 * (nu_minus + nu_plus)


def blocks_from_params(params: FsgParams) -> FsgBlocks:
    """Checked covariance blocks of the chart state (see family.chart_blocks)."""
    return FsgBlocks(params.M, *chart_blocks(params.M, params.nu, params.s, params.t))


def params_from_blocks(blocks: FsgBlocks) -> FsgParams:
    """Invert the chart: recover (M, n_th, s, t) from isothermal blocks.

    Uses eps1 - gam1 = nu e^{2t} and eps1 + (M-1) gam1 = nu e^{2s}.
    Raises DomainError if the blocks are not isothermal.
    """
    m = blocks.M
    # clamp rounding below vacuum
    nu = max(_isothermal_nu(blocks, "blocks not isothermal: "), 1.0)
    t = 0.5 * np.log((blocks.eps1 - blocks.gam1) / nu)
    s = 0.5 * np.log((blocks.eps1 + (m - 1) * blocks.gam1) / nu)
    return FsgParams(M=m, n_th=0.5 * (nu - 1.0), s=float(s), t=float(t))


def total_photons(blocks: FsgBlocks) -> float:
    """Mean photon number above vacuum: N_tot = M (eps1 + eps2 - 2) / 4."""
    return blocks.M * (blocks.eps1 + blocks.eps2 - 2.0) / 4.0


def optimal_precision_blocks(M: int, N_tot: float) -> FsgBlocks:
    """Pure blocks of the precision-optimal state at budget N_tot.

    gam_i = [2 N - 2 (-1)^i sqrt(N (N+1))] / M, gam2 as -2 sqrt N / [(sqrt N
    + sqrt(N+1)) M], which does not cancel, and eps_i = 1 + gam_i; the
    state is pure and reaches the ultimate precision 8 N (N + 1).
    """
    if N_tot < 0.0:
        raise DomainError(f"N_tot must be >= 0, got {N_tot}")
    root = np.sqrt(N_tot * (N_tot + 1.0))
    gam1 = (2.0 * N_tot + 2.0 * root) / M
    gam2 = -2.0 * np.sqrt(N_tot) / ((np.sqrt(N_tot) + np.sqrt(N_tot + 1.0)) * M)
    return FsgBlocks(M=M, eps1=1.0 + gam1, eps2=1.0 + gam2, gam1=gam1, gam2=gam2)


def tmsv_blocks(N_tot: float) -> FsgBlocks:
    """Two-mode squeezed vacuum blocks at budget N_tot (M = 2).

    eps1 = eps2 = 1 + N_tot, gam1 = -gam2 = sqrt(N_tot (N_tot + 2)); the
    unique FSG state with perfect privacy at finite photon number.
    """
    if N_tot < 0.0:
        raise DomainError(f"N_tot must be >= 0, got {N_tot}")
    g = float(np.sqrt(N_tot * (N_tot + 2.0)))
    return FsgBlocks(M=2, eps1=1.0 + N_tot, eps2=1.0 + N_tot, gam1=g, gam2=-g)


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
    (M, n_th, s, t) chart are better served by
    metrology.chart_fisher_coeffs, which does not cancel.
    """
    nu = _isothermal_nu(blocks, "QFIM closed form needs an isothermal state; ")
    e1, e2, g1, g2 = blocks.eps1, blocks.eps2, blocks.gam1, blocks.gam2
    # x * x, not x ** 2: libm pow can differ from the product in the last bit
    scale = 2.0 / (1.0 + nu * nu)
    f11 = (0.5 * (e1 * e1 + e2 * e2) - nu * nu) * scale
    b = 0.5 * (g1 * g1 + g2 * g2) * scale
    a = f11 - b
    # guard against rounding at the perfect-privacy point
    if -1e-12 * max(1.0, abs(a + b)) < a < 0.0:
        a = 0.0
    return StructuredFim(M=blocks.M, a=float(a), b=float(b))


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


def privacy(fim: StructuredFim, weights: WeightVector) -> float:
    """Privacy parameter P = Tr(W F) / (||w||_2^2 Tr F) with W = w w^T,
    for F = a I + b J: P = (||w||_2^2 a + b) / (M ||w||_2^2 (a + b)).

    Raises NumericalError on a vanishing trace (vacuum: 0/0).
    """
    if fim.M != weights.M:
        raise DomainError("Fisher matrix and weight vector sizes differ")
    if fim.M * (fim.a + fim.b) <= 1e-300:
        raise NumericalError("privacy undefined: Fisher matrix has zero trace")
    return float(privacy_from_ab(fim.a, fim.b, fim.M, weights.norm2_sq))


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


def homodyne_cov(
    blocks: FsgBlocks, theta_hd: float, thetas: np.ndarray | None = None
) -> np.ndarray:
    """Outcome covariance Gamma of local homodyne detection.

    Gamma_jk = b1 cos(phi_j) cos(phi_k) + b2 sin(phi_j) sin(phi_k) with
    phi_j = theta_hd + theta_j, where (b1, b2) are the diagonal entries of
    the covariance block coupling nodes j and k (eps on the diagonal, gam
    off it).  thetas=None means zero prior at every node.
    """
    m = blocks.M
    if thetas is None:
        phi = np.full(m, theta_hd)
    else:
        thetas = np.asarray(thetas, dtype=float)
        if thetas.shape != (m,):
            raise DomainError(f"expected {m} node angles, got shape {thetas.shape}")
        phi = theta_hd + thetas
    c, s = np.cos(phi), np.sin(phi)
    gamma = blocks.gam1 * np.outer(c, c) + blocks.gam2 * np.outer(s, s)
    diag = (blocks.eps1 - blocks.gam1) * c**2 + (blocks.eps2 - blocks.gam2) * s**2
    gamma[np.diag_indices(m)] += diag
    min_eig = float(np.linalg.eigvalsh(gamma)[0])
    if min_eig <= 1e-10:
        raise NumericalError(
            f"homodyne covariance lost positive definiteness (min eig {min_eig:.3e})"
        )
    return gamma


def homodyne_cov_derivatives(blocks: FsgBlocks, theta_hd: float) -> list[np.ndarray]:
    """Derivatives of Gamma in each node phase, at zero prior.

    d Gamma / d theta_j has (j, j) entry (eps2 - eps1) sin(2 theta_hd),
    (j, k) entries (gam2 - gam1) sin(2 theta_hd) / 2 for k != j, zero
    elsewhere.
    """
    m = blocks.M
    s2 = np.sin(2.0 * theta_hd)
    diag = (blocks.eps2 - blocks.eps1) * s2
    off = 0.5 * (blocks.gam2 - blocks.gam1) * s2
    out = []
    for j in range(m):
        d = np.zeros((m, m))
        d[j, :] = off
        d[:, j] = off
        d[j, j] = diag
        out.append(d)
    return out


class ScanPoint(NamedTuple):
    t: float
    xi: float
    privacy: float


def scan_free_parameter(
    M: int, n_th: float, N_tot: float, grid_points: int
) -> list[ScanPoint]:
    """Raw (t, xi, privacy) curve on a uniform grid over [-t_max, t_max]."""
    if grid_points < 3:
        raise DomainError(f"grid_points must be >= 3, got {grid_points}")
    nu, n_eff, t_max = budget(M, n_th, N_tot)
    ts = np.linspace(-t_max, t_max, grid_points)
    _, a, b, xi_arr, _ = _chart_values(M, nu, n_eff, ts)
    p_arr = privacy_from_ab(a, b, M, 1.0 / M)
    rows = zip(ts.tolist(), xi_arr.tolist(), p_arr.tolist())
    return list(map(ScanPoint._make, rows))
