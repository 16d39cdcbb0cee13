"""Fisher information, estimation precision and privacy for FSG states.

The quantum Fisher information matrix of an isothermal FSG state has the
structured form F = a I + b J (J is the all-ones matrix), which this module
stores as two scalars and computes from the state's chart
(chart_fisher_coeffs).  Precision and privacy of the mean phase are closed
forms in (a, b).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


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
        if not (self.a >= -1e-12 * scale and self.a + self.M * self.b >= -1e-12 * scale):
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


def one_minus_privacy_from_ab(a, b, m):
    """Mean-weight 1 - P = (M-1) a / [M (a + b)] of F = a I + b J.

    For a, b >= 0 nothing cancels, so 1 - P keeps its relative accuracy as
    P -> 1.  Array-aware; NaN where a + b is not positive.
    """
    # the n2 = 1/M form, whose (M n2 - 1) b term is 0 as fl(M fl(1/M)) <= 1
    n2 = 1.0 / m
    num = (m - 1.0) * n2 * a
    den = m * n2 * (a + b)
    out = np.full(np.shape(den), np.nan)
    return np.divide(num, den, out=out, where=a + b > 0.0)
