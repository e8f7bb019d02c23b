"""Damping parameters and smoothing factors for the damped block Jacobi iteration.

The local iteration matrix at frequency theta has eigenvalues
{1 - omega, 1 - omega + e^{-i theta} omega alpha(tau)}, where alpha(tau) is the
one-step amplification R(-tau).  The optimal damping keeps the worst
high-frequency modulus at alpha/sqrt(1 + alpha^2) <= 1/sqrt(2).
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np

from .dg import BasisSpec, stability_function
from .fourier import frequencies

# global minimum of R(-tau) over all degrees and tau >= 0
ALPHA_MIN = (5.0 - 3.0 * math.sqrt(3.0)) / 2.0


def alpha(basis: BasisSpec, tau: float) -> float:
    """One-step amplification R(-tau); real, in [(5 - 3 sqrt 3)/2, 1]."""
    if tau < 0:
        raise ValueError(f"step size must be >= 0, got {tau}")
    if tau == 0:
        return 1.0
    return float(np.real(stability_function(basis, -tau)))


def optimal_omega(a: float) -> float:
    """Damping that minimizes the worst high-frequency smoothing modulus."""
    return 1.0 / (1.0 + a * a) if a >= 0 else 1.0


def resolve_damping(damping, a: float) -> float:
    """Turn a damping choice ("optimal" or a number in (0, 2)) into a value.

    Values in (1, 2) still converge but smooth non-uniformly; they are allowed
    with a warning.
    """
    if isinstance(damping, str):
        if damping != "optimal":
            raise ValueError(f"unknown damping mode {damping!r}")
        return optimal_omega(a)
    w = float(damping)
    if not 0.0 < w < 2.0:
        raise ValueError(f"damping must lie in (0, 2), got {w}")
    if w > 1.0:
        warnings.warn(f"damping {w} in (1, 2): convergent but not uniformly smoothing",
                      stacklevel=2)
    return w


def smoothing_symbol_modulus(omega: float, a: float, theta) -> np.ndarray:
    """Modulus |1 - omega + e^{-i theta} omega a| of the nontrivial eigenvalue."""
    theta = np.asarray(theta, dtype=float)
    sq = (1.0 - omega) ** 2 + 2.0 * omega * (1.0 - omega) * a * np.cos(theta) \
        + (a * omega) ** 2
    return np.sqrt(np.maximum(sq, 0.0))


@dataclasses.dataclass(frozen=True)
class SmoothingReport:
    """Smoothing diagnostics for one (p_t, tau, omega) combination."""

    p_t: int
    tau: float
    omega: float
    alpha: float
    mu_s: float       # worst spectral radius over the high frequencies
    rho_all: float    # worst spectral radius over all frequencies

    def to_row(self) -> dict:
        return dataclasses.asdict(self)


def smoothing_factor(basis: BasisSpec, tau: float, omega, n_steps: int) -> SmoothingReport:
    """Asymptotic smoothing factor over the discrete high frequencies.

    ``omega`` may be a number in (0, 2) or "optimal".  ``rho_all`` takes the
    same maximum over all frequencies and bounds the plain iteration.
    """
    freqs = frequencies(n_steps)
    a = alpha(basis, tau)
    w = resolve_damping(omega, a)
    base = abs(1.0 - w)
    mu_s = max(base, float(np.max(smoothing_symbol_modulus(w, a, freqs.high))))
    rho_all = max(base, float(np.max(smoothing_symbol_modulus(w, a, freqs.all))))
    return SmoothingReport(p_t=basis.p_t, tau=tau, omega=w, alpha=a,
                           mu_s=mu_s, rho_all=rho_all)
