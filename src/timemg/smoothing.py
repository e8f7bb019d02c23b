"""Damping parameters and the smoothing symbol of the damped block Jacobi
iteration; ``fourier.smoothing_factor`` maximizes it over a frequency grid.

The local iteration matrix at frequency theta has eigenvalues
{1 - omega, 1 - omega + e^{-i theta} omega alpha(tau)}, where alpha(tau) is the
one-step amplification R(-tau).  The optimal damping keeps the worst
high-frequency modulus at alpha/sqrt(1 + alpha^2) <= 1/sqrt(2).
"""

from __future__ import annotations

import math
import numbers
import warnings

import numpy as np

from .dg import BasisSpec, check_count, stability_function

# global minimum of R(-tau) over all degrees and tau >= 0
ALPHA_MIN = (5.0 - 3.0 * math.sqrt(3.0)) / 2.0


def alpha(basis: BasisSpec, tau: float) -> float:
    """One-step amplification R(-tau); real, in [(5 - 3 sqrt 3)/2, 1]."""
    if not 0.0 <= tau < math.inf:
        raise ValueError(f"step size must be finite and >= 0, got {tau}")
    if tau == 0:
        return 1.0
    return float(np.real(stability_function(basis, -tau)))


def optimal_omega(a: float) -> float:
    """Damping that minimizes the worst high-frequency smoothing modulus."""
    return 1.0 / (1.0 + a * a) if a >= 0 else 1.0


def check_damping(damping, name: str = "damping") -> None:
    """Refuse, by ``name``, a ``damping`` other than "optimal" or a number in
    (0, 2); any name but "damping" (the sweep's ``omega``, which has no step
    size to resolve "optimal") takes a number only."""
    optimal = name == "damping"
    if optimal and isinstance(damping, str):
        if damping != "optimal":
            raise ValueError(f"unknown damping mode {damping!r}")
    elif isinstance(damping, bool) or not isinstance(damping, numbers.Real):
        wanted = "'optimal' or a number" if optimal else "a number"
        raise ValueError(f"{name} must be {wanted} in (0, 2), got {damping!r}")
    elif not 0.0 < damping < 2.0:
        raise ValueError(f"{name} must lie in (0, 2), got {float(damping)}")


def check_cycle(nu1: int, nu2: int, damping) -> None:
    """The one check of a cycle, for the solver and the analyzer, by name."""
    check_count("nu1", nu1, 0)
    check_count("nu2", nu2, 0)
    check_damping(damping)


def resolve_damping(damping, a: float) -> float:
    """Turn a damping choice ("optimal" or a number in (0, 2)) into a value.

    Values in (1, 2) still converge but smooth non-uniformly; they are allowed
    with a warning.
    """
    check_damping(damping)
    if isinstance(damping, str):
        return optimal_omega(a)
    w = float(damping)
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
