"""Independent reference constructions used as test oracles."""

from fractions import Fraction

import numpy as np


def pade_exp_coeffs(m: int, n: int):
    """(m, n) Pade approximant of exp built from its Taylor coefficients.

    Solves the linear system that matches P(z) - exp(z) Q(z) = O(z^{m+n+1})
    with q_0 = 1, in exact rational arithmetic.  Returns ascending coefficient
    arrays (num, den) as floats.
    """
    taylor = [Fraction(1)]
    for k in range(1, m + n + 1):
        taylor.append(taylor[-1] / k)

    def c(k):
        return taylor[k] if 0 <= k <= m + n else Fraction(0)

    # rows k = m+1 .. m+n:  sum_j c_{k-j} q_j = -c_k
    a = [[c(k - j) for j in range(1, n + 1)] for k in range(m + 1, m + n + 1)]
    rhs = [-c(k) for k in range(m + 1, m + n + 1)]
    q = _solve_fraction(a, rhs)
    q = [Fraction(1)] + q
    p = [sum(c(k - j) * q[j] for j in range(0, min(k, n) + 1)) for k in range(m + 1)]
    return np.array([float(v) for v in p]), np.array([float(v) for v in q])


def _solve_fraction(a, b):
    """Gaussian elimination over Fractions (tiny systems only)."""
    n = len(b)
    a = [row[:] for row in a]
    b = b[:]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col] / a[col][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
                b[r] = b[r] - factor * b[col]
    return [b[r] / a[r][r] for r in range(n)]


def pade_exp_eval(m: int, n: int, z):
    """Evaluate the (m, n) Pade approximant of exp at (complex) z."""
    num, den = pade_exp_coeffs(m, n)
    z = np.asarray(z)
    return np.polyval(num[::-1], z) / np.polyval(den[::-1], z)


def forward_substitution(system, rhs):
    """Exact solve of the DG system one step at a time:
    u[n] = step_inv @ (rhs[n] + eval_start * (eval_end @ u[n-1]))."""
    ops = system.ops
    rhs = np.asarray(rhs, dtype=float)
    u = np.empty(rhs.shape)
    u[0] = ops.step_inv @ rhs[0]
    for n in range(1, system.n_steps):
        u[n] = ops.step_inv @ (rhs[n] + ops.eval_start * (ops.eval_end @ u[n - 1]))
    return u
