"""Independent reference constructions used as test oracles."""

from fractions import Fraction

import mpmath
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


def twogrid_radius_mp(ops_fine, ops_coarse, transfers, theta, nu1, nu2, omega, dps=40):
    """Spectral radius of the two-grid symbol S^{nu2} (I - P Lc^{-1} R Lf) S^{nu1}
    on the pair (theta, gamma(theta)), evaluated in ``dps``-digit arithmetic
    from the float64 blocks and vectors that ``fourier.twogrid_symbol`` reads:
    every phase, product, inverse and eigenvalue is taken in mpmath."""
    with mpmath.workdps(dps):
        def mat(a):
            return mpmath.matrix(np.atleast_2d(a).tolist())

        n_t = ops_fine.n_t
        r1, r2 = (mat(r) for r in transfers)
        u, v = mat(ops_fine.step_inv_start).T, mat(ops_fine.eval_end)
        w = mpmath.mpf(float(omega))
        t = mpmath.mpf(float(theta))
        pair = (t, t - mpmath.pi if theta > 0 else t + mpmath.pi)
        p, r = mpmath.zeros(2 * n_t, n_t), mpmath.zeros(n_t, 2 * n_t)
        lf, s1, s2 = (mpmath.zeros(2 * n_t, 2 * n_t) for _ in range(3))

        def put(out, block, bi, bj):
            for i in range(n_t):
                for j in range(n_t):
                    out[bi * n_t + i, bj * n_t + j] = block[i, j]

        for k, tk in enumerate(pair):
            z = mpmath.exp(-1j * tk)
            smoother = (1 - w) * mpmath.eye(n_t) + z * w * u * v
            put(p, (z.conjugate() * r1.T + r2.T) / 2, k, 0)
            put(r, z * r1 + r2, 0, k)
            put(lf, mat(ops_fine.step_matrix) - z * mat(ops_fine.eval_start).T * v, k, k)
            put(s1, smoother ** nu1, k, k)
            put(s2, smoother ** nu2, k, k)
        z2 = mpmath.exp(-2j * t)
        lc = mat(ops_coarse.step_matrix) \
            - z2 * mat(ops_coarse.eval_start).T * mat(ops_coarse.eval_end)
        m = s2 * (mpmath.eye(2 * n_t) - p * (mpmath.inverse(lc) * (r * lf))) * s1
        return float(max(abs(x) for x in mpmath.eig(m, left=False, right=False)))
