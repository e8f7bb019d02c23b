"""Dense reference assembly of the global operators for brute-force checks.

Everything here materializes the full matrices and is only meant for small
step counts: it cross-validates the Fourier symbols and the matrix-free
cycles against an independent construction.
"""

from __future__ import annotations

import numpy as np

from .dg import LocalOperators


def step_shift_matrix(n_steps: int, periodic: bool) -> np.ndarray:
    """Lower shift with -1 entries (plus the wrap-around corner when periodic)."""
    u = np.zeros((n_steps, n_steps))
    idx = np.arange(n_steps - 1)
    u[idx + 1, idx] = -1.0
    if periodic:
        u[0, n_steps - 1] = -1.0
    return u


def dense_system(ops: LocalOperators, n_steps: int, periodic: bool = False) -> np.ndarray:
    return np.kron(np.eye(n_steps), ops.step_matrix) \
        + np.kron(step_shift_matrix(n_steps, periodic), np.outer(ops.eval_start, ops.eval_end))


def dense_smoother(ops: LocalOperators, n_steps: int, omega: float,
                   periodic: bool = False) -> np.ndarray:
    """Iteration matrix I - omega D^{-1} L of the damped block Jacobi sweep."""
    l_mat = dense_system(ops, n_steps, periodic)
    d_inv = np.kron(np.eye(n_steps), np.linalg.inv(ops.step_matrix))
    return np.eye(n_steps * ops.n_t) - omega * d_inv @ l_mat


def dense_restriction(r1: np.ndarray, r2: np.ndarray, n_fine: int) -> np.ndarray:
    """Block restriction: coarse block m collects fine blocks 2m and 2m+1."""
    n_t = r1.shape[0]
    n_coarse = n_fine // 2
    out = np.zeros((n_coarse * n_t, n_fine * n_t))
    for m in range(n_coarse):
        out[m * n_t:(m + 1) * n_t, 2 * m * n_t:(2 * m + 1) * n_t] = r1
        out[m * n_t:(m + 1) * n_t, (2 * m + 1) * n_t:(2 * m + 2) * n_t] = r2
    return out


def dense_prolongation(r1: np.ndarray, r2: np.ndarray, n_fine: int) -> np.ndarray:
    """Block prolongation, the transpose of the restriction: coarse block m
    feeds fine blocks 2m and 2m+1."""
    return dense_restriction(r1, r2, n_fine).T


def dense_twogrid(ops_fine: LocalOperators, ops_coarse: LocalOperators,
                  r1: np.ndarray, r2: np.ndarray, n_fine: int,
                  nu1: int, nu2: int, omega: float,
                  periodic: bool = False) -> np.ndarray:
    """Error propagation matrix S^{nu2} [I - P Lc^{-1} R Lf] S^{nu1}."""
    lf = dense_system(ops_fine, n_fine, periodic)
    lc = dense_system(ops_coarse, n_fine // 2, periodic)
    restrict = dense_restriction(r1, r2, n_fine)
    prolong = dense_prolongation(r1, r2, n_fine)
    s = dense_smoother(ops_fine, n_fine, omega, periodic)
    correction = np.eye(n_fine * ops_fine.n_t) - prolong @ np.linalg.solve(lc, restrict @ lf)
    return np.linalg.matrix_power(s, nu2) @ correction @ np.linalg.matrix_power(s, nu1)
