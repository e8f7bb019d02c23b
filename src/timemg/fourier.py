"""Blockwise Fourier-mode machinery: frequency sets, local operator symbols,
the smoothing factor, and the two-grid symbol on pairs of aliased harmonics.

The analysis is exact for time-periodic coupling; for the initial value
problem it predicts the asymptotic behavior of the actual cycles.

The damped block Jacobi smoother is a rank-one change of (1 - omega) I, so
on a harmonic pair the two-grid iteration has the spectrum of a multiple of
I plus a product of rank n_t + 2.  ``rho_profile`` (and so ``predicted_rho``)
takes its radii from an eigenproblem of size min(n_t + 2, 2 n_t) per frequency;
``twogrid_symbol`` builds the full 2 n_t x 2 n_t symbol, the reference that
the dense periodic operators are checked against.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .dg import BasisSpec, LocalOperators, assemble_local, build_transfers, check_count
from .smoothing import alpha, check_cycle, resolve_damping, smoothing_symbol_modulus

_BOUNDARY_TOL = 1e-12

# smallest tau rho_profile takes: at n = 1024, nu 1-2 and p_t 0-5, its predictions
# there match those at tau = 1e-9 to 1e-9; at 1e-15 some are off by up to 0.9
MIN_TAU = 1e-14


@dataclasses.dataclass(frozen=True)
class FrequencySet:
    """Frequencies 2*pi*k/n for k = 1 - n/2 .. n/2, split at |theta| = pi/2.

    ``low`` is the half in (-pi/2, pi/2] that survives coarsening; ``high``
    is its complement, aliased onto ``low`` by the map :func:`gamma`.
    """

    n_steps: int
    all: np.ndarray
    low: np.ndarray
    high: np.ndarray


def frequencies(n_steps: int) -> FrequencySet:
    """Build the frequency set for ``n_steps`` (power of two, >= 4)."""
    check_count("n_steps", n_steps, 4)
    if n_steps & (n_steps - 1):
        raise ValueError(f"number of steps must be a power of two >= 4, got {n_steps}")
    k = np.arange(1 - n_steps // 2, n_steps // 2 + 1)
    theta = 2.0 * np.pi * k / n_steps
    low_mask = (theta > -np.pi / 2) & (theta <= np.pi / 2)
    return FrequencySet(n_steps=n_steps, all=theta,
                        low=theta[low_mask], high=theta[~low_mask])


def gamma(theta):
    """High frequency aliased with the low frequency ``theta`` under coarsening.

    gamma(theta) = theta - sign(theta)*pi with sign(0) := -1, so gamma(0) = pi;
    gamma is an involution between the low and high halves.
    """
    theta_arr = np.asarray(theta, dtype=float)
    if np.any(theta_arr <= -np.pi / 2 - _BOUNDARY_TOL) or np.any(theta_arr > np.pi / 2 + _BOUNDARY_TOL):
        raise ValueError(f"{theta} is not a low frequency (expected (-pi/2, pi/2])")
    out = np.where(theta_arr > 0, theta_arr - np.pi, theta_arr + np.pi)
    return float(out) if np.isscalar(theta) else out


def mode_vector(theta: float, coeff: np.ndarray, n_steps: int) -> np.ndarray:
    """Block vector of the single mode theta with coefficient vector ``coeff``."""
    n = np.arange(1, n_steps + 1)
    return np.exp(1j * n * theta)[:, None] * np.asarray(coeff)[None, :]


@dataclasses.dataclass(frozen=True)
class SmoothingReport:
    """Smoothing diagnostics for one (p_t, tau, omega) combination."""

    p_t: int
    tau: float
    omega: float
    alpha: float
    mu_s: float       # worst spectral radius over the high frequencies
    rho_all: float    # worst spectral radius over all frequencies


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


def _phase(theta, sign: int) -> np.ndarray:
    """exp(sign i theta), shaped (..., 1, 1) to scale a stack of blocks."""
    return np.exp(sign * 1j * np.asarray(theta, dtype=float))[..., None, None]


def symbol_system(ops: LocalOperators, theta) -> np.ndarray:
    """Symbol of the periodic block operator: step_matrix - e^{-i theta} C with
    the step coupling C = outer(eval_start, eval_end).

    ``theta`` is a frequency or an array of them; the result stacks one
    n_t x n_t block per frequency, shape ``theta.shape + (n_t, n_t)``.
    """
    coupling = np.outer(ops.eval_start, ops.eval_end)
    return ops.step_matrix - _phase(theta, -1) * coupling


def symbol_smoother(ops: LocalOperators, theta, omega: float, nu: int = 1) -> np.ndarray:
    """nu-th power of the local damped Jacobi iteration matrix at frequency
    theta, (1 - omega) I + e^{-i theta} omega step_inv C.

    ``theta`` may be an array; the result then stacks one n_t x n_t block per
    frequency, shape ``theta.shape + (n_t, n_t)``.
    """
    check_count("nu", nu, 0)
    s = (1.0 - omega) * np.eye(ops.n_t, dtype=complex) \
        + _phase(theta, -1) * omega * np.outer(ops.step_inv_start, ops.eval_end)
    return np.linalg.matrix_power(s, nu)


def transfer_symbols(r1: np.ndarray, r2: np.ndarray, theta) -> tuple[np.ndarray, np.ndarray]:
    """Symbols (restriction, prolongation) of the transfer pair at frequency theta.

    ``theta`` may be an array; each symbol then has shape
    ``theta.shape + (n_t, n_t)``.
    """
    rhat = _phase(theta, -1) * r1 + r2
    phat = 0.5 * (_phase(theta, 1) * r1.T + r2.T)
    return rhat, phat


def _fill_block_diagonal(out: np.ndarray, upper: np.ndarray, lower: np.ndarray) -> None:
    """Write the two n_t x n_t diagonal blocks of each 2 n_t x 2 n_t matrix in ``out``."""
    n_t = upper.shape[-1]
    out[..., :n_t, :n_t] = upper
    out[..., n_t:, n_t:] = lower


def twogrid_symbol(ops_fine: LocalOperators, ops_coarse: LocalOperators,
                   transfers: tuple[np.ndarray, np.ndarray], theta,
                   nu1: int, nu2: int, omega: float) -> np.ndarray:
    """Two-grid iteration symbol on the harmonics pair {theta, gamma(theta)}.

    Returns the 2 n_t x 2 n_t matrix  S^{nu2} [I - P Lc(2 theta)^{-1} R Lf] S^{nu1}
    with the pre/post smoother symbols block diagonal over the pair.  The
    coarse symbol uses the operators at 2*tau and the doubled frequency.
    ``theta`` may be an array of low frequencies; the result then stacks one
    matrix per frequency, shape ``theta.shape + (2 n_t, 2 n_t)``.
    """
    check_count("nu1", nu1, 0)
    check_count("nu2", nu2, 0)
    g = gamma(theta)
    n_t = ops_fine.n_t
    r1, r2 = transfers
    rhat_t, phat_t = transfer_symbols(r1, r2, theta)
    rhat_g, phat_g = transfer_symbols(r1, r2, g)
    p_col = np.concatenate([phat_t, phat_g], axis=-2)     # (..., 2 n_t, n_t)
    r_row = np.concatenate([rhat_t, rhat_g], axis=-1)     # (..., n_t, 2 n_t)

    # one block-diagonal buffer holds L_f, then the smoother blocks; its
    # off-diagonal blocks stay zero throughout
    blocks = np.zeros(np.shape(theta) + (2 * n_t, 2 * n_t), dtype=complex)
    _fill_block_diagonal(blocks, symbol_system(ops_fine, theta), symbol_system(ops_fine, g))
    lc = symbol_system(ops_coarse, 2.0 * theta)
    correction = p_col @ np.linalg.solve(lc, r_row @ blocks)
    np.subtract(np.eye(2 * n_t, dtype=complex), correction, out=correction)

    _fill_block_diagonal(blocks, symbol_smoother(ops_fine, theta, omega, nu2),
                         symbol_smoother(ops_fine, g, omega, nu2))
    post_correction = blocks @ correction
    if nu1 != nu2:
        _fill_block_diagonal(blocks, symbol_smoother(ops_fine, theta, omega, nu1),
                             symbol_smoother(ops_fine, g, omega, nu1))
    return post_correction @ blocks


def _smoother_weight(omega: float, s: float, theta, nu: int) -> np.ndarray:
    """c(theta) in S(theta)^nu = (1 - omega)^nu I + c(theta) outer(u, v), with
    u = ``step_inv_start``, v = ``eval_end`` and s = v . u.

    c = ((1 - omega + e^{-i theta} omega s)^nu - (1 - omega)^nu) / s, taken as
    the geometric sum e^{-i theta} omega sum_{k < nu} x^k (1 - omega)^{nu-1-k},
    x = 1 - omega + e^{-i theta} omega s: no cancellation and no division by s.
    """
    a = 1.0 - omega
    b = omega * np.exp(-1j * np.asarray(theta, dtype=float))
    x = a + b * s
    total = np.zeros_like(b)
    for k in range(nu):
        total = total * x + a ** k
    return b * total


def _twogrid_radii(ops_fine: LocalOperators, ops_coarse: LocalOperators,
                   transfers: tuple[np.ndarray, np.ndarray], theta, nu: int,
                   omega: float) -> np.ndarray:
    """Spectral radius of ``twogrid_symbol`` at each low frequency in
    ``theta``, with ``nu`` = nu1 + nu2, from the smoother's rank-two structure.

    With X = Lc(2 theta)^{-1} R Lf, S^{nu2} (I - P X) S^{nu1} has the
    eigenvalues of (I - P X) T, T = S^{nu1 + nu2} on the pair.  T is
    A I + U D V^T with A = (1 - omega)^nu, U = diag(u, u), V = diag(v, v)
    and D = diag(c(theta), c(gamma(theta))) (see :func:`_smoother_weight`).
    So (I - P X) T = A I + E F with E = [P, (I - P X) U], 2 n_t x (n_t + 2),
    and F = [-A X; D V^T].  For n_t >= 3 its eigenvalues are A + eig(F E)
    and A, n_t - 2 times, taken in closed form; for n_t <= 2 the
    2 n_t x 2 n_t matrix A I + E F is the smaller one.
    """
    n_t = ops_fine.n_t
    u, v = ops_fine.step_inv_start, ops_fine.eval_end
    a = (1.0 - omega) ** nu
    pair = np.stack((theta, gamma(theta)))  # (2, ...): theta, then gamma(theta)
    rhat, phat = transfer_symbols(*transfers, pair)
    x = np.linalg.solve(symbol_system(ops_coarse, 2.0 * theta),
                        np.concatenate(rhat @ symbol_system(ops_fine, pair), axis=-1))
    p = np.concatenate(phat, axis=-2)  # (..., 2 n_t, n_t)
    blocks_u = np.kron(np.eye(2), u[:, None])  # U, 2 n_t x 2
    blocks_v = np.kron(np.eye(2), v)  # V^T, 2 x 2 n_t
    e = np.concatenate((p, blocks_u - p @ (x @ blocks_u)), axis=-1)
    d = np.moveaxis(_smoother_weight(omega, float(v @ u), pair, nu), 0, -1)
    f = np.concatenate((-a * x, d[..., None] * blocks_v), axis=-2)
    if n_t >= 3:
        radii = np.abs(a + np.linalg.eigvals(f @ e)).max(axis=-1)
        return np.maximum(radii, abs(a))
    return np.abs(np.linalg.eigvals(a * np.eye(2 * n_t) + e @ f)).max(axis=-1)


def rho_profile(basis: BasisSpec, tau: float, n_steps: int = 1024,
                nu1: int = 1, nu2: int = 1, damping="optimal"):
    """Spectral radius of the two-grid symbol at every low frequency.

    Returns (low_frequencies, radii); the max of ``radii`` is the predicted
    convergence factor and its argmax locates the worst frequency.  The
    radii come from an eigenproblem of size min(n_t + 2, 2 n_t) per
    frequency, not from the 2 n_t x 2 n_t ``twogrid_symbol``: the smoother
    is a rank-one change of (1 - omega) I, so on a harmonic pair the
    two-grid iteration is a multiple of I plus a rank n_t + 2 product (see
    :func:`_twogrid_radii`).
    The symbol is built from real blocks, so at -theta it is the complex
    conjugate of the one at theta and has the same radius: only the
    frequencies in [0, pi/2] are computed, and their radii are mirrored.
    """
    check_cycle(nu1, nu2, damping)
    if tau < MIN_TAU:
        raise ValueError(f"tau must be >= MIN_TAU = {MIN_TAU:g}, got {tau}: below it "
                         "stiffness + mass rounds the mass away and the coarse symbol is singular")
    omega = resolve_damping(damping, alpha(basis, tau))
    ops_f = assemble_local(basis, tau)
    ops_c = assemble_local(basis, 2.0 * tau)
    transfers = build_transfers(basis, tau)
    low = frequencies(n_steps).low
    # low is 2 pi k / n for k = 1 - n/4 .. n/4, so its last n/4 + 1 entries
    # are theta >= 0 and the first n/4 - 1 mirror entries n/4 - 1 .. 1 of them
    radii = _twogrid_radii(ops_f, ops_c, transfers, low[n_steps // 4 - 1:], nu1 + nu2, omega)
    return low, np.concatenate((radii[-2:0:-1], radii))


def predicted_rho(basis: BasisSpec, tau: float, n_steps: int = 1024,
                  nu1: int = 1, nu2: int = 1, damping="optimal") -> float:
    """Predicted asymptotic two-grid convergence factor.

    Maximum over the low frequencies of the spectral radius of the two-grid
    symbol, with the damping resolved at the fine step size; the radii are
    :func:`rho_profile`'s, from the rank-two reduction.
    """
    _, radii = rho_profile(basis, tau, n_steps, nu1, nu2, damping)
    return float(np.max(radii))
