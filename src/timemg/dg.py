"""Discontinuous Galerkin discretization in time for the scalar model problem
u'(t) + u(t) = f(t).

The solution is a piecewise polynomial of degree ``p_t`` in time, discontinuous
at the step boundaries, with continuity enforced weakly through the upwind
value of the previous step.  Each step couples to its predecessor through the
rank-one matrix ``outer(eval_start, eval_end)``, so the global system is block
lower bidiagonal and is solved exactly by block forward substitution.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable

import numpy as np
from scipy.special import roots_jacobi

NODE_RULES = ("radau_lagrange", "scaled_legendre")


@dataclasses.dataclass(frozen=True)
class RadauRule:
    """Left Radau quadrature on [0, 1]: c[0] = 0, exact for degree 2s - 2."""

    c: np.ndarray
    b: np.ndarray

    @property
    def s(self) -> int:
        return len(self.c)


def radau_rule(s: int) -> RadauRule:
    """Return the s-point left Radau rule on [0, 1].

    Parameters
    ----------
    s : int
        Number of nodes; the rule has order 2s - 1.

    Returns
    -------
    RadauRule
        Nodes ``c`` with c[0] = 0 and positive weights ``b`` summing to 1.
    """
    if s < 1:
        raise ValueError(f"radau_rule needs s >= 1, got {s}")
    if s == 1:
        return RadauRule(c=np.zeros(1), b=np.ones(1))
    # Interior nodes on [-1, 1] are the roots of the Jacobi polynomial
    # P_{s-1}^{(0,1)}; the Gauss-Jacobi weights for the weight (1+x) give the
    # Radau weights after dividing the weight function back out.
    x, wj = roots_jacobi(s - 1, 0.0, 1.0)
    c = np.concatenate(([0.0], (x + 1.0) / 2.0))
    b = np.concatenate(([2.0 / s**2], wj / (1.0 + x))) / 2.0
    return RadauRule(c=c, b=b)


@dataclasses.dataclass(frozen=True)
class BasisSpec:
    """Polynomial basis of degree p_t on the reference step [0, 1].

    ``radau_lagrange`` is the Lagrange basis at the p_t + 1 left Radau points
    (makes the step coupling and endpoint evaluation sparse); the alternative
    ``scaled_legendre`` uses Legendre polynomials mapped to [0, 1].
    """

    p_t: int
    node_rule: str = "radau_lagrange"

    def __post_init__(self):
        if self.p_t < 0:
            raise ValueError(f"polynomial degree must be >= 0, got {self.p_t}")
        if self.node_rule not in NODE_RULES:
            raise ValueError(f"unknown node_rule {self.node_rule!r}, expected one of {NODE_RULES}")

    @property
    def n_t(self) -> int:
        """Degrees of freedom per time step."""
        return self.p_t + 1


def _lagrange_eval(nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Values of the Lagrange basis on ``nodes`` at points ``x``, shape (s, nx)."""
    s = len(nodes)
    out = np.ones((s, len(x)))
    for k in range(s):
        for j in range(s):
            if j != k:
                out[k] *= (x - nodes[j]) / (nodes[k] - nodes[j])
    return out


def _lagrange_deriv(nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Derivatives of the Lagrange basis on ``nodes`` at ``x``, shape (s, nx)."""
    s = len(nodes)
    out = np.zeros((s, len(x)))
    for k in range(s):
        for i in range(s):
            if i == k:
                continue
            term = np.full(len(x), 1.0 / (nodes[k] - nodes[i]))
            for j in range(s):
                if j != k and j != i:
                    term *= (x - nodes[j]) / (nodes[k] - nodes[j])
            out[k] += term
    return out


def basis_values(basis: BasisSpec, x) -> np.ndarray:
    """Evaluate all basis functions at reference points x in [0, 1]; shape (n_t, nx)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if basis.node_rule == "radau_lagrange":
        return _lagrange_eval(radau_rule(basis.n_t).c, x)
    # shifted Legendre P_k(2x - 1)
    out = np.empty((basis.n_t, len(x)))
    for k in range(basis.n_t):
        out[k] = np.polynomial.legendre.Legendre.basis(k)(2.0 * x - 1.0)
    return out


def basis_derivatives(basis: BasisSpec, x) -> np.ndarray:
    """Evaluate all basis derivatives at reference points x in [0, 1]; shape (n_t, nx)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if basis.node_rule == "radau_lagrange":
        return _lagrange_deriv(radau_rule(basis.n_t).c, x)
    out = np.empty((basis.n_t, len(x)))
    for k in range(basis.n_t):
        out[k] = np.polynomial.legendre.Legendre.basis(k).deriv()(2.0 * x - 1.0) * 2.0
    return out


class LocalOperators:
    """Per-step matrices of the DG scheme for one (basis, tau) pair.

    Attributes
    ----------
    stiffness : ndarray
        Weak time derivative plus outflow term; independent of tau.
    mass : ndarray
        L2 mass matrix on the step, scales linearly with tau.
    coupling : ndarray
        Rank-one coupling to the previous step (outer product of the start
        values with the end values of the basis).
    step_matrix : ndarray
        stiffness + mass, the block solved once per step.
    eval_start, eval_end : ndarray
        Basis values at the left/right endpoint of the step.
    step_inv : ndarray
        Inverse of ``step_matrix``, computed once at assembly.
    """

    def __init__(self, basis: BasisSpec, tau: float, stiffness, mass, coupling,
                 eval_start, eval_end):
        self.basis = basis
        self.p_t = basis.p_t
        self.n_t = basis.n_t
        self.tau = tau
        self.stiffness = stiffness
        self.mass = mass
        self.coupling = coupling
        self.eval_start = eval_start
        self.eval_end = eval_end
        self.step_matrix = stiffness + mass
        self.step_inv = np.linalg.inv(self.step_matrix)

    @functools.cached_property
    def step_inv_coupling(self) -> np.ndarray:
        """step_inv @ coupling as the outer product (step_inv @ eval_start) x
        eval_end, the local smoother building block."""
        return np.outer(self.step_inv @ self.eval_start, self.eval_end)


def assemble_local(basis: BasisSpec, tau: float) -> LocalOperators:
    """Assemble the per-step DG matrices for step size ``tau``.

    Integrals use Gauss-Legendre quadrature with p_t + 1 points, exact for
    polynomial degree 2 p_t + 1.
    """
    if tau <= 0:
        raise ValueError(f"time step must be positive, got {tau}")
    xg, wg = np.polynomial.legendre.leggauss(basis.n_t)
    xg = (xg + 1.0) / 2.0
    wg = wg / 2.0
    phi = basis_values(basis, xg)
    dphi = basis_derivatives(basis, xg)
    eval_start = basis_values(basis, np.array([0.0]))[:, 0]
    eval_end = basis_values(basis, np.array([1.0]))[:, 0]

    mass = tau * (phi * wg) @ phi.T
    stiffness = -(dphi * wg) @ phi.T + np.outer(eval_end, eval_end)
    coupling = np.outer(eval_start, eval_end)
    return LocalOperators(basis, tau, stiffness, mass, coupling, eval_start, eval_end)


@dataclasses.dataclass(frozen=True)
class GlobalSystem:
    """Block lower bidiagonal system over ``n_steps`` steps (circulant when periodic).

    Never stored dense: the action is defined blockwise by the local operators.
    """

    ops: LocalOperators
    n_steps: int
    periodic: bool = False


def apply_global(system: GlobalSystem, u: np.ndarray) -> np.ndarray:
    """Apply the global block operator to a block vector of shape (n_steps, n_t)."""
    u = np.asarray(u)
    if u.shape != (system.n_steps, system.ops.n_t):
        raise ValueError(f"block vector shape {u.shape} does not match "
                         f"({system.n_steps}, {system.ops.n_t})")
    out = np.einsum("ij,nj->ni", system.ops.step_matrix, u)
    out[1:] -= np.einsum("ij,nj->ni", system.ops.coupling, u[:-1])
    if system.periodic:
        out[0] -= system.ops.coupling @ u[-1]
    return out


def rhs_moments(f: Callable, basis: BasisSpec, tau: float, n_steps: int,
                u0: float = 0.0, t0: float = 0.0) -> np.ndarray:
    """Moments of the right-hand side f against the basis, one row per step.

    The integrals are approximated with the left Radau rule of order 2 p_t + 1,
    which makes the scheme coincide with the (p_t+1)-stage RADAU IA method.
    The initial value enters the first block as coupling @ (start value), i.e.
    ``u0 * eval_start`` is added to row 0.
    """
    rule = radau_rule(basis.n_t)
    phi_nodes = basis_values(basis, rule.c)          # (n_t, s)
    weights = tau * phi_nodes * rule.b               # (n_t, s)
    times = t0 + (np.arange(n_steps)[:, None] + rule.c[None, :]) * tau
    try:
        fvals = np.asarray(f(times), dtype=float)
        if fvals.shape != times.shape:
            raise TypeError
    except TypeError:
        fvals = np.vectorize(f)(times)
    rhs = fvals @ weights.T
    if u0 != 0.0:
        rhs[0] += u0 * basis_values(basis, np.array([0.0]))[:, 0]
    return rhs


def forward_solve(system: GlobalSystem, rhs: np.ndarray) -> np.ndarray:
    """Solve the non-periodic system exactly by block forward substitution:
    u[n] = step_inv @ (rhs[n] + eval_start * (eval_end @ u[n-1]))."""
    if system.periodic:
        raise ValueError("forward substitution requires a non-periodic system")
    rhs = np.asarray(rhs)
    if rhs.shape != (system.n_steps, system.ops.n_t):
        raise ValueError(f"rhs shape {rhs.shape} does not match "
                         f"({system.n_steps}, {system.ops.n_t})")
    ops = system.ops
    step_inv, start, end = ops.step_inv, ops.eval_start, ops.eval_end
    u = np.empty_like(rhs, dtype=float)
    u[0] = step_inv @ rhs[0]
    for n in range(1, system.n_steps):
        u[n] = step_inv @ (rhs[n] + start * (end @ u[n - 1]))
    return u


@functools.lru_cache(maxsize=None)
def _unit_ops(basis: BasisSpec) -> LocalOperators:
    return assemble_local(basis, 1.0)


def stability_function(basis: BasisSpec, z: complex) -> complex:
    """One-step amplification factor R(z) of the scheme on u' = z u.

    Evaluated from the assembled matrices with the step normalized to 1:
    R(z) = eval_end @ (stiffness - z mass)^{-1} @ eval_start, the single
    nonzero eigenvalue of (stiffness - z mass)^{-1} coupling.  R equals the
    (p_t, p_t+1) subdiagonal Pade approximant of exp(z); raises
    ``numpy.linalg.LinAlgError`` when z hits one of its poles.
    """
    ops = _unit_ops(basis)
    a = ops.stiffness - z * ops.mass
    x = np.linalg.solve(a, ops.eval_start.astype(complex))
    return complex(ops.eval_end @ x)


def jump_error_estimator(u: np.ndarray, u0: float, basis: BasisSpec) -> np.ndarray:
    """Per-step jump magnitudes |u^n(t_{n-1}) - u^{n-1}(t_{n-1})| of a solution.

    Step 1 compares against the initial value.  The jumps scale like
    O(tau^{p_t+1}) for smooth data, which makes them a cheap error indicator.
    """
    u, ops = np.asarray(u), _unit_ops(basis)
    left_vals, right_vals = u @ ops.eval_start, u @ ops.eval_end
    jumps = np.empty(len(u))
    jumps[0] = abs(left_vals[0] - u0)
    jumps[1:] = np.abs(left_vals[1:] - right_vals[:-1])
    return jumps
