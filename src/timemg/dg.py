"""Discontinuous Galerkin discretization in time for the scalar model problem
u'(t) + u(t) = f(t).

The solution is a piecewise polynomial of degree ``p_t`` in time, discontinuous
at the step boundaries, with continuity enforced weakly through the upwind
value of the previous step.  The basis is the Lagrange basis at the left
Radau points, whose start values are ``eval_start = e_0``, so each step couples
to its predecessor through the rank-one matrix ``outer(e_0, eval_end)``: the
previous step's end value enters the first row.  The global system is block
lower bidiagonal and its exact solve reduces to a scalar affine recurrence for
the end values, which :func:`forward_solve` evaluates as a blocked scan.
Every array of the solver is float64, and the scan's arithmetic is IEEE
double only, so it rounds alike on every platform; the exact solve adds one
step of iterative refinement to the scan, and the multigrid cycle, which
corrects its coarse solve in the next cycle anyway, does not (see
:func:`scan_rows`).

Every integral uses the basis's own left Radau rule, exact to degree 2 p_t
(the mass and stiffness integrands); the basis is the identity at its nodes,
so the mass of a step of size tau is exactly ``tau * diag(b)``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable

import numpy as np

from .parallel import NullBarrier


@dataclasses.dataclass(frozen=True)
class RadauRule:
    """Left Radau quadrature on [0, 1]: c[0] = 0, exact for degree 2s - 2."""

    c: np.ndarray
    b: np.ndarray


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
    check_count("s", s, 1)
    if s == 1:
        return RadauRule(c=np.zeros(1), b=np.ones(1))
    # Interior nodes on [-1, 1] are the roots of the Jacobi polynomial
    # P_{s-1}^{(0,1)}; the Gauss-Jacobi weights for the weight (1+x) give the
    # Radau weights after dividing the weight function back out.  Golub-Welsch:
    # the roots are the eigenvalues of the symmetric tridiagonal Jacobi matrix
    # of P^{(0,1)}, and the weights are 2 v_0^2 (2 = integral of 1+x) from the
    # first components v_0 of its normalized eigenvectors.
    k = np.arange(s - 1.0)
    off = np.sqrt(k[1:] * (k[1:] + 1.0)) / (2.0 * k[1:] + 1.0)
    x, vecs = np.linalg.eigh(np.diag(1.0 / ((2.0 * k + 1.0) * (2.0 * k + 3.0)))
                             + np.diag(off, 1) + np.diag(off, -1))
    wj = 2.0 * vecs[0] ** 2
    c = np.concatenate(([0.0], (x + 1.0) / 2.0))
    b = np.concatenate(([2.0 / s**2], wj / (1.0 + x))) / 2.0
    return RadauRule(c=c, b=b)


@dataclasses.dataclass(frozen=True)
class BasisSpec:
    """Lagrange basis of degree p_t at the p_t + 1 left Radau points of the
    reference step [0, 1].  The first point is 0, so the basis values at the
    start of a step are ``eval_start = e_0`` and the step coupling is
    ``outer(e_0, eval_end)``."""

    p_t: int

    def __post_init__(self):
        check_count("p_t", self.p_t, 0)

    @property
    def n_t(self) -> int:
        """Degrees of freedom per time step."""
        return self.p_t + 1


def basis_values(basis: BasisSpec, x) -> np.ndarray:
    """Evaluate all basis functions at reference points x in [0, 1]; shape (n_t, nx)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    nodes = radau_rule(basis.n_t).c
    out = np.ones((basis.n_t, len(x)))
    for k in range(basis.n_t):
        for j in range(basis.n_t):
            if j != k:
                out[k] *= (x - nodes[j]) / (nodes[k] - nodes[j])
    return out


def basis_derivatives(basis: BasisSpec, x) -> np.ndarray:
    """Evaluate all basis derivatives at reference points x in [0, 1]; shape (n_t, nx)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    nodes = radau_rule(basis.n_t).c
    out = np.zeros((basis.n_t, len(x)))
    for k in range(basis.n_t):
        for i in range(basis.n_t):
            if i == k:
                continue
            term = np.full(len(x), 1.0 / (nodes[k] - nodes[i]))
            for j in range(basis.n_t):
                if j != k and j != i:
                    term *= (x - nodes[j]) / (nodes[k] - nodes[j])
            out[k] += term
    return out


class LocalOperators:
    """Per-step matrices of the DG scheme for one (basis, tau) pair.

    As built by :func:`assemble_local`, ``stiffness``, ``eval_start`` and
    ``eval_end`` are the basis's shared read-only :class:`ReferenceTables`;
    the other arrays belong to this step size.  The rank-one step coupling
    ``outer(eval_start, eval_end)`` is not stored.

    The exact scan and the multigrid cycle run on the step-scaled unknowns
    y_n = S u_n, S = ``step_matrix``: a step's end value is then
    ``end_step_inv . y_n``, so the step coupling costs one dot product with
    no block product.

    Attributes
    ----------
    stiffness : ndarray
        Weak time derivative plus outflow term; independent of tau.
    mass : ndarray
        L2 mass matrix on the step, ``tau * diag(b)``.
    step_matrix : ndarray
        stiffness + mass, the block solved once per step.
    eval_start, eval_end : ndarray
        Basis values at the left/right endpoint of the step.
    step_inv : ndarray
        Inverse of ``step_matrix``, computed once at assembly.
    """

    def __init__(self, stiffness, mass, eval_start, eval_end):
        self.n_t = stiffness.shape[0]
        self.stiffness = stiffness
        self.mass = mass
        self.eval_start = eval_start
        self.eval_end = eval_end
        self.step_matrix = stiffness + mass
        self.step_inv = np.linalg.inv(self.step_matrix)

    @functools.cached_property
    def step_inv_start(self) -> np.ndarray:
        """step_inv @ eval_start, the coupling column of the smoother symbol."""
        return self.step_inv @ self.eval_start

    @functools.cached_property
    def end_step_inv(self) -> np.ndarray:
        """eval_end @ step_inv: the end value eval_end . u of a step, read
        from its step-scaled unknowns y = step_matrix u."""
        return self.eval_end @ self.step_inv


@dataclasses.dataclass(frozen=True)
class ReferenceTables:
    """Step-size independent tables of one basis on the reference step [0, 1].

    Built once per basis by :func:`reference_tables`; every array is
    read-only, because the same arrays are shared by all operators assembled
    from the basis.

    Attributes
    ----------
    weights : ndarray
        The left Radau weights b on [0, 1]: ``tau * diag(weights)`` is the
        mass matrix of a step of size tau.
    eval_start, eval_end : ndarray
        Basis values at the left/right endpoint of the step; eval_start = e_0.
    stiffness : ndarray
        The tau-independent block of :class:`LocalOperators`.
    r1, r2 : ndarray
        The restriction pair of :func:`build_transfers`: basis values at the
        nodes c / 2 and (c + 1) / 2 of the first and second half step.
    """

    weights: np.ndarray
    eval_start: np.ndarray
    eval_end: np.ndarray
    stiffness: np.ndarray
    r1: np.ndarray
    r2: np.ndarray


@functools.lru_cache(maxsize=None)
def reference_tables(basis: BasisSpec) -> ReferenceTables:
    """Radau weights, tau-independent blocks and restriction pair of ``basis``, cached."""
    rule = radau_rule(basis.n_t)
    eval_start = basis_values(basis, np.array([0.0]))[:, 0]
    eval_end = basis_values(basis, np.array([1.0]))[:, 0]
    tables = ReferenceTables(
        weights=rule.b, eval_start=eval_start, eval_end=eval_end,
        stiffness=-basis_derivatives(basis, rule.c) * rule.b + np.outer(eval_end, eval_end),
        r1=basis_values(basis, rule.c / 2.0), r2=basis_values(basis, (rule.c + 1.0) / 2.0))
    for field in dataclasses.fields(tables):
        getattr(tables, field.name).flags.writeable = False
    return tables


def check_count(name: str, value, low: int) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an integer,
    not a bool, of at least ``low``: the one rule for every count argument."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def check_step_size(tau: float) -> None:
    """Raise ``ValueError`` unless ``tau`` is a finite positive step size."""
    if not 0.0 < tau < math.inf:
        raise ValueError(f"time step must be finite and positive, got {tau}")


def assemble_local(basis: BasisSpec, tau: float) -> LocalOperators:
    """Assemble the per-step DG matrices for step size ``tau``.

    The mass is ``tau * diag(b)``, exact (see the module docstring).  Only
    ``mass`` and what is derived from it depend on tau; the other blocks are
    the basis's shared read-only tables.
    """
    check_step_size(tau)
    ref = reference_tables(basis)
    return LocalOperators(ref.stiffness, np.diag(tau * ref.weights), ref.eval_start, ref.eval_end)


def build_transfers(basis: BasisSpec, tau_fine: float) -> tuple[np.ndarray, np.ndarray]:
    """Return the local restriction blocks (r1, r2) for one coarsening step.

    r1.T = mass^{-1} @ proj1 and r2.T = mass^{-1} @ proj2, where proj1/proj2
    are the cross mass matrices between the coarse basis on (0, 2 tau) and the
    fine basis on the first/second half.  On the fine Radau nodes c, exact for
    these degree 2 p_t integrands, mass = tau diag(b) and proj1[k, l] =
    tau b_k phi~_l(c_k / 2): tau cancels, and every valid ``tau_fine`` gets
    the basis's cached read-only pair r1[l, k] = phi~_l(c_k / 2), r2[l, k] =
    phi~_l((c_k + 1) / 2) of :func:`reference_tables`.
    """
    check_step_size(tau_fine)
    ref = reference_tables(basis)
    return ref.r1, ref.r2


@dataclasses.dataclass(frozen=True)
class GlobalSystem:
    """Block lower bidiagonal system over ``n_steps`` steps.

    Never stored dense: the action is defined blockwise by the local operators.
    """

    ops: LocalOperators
    n_steps: int


def apply_global(system: GlobalSystem, u: np.ndarray) -> np.ndarray:
    """Apply the global block operator to a block vector of shape (n_steps, n_t).

    The input is read as a C-ordered float array, so the result (C-ordered)
    does not depend on the input's memory layout."""
    u = np.ascontiguousarray(u, dtype=float)
    if u.shape != (system.n_steps, system.ops.n_t):
        raise ValueError(f"block vector shape {u.shape} does not match "
                         f"({system.n_steps}, {system.ops.n_t})")
    out = np.einsum("ij,nj->ni", system.ops.step_matrix, u)
    # the coupling outer(e_0, eval_end) feeds the previous end value to row 0
    out[1:, 0] -= np.einsum("j,nj->n", system.ops.eval_end, u[:-1])
    return out


def rhs_moments(f: Callable, basis: BasisSpec, tau: float, n_steps: int,
                u0: float = 0.0) -> np.ndarray:
    """Moments of the right-hand side f against the basis, one row per step,
    on steps starting at t = 0.

    The left Radau rule, at whose nodes the basis is the identity, gives the
    moment ``tau b_k f(t_k)`` of basis function k and makes the scheme the
    (p_t+1)-stage RADAU IA method.  ``u0`` enters the first block through the
    coupling ``u0 * eval_start = u0 e_0``, at entry (0, 0).  A non-finite or
    non-positive ``tau``, an ``n_steps`` that is not an integer >= 1
    (:func:`check_count`) or a non-finite ``u0`` raises ``ValueError``.
    """
    check_step_size(tau)
    check_count("n_steps", n_steps, 1)
    if not math.isfinite(u0):
        raise ValueError(f"u0 must be finite, got {u0}")
    rule = radau_rule(basis.n_t)
    times = (np.arange(n_steps)[:, None] + rule.c[None, :]) * tau
    try:
        fvals = np.asarray(f(times), dtype=float)
        if fvals.shape != times.shape:
            raise TypeError
    except TypeError:
        fvals = np.vectorize(f)(times)
    rhs = fvals * (tau * rule.b)
    if u0 != 0.0:  # adding 0.0 would turn a -0.0 entry into +0.0
        rhs[0, 0] += u0
    return rhs


def block_input(name: str, x, shape: tuple) -> np.ndarray:
    """``x`` as a C-ordered float block vector of exactly ``shape`` with finite
    entries, else ``ValueError``."""
    x = np.ascontiguousarray(x, dtype=float)
    if x.shape != shape:
        raise ValueError(f"{name} has shape {x.shape}, expected {shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} has non-finite entries")
    return x


def scan_block(n_steps: int) -> int:
    """Steps per block of the exact solve's scan: the smallest power of two
    not below sqrt(n_steps) / 4.  The in-block sweeps take log2(block)
    passes and the lead worker's carry log2(n_blocks) passes; for blocks
    from sqrt(n_steps) / 4 to sqrt(n_steps) steps the scan measured the same
    within the host's noise (2^16 and 2^19 steps, 1 and 2 workers).  The
    size depends on n_steps alone, so each block's arithmetic, and hence
    every bit of the solution, is the same however the blocks are grouped
    over workers."""
    return 1 << max(0, (n_steps - 1).bit_length() - 3) // 2


def scan_buffer(n_steps: int) -> np.ndarray:
    """Work array of :func:`scan_rows` for ``n_steps`` steps, in float64
    like every array of the scan: the end values, padded to whole blocks,
    then the end value before each block and after the last."""
    block = scan_block(n_steps)
    n_blocks = -(-n_steps // block)
    return np.zeros(n_blocks * (block + 1) + 1)


def row_dot(z, x, out, prod) -> np.ndarray:
    """out[n] = sum_j z[j] * x[j, n], summed in fixed j order; ``prod`` is a
    scratch row as long as ``out``.  Every row product of the solver goes
    through it, so each step's sum has the same operation order, and the
    same bits, however the steps are chunked or split over workers."""
    np.multiply(x[0], z[0], out=out)
    for j in range(1, len(z)):
        np.multiply(x[j], z[j], out=prod)
        out += prod
    return out


def col_dot(z, col) -> float:
    """z . col on Python floats, summed in the order of :func:`row_dot`:
    its scalar twin, for the carried columns of the multigrid passes, which
    are lists of floats."""
    acc = z[0] * col[0]
    for j in range(1, len(z)):
        acc += z[j] * col[j]
    return acc


def coupling_row(z, x, work) -> np.ndarray:
    """z . x[:, n - 1] for the columns n >= 1 of the rows ``x``, in
    work[0]; work[1] holds each product."""
    m = x.shape[1] - 1
    return row_dot(z, x[:, :-1], work[0, :m], work[1, :m])


def residual_rows(z, f, y, before, out, work) -> None:
    """out = f - y + e_0 (z . y_prev) = f - S u + C u_prev on rows of steps
    in the step-scaled unknowns y = S u, given z = eval_end S^{-1}
    (``end_step_inv``): its leading rows, as many as ``out`` holds, since
    rows 1.. are f - y alone.  ``before`` is the column ahead of the rows,
    None at the first step, which has no predecessor; ``work`` is two
    scratch rows at least as long as the rows."""
    np.subtract(f[:len(out)], y[:len(out)], out=out)
    out[0, 1:] += coupling_row(z, y, work)
    if before is not None:
        out[0, 0] += col_dot(z, before)


def block_apply(mat, x, out, add: bool, work=None) -> None:
    """out[i, n] (+)= sum_j mat[i, j] * x[j, n], one :func:`row_dot` per row
    i; ``work`` is two scratch rows at least as long as x's, else allocated."""
    work = np.empty((2, x.shape[1])) if work is None else work[:, :x.shape[1]]
    for i in range(mat.shape[0]):
        if add:
            out[i] += row_dot(mat[i], x, work[0], work[1])
        else:
            row_dot(mat[i], x, out[i], work[1])


def scan_rows(z, rhs, y, work, a: int, b: int,
              barrier=NullBarrier(), lead: bool = True) -> None:
    """Exact solve of one worker's steps [a, b) in the step-scaled unknowns
    y_n = S u_n, on block vectors stored as (n_t, n_steps) rows: ``rhs`` in,
    ``y`` out, ``work`` from :func:`scan_buffer` and shared by the team.
    ``rhs`` may be ``y``, to solve in place: rows 1.. then stay as they are,
    and the last pass reads each step's row-0 entry only to overwrite it.

    The end values w_n = eval_end . u_n = z . y_n, z = eval_end S^{-1}
    (``end_step_inv``), follow the scalar recurrence w_n = R w_{n-1} + b_n
    with b_n = z . rhs_n and R = eval_end . S^{-1} eval_start = z[0], as
    eval_start = e_0; then y_n = rhs_n + eval_start w_{n-1}: rows 1.. of y
    are those of rhs and w_{n-1} is added to row 0.  No block product is
    needed (u_n = S^{-1} y_n is left to the caller).  Only z[0] and the
    rows of rhs that z covers are read, so ``z[:1]`` and one row solve a
    system whose rhs has rows 1.. zero, as a residual of y has.  The steps
    form blocks of :func:`scan_block` steps.  Each worker sums the
    recurrence over its blocks from a zero start, in place by pairwise
    combination over doubling spans; between two barriers the ``lead``
    worker carries the block ends across the blocks by an inclusive scan
    over doubling spans; then each worker completes its in-block sums by the
    reverse sweep over the spans, adds each block's carry c as c R^(j+1) at
    its step j, and forms y.  Every pass is one numpy call over all of a
    worker's blocks, about 4 log2(block) in all, so the worker threads
    overlap.  ``a`` lies on a block boundary and ``b`` on one or at n_steps
    (a >= b is an empty share); every worker of the team calls this once
    with its own range and the same ``barrier``.

    Every pass runs in float64, so the scan gives the same bits on every
    IEEE platform.  Its sums are reordered against the per-step loop, and
    its relative residual reads up to 2.2x the loop's on the grid of
    ``test_scan_matches_step_loop`` and 3.3x at p_t = 0, tau = 1e-2, 2^15
    to 2^17 steps; :func:`forward_solve` removes that with one refinement
    step.  The multigrid cycle calls the scan as it is: its coarse
    correction is then a few ulps off, which the next cycle removes, while
    a refinement would more than double the cost of the coarse solve.
    """
    n = y.shape[1]
    block = scan_block(n)
    n_blocks = -(-n // block)
    blocks = work[:n_blocks * block].reshape(n_blocks, block)
    w, carry = blocks.reshape(-1), work[n_blocks * block:]  # carry[k] = w_{k block - 1}
    r = z[0]
    k0, k1 = a // block, -(-b // block)
    mine = blocks[k0:k1]
    spans, span, r_span = [], 1, r  # (span, R^span) for span = 1, 2, 4, ...
    while span < block:
        spans.append((span, r_span))
        span, r_span = 2 * span, r_span * r_span
    if a < b:
        # b_n; the partial last block is padded with zeros
        sums = np.zeros((k1 - k0, block))
        row_dot(z, rhs[:, a:b], sums.reshape(-1)[:b - a], np.empty(b - a))
        # the step ending each pair of spans gets the pair's sum
        for span, r_s in spans:
            sums[:, 2 * span - 1::2 * span] += r_s * sums[:, span - 1::2 * span]
        carry[k0 + 1:k1 + 1] = sums[:, -1]
    barrier.wait()  # every block's end value from a zero start
    if lead:
        # carry[k] += R^block carry[k - 1], by doubling spans (r_span is
        # R^block here)
        span = 1
        while span < len(carry):
            carry[span:] += r_span * carry[:-span]
            span, r_span = 2 * span, r_span * r_span
    barrier.wait()  # carries complete
    if a < b:
        # the step ending the left span of each pair but the block's first
        # gets R^span times the completed sum up to the pair's start
        for span, r_s in reversed(spans):
            sums[:, 3 * span - 1::2 * span] += r_s * sums[:, 2 * span - 1:block - span:2 * span]
        np.multiply(carry[k0:k1, None], np.cumprod(np.full(block, r)), out=mine)
        mine += sums
        # a block's last end value is the next block's carry, so every step
        # reads the same w_{n-1} whichever worker holds the previous block
        mine[:, -1] = carry[k0 + 1:k1 + 1]
        if rhs is not y:
            y[1:, a:b] = rhs[1:, a:b]
        y[0, a] = rhs[0, a] + carry[k0]
        np.add(rhs[0, a + 1:b], w[a:b - 1], out=y[0, a + 1:b])


def forward_solve(system: GlobalSystem, rhs: np.ndarray) -> np.ndarray:
    """Solve the system exactly with the blocked scan of :func:`scan_rows`
    and one step of iterative refinement in working precision (Skeel 1980,
    Math. Comp. 35(151)): O(n_steps) work in O(sqrt(n_steps)) array passes.

    The refinement takes row 0 of the residual of y by :func:`residual_rows`
    (rows 1.. are exactly zero, since the scan copies rows 1.. of rhs into
    y), solves for the correction of row 0 by a second scan on that one row
    and adds it to y before the change to u = S^{-1} y.  It brings the
    scan's relative residual, up to 3.3x the per-step loop's unrefined, to
    within 1.4x of it.

    ``rhs`` must be finite and shaped (n_steps, n_t), else ``ValueError``.
    The scan reads ``rhs`` in place and u = S^{-1} y is written straight
    into the C-ordered result, with the same rounding for any input
    layout."""
    rhs = block_input("rhs", rhs, (system.n_steps, system.ops.n_t))
    n, z = system.n_steps, system.ops.end_step_inv
    y, work, res = np.empty(rhs.shape[::-1]), scan_buffer(n), np.empty((1, n))
    scan_rows(z, rhs.T, y, work, 0, n)
    residual_rows(z, rhs.T, y, None, res, np.empty((2, n)))
    scan_rows(z[:1], res, res, work, 0, n)
    y[0] += res[0]
    u = np.empty_like(rhs)  # after the scans have freed their work arrays
    block_apply(system.ops.step_inv, y, u.T, add=False)
    return u


def stability_function(basis: BasisSpec, z: complex) -> complex:
    """One-step amplification factor R(z) of the scheme on u' = z u.

    Evaluated from the basis's reference tables with the step normalized to
    1, mass = diag(b): R(z) = eval_end @ (stiffness - z mass)^{-1} @
    eval_start, the single nonzero eigenvalue of (stiffness - z mass)^{-1}
    outer(eval_start, eval_end).  R equals the (p_t, p_t+1) subdiagonal Pade
    approximant of exp(z); raises ``numpy.linalg.LinAlgError`` when z hits
    one of its poles.
    """
    ref = reference_tables(basis)
    a = ref.stiffness - z * np.diag(ref.weights)
    x = np.linalg.solve(a, ref.eval_start.astype(complex))
    return complex(ref.eval_end @ x)

