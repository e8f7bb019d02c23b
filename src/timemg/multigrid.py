"""Multigrid in time: grid hierarchy, damped block Jacobi smoothing, two-grid
and V-cycle iterations, and measured convergence factors.

The cycles iterate on the step-scaled unknowns y_n = S u_n, S = stiffness +
mass of the level: the damped block Jacobi sweep, the residual and the exact
coarse scan then need no block product, only the rank-one step coupling.
This is the u-form cycle conjugated by the block-diagonal S, with the same
residuals and convergence.  The public functions take and return u; they
convert to y on entry and back on exit, except that a call that runs no
cycle or no sweep returns its u as given.

Each worker owns a contiguous slab of steps [a, b) of a level, so the same
code runs serially (one slab covering everything) and inside the worker team,
and works through it in chunks of ``CHUNK`` block entries that stay in the
L2 cache: a cycle makes two fused passes per level, one before and one after
the coarse correction, with no barrier inside a pass (see "cycles" below).
Every kernel computes each block with a fixed operation order, which makes the
solver output bitwise independent of the worker count and the chunk size.  The
workspace stores block vectors as (n_t, n_steps), one contiguous row per basis
coefficient; the public functions take and return C-ordered (n_steps, n_t)
arrays.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import time
from typing import Optional, Sequence

import numpy as np

from .dg import (BasisSpec, GlobalSystem, LocalOperators, assemble_local, block_apply,
                 block_input, build_transfers, check_count, check_step_size, forward_solve,
                 row_dot, scan_block, scan_buffer, scan_rows)
from .parallel import NullBarrier, run_team, team_barrier
from .smoothing import alpha, check_cycle, resolve_damping


# ---------------------------------------------------------------------------
# hierarchy

# steps of the smallest grid that coarsening makes
COARSEST = 8


@dataclasses.dataclass(frozen=True)
class Level:
    """One time grid plus the transfer blocks to the next coarser level: the
    basis's restriction pair (r1, r2), the same at every level, and the
    prolongation pair in step-scaled unknowns, p_i = S r_i^T S_c^{-1} with S
    and S_c the step matrices of this level and the coarser one."""

    n_steps: int
    tau: float
    ops: LocalOperators
    r1: Optional[np.ndarray] = None
    r2: Optional[np.ndarray] = None
    p1: Optional[np.ndarray] = None
    p2: Optional[np.ndarray] = None


class TimeHierarchy:
    """Nested uniform time grids; each coarser level halves the step count and
    doubles the step size.  Immutable during solves."""

    def __init__(self, basis: BasisSpec, levels: Sequence[Level]):
        self.basis = basis
        self.levels = list(levels)

    def __len__(self) -> int:
        return len(self.levels)

    @property
    def finest(self) -> Level:
        return self.levels[0]

    @classmethod
    def build(cls, basis: BasisSpec, tau: float, n_steps: int,
              n_levels=2) -> "TimeHierarchy":
        """Coarsen by step doubling until ``n_levels`` grids exist ("max": no
        cap) or the next grid would drop below ``COARSEST`` steps.  Every
        cycle descends all levels, so the default 2 gives the two-grid cycle
        with an exact, team-split coarse solve, the faster solver here, where
        a coarse step costs O(n_t); "max" gives the paper's V-cycle, the
        method for space-time problems.  ``n_steps`` must be a count >= 2
        and ``n_levels`` "max" or an integer >= 1, else ``ValueError``."""
        check_count("n_steps", n_steps, 2)
        check_step_size(tau)
        if n_levels != "max" and (not isinstance(n_levels, (int, np.integer))
                                  or isinstance(n_levels, bool) or n_levels < 1):
            raise ValueError(f"n_levels must be 'max' or an integer >= 1, got {n_levels!r}")
        max_levels = np.inf if n_levels == "max" else n_levels
        grids = [(n_steps, tau)]
        n = n_steps
        while len(grids) < max_levels and n % 2 == 0 and n // 2 >= COARSEST:
            n = n // 2
            grids.append((n, 2.0 * grids[-1][1]))
        ops = [assemble_local(basis, t) for _, t in grids]
        r1, r2 = build_transfers(basis, tau)  # the basis's one pair, for every level
        levels = []
        for (n, t), op, coarse in zip(grids, ops, ops[1:] + [None]):
            if coarse is None:
                levels.append(Level(n, t, op))
            else:
                p1, p2 = (op.step_matrix @ r.T @ coarse.step_inv for r in (r1, r2))
                levels.append(Level(n, t, op, r1, r2, p1, p2))
        return cls(basis, levels)


@dataclasses.dataclass
class CycleConfig:
    """Solver parameters.

    ``damping`` is "optimal" (recomputed per level from the level step size)
    or a fixed value in (0, 2).  The hierarchy sets the cycle depth.  A deep
    V-cycle converges more slowly than the two-grid prediction: measured
    factors (n = 1024, p_t 0-3, tau 1e-4 to 10) read up to 27% above it at
    nu1 = nu2 = 2 and up to 63% at nu1 = nu2 = 1; no test checks this yet.
    ``workers`` is the team that splits each level into slabs, whatever its
    size; a level uses fewer workers once its slabs would drop below
    ``MIN_SLAB`` steps, or below max(nu1, nu2) + 1.  Each field is checked
    when the config is made (the cycle by ``check_cycle``), by name.
    """

    nu1: int = 2
    nu2: int = 2
    damping: object = "optimal"
    eps: float = 1e-8
    max_iters: int = 250
    seed: int = 42
    workers: int = 1

    def __post_init__(self):
        check_cycle(self.nu1, self.nu2, self.damping)
        for name, low in (("max_iters", 1), ("seed", 0), ("workers", 1)):
            check_count(name, getattr(self, name), low)
        if self.nu1 + self.nu2 < 1:
            raise ValueError(f"need nu1 + nu2 >= 1, got {self.nu1}, {self.nu2}")
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")


# residual growth over the initial residual that stops a solve as diverged; no
# convergent solve (p_t 0-3, tau 1e-6..1e3, damping <= 1.99) exceeds 1
DIVERGENCE_RATIO = 1e6


@dataclasses.dataclass
class SolveStats:
    """Per-solve diagnostics; ``factor`` is the max residual ratio between
    consecutive cycles (the first, transient ratio is excluded when more than
    one is available).  ``status`` is why the iteration stopped: "converged",
    "max_iters", "diverged" (see ``DIVERGENCE_RATIO``) or "non_finite"; the
    read-only ``converged`` is ``status == "converged"``.

    ``times`` holds worker 0's wall time in seconds per phase.  A cycle
    works through each level in chunks and charges each part of a chunk as
    it ends: "smoothing" (the sweeps, the sweeps a slab repeats over its
    left neighbour's last columns, every g = omega f, and the change of the
    iterate to y = S u and back), "transfer" (inside a cycle: the residual,
    the restriction with the coarse zero guess, and the prolongation),
    "coarse" (the exact coarsest solve, a blocked scan split over the team,
    with the barrier before it, and, in a team, the serial tail of V-cycle
    levels too small to split, which worker 0 runs alone) and "residual"
    (the residual norms that decide when to stop: the finest residual and
    its squared norms, fused into each cycle's last pass, and their sum).
    The phases leave no gaps: they add up to worker 0's time from the
    change to y to the change back.  ``workers`` is the size of the team
    that ran: ``config.workers``, or 1 when the finest level is too small to
    split into two slabs of ``MIN_SLAB`` steps (and of at least
    max(nu1, nu2) + 1).

    The constructor still takes ``converged`` so that
    ``dataclasses.replace(stats, converged=False)`` marks a record as not
    converged (status "max_iters"); it cannot mark one converged."""

    iterations: int
    residual_norms: list
    factor: float
    times: dict
    seed: int
    workers: int
    status: str
    converged: dataclasses.InitVar[Optional[bool]] = None

    def __post_init__(self, converged):
        if converged and self.status != "converged":
            raise ValueError(f"a solve with status {self.status!r} did not converge")
        if converged is False and self.status == "converged":
            self.status = "max_iters"

    def to_dict(self) -> dict:
        return {"iterations": self.iterations, "residual_norms": list(self.residual_norms),
                "factor": self.factor, "times": dict(self.times),
                "converged": self.converged, "seed": self.seed,
                "workers": self.workers, "status": self.status}


# set after the class body, where it would become the default of the InitVar
SolveStats.converged = property(lambda self: self.status == "converged")


# ---------------------------------------------------------------------------
# chunk kernels
#
# Block vectors are stored as (n_t, n_steps), one contiguous row per basis
# coefficient.  A level's slab is worked through in chunks of CHUNK block
# entries, and each kernel takes one chunk, a view of n_t row segments.
# Every row product goes through dg.row_dot, fixed-order ufunc row operations:
# per step they are bitwise independent of the chunk and slab split, and the
# inner loops release the GIL so the worker threads overlap.  The kernels run on y = S u.  The step
# coupling is rank one, C = outer(e_0, eval_end), and C u_prev = e_0 (z .
# y_prev) with z = eval_end S^{-1}: the residual f - y + C u_prev and the
# sweep (1 - omega) y + omega (f + C u_prev) are row passes plus one dot
# product per step, added to row 0.  The only block products left are the
# transfers and the change to y = S u and back, once per solve or public
# cycle.

# block entries (steps x n_t) per chunk: 512 KiB per array, so that a
# chunk's y, f, g and residual stay in a 2 MiB L2 cache through its sweeps,
# residual and transfers
CHUNK = 1 << 16

# steps of the smallest slab worth the synchronization of a split level
MIN_SLAB = 1 << 15


def _chunk_steps(n_t: int) -> int:
    """Steps per chunk: CHUNK // n_t, even so that a chunk restricts to whole
    coarse steps.  A p_t = 0 level (n_t = 1) is one chunk per slab: its
    passes are a few one-row calls, chunking them gained little on one
    worker, and in a team it made every numpy call short enough that the
    workers lost their speedup to handing the GIL over between the calls
    (2^20 steps, one worker against two, 2-vCPU host: 1.3-1.45x in chunks
    of 2^15-2^16 steps, 1.5-1.6x as one chunk)."""
    if n_t == 1:
        return sys.maxsize
    return max(2, CHUNK // n_t // 2 * 2)


def _chunks(a: int, b: int, n_t: int):
    """The chunks (s, e) of the slab [a, b)."""
    step = _chunk_steps(n_t)
    return ((s, min(s + step, b)) for s in range(a, b, step))


def _dot(z, col) -> float:
    """z . col on Python floats, summed in the order of :func:`dg.row_dot`:
    its scalar twin, for the carried columns, which are lists of floats."""
    acc = z[0] * col[0]
    for j in range(1, len(z)):
        acc += z[j] * col[j]
    return acc


def _coupling(z, x, work) -> np.ndarray:
    """z . x[:, n - 1] for the columns n >= 1 of the chunk ``x``, in
    work[0]; work[1] holds each product."""
    m = x.shape[1] - 1
    return row_dot(z, x[:, :-1], work[0, :m], work[1, :m])


def _smooth(z, omega: float, g, y, carry, nu: int, coupled: bool, work) -> None:
    """``nu`` sweeps y <- (1 - omega) y + g + e_0 (z . y_prev), given
    g = omega f and z = omega eval_end S^{-1}, in place on the chunk ``y``.
    carry[k] holds sweep k's input at the column ahead of the chunk, read if
    ``coupled``, and leaves holding it at the chunk's last column for the
    next chunk, since the sweep overwrites it.  ``z`` and the carries are
    lists of Python floats, whose arithmetic rounds like numpy's; ``work``
    is two rows of scratch at least as long as the chunk."""
    for k in range(nu):
        value = _coupling(z, y, work)
        first = _dot(z, carry[k]) if coupled else None
        carry[k] = y[:, -1].tolist()
        np.multiply(y, 1.0 - omega, out=y)
        np.add(y, g, out=y)
        y[0, 1:] += value
        if coupled:
            y[0, 0] += first


def _residual(z, f, y, before, out, work) -> None:
    """out = f - y + e_0 (z . y_prev) = f - S u + C u_prev on a chunk, given
    z = eval_end S^{-1}; ``before`` is the column ahead of the chunk, None
    at the level's first step, which has no predecessor."""
    np.subtract(f, y, out=out)
    out[0, 1:] += _coupling(z, y, work)
    if before is not None:
        out[0, 0] += _dot(z, before)


def _restrict(r1, r2, fine, coarse, work) -> None:
    """coarse = r1 fine_even + r2 fine_odd on a chunk that starts on an even
    step."""
    block_apply(r1, fine[:, 0::2], coarse, False, work)
    block_apply(r2, fine[:, 1::2], coarse, True, work)


def _prolong_add(p1, p2, coarse, fine, s: int, work) -> None:
    """fine += the prolongation of the coarser level's ``coarse`` on the
    chunk ``fine`` that starts at step s: p1 on even steps, p2 on odd ones."""
    e = s + fine.shape[1]
    even, odd = s + s % 2, s + 1 - s % 2
    block_apply(p1, coarse[:, even // 2:(e + 1) // 2], fine[:, even - s::2], True, work)
    block_apply(p2, coarse[:, odd // 2:e // 2], fine[:, odd - s::2], True, work)


def block_jacobi_sweep(ops: LocalOperators, u, f, omega: float, nu: int = 1) -> np.ndarray:
    """Apply ``nu`` damped block Jacobi sweeps; every block update reads only
    the previous iterate (blocks n and n-1), so all updates are independent.
    ``u`` and ``f`` must be finite and shaped (n_steps, n_t), else
    ``ValueError``."""
    if not 0.0 < omega < 2.0:
        raise ValueError(f"damping must lie in (0, 2), got {omega}")
    check_count("nu", nu, 0)
    shape = np.shape(u)[:1] + (ops.n_t,)
    u = block_input("u", u, shape)
    g = block_input("f", f, shape).T.copy()
    if nu == 0:  # no round trip through y = S u
        return u.copy()
    ut = u.T.copy()
    np.multiply(g, omega, out=g)
    y = np.empty_like(ut)
    block_apply(ops.step_matrix, ut, y, add=False)
    z, carry = (omega * ops.end_step_inv).tolist(), [None] * nu
    work = np.empty((2, min(_chunk_steps(ops.n_t), y.shape[1])))
    for s, e in _chunks(0, y.shape[1], ops.n_t):
        _smooth(z, omega, g[:, s:e], y[:, s:e], carry, nu, s > 0, work)
    block_apply(ops.step_inv, y, ut, add=False)
    return ut.T.copy()


# ---------------------------------------------------------------------------
# cycles
#
# A cycle makes two fused passes over each level's slab, chunk by chunk.
# Pass A runs the nu1 sweeps, the residual and its restriction into the
# coarse rhs (with the coarse guess and g); pass B the prolongation-add of
# the coarse correction, the nu2 sweeps and, on the finest level of a solve,
# the residual's squared norms for the stopping test.  A sweep reads the
# previous step, so a chunk starts from the sweep inputs its predecessor
# left at its last column (the carry).  A slab's first chunk recomputes them
# from the left neighbour's last columns, published before the barrier that
# opened the pass, with the same per-step arithmetic as the neighbour, so a
# pass needs no barrier inside and gives the same bits for any split.


def _lap_clock(times: dict):
    """Worker 0's clock: ``lap(phase)`` charges the wall time since the
    previous lap, or since the clock was made, to ``times[phase]``."""
    previous = time.perf_counter()

    def lap(phase: str) -> None:
        nonlocal previous
        now = time.perf_counter()
        times[phase] += now - previous
        previous = now

    return lap


def _no_lap(phase: str) -> None:
    """The clock of the other workers and of serial sub-cycles."""


def _slab_table(levels: Sequence[Level], workers: int, width: int):
    """Each worker's step range [a, b) per level, the first level that
    worker 0 runs alone (``len(levels)`` if none) and the team.

    Worker w of k holds the units [w U // k, (w + 1) U // k) of a level's U
    units, step pairs on a smoothed level, so that restriction writes whole
    coarse steps, and scan blocks on the exact coarsest level; the workers
    from k on hold empty ranges at the level's end.  A smoothed level takes
    the most workers, up to ``workers``, whose smallest slab keeps
    ``MIN_SLAB`` steps and ``width``, the columns a slab's right neighbour
    sweeps again.  The coarsest level takes the whole team; from the first
    level that cannot keep two workers busy (the tail) down, worker 0 holds
    every step.  A finest level that cannot be split, or a single level,
    makes the team one worker."""
    pair = -(-max(MIN_SLAB, width) // 2)  # step pairs per smallest slab
    counts = [min(workers, level.n_steps // 2 // pair) for level in levels[:-1]]
    counts.append(workers if counts else 1)  # a single level runs on one worker
    tail = next((lev for lev, k in enumerate(counts) if k < 2), len(levels))
    team = workers if tail > 0 else 1
    slabs = []
    for lev, level in enumerate(levels):
        n, k = level.n_steps, counts[lev] if lev < tail else 1
        size = 2 if lev < len(levels) - 1 else scan_block(n)
        units = -(-n // size)
        slabs.append([(min(w * units // k * size, n), min((w + 1) * units // k * size, n))
                      for w in range(team)])
    return slabs, tail, team


class _Workspace:
    """Per-solve state: the damping per level, the sweep counts, and per
    level arrays stored as (n_t, n_steps): the iterate y = S u, the rhs f
    and the sweep's g = omega f, which the exact coarsest solve does not
    read.  ``slabs[lev][wid]`` is worker wid's step range of level lev,
    ``tail`` the first level that worker 0 runs alone and ``workers`` the
    team (see :func:`_slab_table`).  On a smoothed level, ``edges[lev][0]``
    and ``[1]`` hold each worker's last ``width`` = max(nu1, nu2) + 1
    columns of the input of pass A (written on the finest level only) and
    of pass B, for its right neighbour.  The finest level also has ``u``
    for the change to y and back and, in a solve that measures its
    residual, ``sq``, the squared residual norm per step.  Each worker has
    one chunk of residual, ``res``, and two rows of scratch, ``work``, so
    that the chunk kernels allocate nothing."""

    def __init__(self, levels: Sequence[Level], omegas: Sequence[float], nu1: int, nu2: int,
                 workers: int = 1, measure: bool = False):
        self.levels = list(levels)
        self.omegas, self.nu1, self.nu2 = omegas, nu1, nu2
        self.width = max(nu1, nu2) + 1
        self.slabs, self.tail, self.workers = _slab_table(self.levels, workers, self.width)
        n_t, n = self.levels[0].ops.n_t, self.levels[0].n_steps
        self.y, self.f, self.g, self.edges = [], [], [], []
        for k, lev in enumerate(self.levels):
            self.y.append(np.zeros((n_t, lev.n_steps)))
            self.f.append(np.zeros((n_t, lev.n_steps)))
            smoothed = k == 0 or k < len(self.levels) - 1
            self.g.append(np.zeros((n_t, lev.n_steps)) if smoothed else None)
            self.edges.append(np.zeros((2, self.workers, n_t, self.width)) if smoothed else None)
        self.u = np.zeros((n_t, n))
        self.sq = np.zeros(n) if measure else None
        steps = min(_chunk_steps(n_t), n)
        self.res = [np.empty((n_t, steps)) for _ in range(self.workers)]
        self.work = [np.empty((2, max(steps, self.width))) for _ in range(self.workers)]
        self.scan = scan_buffer(self.levels[-1].n_steps)

    def publish(self, lev: int, which: int, wid: int, a: int, b: int) -> None:
        """The last ``width`` columns of the slab [a, b) into the edge; a
        shorter slab is never split, so no neighbour reads its edge."""
        if b - a >= self.width:
            self.edges[lev][which][wid] = self.y[lev][:, b - self.width:b]


def _ghost(ws: _Workspace, lev: int, nu: int, wid: int, a: int, edges, prolong: bool):
    """The carry of the first chunk of a slab that starts at step a: sweep
    k's input at column a - 1 for k < nu, and the pass's sweep result there
    at row nu.  The left neighbour's published input columns (``edges``;
    None for the zero guess of a coarse level) are swept again, after the
    prolongation-add when ``prolong``.  The window's first column is swept
    without its predecessor; the error that leaves there moves one column
    per sweep and never reaches column a - 1."""
    level = ws.levels[lev]
    carry = [None] * (nu + 1)
    if a == 0:
        return carry
    lo = a - nu - 1  # >= 0: a slab holds at least width columns
    x = (np.zeros((level.ops.n_t, nu + 1)) if edges is None
         else edges[wid - 1][:, -(nu + 1):].copy())
    if prolong:
        _prolong_add(level.p1, level.p2, ws.y[lev + 1], x, lo, ws.work[wid])
    omega = ws.omegas[lev]
    z = (omega * level.ops.end_step_inv).tolist()
    _smooth(z, omega, ws.g[lev][:, lo:a], x, carry, nu, False, ws.work[wid])
    carry[nu] = x[:, -1].tolist()
    return carry


def _convert(ws: _Workspace, mat, src, dst, wid: int, a: int, b: int) -> None:
    """dst = mat src, one block product per step, on the finest steps
    [a, b), chunk by chunk."""
    for s, e in _chunks(a, b, ws.levels[0].ops.n_t):
        block_apply(mat, src[:, s:e], dst[:, s:e], False, ws.work[wid])


def _sq_chunk(ws: _Workspace, wid: int, s: int, e: int, before) -> None:
    """ws.sq[s:e] = the finest residual's squared norm per step of the chunk
    [s, e); ``before`` as in :func:`_residual`."""
    r, work = ws.res[wid][:, :e - s], ws.work[wid]
    z = ws.levels[0].ops.end_step_inv.tolist()
    _residual(z, ws.f[0][:, s:e], ws.y[0][:, s:e], before, r, work)
    row_dot(r, r, ws.sq[s:e], work[0, :e - s])


def _pass_a(ws: _Workspace, lev: int, wid: int, a: int, b: int, lap) -> None:
    """Per chunk of the slab [a, b): nu1 sweeps, the residual and its
    restriction into the coarse rhs, and a zero guess and g on a smoothed
    coarse level; then the slab's edge for pass B."""
    if a >= b:
        return
    level, nu, omega = ws.levels[lev], ws.nu1, ws.omegas[lev]
    y, f, g = ws.y[lev], ws.f[lev], ws.g[lev]
    yc, fc, gc = ws.y[lev + 1], ws.f[lev + 1], ws.g[lev + 1]
    z, zr = (omega * level.ops.end_step_inv).tolist(), level.ops.end_step_inv.tolist()
    work = ws.work[wid]
    # a coarse level's pass A starts from the zero guess
    carry = _ghost(ws, lev, nu, wid, a, ws.edges[lev][0] if lev == 0 else None, False)
    lap("smoothing")
    for s, e in _chunks(a, b, level.ops.n_t):
        _smooth(z, omega, g[:, s:e], y[:, s:e], carry, nu, s > 0, work)
        lap("smoothing")
        r = ws.res[wid][:, :e - s]
        _residual(zr, f[:, s:e], y[:, s:e], carry[nu] if s > 0 else None, r, work)
        carry[nu] = y[:, e - 1].tolist()
        cs, ce = s // 2, e // 2
        _restrict(level.r1, level.r2, r, fc[:, cs:ce], work)
        # the exact coarsest solve reads neither a guess nor g
        if gc is not None:
            yc[:, cs:ce] = 0.0
        lap("transfer")
        if gc is not None:
            np.multiply(fc[:, cs:ce], ws.omegas[lev + 1], out=gc[:, cs:ce])
            lap("smoothing")
    ws.publish(lev, 1, wid, a, b)


def _pass_b(ws: _Workspace, lev: int, wid: int, a: int, b: int, lap) -> None:
    """Per chunk of the slab [a, b): the prolongation-add of the coarse
    correction, nu2 sweeps and, on the finest level of a solve, the
    residual's squared norms; then, on the finest level, the slab's edge
    for the next pass A."""
    if a >= b:
        return
    level, nu, omega = ws.levels[lev], ws.nu2, ws.omegas[lev]
    y, g, yc = ws.y[lev], ws.g[lev], ws.y[lev + 1]
    z = (omega * level.ops.end_step_inv).tolist()
    work = ws.work[wid]
    measure = lev == 0 and ws.sq is not None
    carry = _ghost(ws, lev, nu, wid, a, ws.edges[lev][1], True)
    lap("smoothing")
    for s, e in _chunks(a, b, level.ops.n_t):
        _prolong_add(level.p1, level.p2, yc, y[:, s:e], s, work)
        lap("transfer")
        _smooth(z, omega, g[:, s:e], y[:, s:e], carry, nu, s > 0, work)
        lap("smoothing")
        if measure:
            _sq_chunk(ws, wid, s, e, carry[nu] if s > 0 else None)
            lap("residual")
        carry[nu] = y[:, e - 1].tolist()
    if lev == 0:  # a coarse pass A starts from the zero guess
        ws.publish(lev, 0, wid, a, b)


def _cycle(ws: _Workspace, lev: int, barrier, wid: int, lap) -> None:
    """One multigrid cycle at level ``lev``, in place on ws.y[lev] = S u, on
    this worker's slab ``ws.slabs[lev][wid]``; worker 0 runs the levels from
    ``ws.tail`` down alone.  The caller guarantees the level's y, f and g and
    its pass A edges are complete; every exit path ends on a barrier.  The
    coarsest level is solved exactly, from its rhs alone."""
    level, (a, b) = ws.levels[lev], ws.slabs[lev][wid]
    if lev == len(ws.levels) - 1:
        scan_rows(level.ops, ws.f[lev], ws.y[lev], ws.scan, a, b, barrier, wid == 0)
        barrier.wait()  # coarse solution complete
        lap("coarse")
        return
    _pass_a(ws, lev, wid, a, b, lap)
    barrier.wait()  # coarse rhs, guess and g, and the pass B edges complete
    if lev + 1 == ws.tail:
        # worker 0 runs the unsplit coarse levels alone
        if wid == 0:
            _cycle(ws, lev + 1, NullBarrier(), 0, _no_lap)
        barrier.wait()  # coarse solution complete
        lap("coarse")
    else:
        _cycle(ws, lev + 1, barrier, wid, lap)
    _pass_b(ws, lev, wid, a, b, lap)
    barrier.wait()  # level complete: the level above prolongs from it, or its norm is reduced


def two_grid_cycle(hier: TimeHierarchy, level: int, u, f,
                   config: CycleConfig = None) -> np.ndarray:
    """One two-grid cycle at ``level``: pre-smooth, restrict the residual,
    solve the coarse grid exactly, prolongate the correction, post-smooth.
    It is :func:`v_cycle` on the two levels from ``level`` down, so it runs
    on the same team.  ``level`` must be an integer with a coarser level
    below it, and ``u`` and ``f`` finite and shaped (n_steps, n_t) like
    ``level``, else ``ValueError``."""
    check_count("level", level, 0)
    if level >= len(hier) - 1:
        raise ValueError(f"level {level} is not a level with a coarser neighbor")
    return v_cycle(TimeHierarchy(hier.basis, hier.levels[level:level + 2]), u, f, config)


def v_cycle(hier: TimeHierarchy, u, f, config: CycleConfig = None) -> np.ndarray:
    """One V-cycle from the finest level; the coarse solve of the two-grid
    cycle is replaced by one recursive cycle except at the coarsest level,
    which is solved directly.  The cycle descends every level of ``hier``,
    so on a 2-level hierarchy it is the two-grid cycle.  It runs through
    the driver of :func:`solve`, on the team of ``config.workers``, with
    the same bits for any team size.  ``u`` and ``f`` must be finite and
    shaped (n_steps, n_t) like the finest level, else ``ValueError``."""
    if len(hier) < 2:
        raise ValueError(f"v_cycle needs at least 2 levels, but the hierarchy has {len(hier)}")
    shape = (hier.finest.n_steps, hier.finest.ops.n_t)
    u, f = block_input("u", u, shape), block_input("f", f, shape)
    return _iterate(hier, f, u, config or CycleConfig(), 1, measure=False)[0]


# ---------------------------------------------------------------------------
# iteration driver (shared by solve, which the convergence measurement
# calls, and the public cycles)


def _max_ratio(norms: Sequence[float]) -> float:
    if len(norms) < 2:
        return float("nan")
    ratios = [norms[k + 1] / norms[k] for k in range(len(norms) - 1) if norms[k] > 0]
    if not ratios:
        return 0.0
    return float(max(ratios[1:])) if len(ratios) > 1 else float(ratios[0])


def _iterate(hier: TimeHierarchy, f, u_init, config: CycleConfig, max_iters: int,
             measure: bool = True):
    """Run cycles on the team of ``config.workers`` until the residual drops
    by ``config.eps`` relative to the start; return u and its ``SolveStats``.

    Worker 0 reduces the per-block squared norms in fixed order, so stopping
    decisions (and hence the iterates) are identical for any worker count.
    An absolute floor of 1e-12 * ||f|| accepts inputs that are already solved
    to machine precision without running any cycle.  Without ``measure``
    (the public cycles) it computes no residual norm, runs exactly
    ``max_iters`` cycles and returns None for the stats.
    """
    omegas = [resolve_damping(config.damping, alpha(hier.basis, lev.tau)) for lev in hier.levels]
    ws = _Workspace(hier.levels, omegas, config.nu1, config.nu2, config.workers, measure=measure)
    ops, y, u = ws.levels[0].ops, ws.y[0], ws.u
    u[:] = u_init.T  # each worker turns its slab into y = S u
    ws.f[0][:] = f.T
    barrier = team_barrier(ws.workers)
    times = dict.fromkeys(("smoothing", "transfer", "coarse", "residual"), 0.0)
    shared = {"iters": 0, "norms": []}
    floor = 1e-12 * float(np.linalg.norm(f)) if measure else None

    def reduce(wid, lap):
        """The residual norm from ws.sq, complete at the caller's barrier;
        worker 0 adds it to the history."""
        if wid == 0:
            shared["norms"].append(float(np.sqrt(np.sum(ws.sq))))
        barrier.wait()
        lap("residual")
        return shared["norms"][-1]

    def body(wid):
        lap = _lap_clock(times) if wid == 0 else _no_lap
        a, b = ws.slabs[0][wid]
        # the finest slab is fixed, so each worker reads only the g it made
        np.multiply(ws.f[0][:, a:b], ws.omegas[0], out=ws.g[0][:, a:b])
        _convert(ws, ops.step_matrix, u, y, wid, a, b)
        ws.publish(0, 0, wid, a, b)
        barrier.wait()  # y complete: the residual reads the previous slab's last step
        lap("smoothing")
        if measure:
            for s, e in _chunks(a, b, ops.n_t):
                _sq_chunk(ws, wid, s, e, y[:, s - 1].tolist() if s > 0 else None)
            barrier.wait()
            r0 = rk = reduce(wid, lap)
            tol = max(config.eps * r0, floor)
        iters = 0
        # all workers read the same norm and leave together; NaN fails both tests
        while iters < max_iters and (not measure or tol < rk <= DIVERGENCE_RATIO * r0):
            _cycle(ws, 0, barrier, wid, lap)  # ends once ws.sq is complete
            iters += 1
            if measure:
                rk = reduce(wid, lap)
        if iters:  # back to u = S^{-1} y; u still holds u_init if no cycle ran
            _convert(ws, ops.step_inv, y, u, wid, a, b)
        lap("smoothing")
        if wid == 0:
            shared["iters"] = iters

    run_team(ws.workers, body, barrier)
    if not measure:
        return u.T.copy(), None
    norms = shared["norms"]
    last = norms[-1]
    status = ("non_finite" if not math.isfinite(last)
              else "converged" if last <= max(config.eps * norms[0], floor)
              else "diverged" if last > DIVERGENCE_RATIO * norms[0] else "max_iters")
    stats = SolveStats(iterations=shared["iters"], residual_norms=norms,
                       factor=_max_ratio(norms), times=times,
                       seed=config.seed, workers=ws.workers, status=status)
    return u.T.copy(), stats


def random_initial_guess(hier: TimeHierarchy, seed: int) -> np.ndarray:
    """Uniform [0, 1) coefficients from a seeded generator."""
    rng = np.random.default_rng(seed)
    return rng.random((hier.finest.n_steps, hier.finest.ops.n_t))


def solve(hier: TimeHierarchy, f, u_init=None,
          config: CycleConfig = None) -> tuple[np.ndarray, SolveStats]:
    """Iterate cycles over all levels of ``hier`` until the residual drops by
    ``config.eps``; on a single level, solve exactly.

    ``f`` and ``u_init`` must be finite and shaped (n_steps, n_t) like the
    finest level, else ``ValueError``.  ``u_init`` defaults to a random guess
    seeded from the config.  Failure to converge (iteration cap, divergence
    or a non-finite residual) is reported through ``stats.status``, not an
    exception.
    """
    config = config or CycleConfig()
    finest = hier.finest
    shape = (finest.n_steps, finest.ops.n_t)
    f = block_input("f", f, shape)
    if u_init is None:
        u_init = random_initial_guess(hier, config.seed)
    u_init = block_input("u_init", u_init, shape)
    if len(hier) > 1:
        return _iterate(hier, f, u_init, config, config.max_iters)
    # single level: solve directly, then measure the residual
    u_init = forward_solve(GlobalSystem(finest.ops, finest.n_steps), f)
    return _iterate(hier, f, u_init, config, 0)


def measure_convergence_factor(hier: TimeHierarchy, config: CycleConfig = None) -> float:
    """Measured asymptotic factor of the two-grid cycle on the two finest
    levels of ``hier``: :func:`solve`'s ``factor`` on a zero right-hand side
    from the seeded start, by default to a residual reduction of 1e-100."""
    if len(hier) < 2:
        raise ValueError("measuring the two-grid factor needs 2 levels")
    two = TimeHierarchy(hier.basis, hier.levels[:2])
    f = np.zeros((two.finest.n_steps, two.finest.ops.n_t))
    return solve(two, f, None, config or CycleConfig(eps=1e-100))[1].factor
