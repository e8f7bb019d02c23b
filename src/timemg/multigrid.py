"""Multigrid in time: grid hierarchy, damped block Jacobi smoothing, two-grid
and V-cycle iterations, and measured convergence factors.

The cycles iterate on the step-scaled unknowns y_n = S u_n, S = stiffness +
mass of the level: the damped block Jacobi sweep, the residual and the exact
coarse scan then need no block product, only the rank-one step coupling.
This is the u-form cycle conjugated by the block-diagonal S, with the same
residuals and convergence.  The public functions take and return u; they
convert to y on entry and back on exit.

All block kernels operate on a contiguous slab of steps [a, b) so the same
code runs serially (one slab covering everything) and inside the worker team.
Every kernel computes each block with a fixed operation order, which makes the
solver output bitwise independent of the worker count.  The workspace stores
block vectors as (n_t, n_steps), one contiguous row per basis coefficient;
the public functions take and return C-ordered (n_steps, n_t) arrays.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Optional, Sequence

import numpy as np

from .dg import (BasisSpec, GlobalSystem, LocalOperators, assemble_local, block_apply,
                 block_input, build_transfers, check_step_size, forward_solve, scan_block,
                 scan_buffer, scan_rows)
from .parallel import NullBarrier, run_team, team_barrier
from .smoothing import alpha, resolve_damping


# ---------------------------------------------------------------------------
# hierarchy


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
              n_levels=2, coarsest: int = 8) -> "TimeHierarchy":
        """Coarsen by step doubling until ``n_levels`` grids exist ("max": no
        cap) or the next grid would drop below ``coarsest`` steps (never
        below 2).  Every cycle descends all levels, so the default 2 gives
        the two-grid cycle with an exact, team-split coarse solve, the
        faster solver here, where a coarse step costs O(n_t); "max" gives the
        paper's V-cycle, the method for space-time problems.  Any other
        ``n_levels`` than "max" or an integer >= 1 raises ``ValueError``."""
        if n_steps < 2:
            raise ValueError(f"need at least 2 steps, got {n_steps}")
        check_step_size(tau)
        if n_levels != "max" and (not isinstance(n_levels, (int, np.integer))
                                  or isinstance(n_levels, bool) or n_levels < 1):
            raise ValueError(f"n_levels must be 'max' or an integer >= 1, got {n_levels!r}")
        max_levels = np.inf if n_levels == "max" else n_levels
        grids = [(n_steps, tau)]
        n = n_steps
        while len(grids) < max_levels and n % 2 == 0 and n // 2 >= max(2, coarsest):
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
    or a fixed value in (0, 2).  The hierarchy sets the cycle depth.  Two
    smoothing steps per side keep deep V-cycles close to the two-grid
    factor; a single step is noticeably depth-sensitive on this problem.
    ``min_slab`` is the smallest per-worker slab worth the synchronization of
    a split level; levels use fewer workers once their slabs would drop
    below it.
    """

    nu1: int = 2
    nu2: int = 2
    damping: object = "optimal"
    eps: float = 1e-8
    max_iters: int = 250
    seed: int = 42
    workers: int = 1
    min_slab: int = 32768

    def __post_init__(self):
        if self.nu1 < 0 or self.nu2 < 0 or self.nu1 + self.nu2 < 1:
            raise ValueError(f"need nu1, nu2 >= 0 with nu1 + nu2 >= 1, got {self.nu1}, {self.nu2}")
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


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

    ``times`` holds worker 0's wall time in seconds per phase: "smoothing"
    (the sweeps, every g = omega f, and the change of the iterate to y = S u
    and back), "transfer" (residual, restriction and prolongation inside a
    cycle), "coarse" (the exact coarsest solve, a blocked scan split over
    the team, and, in a team, the serial tail of V-cycle levels too small to
    split, which worker 0 runs alone) and "residual" (the residual norms that
    decide when to stop).  The phases leave no gaps: they add up to worker
    0's time from the change to y to the change back.  ``workers`` is the
    size of the team that ran: ``config.workers``, or 1 when the finest
    level is too small to split (see ``CycleConfig.min_slab``).

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
# slab kernels
#
# Block vectors are stored as (n_t, n_steps), one contiguous row per basis
# coefficient, so each kernel streams whole rows.  Block products are spelled
# out as fixed-order ufunc row operations: per step they are bitwise
# independent of the slab split, and the inner loops release the GIL so the
# worker threads overlap.  The kernels run on y = S u.  The step coupling is
# rank one, C = outer(e_0, eval_end), and C u_prev = e_0 (z . y_prev) with
# z = eval_end S^{-1}: the residual f - y + C u_prev and the sweep
# (1 - omega) y + omega (f + C u_prev) are row passes plus one dot product
# per step, added to row 0.  The only block products left are the transfers
# and the change to y = S u and back, once per solve or public cycle.


def _add_coupling(end, y, out, a: int, b: int) -> None:
    """out[0, n - a] += end . y[:, n - 1] for the steps n >= 1 of the slab
    [a, b), the coupling e_0 (end . y_prev); ``out`` holds the slab's b - a
    columns."""
    lo = max(a, 1)
    prev = y[:, lo - 1:b - 1]
    value = end[0] * prev[0]
    for j in range(1, len(end)):
        value += end[j] * prev[j]
    out[0, lo - a:] += value


def _residual_slab(ops: LocalOperators, f, y, out, a: int, b: int) -> None:
    """out = f - y + e_0 (z . y_prev) = f - S u + C u_prev on the slab [a, b)."""
    np.subtract(f[:, a:b], y[:, a:b], out=out[:, a:b])
    _add_coupling(ops.end_step_inv, y, out[:, a:b], a, b)


def _smoother_rhs_slab(omega: float, f, g, a: int, b: int) -> None:
    """g = omega f on the slab [a, b): the part of the sweep that does not
    depend on the iterate."""
    np.multiply(f[:, a:b], omega, out=g[:, a:b])


def _sweep_slab(ops: LocalOperators, omega: float, g, y, cur: int, nu: int,
                a: int, b: int, barrier) -> int:
    """``nu`` sweeps dst = (1 - omega) src + omega (f + e_0 (z . src_prev))
    on the slab [a, b), given g = omega f, from y[cur] alternating
    between the buffers y[0] and y[1], each followed by a barrier; returns
    the index of the buffer that holds the result."""
    z = omega * ops.end_step_inv
    for _ in range(nu):
        src, dst = y[cur], y[1 - cur][:, a:b]
        np.multiply(src[:, a:b], 1.0 - omega, out=dst)
        np.add(dst, g[:, a:b], out=dst)
        _add_coupling(z, src, dst, a, b)
        cur ^= 1
        barrier.wait()
    return cur


def _restrict_slab(r1, r2, fine, coarse, ca: int, cb: int) -> None:
    block_apply(r1, fine[:, 2 * ca:2 * cb:2], coarse[:, ca:cb], add=False)
    block_apply(r2, fine[:, 2 * ca + 1:2 * cb:2], coarse[:, ca:cb], add=True)


def _prolong_add_slab(p1, p2, coarse, fine, ca: int, cb: int) -> None:
    block_apply(p1, coarse[:, ca:cb], fine[:, 2 * ca:2 * cb:2], add=True)
    block_apply(p2, coarse[:, ca:cb], fine[:, 2 * ca + 1:2 * cb:2], add=True)


def _sqnorm_slab(x, out, a: int, b: int) -> None:
    acc = x[0, a:b] * x[0, a:b]
    for j in range(1, len(x)):
        acc += x[j, a:b] * x[j, a:b]
    out[a:b] = acc


def block_jacobi_sweep(ops: LocalOperators, u, f, omega: float, nu: int = 1) -> np.ndarray:
    """Apply ``nu`` damped block Jacobi sweeps; every block update reads only
    the previous iterate (blocks n and n-1), so all updates are independent.
    ``u`` and ``f`` must be finite and shaped (n_steps, n_t), else
    ``ValueError``."""
    if not 0.0 < omega < 2.0:
        raise ValueError(f"damping must lie in (0, 2), got {omega}")
    if nu < 0:
        raise ValueError(f"sweep count must be >= 0, got {nu}")
    shape = np.shape(u)[:1] + (ops.n_t,)
    ut = block_input("u", u, shape).T.copy()
    g = block_input("f", f, shape).T.copy()
    n = ut.shape[1]
    _smoother_rhs_slab(omega, g, g, 0, n)
    y = [np.empty_like(ut), ut]
    block_apply(ops.step_matrix, ut, y[0], add=False)
    cur = _sweep_slab(ops, omega, g, y, 0, nu, 0, n, NullBarrier())
    block_apply(ops.step_inv, y[cur], y[1 - cur], add=False)
    return y[1 - cur].T.copy()


# ---------------------------------------------------------------------------
# cycles


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


class _Workspace:
    """Preallocated per-level arrays, each stored as (n_t, n_steps): two
    smoothing buffers of y = S u, the rhs f and the sweep's g = omega f,
    plus the coarsest level's scan buffer.  A residual goes into the
    smoothing buffer that does not hold the iterate.  The coarsest level of
    a cycle is solved exactly, from f alone into one y buffer."""

    def __init__(self, levels: Sequence[Level]):
        self.levels = list(levels)
        self.y = []
        self.f = []
        self.g = []
        for k, lev in enumerate(self.levels):
            shape = (lev.ops.n_t, lev.n_steps)
            # the finest level keeps both buffers even as the only level: the
            # residual and the change back to u go into the free one
            smoothed = k == 0 or k < len(self.levels) - 1
            self.y.append([np.zeros(shape) for _ in range(1 + smoothed)])
            self.f.append(np.zeros(shape))
            self.g.append(np.zeros(shape) if smoothed else None)
        self.sq = np.zeros(self.levels[0].n_steps)
        self.scan = scan_buffer(self.levels[-1].n_steps)

    def full_slab(self, wid: int, lev: int):
        return (0, self.levels[lev].n_steps)


def _cycle(ws: _Workspace, lev: int, cur: int, nu1: int, nu2: int,
           omegas: Sequence[float], slab_of, barrier, wid: int, lap) -> int:
    """One multigrid cycle at level ``lev`` on y = S u; data enters and
    leaves in ws.y[lev][returned index].  The caller guarantees the entry
    buffer is globally complete; every exit path ends on a barrier.  The
    coarsest level is solved exactly, from its rhs alone."""
    level = ws.levels[lev]
    if lev == len(ws.levels) - 1:
        scan_rows(level.ops, ws.f[lev], ws.y[lev][0], ws.scan, *slab_of(wid, lev),
                  barrier, wid == 0)
        barrier.wait()  # coarse solution complete
        lap("coarse")
        return 0
    omega = omegas[lev]
    a, b = slab_of(wid, lev)
    cur = _sweep_slab(level.ops, omega, ws.g[lev], ws.y[lev], cur, nu1, a, b, barrier)
    lap("smoothing")

    # the residual goes into the free smoothing buffer on this worker's slab,
    # which only this worker's restriction reads before post-smoothing
    _residual_slab(level.ops, ws.f[lev], ws.y[lev][cur], ws.y[lev][1 - cur], a, b)
    ca, cb = a // 2, b // 2
    _restrict_slab(level.r1, level.r2, ws.y[lev][1 - cur], ws.f[lev + 1], ca, cb)
    # the exact coarsest solve reads neither a guess nor g
    smoothed = ws.g[lev + 1] is not None
    if smoothed:
        ws.y[lev + 1][0][:, ca:cb] = 0.0
    lap("transfer")
    if smoothed:
        _smoother_rhs_slab(omegas[lev + 1], ws.f[lev + 1], ws.g[lev + 1], ca, cb)
        lap("smoothing")

    barrier.wait()  # coarse rhs, g and zero guess complete
    if slab_of(wid, lev + 1) is None:
        # worker 0 runs the unsplit coarse levels alone
        if wid == 0:
            sub = _cycle(ws, lev + 1, 0, nu1, nu2, omegas, ws.full_slab,
                         NullBarrier(), 0, _no_lap)
            if sub != 0:
                ws.y[lev + 1][0][:] = ws.y[lev + 1][sub]
        barrier.wait()  # coarse solution complete
        lap("coarse")
        ccur = 0
    else:
        ccur = _cycle(ws, lev + 1, 0, nu1, nu2, omegas, slab_of, barrier, wid, lap)

    _prolong_add_slab(level.p1, level.p2, ws.y[lev + 1][ccur], ws.y[lev][cur], ca, cb)
    barrier.wait()
    lap("transfer")
    cur = _sweep_slab(level.ops, omega, ws.g[lev], ws.y[lev], cur, nu2, a, b, barrier)
    lap("smoothing")
    return cur


def _resolve_omegas(hier: TimeHierarchy, config: CycleConfig) -> list:
    return [resolve_damping(config.damping, alpha(hier.basis, lev.tau))
            for lev in hier.levels]


def _serial_cycle(hier: TimeHierarchy, u, f, config: CycleConfig) -> np.ndarray:
    config = config or CycleConfig()
    ws = _Workspace(hier.levels)
    ops = ws.levels[0].ops
    shape = (ws.levels[0].n_steps, ops.n_t)
    y = ws.y[0]
    y[1][:] = block_input("u", u, shape).T
    ws.f[0][:] = block_input("f", f, shape).T
    omegas = _resolve_omegas(hier, config)
    _smoother_rhs_slab(omegas[0], ws.f[0], ws.g[0], *ws.full_slab(0, 0))
    block_apply(ops.step_matrix, y[1], y[0], add=False)
    cur = _cycle(ws, 0, 0, config.nu1, config.nu2, omegas, ws.full_slab,
                 NullBarrier(), 0, _no_lap)
    block_apply(ops.step_inv, y[cur], y[1 - cur], add=False)
    return y[1 - cur].T.copy()


def two_grid_cycle(hier: TimeHierarchy, level: int, u, f,
                   config: CycleConfig = None) -> np.ndarray:
    """One two-grid cycle at ``level``: pre-smooth, restrict the residual,
    solve the coarse grid exactly, prolongate the correction, post-smooth.
    ``u`` and ``f`` must be finite and shaped (n_steps, n_t) like ``level``,
    else ``ValueError``."""
    if not 0 <= level < len(hier) - 1:
        raise ValueError(f"level {level} is not a level with a coarser neighbor")
    return _serial_cycle(TimeHierarchy(hier.basis, hier.levels[level:level + 2]),
                         u, f, config)


def v_cycle(hier: TimeHierarchy, u, f, config: CycleConfig = None) -> np.ndarray:
    """One V-cycle from the finest level; the coarse solve of the two-grid
    cycle is replaced by one recursive cycle except at the coarsest level,
    which is solved directly.  The cycle descends every level of ``hier``,
    so on a 2-level hierarchy it is the two-grid cycle.  ``u`` and ``f``
    must be finite and shaped (n_steps, n_t) like the finest level, else
    ``ValueError``."""
    if len(hier) < 2:
        raise ValueError(f"v_cycle needs at least 2 levels, but the hierarchy has {len(hier)}")
    return _serial_cycle(hier, u, f, config)


# ---------------------------------------------------------------------------
# iteration driver (shared by solve and the convergence measurement)


def _make_slab_table(ws: _Workspace, workers: int, min_slab: int):
    """Per (worker, level) block ranges, and the worker count they are for;
    None marks levels run by worker 0.

    Each level is split over the largest power-of-two worker count that keeps
    every slab at least ``min_slab`` blocks (the surplus workers hold empty
    slabs and only join the barriers); slabs are even-sized so restriction
    always writes whole coarse blocks.  Levels that cannot keep two workers
    busy and all levels below them are marked None and run by worker 0
    between two barriers.  The coarsest level, solved exactly, is split into
    whole scan blocks over all workers when the level above it is split.  A
    finest level too small to split runs on one worker.
    """
    table = []
    for lev in ws.levels[:-1]:
        n = lev.n_steps
        active = workers
        while active > 1 and (n % active != 0 or n // active < max(min_slab, 2)
                              or (n // active) % 2 != 0):
            active //= 2
        if active < 2 or (table and table[-1] is None):
            table.append(None)
            continue
        per = n // active
        table.append([(w * per, (w + 1) * per) if w < active else (n, n)
                      for w in range(workers)])
    if table and table[-1] is not None:
        n = ws.levels[-1].n_steps
        block = scan_block(n)
        n_blocks = -(-n // block)
        table.append([(w * n_blocks // workers * block,
                       min((w + 1) * n_blocks // workers * block, n))
                      for w in range(workers)])
    else:
        table.append(None)
    if table[0] is None:
        workers, table = 1, [[(0, lev.n_steps)] for lev in ws.levels]

    def slab(wid, lev):
        rows = table[lev]
        return None if rows is None else rows[wid]

    return slab, workers


def _max_ratio(norms: Sequence[float]) -> float:
    if len(norms) < 2:
        return float("nan")
    ratios = [norms[k + 1] / norms[k] for k in range(len(norms) - 1) if norms[k] > 0]
    if not ratios:
        return 0.0
    return float(max(ratios[1:])) if len(ratios) > 1 else float(ratios[0])


def _iterate(hier: TimeHierarchy, f, u_init, config: CycleConfig, max_iters: int):
    """Run cycles until the residual drops by ``config.eps`` relative to the
    start.

    Worker 0 reduces the per-block squared norms in fixed order, so stopping
    decisions (and hence the iterates) are identical for any worker count.
    An absolute floor of 1e-12 * ||f|| accepts inputs that are already solved
    to machine precision without running any cycle.
    """
    ws = _Workspace(hier.levels)
    ops, y = ws.levels[0].ops, ws.y[0]
    y[1][:] = u_init.T  # each worker turns its slab into y = S u in y[0]
    ws.f[0][:] = f.T
    omegas = _resolve_omegas(hier, config)
    slab_of, workers = _make_slab_table(ws, config.workers, config.min_slab)
    barrier = team_barrier(workers)
    times = dict.fromkeys(("smoothing", "transfer", "coarse", "residual"), 0.0)
    shared = {"norm": np.zeros(1), "cur": 0, "iters": 0, "norms": []}
    floor = 1e-12 * float(np.linalg.norm(f))

    def norm_at(wid, cur, lap):
        rows = slab_of(wid, 0)
        # the free smoothing buffer holds the residual, as in _cycle
        _residual_slab(ops, ws.f[0], y[cur], y[1 - cur], *rows)
        _sqnorm_slab(y[1 - cur], ws.sq, *rows)
        barrier.wait()
        if wid == 0:
            shared["norm"][0] = np.sqrt(np.sum(ws.sq))
        barrier.wait()
        lap("residual")
        return float(shared["norm"][0])

    def body(wid):
        lap = _lap_clock(times) if wid == 0 else _no_lap
        a, b = slab_of(wid, 0)
        # the finest slab is fixed, so each worker reads only the g it made
        _smoother_rhs_slab(omegas[0], ws.f[0], ws.g[0], a, b)
        block_apply(ops.step_matrix, y[1][:, a:b], y[0][:, a:b], add=False)
        barrier.wait()  # y complete: the residual reads the previous slab's last step
        lap("smoothing")
        cur = 0
        r0 = norm_at(wid, cur, lap)
        if wid == 0:
            shared["norms"].append(r0)
        tol = max(config.eps * r0, floor)
        rk = r0
        iters = 0
        # all workers read the same norm and leave together; NaN fails both tests
        while tol < rk <= DIVERGENCE_RATIO * r0 and iters < max_iters:
            cur = _cycle(ws, 0, cur, config.nu1, config.nu2, omegas, slab_of,
                         barrier, wid, lap)
            rk = norm_at(wid, cur, lap)
            iters += 1
            if wid == 0:
                shared["norms"].append(rk)
        # back to u = S^{-1} y, into the free buffer: the residual is spent
        block_apply(ops.step_inv, y[cur][:, a:b], y[1 - cur][:, a:b], add=False)
        lap("smoothing")
        if wid == 0:
            shared["cur"] = 1 - cur
            shared["iters"] = iters

    run_team(workers, body, barrier)
    norms = shared["norms"]
    last = norms[-1]
    status = ("non_finite" if not math.isfinite(last)
              else "converged" if last <= max(config.eps * norms[0], floor)
              else "diverged" if last > DIVERGENCE_RATIO * norms[0] else "max_iters")
    stats = SolveStats(iterations=shared["iters"], residual_norms=norms,
                       factor=_max_ratio(norms), times=times,
                       seed=config.seed, workers=workers, status=status)
    return y[shared["cur"]].T.copy(), stats


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
    levels of ``hier``, on a zero right-hand side: max ratio of consecutive
    residual norms, from a seeded random start, capped at 250 iterations or
    the configured reduction ``eps``."""
    config = config or CycleConfig(eps=1e-100)
    if len(hier) < 2:
        raise ValueError("measuring the two-grid factor needs 2 levels")
    two = TimeHierarchy(hier.basis, hier.levels[:2])
    f = np.zeros((two.finest.n_steps, two.finest.ops.n_t))
    _, stats = _iterate(two, f, random_initial_guess(two, config.seed), config,
                        min(config.max_iters, 250))
    return stats.factor
