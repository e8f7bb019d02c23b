"""Multigrid in time: grid hierarchy, damped block Jacobi smoothing, two-grid
and V-cycle iterations, and measured convergence factors.

All block kernels operate on a contiguous slab of steps [a, b) so the same
code runs serially (one slab covering everything) and inside the worker team.
Every kernel computes each block with a fixed operation order, which makes the
solver output bitwise independent of the worker count.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Optional, Sequence

import numpy as np

from .dg import BasisSpec, GlobalSystem, LocalOperators, assemble_local, forward_solve
from .parallel import NullBarrier, run_team, team_barrier
from .smoothing import alpha, resolve_damping
from .transfers import build_transfers


# ---------------------------------------------------------------------------
# hierarchy


@dataclasses.dataclass(frozen=True)
class Level:
    """One time grid plus the transfer blocks to the next coarser level."""

    index: int
    n_steps: int
    tau: float
    ops: LocalOperators
    r1: Optional[np.ndarray] = None
    r2: Optional[np.ndarray] = None


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
              n_levels="max", coarsest: int = 8) -> "TimeHierarchy":
        """Coarsen by step doubling until ``n_levels`` grids exist or the next
        grid would drop below ``coarsest`` steps (never below 2)."""
        if n_steps < 2:
            raise ValueError(f"need at least 2 steps, got {n_steps}")
        if tau <= 0:
            raise ValueError(f"time step must be positive, got {tau}")
        max_levels = np.inf if n_levels == "max" else int(n_levels)
        if max_levels < 1:
            raise ValueError(f"need at least one level, got {n_levels}")
        levels = []
        n, t = n_steps, tau
        while True:
            ops = assemble_local(basis, t)
            can_coarsen = (len(levels) + 1 < max_levels and n % 2 == 0
                           and n // 2 >= max(2, coarsest))
            if can_coarsen:
                r1, r2 = build_transfers(basis, t)
                levels.append(Level(len(levels), n, t, ops, r1, r2))
                n, t = n // 2, 2.0 * t
            else:
                levels.append(Level(len(levels), n, t, ops))
                break
        return cls(basis, levels)


@dataclasses.dataclass
class CycleConfig:
    """Solver parameters.

    ``damping`` is "optimal" (recomputed per level from the level step size)
    or a fixed value in (0, 2).  ``levels`` caps the cycle depth ("max" uses
    the whole hierarchy; 2 gives the plain two-grid cycle).  Two smoothing
    steps per side keep deep V-cycles close to the two-grid factor; a single
    step is noticeably depth-sensitive on this problem.  ``min_slab`` is the
    smallest per-worker slab worth the synchronization of a split level;
    levels use fewer workers once their slabs would drop below it.
    """

    nu1: int = 2
    nu2: int = 2
    damping: object = "optimal"
    levels: object = "max"
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
        if self.levels != "max" and int(self.levels) < 1:
            raise ValueError(f"levels must be 'max' or >= 1, got {self.levels}")


# residual growth over the initial residual that stops a solve as diverged; no
# convergent solve (p_t 0-3, tau 1e-6..1e3, damping <= 1.99) exceeds 1
DIVERGENCE_RATIO = 1e6


@dataclasses.dataclass
class SolveStats:
    """Per-solve diagnostics; ``factor`` is the max residual ratio between
    consecutive cycles (the first, transient ratio is excluded when more than
    one is available).  ``status`` is why the iteration stopped: "converged",
    "max_iters", "diverged" (see ``DIVERGENCE_RATIO``) or "non_finite"."""

    iterations: int
    residual_norms: list
    factor: float
    times: dict
    converged: bool
    seed: int
    workers: int
    status: str

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


# ---------------------------------------------------------------------------
# slab kernels
#
# Block products are spelled out as fixed-order ufunc column operations: per
# row they are bitwise independent of the slab split, and the inner loops
# release the GIL so the worker threads overlap.  The step coupling is rank
# one, C = outer(eval_start, eval_end): every kernel adds eval_start times the
# end value of the previous block, and the only block products left are with
# the step matrix S (residual) and its precomputed inverse (sweep).


def _block_apply(mat, x, out, add: bool) -> None:
    """out[n, i] (+)= sum_j mat[i, j] * x[n, j], summed in fixed j order."""
    n_t = mat.shape[0]
    for i in range(n_t):
        acc = mat[i, 0] * x[:, 0]
        for j in range(1, n_t):
            acc += mat[i, j] * x[:, j]
        if add:
            out[:, i] += acc
        else:
            out[:, i] = acc


def _add_coupling(ops: LocalOperators, u, out, a: int, b: int) -> None:
    """out[n - a] += eval_start * (eval_end . u[n - 1]) for the steps n >= 1
    of the slab [a, b); ``out`` holds the slab's b - a rows."""
    lo = max(a, 1)
    prev, rows, end = u[lo - 1:b - 1], out[lo - a:], ops.eval_end
    value = end[0] * prev[:, 0]
    for j in range(1, len(end)):
        value += end[j] * prev[:, j]
    # the default basis has eval_start = e_0: skip zeros, add ones unscaled
    for i, start in enumerate(ops.eval_start):
        if start == 1.0:
            rows[:, i] += value
        elif start != 0.0:
            rows[:, i] += start * value


def _residual_slab(ops: LocalOperators, f, u, out, a: int, b: int) -> None:
    """out = f - S u + C u_prev on the slab [a, b)."""
    _block_apply(ops.step_matrix, u[a:b], out[a:b], add=False)
    np.subtract(f[a:b], out[a:b], out=out[a:b])
    _add_coupling(ops, u, out[a:b], a, b)


def _sweep_slab(ops: LocalOperators, omega: float, f, src, dst, a: int, b: int) -> None:
    """dst = (1 - omega) src + omega S^{-1} (f + C src_prev) on the slab [a, b)."""
    rhs = f[a:b].copy()
    _add_coupling(ops, src, rhs, a, b)
    np.multiply(src[a:b], 1.0 - omega, out=dst[a:b])
    _block_apply(omega * ops.step_inv, rhs, dst[a:b], add=True)


def _restrict_slab(r1, r2, fine, coarse, ca: int, cb: int) -> None:
    _block_apply(r1, fine[2 * ca:2 * cb:2], coarse[ca:cb], add=False)
    _block_apply(r2, fine[2 * ca + 1:2 * cb:2], coarse[ca:cb], add=True)


def _prolong_add_slab(r1, r2, coarse, fine, ca: int, cb: int) -> None:
    _block_apply(r1.T, coarse[ca:cb], fine[2 * ca:2 * cb:2], add=True)
    _block_apply(r2.T, coarse[ca:cb], fine[2 * ca + 1:2 * cb:2], add=True)


def _sqnorm_slab(x, out, a: int, b: int) -> None:
    acc = x[a:b, 0] * x[a:b, 0]
    for j in range(1, x.shape[1]):
        acc += x[a:b, j] * x[a:b, j]
    out[a:b] = acc


def block_jacobi_sweep(ops: LocalOperators, u, f, omega: float, nu: int = 1) -> np.ndarray:
    """Apply ``nu`` damped block Jacobi sweeps; every block update reads only
    the previous iterate (blocks n and n-1), so all updates are independent."""
    if not 0.0 < omega < 2.0:
        raise ValueError(f"damping must lie in (0, 2), got {omega}")
    if nu < 0:
        raise ValueError(f"sweep count must be >= 0, got {nu}")
    buf = [np.array(u, dtype=float), np.empty_like(u, dtype=float)]
    cur = 0
    for _ in range(nu):
        _sweep_slab(ops, omega, f, buf[cur], buf[1 - cur], 0, len(u))
        cur ^= 1
    return buf[cur]


# ---------------------------------------------------------------------------
# cycles


class _Timers:
    """Phase wall times, recorded by worker 0 only."""

    __slots__ = ("smoothing", "transfer", "coarse", "residual", "active")

    def __init__(self, active: bool):
        self.smoothing = 0.0
        self.transfer = 0.0
        self.coarse = 0.0
        self.residual = 0.0
        self.active = active

    def to_dict(self):
        return {"smoothing": self.smoothing, "transfer": self.transfer,
                "coarse": self.coarse, "residual": self.residual}


class _Workspace:
    """Preallocated per-level arrays: two smoothing buffers, rhs, residual."""

    def __init__(self, levels: Sequence[Level], depth: int):
        self.levels = list(levels[:depth])
        self.u = []
        self.f = []
        self.r = []
        for lev in self.levels:
            shape = (lev.n_steps, lev.ops.n_t)
            self.u.append([np.zeros(shape), np.zeros(shape)])
            self.f.append(np.zeros(shape))
            self.r.append(np.zeros(shape))
        self.sq = np.zeros(self.levels[0].n_steps)

    def full_slab(self, wid: int, lev: int):
        return (0, self.levels[lev].n_steps)


def _cycle(ws: _Workspace, lev: int, cur: int, nu1: int, nu2: int,
           omegas: Sequence[float], slab_of, barrier, wid: int,
           timers: _Timers) -> int:
    """One multigrid cycle at level ``lev``; data enters and leaves in
    ws.u[lev][returned index].  The caller guarantees the entry buffer is
    globally complete; every exit path ends on a barrier."""
    level = ws.levels[lev]
    omega = omegas[lev]
    a, b = slab_of(wid, lev)
    t0 = time.perf_counter() if timers.active else 0.0

    for _ in range(nu1):
        _sweep_slab(level.ops, omega, ws.f[lev], ws.u[lev][cur], ws.u[lev][1 - cur], a, b)
        cur ^= 1
        barrier.wait()
    if timers.active:
        t1 = time.perf_counter()
        timers.smoothing += t1 - t0
        t0 = t1

    _residual_slab(level.ops, ws.f[lev], ws.u[lev][cur], ws.r[lev], a, b)
    ca, cb = a // 2, b // 2
    _restrict_slab(level.r1, level.r2, ws.r[lev], ws.f[lev + 1], ca, cb)
    if timers.active:
        t1 = time.perf_counter()
        timers.transfer += t1 - t0
        t0 = t1

    last = lev + 1 == len(ws.levels) - 1
    coarse_partitioned = slab_of(wid, lev + 1) is not None
    if last or not coarse_partitioned:
        barrier.wait()  # coarse rhs complete
        if wid == 0:
            if last:
                coarse = ws.levels[lev + 1]
                ws.u[lev + 1][0][:] = forward_solve(
                    GlobalSystem(coarse.ops, coarse.n_steps), ws.f[lev + 1])
            else:
                # remaining levels are too small to split: run them serially
                ws.u[lev + 1][0][:] = 0.0
                sub = _cycle(ws, lev + 1, 0, nu1, nu2, omegas, ws.full_slab,
                             NullBarrier(), 0, _Timers(False))
                if sub != 0:
                    ws.u[lev + 1][0][:] = ws.u[lev + 1][sub]
        barrier.wait()  # coarse solution complete
        ccur = 0
        if timers.active:
            t1 = time.perf_counter()
            timers.coarse += t1 - t0
            t0 = t1
    else:
        ws.u[lev + 1][0][ca:cb] = 0.0
        barrier.wait()  # coarse rhs and zero guess complete
        ccur = _cycle(ws, lev + 1, 0, nu1, nu2, omegas, slab_of, barrier, wid, timers)
        t0 = time.perf_counter() if timers.active else 0.0

    _prolong_add_slab(level.r1, level.r2, ws.u[lev + 1][ccur], ws.u[lev][cur], ca, cb)
    barrier.wait()
    if timers.active:
        t1 = time.perf_counter()
        timers.transfer += t1 - t0
        t0 = t1

    for _ in range(nu2):
        _sweep_slab(level.ops, omega, ws.f[lev], ws.u[lev][cur], ws.u[lev][1 - cur], a, b)
        cur ^= 1
        barrier.wait()
    if timers.active:
        timers.smoothing += time.perf_counter() - t0
    return cur


def _depth(hier: TimeHierarchy, config: CycleConfig) -> int:
    if config.levels == "max":
        return len(hier)
    return min(len(hier), int(config.levels))


def _resolve_omegas(hier: TimeHierarchy, config: CycleConfig, depth: int) -> list:
    return [resolve_damping(config.damping, alpha(hier.basis, lev.tau))
            for lev in hier.levels[:depth]]


def _serial_cycle(hier: TimeHierarchy, level: int, u, f, config: CycleConfig,
                  depth: int) -> np.ndarray:
    ws = _Workspace(hier.levels[level:], depth - level)
    ws.u[0][0][:] = u
    ws.f[0][:] = f
    omegas = _resolve_omegas(hier, config, depth)[level:]
    cur = _cycle(ws, 0, 0, config.nu1, config.nu2, omegas, ws.full_slab,
                 NullBarrier(), 0, _Timers(False))
    return ws.u[0][cur].copy()


def two_grid_cycle(hier: TimeHierarchy, level: int, u, f,
                   config: CycleConfig = None) -> np.ndarray:
    """One two-grid cycle at ``level``: pre-smooth, restrict the residual,
    solve the coarse grid exactly, prolongate the correction, post-smooth."""
    config = config or CycleConfig()
    if level + 1 >= len(hier):
        raise ValueError(f"level {level} has no coarser neighbor")
    return _serial_cycle(hier, level, u, f, config, level + 2)


def v_cycle(hier: TimeHierarchy, u, f, config: CycleConfig = None) -> np.ndarray:
    """One V-cycle from the finest level; the coarse solve of the two-grid
    cycle is replaced by one recursive cycle except at the coarsest level,
    which is solved directly."""
    config = config or CycleConfig()
    depth = _depth(hier, config)
    if depth < 2:
        raise ValueError("v_cycle needs a hierarchy with at least 2 levels")
    return _serial_cycle(hier, 0, u, f, config, depth)


# ---------------------------------------------------------------------------
# iteration driver (shared by solve and the convergence measurement)


def _make_slab_table(ws: _Workspace, workers: int, min_slab: int):
    """Per (worker, level) block ranges; None marks levels run by worker 0.

    Each level is split over the largest power-of-two worker count that keeps
    every slab at least ``min_slab`` blocks (the surplus workers hold empty
    slabs and only join the barriers); slabs are even-sized so restriction
    always writes whole coarse blocks.  Levels that cannot keep two workers
    busy are marked None and run serially between two barriers.
    """
    table = []
    for lev in ws.levels:
        n = lev.n_steps
        if workers == 1:
            table.append([(0, n)])
            continue
        active = workers
        while active > 1 and (n % active != 0 or n // active < max(min_slab, 2)
                              or (n // active) % 2 != 0):
            active //= 2
        if active < 2:
            table.append(None)
            continue
        per = n // active
        table.append([(w * per, (w + 1) * per) if w < active else (n, n)
                      for w in range(workers)])
    for lev in range(1, len(table)):
        if table[lev - 1] is None:
            table[lev] = None

    def slab(wid, lev):
        rows = table[lev]
        return None if rows is None else rows[wid]

    return slab


def _max_ratio(norms: Sequence[float]) -> float:
    if len(norms) < 2:
        return float("nan")
    ratios = [norms[k + 1] / norms[k] for k in range(len(norms) - 1) if norms[k] > 0]
    if not ratios:
        return 0.0
    return float(max(ratios[1:])) if len(ratios) > 1 else float(ratios[0])


def _iterate(hier: TimeHierarchy, f, u_init, config: CycleConfig, depth: int,
             eps: float, max_iters: int):
    """Run cycles until the residual drops by ``eps`` relative to the start.

    Worker 0 reduces the per-block squared norms in fixed order, so stopping
    decisions (and hence the iterates) are identical for any worker count.
    An absolute floor of 1e-12 * ||f|| accepts inputs that are already solved
    to machine precision without running any cycle.
    """
    ws = _Workspace(hier.levels, depth)
    ws.u[0][0][:] = u_init
    ws.f[0][:] = f
    omegas = _resolve_omegas(hier, config, depth)
    # a finest level too small to split runs on one worker
    workers = config.workers if _make_slab_table(ws, config.workers, config.min_slab)(0, 0) else 1
    slab_of = _make_slab_table(ws, workers, config.min_slab)
    barrier = team_barrier(workers)
    timers = _Timers(True)
    shared = {"norm": np.zeros(1), "cur": 0, "iters": 0, "norms": []}
    floor = 1e-12 * float(np.linalg.norm(f))

    def norm_at(wid, cur):
        t0 = time.perf_counter() if wid == 0 else 0.0
        rows = slab_of(wid, 0)
        _residual_slab(ws.levels[0].ops, ws.f[0], ws.u[0][cur], ws.r[0], *rows)
        _sqnorm_slab(ws.r[0], ws.sq, *rows)
        barrier.wait()
        if wid == 0:
            shared["norm"][0] = np.sqrt(np.sum(ws.sq))
            timers.residual += time.perf_counter() - t0
        barrier.wait()
        return float(shared["norm"][0])

    def body(wid):
        cur = 0
        r0 = norm_at(wid, cur)
        if wid == 0:
            shared["norms"].append(r0)
        tol = max(eps * r0, floor)
        rk = r0
        iters = 0
        # all workers read the same norm and leave together; NaN fails both tests
        while tol < rk <= DIVERGENCE_RATIO * r0 and iters < max_iters:
            cur = _cycle(ws, 0, cur, config.nu1, config.nu2, omegas, slab_of,
                         barrier, wid, timers if wid == 0 else _Timers(False))
            rk = norm_at(wid, cur)
            iters += 1
            if wid == 0:
                shared["norms"].append(rk)
        if wid == 0:
            shared["cur"] = cur
            shared["iters"] = iters

    run_team(workers, body, barrier)
    norms = shared["norms"]
    last = norms[-1]
    status = ("non_finite" if not math.isfinite(last)
              else "converged" if last <= max(eps * norms[0], floor)
              else "diverged" if last > DIVERGENCE_RATIO * norms[0] else "max_iters")
    stats = SolveStats(iterations=shared["iters"], residual_norms=norms,
                       factor=_max_ratio(norms), times=timers.to_dict(),
                       converged=status == "converged", seed=config.seed,
                       workers=config.workers, status=status)
    return ws.u[0][shared["cur"]].copy(), stats


def random_initial_guess(hier: TimeHierarchy, seed: int) -> np.ndarray:
    """Uniform [0, 1) coefficients from a seeded generator."""
    rng = np.random.default_rng(seed)
    return rng.random((hier.finest.n_steps, hier.finest.ops.n_t))


def _block_input(name: str, x, shape: tuple) -> np.ndarray:
    """``x`` as a float block vector of exactly ``shape`` with finite entries."""
    x = np.asarray(x, dtype=float)
    if x.shape != shape:
        raise ValueError(f"{name} has shape {x.shape}, expected {shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} has non-finite entries")
    return x


def solve(hier: TimeHierarchy, f, u_init=None,
          config: CycleConfig = None) -> tuple[np.ndarray, SolveStats]:
    """Iterate V-cycles until the residual drops by ``config.eps``.

    ``f`` and ``u_init`` must be finite and shaped (n_steps, n_t) like the
    finest level, else ``ValueError``.  ``u_init`` defaults to a random guess
    seeded from the config.  Failure to converge (iteration cap, divergence
    or a non-finite residual) is reported through ``stats.status``, not an
    exception.
    """
    config = config or CycleConfig()
    depth = _depth(hier, config)
    finest = hier.finest
    shape = (finest.n_steps, finest.ops.n_t)
    f = _block_input("f", f, shape)
    if u_init is None:
        u_init = random_initial_guess(hier, config.seed)
    u_init = _block_input("u_init", u_init, shape)
    if depth < 2:
        # single-level configuration: solve directly, then measure the residual
        u_init = forward_solve(GlobalSystem(finest.ops, finest.n_steps), f)
        return _iterate(hier, f, u_init, config, 1, config.eps, 0)
    return _iterate(hier, f, u_init, config, depth, config.eps, config.max_iters)


def measure_convergence_factor(hier: TimeHierarchy, config: CycleConfig = None) -> float:
    """Measured asymptotic factor of the two-grid cycle on a zero right-hand
    side: max ratio of consecutive residual norms, from a seeded random start,
    capped at 250 iterations or the configured reduction ``eps``."""
    config = config or CycleConfig(eps=1e-100)
    if len(hier) < 2:
        raise ValueError("measuring the two-grid factor needs 2 levels")
    f = np.zeros((hier.finest.n_steps, hier.finest.ops.n_t))
    _, stats = _iterate(hier, f, random_initial_guess(hier, config.seed),
                        config, 2, config.eps, min(config.max_iters, 250))
    return stats.factor
