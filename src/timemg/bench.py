"""Desk-scale strong/weak scaling study of the parallel-in-time solver.

Shared-memory workers stand in for distributed ranks (the exchange pattern is
the same: once per pass of a cycle, each slab's last max(nu1, nu2) + 1 steps
go to its right neighbour, which repeats their sweeps instead of waiting at a
barrier per sweep), so the deliverable is the trend, not absolute times.
Timing covers the solve only; assembly is excluded.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
import time
import warnings

import numpy as np

from .dg import BasisSpec, check_count, check_step_size
from .multigrid import CycleConfig, TimeHierarchy, random_initial_guess, solve


@dataclasses.dataclass
class ScalingPlan:
    """One scaling experiment: fixed problem (strong) or fixed work per worker
    (weak), repeated ``repetitions`` times per point with the median reported;
    ``config``, every point's cycle, is built and checked when the plan is made."""

    mode: str                      # "strong" | "weak"
    workers: list
    steps_per_worker: int = 1 << 15
    total_steps: int = 1 << 17
    p_t_list: tuple = (0,)
    tau: float = 1e-6
    eps: float = 1e-8
    repetitions: int = 3
    seed: int = 42

    def __post_init__(self):
        if self.mode not in ("strong", "weak"):
            raise ValueError(f"mode must be 'strong' or 'weak', got {self.mode!r}")
        self.workers = list(self.workers)
        if not self.workers:
            raise ValueError("need at least one worker count, got none")
        for w in self.workers:
            check_count("worker count", w, 1)
        if self.workers != sorted(self.workers):
            raise ValueError(f"worker counts must be nondecreasing, got {self.workers}")
        if not self.p_t_list:
            raise ValueError("need at least one polynomial degree, got none")
        for p_t in self.p_t_list:
            check_count("p_t", p_t, 0)
        check_step_size(self.tau)
        for name, low in (("steps_per_worker", 2), ("total_steps", 2), ("repetitions", 3)):
            check_count(name, getattr(self, name), low)  # 3 repetitions for a median
        self.config = CycleConfig(eps=self.eps, seed=self.seed)


@dataclasses.dataclass
class ScalingRow:
    """One measured point; ``scaled`` is the speedup vs the plan's first worker
    count in strong mode and the wall-time growth ratio vs it in weak mode."""

    mode: str
    workers: int
    steps: int
    p_t: int
    median_time: float
    scaled: float
    iterations: int
    samples: list

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _run_point(basis: BasisSpec, n_steps: int, plan: ScalingPlan, workers: int):
    hier = TimeHierarchy.build(basis, plan.tau, n_steps)
    config = dataclasses.replace(plan.config, workers=workers)
    f = np.zeros((n_steps, basis.n_t))
    u_init = random_initial_guess(hier, plan.seed)
    samples = []
    iterations = 0
    for _ in range(plan.repetitions):
        t0 = time.perf_counter()
        _, stats = solve(hier, f, u_init, config)
        samples.append(time.perf_counter() - t0)
        iterations = stats.iterations
    return statistics.median(samples), iterations, samples


def hardware_threads() -> int:
    """The CPUs this process may run on: its affinity mask where the platform
    has one (``os.cpu_count()`` also counts CPUs the process may not use)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _warn_if_oversubscribed(workers: int) -> None:
    cpus = hardware_threads()
    if workers > cpus:
        warnings.warn(f"{workers} workers on {cpus} hardware threads: "
                      "timings will not scale", stacklevel=3)


def run_scaling(plan: ScalingPlan) -> list:
    """Measure every (degree, worker count) point of the plan: strong mode
    keeps ``total_steps`` fixed, weak mode runs ``steps_per_worker`` steps per
    worker; ``ScalingRow.scaled`` compares each point with the first."""
    strong = plan.mode == "strong"
    rows = []
    for p_t in plan.p_t_list:
        basis = BasisSpec(p_t)
        base_time = None
        for w in plan.workers:
            _warn_if_oversubscribed(w)
            n_steps = plan.total_steps if strong else w * plan.steps_per_worker
            med, iters, samples = _run_point(basis, n_steps, plan, w)
            if base_time is None:
                base_time = med
            rows.append(ScalingRow(mode=plan.mode, workers=w, steps=n_steps, p_t=p_t,
                                   median_time=med,
                                   scaled=base_time / med if strong else med / base_time,
                                   iterations=iters, samples=samples))
    return rows
