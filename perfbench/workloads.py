"""The two closed-loop workloads: one process, one call in flight.

A workload makes all its inputs from the seed in ``setup`` (timed as set-up),
computes in ``prepare`` whatever its checks need beyond them (not part of the
round times; it returns the seconds of any call worth reporting), lists
its timed cases (each one call into the public timemg API, named after the
figure it produces) and checks one round of results.  ``check`` returns, per
failed case, the reasons; the harness counts each failed case as one failed
operation.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import math
import re
import time
from typing import Callable

import numpy as np

from timemg import (BasisSpec, CycleConfig, GlobalSystem, TimeHierarchy, alpha, apply_global,
                    assemble_local, cli, forward_solve, optimal_omega, random_initial_guess,
                    rho_profile, rhs_moments, smoothing_factor, solve)

LARGE_N = 1 << 17
DEGREES = (0, 1, 3)
TAU = 1e-6
EPS = 1e-8
WORKERS = (1, 2)
ANALYZE_DEGREES = (0, 3)
MU_S_BOUND = 1.0 / math.sqrt(2.0) + 1e-12


@dataclasses.dataclass(frozen=True)
class Case:
    name: str
    fn: Callable  # fn(tracer) -> result checked by the workload
    gated: bool = True  # counted in round_s and geomean_case_s


def sha256(u: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(u).tobytes()).hexdigest()


def _rhs(t):
    return np.sin(2.0 * t)


def _large_problem(tracer, p: int, n: int) -> tuple:
    """The paper's problem at ``n`` steps: (basis, right-hand side, global system)."""
    basis = BasisSpec(p)
    with tracer.span("dg.rhs_moments", p=p, n=n):
        f = rhs_moments(_rhs, basis, TAU, n, u0=1.0)
    return basis, f, GlobalSystem(assemble_local(basis, TAU), n)


def _residual(system: GlobalSystem, f: np.ndarray, u: np.ndarray) -> float:
    """|f - A u|, through the program's own operator application."""
    return float(np.linalg.norm(f - apply_global(system, u)))


class Workload:
    def prepare(self, tracer) -> dict:
        """Work the checks need beyond the inputs, outside the rounds; returns
        {figure name: seconds} of its calls.  None by default."""
        return {}


@dataclasses.dataclass
class _SolveInputs:
    hier: TimeHierarchy
    f: np.ndarray
    guess: np.ndarray
    system: GlobalSystem
    r0: float  # residual norm of the initial guess


class SolveLarge(Workload):
    """Time to solution of the paper's problem by multigrid, for every degree
    and worker count, checked against the exact sequential solve."""

    name = "solve-large"

    def __init__(self, seed: int, n: int = LARGE_N, degrees=DEGREES):
        self.seed = seed
        self.n = n
        self.degrees = tuple(degrees)
        self.inputs = {}
        self.exact = {}

    def setup(self, tracer) -> None:
        n = self.n
        for p in self.degrees:
            basis, f, system = _large_problem(tracer, p, n)
            with tracer.span("multigrid.build", p=p, n=n):
                hier = TimeHierarchy.build(basis, TAU, n)
            with tracer.span("multigrid.random_initial_guess", p=p, n=n):
                guess = random_initial_guess(hier, self.seed)
            self.inputs[p] = _SolveInputs(hier, f, guess, system,
                                          _residual(system, f, guess))

    def prepare(self, tracer) -> dict:
        """The exact solves the deviation check compares against, once per run,
        and their wall times."""
        seconds = {}
        for p, inp in self.inputs.items():
            t0 = time.perf_counter()
            with tracer.span("dg.forward_solve", p=p, n=self.n):
                self.exact[p] = forward_solve(inp.system, inp.f)
            seconds[f"exact_s.p{p}"] = time.perf_counter() - t0
        return seconds

    def cases(self) -> list:
        # The two-worker solves run and are checked every round but are not
        # gated: on a 2-vCPU host they slow 2-3x whenever either vCPU is
        # taken, which a one-worker solve rides out on the other one.
        return [Case(f"solve_s.p{p}.w{w}", functools.partial(self._solve, p, w), gated=w == 1)
                for p in self.degrees for w in WORKERS]

    def _solve(self, p: int, w: int, tracer):
        inp = self.inputs[p]
        config = CycleConfig(eps=EPS, workers=w, seed=self.seed)
        with tracer.span("multigrid.solve", p=p, w=w, n=self.n) as attrs:
            u, stats = solve(inp.hier, inp.f, inp.guess, config)
        attrs.update(iterations=stats.iterations, factor=stats.factor,
                     times=dict(stats.times), converged=stats.converged)
        return u, stats

    def solution_problems(self, p: int, u, stats) -> list:
        """Checks on one multigrid solution against its inputs and the exact solve."""
        inp = self.inputs[p]
        exact = self.exact[p]
        problems = []
        if not stats.converged:
            problems.append(f"not converged after {stats.iterations} iterations")
        residual = _residual(inp.system, inp.f, u)
        if not residual <= EPS * inp.r0:
            problems.append(f"residual {residual:.3e} above {EPS:g} x {inp.r0:.3e}")
        dev = float(np.max(np.abs(u - exact)) / np.max(np.abs(exact)))
        if not dev <= 1e-6:
            problems.append(f"deviation from the exact solve {dev:.3e} > 1e-6")
        return problems

    def check(self, results: dict) -> dict:
        failed = {}
        for p in self.degrees:
            reference = None
            for w in WORKERS:
                name = f"solve_s.p{p}.w{w}"
                if results.get(name) is None:
                    failed[name] = ["no result"]
                    continue
                u, stats = results[name]
                problems = self.solution_problems(p, u, stats)
                signature = (sha256(u), stats.iterations)
                if reference is None:
                    reference = signature
                elif signature != reference:
                    problems.append(f"solution or iteration count differs from "
                                    f"{WORKERS[0]} worker(s)")
                if problems:
                    failed[name] = problems
        return failed


class AnalyzeSweep(Workload):
    """``timemg analyze`` over its 49-point step-size grid, shifted by the seed
    by less than one grid spacing."""

    name = "analyze-sweep"

    def __init__(self, seed: int, points: int = 49, steps: int = 1024, out_dir: str = "."):
        self.seed = seed
        self.points = points
        self.steps = steps
        self.out_dir = out_dir

    def setup(self, tracer) -> None:
        shift = np.random.default_rng(self.seed).uniform(0.0, 12.0 / (self.points - 1))
        self.tau_min = 10.0 ** (-6.0 + shift)
        self.tau_max = 10.0 ** (6.0 + shift)
        # the same grid cmd_analyze builds from these flags, for the traced replay
        self.taus = np.logspace(math.log10(self.tau_min), math.log10(self.tau_max), self.points)

    def argv(self, p: int) -> list:
        return ["analyze", "--pt", str(p), "--tau-min", repr(self.tau_min),
                "--tau-max", repr(self.tau_max), "--tau-points", str(self.points),
                "--steps", str(self.steps), "--out", self.out_dir, "--format", "json"]

    def cases(self) -> list:
        return [Case(f"analyze_s.p{p}", functools.partial(self._analyze, p))
                for p in ANALYZE_DEGREES]

    def _analyze(self, p: int, tracer):
        printed = io.StringIO()
        with tracer.span("cli.main", command="analyze", p=p, n=self.steps), \
                contextlib.redirect_stdout(printed):
            code = cli.main(self.argv(p))
        return code, printed.getvalue()

    def replay(self, tracer) -> None:
        """cmd_analyze's call sequence, one span per layer call."""
        for p in ANALYZE_DEGREES:
            basis = BasisSpec(p)
            with tracer.span("cli.analyze.replay", p=p, n=self.steps):
                for tau in self.taus:
                    with tracer.span("smoothing.alpha", p=p):
                        a = alpha(basis, tau)
                    with tracer.span("smoothing.optimal_omega", p=p):
                        optimal_omega(a)
                    with tracer.span("smoothing.smoothing_factor", p=p, n=self.steps):
                        smoothing_factor(basis, tau, "optimal", self.steps)
                    with tracer.span("fourier.rho_profile", p=p, n=self.steps):
                        rho_profile(basis, tau, self.steps, 1, 1, "optimal")

    def rows_problems(self, p: int, code: int, printed: str) -> list:
        if code != 0:
            return [f"exit code {code}"]
        match = re.search(r"wrote (\d+) rows to (.+)", printed)
        if match is None:
            return [f"no output file reported: {printed!r}"]
        with open(match.group(2).strip()) as fh:
            rows = json.load(fh)
        problems = []
        if len(rows) != self.points:
            problems.append(f"{len(rows)} rows, expected {self.points}")
        for row in rows:
            tau = row["tau"]
            if p == 0:
                want = 1.0 / (2.0 + 2.0 * tau + tau * tau)
                if not abs(row["rho_theory"] - want) <= 1e-9 * want:
                    problems.append(f"rho_theory {row['rho_theory']:.9e} at tau={tau:.3e}, "
                                    f"closed form {want:.9e}")
            if not row["mu_s"] <= MU_S_BOUND:
                problems.append(f"mu_s {row['mu_s']:.6f} above 1/sqrt(2) at tau={tau:.3e}")
        return problems

    def check(self, results: dict) -> dict:
        failed = {}
        for p in ANALYZE_DEGREES:
            name = f"analyze_s.p{p}"
            problems = (["no result"] if results.get(name) is None
                        else self.rows_problems(p, *results[name]))
            if problems:
                failed[name] = problems
        return failed


WORKLOADS = {w.name: w for w in (SolveLarge, AnalyzeSweep)}
