"""Per-layer metrics of the traced run, computed from spans.

Every figure is measured from outside the program, as spans around calls to
public timemg functions.  Some spans come from the workloads' set-up and
traced rounds (solves, exact solves, the ``analyze`` replay); the rest come
from ``probe``, which calls the public kernels at the workload sizes.  Solves are opaque from outside: their phase split is
``SolveStats.times`` as the program reports it (worker 0 only, barrier waits
included).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from timemg import (BasisSpec, CycleConfig, TimeHierarchy, alpha, assemble_local,
                    block_jacobi_sweep, build_transfers, frequencies, optimal_omega,
                    predicted_rho, rho_profile, stability_function, twogrid_symbol,
                    two_grid_cycle, v_cycle)
from timemg.parallel import run_team, team_barrier

from tracing import duration
from workloads import DEGREES, TAU as LARGE_TAU, WORKERS

SWEEP_SIZES = (131072, 1024, 16)
PHASES = ("smoothing", "transfer", "residual", "coarse")
FOURIER_STEPS = 1024
PROBE_TAU = 1.0
SMALL_ANALYZE_STEPS = 4


def _batch(tracer, name: str, count: int, call, **attrs) -> None:
    with tracer.span(name, count=count, **attrs):
        for _ in range(count):
            call()


def probe(tracer, solve_inputs: dict, small_analyze, scale: float = 1.0) -> None:
    """Time the public kernels the workloads' rounds do not expose.

    ``solve_inputs`` maps a degree to solve-large's inputs (hierarchy, rhs,
    guess at ``n = 2^17``).  ``small_analyze`` is an analyze-sweep set up on a
    4-step grid: alternating its ``cli.main`` calls with their replay isolates
    the CLI's own cost from the layer calls, which a difference of two
    full-size runs would bury in the host's run-to-run noise.  ``scale``
    shrinks the repeat counts for tests.
    """
    def reps(k):
        return max(1, int(k * scale))

    for _ in range(reps(10)):
        for case in small_analyze.cases():
            case.fn(tracer)
        small_analyze.replay(tracer)

    rng = np.random.default_rng(0)
    for p in DEGREES:
        basis = BasisSpec(p)
        _batch(tracer, "dg.assemble_local", reps(300), lambda: assemble_local(basis, LARGE_TAU), p=p)
        _batch(tracer, "transfers.build_transfers", reps(300),
               lambda: build_transfers(basis, LARGE_TAU), p=p)
        if p in (0, 3):
            _batch(tracer, "dg.stability_function", reps(300),
                   lambda: stability_function(basis, -1.0), p=p)

        # rho_profile's loop replayed from outside, timing the symbols one by one
        tau = PROBE_TAU
        ops_f, ops_c = assemble_local(basis, tau), assemble_local(basis, 2.0 * tau)
        transfers = build_transfers(basis, tau)
        omega = optimal_omega(alpha(basis, tau))
        low = frequencies(FOURIER_STEPS).low
        for _ in range(reps(5)):
            with tracer.span("fourier.rho_profile", p=p, n=FOURIER_STEPS, tau=tau):
                rho_profile(basis, tau, FOURIER_STEPS, 1, 1, "optimal")
            symbol_s = 0.0
            with tracer.span("fourier.rho_profile_loop", p=p, n=FOURIER_STEPS,
                             count=len(low)) as attrs:
                for theta in low:
                    t0 = time.perf_counter()
                    m = twogrid_symbol(ops_f, ops_c, transfers, theta, 1, 1, omega)
                    symbol_s += time.perf_counter() - t0
                    np.max(np.abs(np.linalg.eigvals(m)))
            attrs["symbol_s"] = symbol_s

        with tracer.span("fourier.predicted_rho", p=p, n=FOURIER_STEPS, tau=LARGE_TAU,
                         nu=2) as attrs:
            attrs["value"] = predicted_rho(basis, LARGE_TAU, FOURIER_STEPS, 2, 2, "optimal")

        ops = assemble_local(basis, LARGE_TAU)
        omega = optimal_omega(alpha(basis, LARGE_TAU))
        for n in SWEEP_SIZES:
            u = rng.random((n, basis.n_t))
            f = rng.random((n, basis.n_t))
            _batch(tracer, "multigrid.block_jacobi_sweep", reps(max(3, 65536 // n)),
                   lambda: block_jacobi_sweep(ops, u, f, omega, nu=1), p=p, n=n)

        inp = solve_inputs[p]
        _batch(tracer, "multigrid.v_cycle", reps(3), lambda: v_cycle(inp.hier, inp.guess, inp.f),
               p=p, n=len(inp.f))

    for p in (0, 1):
        basis = BasisSpec(p)
        hier = TimeHierarchy.build(basis, 1.0, FOURIER_STEPS, n_levels=2)
        u = rng.random((FOURIER_STEPS, basis.n_t))
        f = np.zeros_like(u)
        config = CycleConfig(nu1=1, nu2=1)
        _batch(tracer, "multigrid.two_grid_cycle", reps(100),
               lambda: two_grid_cycle(hier, 0, u, f, config), p=p, n=FOURIER_STEPS)

    _batch(tracer, "parallel.run_team", reps(300), lambda: run_team(2, lambda wid: None))
    barrier = team_barrier(2)
    waits = reps(3000)

    def body(wid):
        for _ in range(waits):
            barrier.wait()

    with tracer.span("parallel.barrier", count=waits):
        run_team(2, body, barrier)


def _select(spans, name: str, **match) -> list:
    return [s for s in spans if s["name"] == name
            and all(s["attrs"].get(k) == v for k, v in match.items())]


def _per_call(spans, name: str, **match) -> float:
    """Median seconds per call over the matching spans."""
    found = _select(spans, name, **match)
    if not found:
        raise KeyError(f"no span {name} {match}")
    return statistics.median(duration(s) / s["attrs"].get("count", 1) for s in found)


def compute(spans: list, overhead: dict, large_n: int) -> dict:
    """Every per-layer metric from the traced run's spans.

    ``overhead`` holds the traced and untraced round times of the workload;
    ``large_n`` is solve-large's step count.
    """
    m = {}
    for p in DEGREES:
        for name, key in (("dg.forward_solve", "dg.forward_solve.ns_per_block"),
                          ("dg.rhs_moments", "dg.rhs_moments.ns_per_block")):
            found = _select(spans, name, p=p)
            m[f"{key}.p{p}"] = statistics.median(duration(s) / s["attrs"]["n"] for s in found) * 1e9
        m[f"dg.assemble_local.us.p{p}"] = _per_call(spans, "dg.assemble_local", p=p) * 1e6
        m[f"transfers.build_transfers.us.p{p}"] = _per_call(spans, "transfers.build_transfers", p=p) * 1e6
        m[f"fourier.rho_profile.ms.p{p}"] = \
            _per_call(spans, "fourier.rho_profile", p=p, n=FOURIER_STEPS, tau=PROBE_TAU) * 1e3
        loops = _select(spans, "fourier.rho_profile_loop", p=p)
        n_low = loops[0]["attrs"]["count"]
        m[f"fourier.twogrid_symbol.us.p{p}"] = \
            statistics.median(s["attrs"]["symbol_s"] / n_low for s in loops) * 1e6
        m[f"fourier.eig_share.p{p}"] = \
            statistics.median(1.0 - s["attrs"]["symbol_s"] / duration(s) for s in loops)
        m[f"multigrid.build.ms.p{p}"] = _per_call(spans, "multigrid.build", p=p, n=large_n) * 1e3
        for n in SWEEP_SIZES:
            m[f"multigrid.sweep.ns_per_block.p{p}.n{n}"] = \
                _per_call(spans, "multigrid.block_jacobi_sweep", p=p, n=n) / n * 1e9
        m[f"multigrid.v_cycle.ms.p{p}"] = _per_call(spans, "multigrid.v_cycle", p=p) * 1e3

        solves = {w: _select(spans, "multigrid.solve", p=p, w=w) for w in WORKERS}
        for w, found in solves.items():
            m[f"multigrid.iterations.p{p}.w{w}"] = found[0]["attrs"]["iterations"]
            for phase in PHASES:
                m[f"multigrid.phase_s.{phase}.p{p}.w{w}"] = \
                    statistics.median(s["attrs"]["times"].get(phase, 0.0) for s in found)
        factor = solves[1][0]["attrs"]["factor"]
        predicted = _select(spans, "fourier.predicted_rho", p=p, nu=2)[0]["attrs"]["value"]
        m[f"multigrid.factor.p{p}"] = factor
        m[f"multigrid.factor_over_predicted.p{p}"] = factor / predicted
        m[f"parallel.speedup.p{p}"] = (_per_call(spans, "multigrid.solve", p=p, w=1)
                                       / _per_call(spans, "multigrid.solve", p=p, w=2))
        m[f"parallel.coarse_share.p{p}"] = statistics.median(
            s["attrs"]["times"].get("coarse", 0.0) / duration(s) for s in solves[2])
    for p in (0, 3):
        m[f"dg.stability_function.us.p{p}"] = _per_call(spans, "dg.stability_function", p=p) * 1e6
        m[f"smoothing.smoothing_factor.us.p{p}"] = \
            _per_call(spans, "smoothing.smoothing_factor", p=p, n=FOURIER_STEPS) * 1e6
        m[f"cli.analyze.overhead_s.p{p}"] = (
            _per_call(spans, "cli.main", command="analyze", p=p, n=SMALL_ANALYZE_STEPS)
            - _per_call(spans, "cli.analyze.replay", p=p, n=SMALL_ANALYZE_STEPS))
    m["fourier.frequencies_per_tau"] = n_low
    for p in (0, 1):
        m[f"multigrid.two_grid_cycle.us.p{p}.n1024"] = \
            _per_call(spans, "multigrid.two_grid_cycle", p=p) * 1e6
    m["parallel.run_team.us"] = _per_call(spans, "parallel.run_team") * 1e6
    m["parallel.barrier.us"] = _per_call(spans, "parallel.barrier") * 1e6
    m["trace.traced_round_s"] = overhead["traced"]
    m["trace.untraced_round_s"] = overhead["untraced"]
    m["trace.overhead_s"] = overhead["traced"] - overhead["untraced"]
    return m
