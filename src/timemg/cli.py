"""Command-line front end: analysis sweeps, theory-vs-practice verification,
solving, and scaling benchmarks.  All figure/table data is written to files
for offline plotting.

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 solver
non-convergence (iteration cap, divergence or a non-finite residual).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import bench as bench_mod
from . import checks
from .dg import BasisSpec, GlobalSystem, forward_solve, rhs_moments
from .fourier import rho_profile
from .multigrid import DIVERGENCE_RATIO, CycleConfig, TimeHierarchy, solve
from .smoothing import alpha, optimal_omega, smoothing_factor

_FORMATS = ("csv", "json")


def _write_rows(path: str, rows: list, fmt: str) -> None:
    if fmt == "json":
        with open(path, "w") as fh:
            json.dump(rows, fh, indent=2)
        return
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def _out_path(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, f"{name}.{args.format}")


def _merge_config(args: argparse.Namespace, parser: argparse.ArgumentParser,
                  defaults: dict) -> argparse.Namespace:
    """Layer defaults < config file < explicit flags; reject unknown file keys."""
    merged = dict(defaults)
    path = getattr(args, "config", None)
    if path:
        with open(path) as fh:
            file_values = json.load(fh)
        unknown = set(file_values) - set(defaults)
        if unknown:
            parser.error(f"unknown config keys: {sorted(unknown)}")
        merged.update(file_values)
    merged.update(vars(args))
    return argparse.Namespace(**merged)


def _parse_omega(value: str):
    if value == "optimal":
        return value
    try:
        return float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"omega must be 'optimal' or a number, got {value!r}")


def _parse_int_list(value) -> list:
    if isinstance(value, (list, tuple)):
        return [int(v) for v in value]
    return [int(v) for v in str(value).split(",") if v]


def _tau_grid(args) -> np.ndarray:
    if args.tau is not None:
        return np.array([args.tau], dtype=float)
    if args.tau_min > args.tau_max or args.tau_points < 1:
        raise ValueError(f"empty tau range [{args.tau_min}, {args.tau_max}]")
    return np.logspace(math.log10(args.tau_min), math.log10(args.tau_max), args.tau_points)


# ---------------------------------------------------------------------------
# analyze


_ANALYZE_DEFAULTS = dict(pt=0, nu1=1, nu2=1, omega="optimal", steps=1024,
                         tau=None, tau_min=1e-6, tau_max=1e6, tau_points=49,
                         out=".", format="csv")


def cmd_analyze(args) -> int:
    basis = BasisSpec(args.pt)
    taus = _tau_grid(args)
    rows = []
    for tau in taus:
        a = alpha(basis, tau)
        omega_star = optimal_omega(a)
        report = smoothing_factor(basis, tau, args.omega, args.steps)
        low, radii = rho_profile(basis, tau, args.steps, args.nu1, args.nu2, args.omega)
        k = int(np.argmax(radii))
        rows.append({"tau": tau, "rho_theory": float(radii[k]), "mu_s": report.mu_s,
                     "omega_star": omega_star, "theta_star": float(low[k])})
    path = _out_path(args, f"analyze_pt{args.pt}_nu{args.nu1}_{args.nu2}")
    _write_rows(path, rows, args.format)
    print(f"wrote {len(rows)} rows to {path}")
    return 0


# ---------------------------------------------------------------------------
# verify


_VERIFY_SUITES = {
    "symbols": lambda: checks.symbol_equivalence((0, 1, 2), (0.1, 1.0, 10.0), 0.7, seed=7),
    "rho": lambda: (checks.closed_form_rho((1e-3, 1e-1, 1.0, 10.0, 1e3))
                    + checks.measured_vs_predicted(((0, 1, 1.0), (1, 1, 1e-2)))),
    "smoothing": lambda: (checks.smoothing_bound(range(6), np.logspace(-6, 6, 49))
                          + checks.all_frequency_bound(range(4), (0.01, 1.0, 100.0))),
    "order": lambda: checks.order_of_accuracy(((0, (64, 128, 256, 512)), (1, (8, 16, 32, 64)),
                                               (2, (4, 8, 16, 32)))),
}


def cmd_verify(args) -> int:
    failed = 0
    for r in _VERIFY_SUITES[args.suite]():
        print(f"{'PASS' if r.ok else 'FAIL'}  {r.label}" + (f"  [{r.detail}]" if r.detail else ""))
        failed += not r.ok
    if failed:
        print(f"{failed} check(s) failed")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# solve


_SOLVE_DEFAULTS = dict(pt=0, steps=64, T=1.0, tau=None, u0=1.0, f="zero", f_param=1.0,
                       nu1=2, nu2=2, omega="optimal", levels="max", eps=1e-8,
                       seed=42, workers=1, max_iters=250, compare_sequential=False,
                       out=".", format="csv")


def _preset_f(name: str, param: float):
    if name == "zero":
        return lambda t: np.zeros_like(t)
    if name == "const":
        return lambda t: np.full_like(t, param)
    if name == "poly":
        return lambda t: t ** param
    if name == "sin":
        return lambda t: np.sin(param * t)
    raise ValueError(f"unknown f preset {name!r}")


def cmd_solve(args) -> int:
    basis = BasisSpec(args.pt)
    tau = args.tau if args.tau is not None else args.T / args.steps
    levels = args.levels if args.levels == "max" else int(args.levels)
    hier = TimeHierarchy.build(basis, tau, args.steps, n_levels=levels)
    config = CycleConfig(nu1=args.nu1, nu2=args.nu2, damping=args.omega,
                         levels=levels, eps=args.eps, max_iters=args.max_iters,
                         seed=args.seed, workers=args.workers)
    f = _preset_f(args.f, args.f_param)
    rhs = rhs_moments(f, basis, tau, args.steps, u0=args.u0)
    u, stats = solve(hier, rhs, None, config)

    end_vals = u @ hier.finest.ops.eval_end
    rows = [{"step": n, "t_end": (n + 1) * tau, "u_end": float(end_vals[n]),
             **{f"c{i}": float(u[n, i]) for i in range(basis.n_t)}}
            for n in range(args.steps)]
    sol_path = _out_path(args, "solve_solution")
    _write_rows(sol_path, rows, args.format)
    stats_path = os.path.join(args.out, "solve_stats.json")
    # strict JSON: an unmeasured factor and non-finite residuals become null
    record = json.loads(json.dumps(stats.to_dict()), parse_constant=lambda _: None)
    with open(stats_path, "w") as fh:
        json.dump(record, fh, indent=2, allow_nan=False)
    res_path = os.path.join(args.out, "solve_residuals.csv")
    with open(res_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "residual_norm"])
        writer.writerows(enumerate(stats.residual_norms))
    factor = f"{stats.factor:.6e}" if len(stats.residual_norms) > 1 else "not measured"
    print(f"measured convergence factor: {factor}")
    print(f"wrote {sol_path}, {stats_path} and {res_path}")

    if args.compare_sequential:
        ref = forward_solve(GlobalSystem(hier.finest.ops, args.steps), rhs)
        dev = float(np.max(np.abs(u - ref)))
        print(f"max deviation from forward substitution: {dev:.6e}")

    if not stats.converged:
        print({"max_iters": f"did not converge within {config.max_iters} iterations",
               "diverged": f"diverged after {stats.iterations} iterations: residual above "
                           f"{DIVERGENCE_RATIO:g} times its initial value",
               "non_finite": f"stopped after {stats.iterations} iterations: non-finite residual",
               }[stats.status], file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# bench


_BENCH_DEFAULTS = dict(mode="strong", workers="1,2,4", steps_per_worker=1 << 15,
                       total_steps=1 << 17, pt="0", tau=1e-6, eps=1e-8, reps=3,
                       seed=42, out=".", format="csv")


def cmd_bench(args) -> int:
    plan = bench_mod.ScalingPlan(mode=args.mode,
                                 workers=_parse_int_list(args.workers),
                                 steps_per_worker=args.steps_per_worker,
                                 total_steps=args.total_steps,
                                 p_t_list=tuple(_parse_int_list(args.pt)),
                                 tau=args.tau, eps=args.eps,
                                 repetitions=args.reps, seed=args.seed)
    runner = bench_mod.run_strong_scaling if args.mode == "strong" else bench_mod.run_weak_scaling
    rows = runner(plan)
    if args.mode == "strong":
        for prev, cur in zip(rows, rows[1:]):
            if cur.p_t == prev.p_t and cur.median_time > prev.median_time:
                print(f"warning: time increased from {prev.workers} to {cur.workers} "
                      f"workers (p_t={cur.p_t})", file=sys.stderr)
    path = _out_path(args, f"bench_{args.mode}")
    _write_rows(path, [r.to_dict() for r in rows], args.format)
    # pivoted companion table: one timing column per polynomial degree
    pivot = {}
    for r in rows:
        pivot.setdefault((r.workers, r.steps), {})[r.p_t] = r.median_time
    p_ts = sorted({r.p_t for r in rows})
    table = [{"workers": w, "steps": s, **{f"t_pt{p}": cols.get(p) for p in p_ts}}
             for (w, s), cols in sorted(pivot.items())]
    table_path = _out_path(args, f"bench_{args.mode}_table")
    _write_rows(table_path, table, args.format)
    print(f"wrote {len(rows)} rows to {path} and the pivoted table to {table_path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON file with defaults for this subcommand")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--format", choices=_FORMATS, help="output file format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="timemg",
                                     description="multigrid-in-time solver and analysis toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="tabulate predicted convergence factors",
                        argument_default=argparse.SUPPRESS)
    p.add_argument("--pt", type=int)
    p.add_argument("--nu1", type=int)
    p.add_argument("--nu2", type=int)
    p.add_argument("--omega", type=_parse_omega)
    p.add_argument("--steps", type=int)
    p.add_argument("--tau", type=float)
    p.add_argument("--tau-min", type=float)
    p.add_argument("--tau-max", type=float)
    p.add_argument("--tau-points", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_analyze, defaults=_ANALYZE_DEFAULTS)

    p = subs.add_parser("verify", help="run theory-vs-practice cross checks")
    p.add_argument("suite", choices=tuple(_VERIFY_SUITES))
    p.set_defaults(func=cmd_verify, defaults=None)

    p = subs.add_parser("solve", help="solve u' + u = f with the time-multigrid solver",
                        argument_default=argparse.SUPPRESS)
    p.add_argument("--pt", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--T", type=float)
    p.add_argument("--tau", type=float, help="step size (overrides --T)")
    p.add_argument("--u0", type=float)
    p.add_argument("--f", choices=("zero", "const", "poly", "sin"))
    p.add_argument("--f-param", type=float)
    p.add_argument("--nu1", type=int)
    p.add_argument("--nu2", type=int)
    p.add_argument("--omega", type=_parse_omega)
    p.add_argument("--levels")
    p.add_argument("--eps", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--max-iters", type=int)
    p.add_argument("--compare-sequential", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_solve, defaults=_SOLVE_DEFAULTS)

    p = subs.add_parser("bench", help="strong/weak scaling study",
                        argument_default=argparse.SUPPRESS)
    p.add_argument("--mode", choices=("strong", "weak"))
    p.add_argument("--workers")
    p.add_argument("--steps-per-worker", type=int)
    p.add_argument("--total-steps", type=int)
    p.add_argument("--pt")
    p.add_argument("--tau", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--reps", type=int)
    p.add_argument("--seed", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_bench, defaults=_BENCH_DEFAULTS)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.defaults is not None:
            args = _merge_config(args, parser, args.defaults)
        return args.func(args)
    except SystemExit as exc:  # parser.error inside merge
        return exc.code if isinstance(exc.code, int) else 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
