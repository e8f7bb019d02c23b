"""Command-line front end: analysis sweeps, theory-vs-practice verification,
solving, and scaling benchmarks.  All figure/table data is written to files
for offline plotting.

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 solver
non-convergence (iteration cap, divergence or a non-finite residual).
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import math
import os
import sys
import time

import numpy as np

from . import checks
from .bench import ScalingPlan, run_scaling
from .dg import BasisSpec, GlobalSystem, check_count, forward_solve, rhs_moments
from .fourier import rho_profile, smoothing_factor
from .multigrid import DIVERGENCE_RATIO, CycleConfig, TimeHierarchy, solve
from .smoothing import optimal_omega

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


def _file_value(key: str, action: argparse.Action, value):
    """Check a config file value as its flag checks its text (a JSON string, or
    the JSON spelling of any other value); a number flag needs a JSON number,
    a switch true or false, and null stands for a default of None."""
    if ((action.nargs == 0 and isinstance(value, bool))
            or (value is None and action.default is None)):
        return value
    try:
        got = (action.type or str)(value if isinstance(value, str) else json.dumps(value))
    except (ValueError, argparse.ArgumentTypeError):
        got = None
    if (action.nargs == 0 or got is None or (isinstance(value, str) and isinstance(got, (int, float)))
            or (action.choices is not None and got not in action.choices)):
        expect = f" (choose from {', '.join(action.choices)})" if action.choices else ""
        raise ValueError(f"config key {key!r}: invalid value {json.dumps(value)}{expect}")
    return got


def _config_defaults(path: str, sub: argparse.ArgumentParser) -> dict:
    """The file's values as the subcommand's defaults: its keys are the
    subcommand's flag dests, each value checked as :func:`_file_value` says."""
    with open(path) as fh:
        file_values = json.load(fh)
    if not isinstance(file_values, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    actions = {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}
    unknown = set(file_values) - set(actions)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return {key: _file_value(key, actions[key], value) for key, value in file_values.items()}


def _parse_omega(value: str):
    if value == "optimal":
        return value
    try:
        return float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"omega must be 'optimal' or a number, got {value!r}")


def _parse_levels(value: str):
    if value == "max" or (value.isdecimal() and int(value) >= 1):
        return value if value == "max" else int(value)
    raise argparse.ArgumentTypeError(f"levels must be 'max' or an integer >= 1, got {value!r}")


def _parse_int_list(value: str) -> list:
    try:
        return [int(v) for v in value.split(",") if v]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {value!r}")


def _tau_grid(args) -> np.ndarray:
    given = (args.tau,) if args.tau is not None else (args.tau_min, args.tau_max)
    for tau in given:
        if not 0.0 < tau < math.inf:
            raise ValueError(f"tau must be finite and positive, got {tau}")
    if args.tau is not None:
        return np.array([args.tau], dtype=float)
    if args.tau_min > args.tau_max:
        raise ValueError(f"empty tau range [{args.tau_min}, {args.tau_max}]")
    check_count("tau_points", args.tau_points, 1)
    return np.logspace(math.log10(args.tau_min), math.log10(args.tau_max), args.tau_points)


# ---------------------------------------------------------------------------
# analyze


# theta_star is written only where the peak radius exceeds every radius
# outside its +-theta pair by at least PEAK_MARGIN times the peak, else null:
# on analyze's default grid, the radii near a flat peak moved by up to 16 eps
# of the peak when the same symbols were diagonalized as transposes, enough
# to move the argmax, while every clear peak stood at least 288 eps above the rest
PEAK_MARGIN = 64 * np.finfo(float).eps


def cmd_analyze(args) -> int:
    basis = BasisSpec(args.pt)
    taus = _tau_grid(args)
    rows = []
    for tau in taus:
        report = smoothing_factor(basis, tau, args.omega, args.steps)
        omega_star = optimal_omega(report.alpha)
        low, radii = rho_profile(basis, tau, args.steps, args.nu1, args.nu2, args.omega)
        k = int(np.argmax(radii))
        rest = radii[np.abs(low) != abs(low[k])]
        clear = rest.size == 0 or radii[k] - rest.max() >= PEAK_MARGIN * radii[k]
        rows.append({"tau": tau, "rho_theory": float(radii[k]), "mu_s": report.mu_s,
                     "omega_star": omega_star, "theta_star": float(low[k]) if clear else None})
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
    if args.steps < 2:
        raise ValueError(f"--steps must be at least 2, got {args.steps}")
    tau = args.tau if args.tau is not None else args.T / args.steps
    hier = TimeHierarchy.build(basis, tau, args.steps, n_levels=args.levels)
    config = CycleConfig(nu1=args.nu1, nu2=args.nu2, damping=args.omega, eps=args.eps,
                         max_iters=args.max_iters, seed=args.seed, workers=args.workers)
    f = _preset_f(args.f, args.f_param)
    rhs = rhs_moments(f, basis, tau, args.steps, u0=args.u0)
    t0 = time.perf_counter()
    u, stats = solve(hier, rhs, None, config)
    solve_s = time.perf_counter() - t0

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
    _write_rows(res_path, [{"iteration": k, "residual_norm": r}
                           for k, r in enumerate(stats.residual_norms)], "csv")
    factor = f"{stats.factor:.6e}" if len(stats.residual_norms) > 1 else "not measured"
    print(f"measured convergence factor: {factor}")
    print(f"wrote {sol_path}, {stats_path} and {res_path}")

    if args.compare_sequential:
        t0 = time.perf_counter()
        ref = forward_solve(GlobalSystem(hier.finest.ops, args.steps), rhs)
        exact_s = time.perf_counter() - t0
        dev = float(np.max(np.abs(u - ref)))
        print(f"max deviation from the exact solve: {dev:.6e}")
        # one step of this scalar problem costs O(n_t), so the sequential
        # exact solve is the faster one here; see README
        print(f"exact solve {exact_s:.4e} s, multigrid solve {solve_s:.4e} s: "
              f"multigrid/exact time ratio {solve_s / exact_s:.1f}")

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


def cmd_bench(args) -> int:
    plan = ScalingPlan(mode=args.mode, workers=args.workers,
                       steps_per_worker=args.steps_per_worker, total_steps=args.total_steps,
                       p_t_list=tuple(args.pt), tau=args.tau, eps=args.eps,
                       repetitions=args.reps, seed=args.seed)
    rows = run_scaling(plan)
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
    sub.add_argument("--out", default=".", help="output directory")
    sub.add_argument("--format", default="csv", choices=_FORMATS, help="output file format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="timemg",
                                     description="multigrid-in-time solver and analysis toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="tabulate predicted convergence factors")
    p.add_argument("--pt", type=int, default=0)
    p.add_argument("--nu1", type=int, default=1, help="pre-sweeps, default 1: nu 1/1 gives the "
                   "closed form 1/(2 + 2 tau + tau^2) at p_t 0; solve defaults to 2/2")
    p.add_argument("--nu2", type=int, default=1, help="post-sweeps, default 1 (see --nu1)")
    p.add_argument("--omega", type=_parse_omega, default="optimal")
    p.add_argument("--steps", type=int, default=1024)
    p.add_argument("--tau", type=float)
    p.add_argument("--tau-min", type=float, default=1e-6)
    p.add_argument("--tau-max", type=float, default=1e6)
    p.add_argument("--tau-points", type=int, default=49)
    _add_common(p)
    p.set_defaults(func=cmd_analyze, parser=p)

    p = subs.add_parser("verify", help="run theory-vs-practice cross checks")
    p.add_argument("suite", choices=tuple(_VERIFY_SUITES))
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("solve", help="solve u' + u = f with the time-multigrid solver")
    p.add_argument("--pt", type=int, default=0)
    p.add_argument("--steps", type=int, default=64)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--tau", type=float, help="step size (overrides --T)")
    p.add_argument("--u0", type=float, default=1.0)
    p.add_argument("--f", choices=("zero", "const", "poly", "sin"), default="zero")
    p.add_argument("--f-param", type=float, default=1.0)
    p.add_argument("--nu1", type=int, default=CycleConfig.nu1)
    p.add_argument("--nu2", type=int, default=CycleConfig.nu2)
    p.add_argument("--omega", type=_parse_omega, default=CycleConfig.damping)
    p.add_argument("--levels", type=_parse_levels,
                   default=inspect.signature(TimeHierarchy.build).parameters["n_levels"].default)
    p.add_argument("--eps", type=float, default=CycleConfig.eps)
    p.add_argument("--seed", type=int, default=CycleConfig.seed)
    p.add_argument("--workers", type=int, default=CycleConfig.workers)
    p.add_argument("--max-iters", type=int, default=CycleConfig.max_iters)
    p.add_argument("--compare-sequential", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_solve, parser=p)

    p = subs.add_parser("bench", help="strong/weak scaling study")
    p.add_argument("--mode", choices=("strong", "weak"), default="strong")
    p.add_argument("--workers", type=_parse_int_list, default="1,2,4")
    p.add_argument("--steps-per-worker", type=int, default=ScalingPlan.steps_per_worker)
    p.add_argument("--total-steps", type=int, default=ScalingPlan.total_steps)
    p.add_argument("--pt", type=_parse_int_list, default="0")
    p.add_argument("--tau", type=float, default=ScalingPlan.tau)
    p.add_argument("--eps", type=float, default=ScalingPlan.eps)
    p.add_argument("--reps", type=int, default=ScalingPlan.repetitions)
    p.add_argument("--seed", type=int, default=ScalingPlan.seed)
    _add_common(p)
    p.set_defaults(func=cmd_bench, parser=p)
    return parser


def main(argv=None) -> int:
    """Parse, and parse again beneath a ``--config`` file's values: explicit
    flags win over the file, and the file over the flags' own defaults."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if getattr(args, "config", None):
            args.parser.set_defaults(**_config_defaults(args.config, args.parser))
            args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
