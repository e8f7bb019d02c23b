"""Tests of the benchmark itself at tiny sizes: its checks fire on corrupted
results, the trace file is well formed, and the metric names it emits are
exactly the ones BENCHMARK.json declares."""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

sys.path.insert(0, run.SRC)

import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def _round(wl):
    return {case.name: case.fn(tracing.NullTracer()) for case in wl.cases()}


@pytest.fixture(scope="module")
def solve_small():
    wl = workloads.SolveLarge(seed=3, n=1024, degrees=(0, 1))
    wl.setup(tracing.NullTracer())
    assert sorted(wl.prepare(tracing.NullTracer())) == ["exact_s.p0", "exact_s.p1"]
    return wl, _round(wl)


def test_solve_checks_pass_on_real_results(solve_small):
    wl, results = solve_small
    assert wl.check(results) == {}
    assert [c.name for c in wl.cases() if c.gated] == ["solve_s.p0.w1", "solve_s.p1.w1"]


@pytest.mark.parametrize("corrupt, expect", [
    ("perturb", ["residual", "deviation", "differs"]),
    ("unconverged", ["not converged"]),
    ("iterations", ["differs"]),
    ("exact", ["deviation"]),
])
def test_solve_checks_fire(solve_small, corrupt, expect, monkeypatch):
    wl, results = solve_small
    results = dict(results)
    u, stats = results["solve_s.p1.w2"]
    if corrupt == "perturb":
        u = u.copy()
        u[100, 0] += 1e-3
        results["solve_s.p1.w2"] = (u, stats)
    elif corrupt == "unconverged":
        results["solve_s.p1.w2"] = (u, dataclasses.replace(stats, converged=False))
    elif corrupt == "iterations":
        results["solve_s.p1.w2"] = (u, dataclasses.replace(stats, iterations=stats.iterations + 1))
    else:
        exact = wl.exact[1].copy()
        exact[100, 0] += 1e-3
        monkeypatch.setitem(wl.exact, 1, exact)
    failed = wl.check(results)
    assert "solve_s.p1.w2" in failed
    text = " ".join(failed["solve_s.p1.w2"])
    for word in expect:
        assert word in text
    assert not any(name.startswith("solve_s.p0") for name in failed)


def test_solve_check_counts_missing_result(solve_small):
    wl, results = solve_small
    results = dict(results, **{"solve_s.p0.w1": None})
    assert list(wl.check(results)) == ["solve_s.p0.w1"]


@pytest.fixture
def analyze_small(tmp_path):
    wl = workloads.AnalyzeSweep(seed=5, points=3, out_dir=str(tmp_path))
    wl.setup(tracing.NullTracer())
    return wl, _round(wl)


def test_analyze_checks_pass_on_real_results(analyze_small):
    wl, results = analyze_small
    assert wl.check(results) == {}
    assert -6.0 <= np.log10(wl.tau_min) < -6.0 + 12.0 / (wl.points - 1)


def _rewrite_rows(results, name, edit):
    code, printed = results[name]
    path = printed.split(" rows to ")[1].strip()
    with open(path) as fh:
        rows = json.load(fh)
    with open(path, "w") as fh:
        json.dump(edit(rows), fh)


@pytest.mark.parametrize("edit, expect", [
    (lambda rows: rows[:-1], "rows, expected"),
    (lambda rows: [dict(r, rho_theory=r["rho_theory"] * (1 + 1e-6)) for r in rows], "closed form"),
    (lambda rows: [dict(r, mu_s=0.75) for r in rows], "mu_s"),
])
def test_analyze_checks_fire(analyze_small, edit, expect):
    wl, results = analyze_small
    _rewrite_rows(results, "analyze_s.p0", edit)
    failed = wl.check(results)
    assert expect in " ".join(failed["analyze_s.p0"])


def test_analyze_check_fires_on_exit_code(analyze_small):
    wl, results = analyze_small
    results = dict(results, **{"analyze_s.p3": (1, "")})
    assert wl.check(results) == {"analyze_s.p3": ["exit code 1"]}


def test_end_to_end_names_match_benchmark_json(tmp_path):
    wl = workloads.AnalyzeSweep(seed=2, points=2, steps=4, out_dir=str(tmp_path))
    wl.setup(tracing.NullTracer())
    samples, rounds, attempted, failed = run.run_rounds(wl, 0.0, tracing.NullTracer())
    values = run.end_to_end(samples, rounds, setup_s=0.1, gated=set(samples))
    declared = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert list(values) == declared == list(run.declared_metrics()["end_to_end"])
    assert all(values[name] > 0 for name in declared)
    assert attempted == 2 and len(rounds) == 1


def _specified_layer_names() -> set:
    """The per-layer names as NOTES.md lists them, spelled out independently
    of BENCHMARK.json."""
    p3, p2, w = (0, 1, 3), (0, 3), (1, 2)
    names = {"fourier.frequencies_per_tau", "parallel.run_team.us", "parallel.barrier.us",
             "trace.overhead_s", "trace.traced_round_s", "trace.untraced_round_s"}
    for p in p3:
        names |= {f"dg.forward_solve.ns_per_block.p{p}", f"dg.rhs_moments.ns_per_block.p{p}",
                  f"dg.assemble_local.us.p{p}", f"transfers.build_transfers.us.p{p}",
                  f"fourier.rho_profile.ms.p{p}", f"fourier.twogrid_symbol.us.p{p}",
                  f"fourier.eig_share.p{p}", f"multigrid.build.ms.p{p}",
                  f"multigrid.v_cycle.ms.p{p}", f"multigrid.factor.p{p}",
                  f"multigrid.factor_over_predicted.p{p}", f"parallel.speedup.p{p}",
                  f"parallel.coarse_share.p{p}"}
        names |= {f"multigrid.sweep.ns_per_block.p{p}.n{n}" for n in (131072, 1024, 16)}
        names |= {f"multigrid.iterations.p{p}.w{k}" for k in w}
        names |= {f"multigrid.phase_s.{phase}.p{p}.w{k}" for k in w
                  for phase in ("smoothing", "transfer", "residual", "coarse")}
    for p in p2:
        names |= {f"dg.stability_function.us.p{p}", f"smoothing.smoothing_factor.us.p{p}",
                  f"cli.analyze.overhead_s.p{p}"}
    names |= {f"multigrid.two_grid_cycle.us.p{p}.n1024" for p in (0, 1)}
    return names


def test_declared_layer_names_are_the_specified_ones():
    declared = [m["name"] for m in BENCHMARK["per_layer"]]
    assert len(declared) == len(set(declared))
    assert set(declared) == _specified_layer_names()


def test_traced_run_metrics_and_trace_file(tmp_path):
    def make(name, **kwargs):
        if name == "solve-large":
            return workloads.SolveLarge(seed=4, n=1024)
        return workloads.AnalyzeSweep(seed=4, points=2, out_dir=str(tmp_path),
                                      steps=kwargs.get("steps", 1024))

    trace_path = tmp_path / "trace.json"
    values, attempted, failed = run.traced_run("analyze-sweep", 4, 0.0, make, {},
                                               str(trace_path), probe_scale=0.01)
    assert failed == 0 and attempted > 0
    declared = [m["name"] for m in BENCHMARK["per_layer"]]
    assert sorted(values) == sorted(declared)
    assert all(np.isfinite(v) for v in values.values())

    with open(trace_path) as fh:
        trace = json.load(fh)
    spans = trace["spans"]
    ids = {s["id"] for s in spans}
    assert len(ids) == len(spans)
    assert all(s["parent"] is None or s["parent"] in ids for s in spans)
    assert {s["run"] for s in spans} == {trace["run"]}
    assert all(s["end"] >= s["start"] for s in spans)
    names = {s["name"] for s in spans}
    assert {"multigrid.solve", "dg.forward_solve", "cli.main", "fourier.rho_profile",
            "parallel.barrier"} <= names


def test_self_times_subtract_children():
    spans = [{"id": 1, "name": "outer", "start": 0.0, "end": 10.0, "parent": None},
             {"id": 2, "name": "inner", "start": 1.0, "end": 4.0, "parent": 1},
             {"id": 3, "name": "inner", "start": 5.0, "end": 7.0, "parent": 1}]
    assert tracing.self_times(spans) == {"outer": 5.0, "inner": 5.0}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "solve-large",
                           "--seed", "1", "--seconds", "1"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
