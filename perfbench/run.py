"""timemg benchmark: closed-loop workloads, end-to-end metrics and a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload solve-large --seed 1 --seconds 30 --trace 0

Each workload is one process with one call in flight and at most two
threads.  Its cases run round-robin until ``--seconds`` have passed, and every
round's results are checked; a failed check counts as a failed operation.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The traced run also
writes its spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
WORKLOAD_NAMES = ("solve-large", "analyze-sweep")
SETUP_REPEATS = 5
# One cold set-up in a fresh interpreter, as a user meets it.  The third-party
# modules timemg imports are loaded first and timed apart: they are not this
# program's set-up.  Prints (third-party import, timemg import, input
# generation) in seconds.
SETUP_PROBE = """
import sys, time
src, here, workload, seed = sys.argv[1:]
t0 = time.perf_counter()
import numpy, scipy.linalg, scipy.special
t1 = time.perf_counter()
sys.path[:0] = [src, here]
import timemg
t2 = time.perf_counter()
import tracing, workloads
wl = workloads.WORKLOADS[workload](int(seed))
t3 = time.perf_counter()
wl.setup(tracing.NullTracer())
print(t1 - t0, t2 - t1, time.perf_counter() - t3)
"""
MAX_WORKERS = 2  # solve-large's largest team and the parallel probes' team


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha(root: str) -> str:
    """HEAD commit read from the .git directory, or "unknown" outside a clone."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_record() -> dict:
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_sha": git_sha(ROOT),
            "thread_env": {var: os.environ[var] for var in THREAD_VARS}}


def run_round(wl, tracer, samples: dict) -> tuple:
    """Run every case once, in order; return (summed call time of the gated
    cases, failed cases)."""
    results = {}
    total = 0.0
    for case in wl.cases():
        t0 = time.perf_counter()
        try:
            results[case.name] = case.fn(tracer)
        except Exception:
            traceback.print_exc()
            results[case.name] = None
        dt = time.perf_counter() - t0
        samples.setdefault(case.name, []).append(dt)
        if case.gated:
            total += dt
    try:
        failed = wl.check(results)
    except Exception:
        traceback.print_exc()
        failed = {case.name: ["check raised"] for case in wl.cases()}
    for name, problems in failed.items():
        print(f"FAIL {wl.name} {name}: {'; '.join(problems)}")
    return total, len(failed)


def time_is_up(start: float, rounds_done: int, seconds: float) -> bool:
    """True at the round end nearest to ``seconds`` after ``start``."""
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * elapsed / rounds_done >= seconds


def run_rounds(wl, seconds: float, tracer) -> tuple:
    """Closed loop of rounds for about ``seconds``; at least one round."""
    samples, rounds = {}, []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        total, n_failed = run_round(wl, tracer, samples)
        rounds.append(total)
        attempted += len(wl.cases())
        failed += n_failed
        if time_is_up(start, len(rounds), seconds):
            return samples, rounds, attempted, failed


def tail_percentile(values: list):
    """Highest of p99.9/p99/p90 with at least ten samples beyond it, or None."""
    import numpy
    for q in (99.9, 99.0, 90.0):
        if len(values) * (1.0 - q / 100.0) >= 10:
            return q, float(numpy.percentile(values, q))
    return None


def print_cases(samples: dict, gated: set) -> None:
    for name, values in samples.items():
        line = f"case {name:<16} median {statistics.median(values):.6f} s  n={len(values)}"
        tail = tail_percentile(values)
        if tail is not None:
            line += f"  p{tail[0]:g} {tail[1]:.6f} s"
        if name not in gated:
            line += "  (not gated)"
        print(line)


def setup_seconds(workload: str, seed: int) -> tuple:
    """Medians, over SETUP_REPEATS fresh interpreters run one after another,
    of SETUP_PROBE's three times."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, SRC, HERE, workload, str(seed)],
                              cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
        times.append([float(x) for x in proc.stdout.strip().splitlines()[-1].split()])
    return tuple(statistics.median(column) for column in zip(*times))


def declared_metrics() -> dict:
    """BENCHMARK.json's metric names and units: {"end_to_end": {name: unit},
    "per_layer": {name: unit}}, in declaration order."""
    with open(BENCHMARK_JSON) as fh:
        bench = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in bench[kind]}
            for kind in ("end_to_end", "per_layer")}


def end_to_end(samples: dict, rounds: list, setup_s: float, gated: set) -> dict:
    medians = [statistics.median(v) for name, v in samples.items() if name in gated]
    return {"round_s": statistics.median(rounds),
            "geomean_case_s": math.exp(statistics.fmean(math.log(v) for v in medians)),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "timemg", "__init__.py")):
        print(f"error: timemg sources not found under {SRC}", file=sys.stderr)
        return 2
    declared = declared_metrics()
    sys.path.insert(0, SRC)
    import timemg
    import tracing
    import workloads
    if not os.path.abspath(timemg.__file__).startswith(SRC + os.sep):
        print(f"error: timemg imported from {timemg.__file__}, not {SRC}", file=sys.stderr)
        return 2

    host = host_record()
    print("host " + json.dumps(host))
    needed = MAX_WORKERS if args.trace or args.workload == "solve-large" else 1
    if host["nproc"] < needed:
        print(f"error: cases use {needed} workers but only {host['nproc']} "
              "hardware threads are available", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        def make(name, **kwargs):
            if name == "analyze-sweep":
                kwargs["out_dir"] = scratch
            return workloads.WORKLOADS[name](args.seed, **kwargs)

        if not args.trace:
            third_party_s, import_s, inputs_s = setup_seconds(args.workload, args.seed)
            wl = make(args.workload)
            wl.setup(tracing.NullTracer())
            once = wl.prepare(tracing.NullTracer())
            samples, rounds, attempted, failed = run_rounds(wl, args.seconds,
                                                            tracing.NullTracer())
            gated = {case.name for case in wl.cases() if case.gated}
            print_cases(samples, gated)
            for name, seconds in once.items():
                print(f"once {name:<16} {seconds:.6f} s  (before the rounds; not in the metrics)")
            print(f"rounds {len(rounds)}  setup: import of timemg {import_s:.4f} s + input "
                  f"generation {inputs_s:.4f} s; import of numpy and scipy "
                  f"{third_party_s:.4f} s, not counted (medians of {SETUP_REPEATS} "
                  "fresh interpreters)")
            values = end_to_end(samples, rounds, import_s + inputs_s, gated)
            units = declared["end_to_end"]
        else:
            path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
            values, attempted, failed = traced_run(args.workload, args.seed, args.seconds,
                                                   make, host, path)
            units = declared["per_layer"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": units[name]}
                          for name in units}}
    print(json.dumps(result, allow_nan=False))
    return 0


def traced_run(workload: str, seed: int, seconds: float, make, host: dict, path: str,
               probe_scale: float = 1.0) -> tuple:
    """Untraced and traced rounds of ``workload`` in turn for ``seconds``, then
    one traced round of solve-large (whose solves and exact references give the
    solver metrics), the ``analyze`` replay and the kernel probes.  Every
    per-layer metric comes from this run's spans, which are written to
    ``path``.  ``make(name, **kwargs)`` builds a workload."""
    import layers
    import tracing

    tracer = tracing.Tracer(f"{workload}-seed{seed}-pid{os.getpid()}")
    wls = {}
    for name in dict.fromkeys([workload, "solve-large", "analyze-sweep"]):
        with tracer.span("setup", workload=name):
            wls[name] = make(name)
            wls[name].setup(tracer)
        with tracer.span("prepare", workload=name):
            wls[name].prepare(tracer)
    rounds = {False: [], True: []}
    attempted = failed = 0

    def one_round(wl, traced):
        nonlocal attempted, failed
        with tracer.span("round", workload=wl.name) if traced else contextlib.nullcontext():
            total, n_failed = run_round(wl, tracer if traced else tracing.NullTracer(), {})
        attempted += len(wl.cases())
        failed += n_failed
        return total

    start = time.perf_counter()
    while True:
        for traced in (False, True):
            rounds[traced].append(one_round(wls[workload], traced))
        if time_is_up(start, len(rounds[True]), seconds):
            break
    if workload != "solve-large":
        one_round(wls["solve-large"], True)
    with tracer.span("replay", workload="analyze-sweep"):
        wls["analyze-sweep"].replay(tracer)
    small_analyze = make("analyze-sweep", steps=layers.SMALL_ANALYZE_STEPS)
    small_analyze.setup(tracing.NullTracer())
    with tracer.span("probe"):
        layers.probe(tracer, wls["solve-large"].inputs, small_analyze, probe_scale)
    overhead = {"traced": statistics.median(rounds[True]),
                "untraced": statistics.median(rounds[False])}
    values = layers.compute(tracer.spans, overhead, wls["solve-large"].n)

    tracer.write(path, {"workload": workload, "seed": seed, "host": host})
    print(f"spans {len(tracer.spans)} written to {path}")
    print("solve phases are SolveStats.times as reported by the program (worker 0 "
          "only, barrier waits included); kernel figures come from probe calls at "
          "the workload sizes")
    for name, self_s in sorted(tracing.self_times(tracer.spans).items(),
                               key=lambda kv: -kv[1]):
        print(f"self {name:<40} {self_s:.6f} s")
    print(f"tracing overhead {values['trace.overhead_s']:+.4f} s on a "
          f"{overhead['untraced']:.4f} s untraced round of {workload} "
          f"(medians of {len(rounds[True])} round pairs)")
    return values, attempted, failed


if __name__ == "__main__":
    sys.exit(main())
