"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import hashlib
import math
import warnings

import numpy as np

from oracles import pade_exp_eval
from timemg.bench import ScalingPlan, hardware_threads, run_scaling
from timemg.checks import (closed_form_rho, measured_vs_predicted, order_of_accuracy,
                           smoothing_bound, symbol_equivalence)
from timemg.dg import BasisSpec, assemble_local, stability_function
from timemg.multigrid import (CycleConfig, TimeHierarchy, block_jacobi_sweep,
                              random_initial_guess, solve)
from timemg.smoothing import ALPHA_MIN, alpha

TAU_GRID_49 = np.logspace(-6, 6, 49)


def report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_closed_form_two_grid_factor():
    results = closed_form_rho((1e-3, 1e-1, 1.0, 10.0, 1e3))
    worst = max(r.value for r in results)
    report(1, "closed-form two-grid factor", all(r.ok for r in results),
           f"max relative deviation {worst:.2e} over 5 step sizes")


def test_criterion_2_theory_practice_agreement():
    points = [(p_t, nu, tau) for p_t in (0, 1, 2, 3) for nu in (1, 2, 5)
              for tau in (1e-4, 1e-2, 1.0, 1e2)]
    results = measured_vs_predicted(points)
    k = int(np.argmax([r.value for r in results]))
    report(2, "theory-practice agreement", all(r.ok for r in results),
           f"worst relative gap {results[k].value:.3f} at (p_t, nu, tau)={points[k]} "
           f"over 48 points")


def test_criterion_3_smoothing_bound():
    results = smoothing_bound(range(6), TAU_GRID_49)
    worst = max(r.value for r in results)
    report(3, "smoothing factor bound", all(r.ok for r in results),
           f"max mu_s {worst:.12f} vs 1/sqrt(2) {1/math.sqrt(2):.12f}")


def test_criterion_4_alpha_bounds():
    vals = np.array([alpha(BasisSpec(p_t), tau)
                     for p_t in range(6) for tau in TAU_GRID_49])
    ok = vals.min() >= ALPHA_MIN - 1e-9 and vals.max() <= 1.0
    report(4, "alpha bounds", ok,
           f"range [{vals.min():.7f}, {vals.max():.7f}] vs [{ALPHA_MIN:.7f}, 1]")


def test_criterion_5_pade_identity_and_a_stability():
    # identity comparison needs representable values: samples where |R| > 50
    # (pole neighborhoods of the approximant, conditioning beyond float64 at
    # the 1e-11 absolute level) are excluded; 200 well-conditioned samples
    # remain for every degree and near-pole points are still checked in a
    # value-relative sense.
    rng = np.random.default_rng(2024)
    z = rng.uniform(-10, 10, 1200) + 1j * rng.uniform(-10, 10, 1200)
    z = z[np.abs(z) <= 10.0]
    worst = 0.0
    for p_t in range(6):
        basis = BasisSpec(p_t)
        want = pade_exp_eval(p_t, p_t + 1, z)
        got = np.array([stability_function(basis, zz) for zz in z])
        keep = np.where(np.abs(want) <= 50.0)[0][:200]
        assert len(keep) == 200
        worst = max(worst, float(np.max(np.abs(got - want)[keep])))
        worst_rel = float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))
        assert worst_rel <= 1e-11
    re = -(10.0 ** rng.uniform(-3, 3, 100))
    im = rng.uniform(-1e3, 1e3, 100)
    amax = max(abs(stability_function(BasisSpec(p_t), complex(a, b)))
               for p_t in range(6) for a, b in zip(re, im))
    ok = worst <= 1e-11 and amax < 1.0
    report(5, "Pade/stability identity", ok,
           f"max |R - Pade| {worst:.2e} on 200 samples per degree; "
           f"max |R| on Re<0 samples {amax:.6f}")


def test_criterion_6_order_of_accuracy():
    cases = ((0, (64, 128, 256, 512)), (1, (8, 16, 32, 64)), (2, (4, 8, 16, 32)))
    results = order_of_accuracy(cases)
    report(6, "order of accuracy", all(r.ok for r in results),
           "; ".join(f"p_t={p_t}: {r.value:.3f} vs {2 * p_t + 1}"
                     for (p_t, _), r in zip(cases, results)))


def test_criterion_7_brute_force_symbol_equivalence():
    results = symbol_equivalence((0, 1, 2), (0.5, 2.0), "optimal", seed=4)
    worst_sym = max(r.value for r in results[0::2])
    worst_spec = max(r.value for r in results[1::2])
    report(7, "brute-force symbol equivalence", all(r.ok for r in results),
           f"max symbol gap {worst_sym:.2e}, max spectrum gap {worst_spec:.2e}")


def test_criterion_8_nilpotent_smoother_exactness():
    basis = BasisSpec(1)
    ops = assemble_local(basis, 3.0)
    rng = np.random.default_rng(42)
    err = rng.random((256, 2))
    out = block_jacobi_sweep(ops, err, np.zeros_like(err), omega=1.0, nu=2)
    ratio = np.linalg.norm(out) / np.linalg.norm(err)
    report(8, "nilpotent smoother exactness", ratio <= 1e-12,
           f"norm reduction {ratio:.2e} after two sweeps at alpha(3)=0")


def test_criterion_9_determinism_under_parallelism():
    basis = BasisSpec(1)
    n = 1 << 16
    hier = TimeHierarchy.build(basis, 1e-6, n)
    f = np.zeros((n, 2))
    u_init = random_initial_guess(hier, 42)
    digests = []
    for w in (1, 2, 4, 8):
        u, _ = solve(hier, f, u_init, CycleConfig(eps=1e-8, seed=42, workers=w))
        digests.append(hashlib.sha256(u.tobytes()).hexdigest())
    ok = len(set(digests)) == 1
    report(9, "determinism under parallelism", ok,
           f"sha256 over workers 1,2,4,8: {digests[0][:16]}... "
           f"{'all equal' if ok else 'MISMATCH'}")


def test_criterion_10_desk_scale_scaling_trends(host_control):
    # Thresholds assume >= 4 hardware threads; with fewer cores the 4-worker
    # speedup is arithmetically capped below 2.5 and the criterion reports
    # the honest numbers for this host, with a two-thread host control
    # measured right after them.
    cpus = hardware_threads()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        strong = run_scaling(ScalingPlan(
            mode="strong", workers=[1, 2, 4], total_steps=1 << 17,
            p_t_list=(0,), tau=1e-6, eps=1e-8, repetitions=3, seed=42))
        weak = run_scaling(ScalingPlan(
            mode="weak", workers=[1, 2, 4, 8], steps_per_worker=1 << 15,
            p_t_list=(0,), tau=1e-6, eps=1e-8, repetitions=3, seed=42))
    speedup4 = [r.scaled for r in strong if r.workers == 4][0]
    ratio8 = [r.scaled for r in weak if r.workers == 8][0]
    control = host_control()
    ok = speedup4 >= 2.5 and ratio8 <= 3.0
    report(10, "desk-scale scaling trends", ok,
           f"strong speedup at 4 workers {speedup4:.2f} (need >= 2.5), "
           f"weak time ratio at 8 workers {ratio8:.2f} (need <= 3.0), "
           f"host has {cpus} hardware threads, host control: two GIL-free "
           f"threads ran {control:.2f}x one")
