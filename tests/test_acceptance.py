"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import hashlib
import math
import os
import warnings

import numpy as np

from oracles import pade_exp_eval
from timemg.bench import ScalingPlan, run_strong_scaling, run_weak_scaling
from timemg.dense import dense_smoother, dense_system, dense_twogrid
from timemg.dg import (BasisSpec, GlobalSystem, assemble_local, forward_solve,
                       rhs_moments, stability_function)
from timemg.fourier import (frequencies, mode_vector, predicted_rho,
                            symbol_smoother, symbol_system, twogrid_symbol)
from timemg.multigrid import (CycleConfig, TimeHierarchy, block_jacobi_sweep,
                              measure_convergence_factor, random_initial_guess,
                              solve)
from timemg.smoothing import ALPHA_MIN, alpha, optimal_omega, smoothing_factor

TAU_GRID_49 = np.logspace(-6, 6, 49)


def report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_closed_form_two_grid_factor():
    basis = BasisSpec(0)
    worst = 0.0
    for tau in (1e-3, 1e-1, 1.0, 10.0, 1e3):
        got = predicted_rho(basis, tau, 1024, 1, 1, "optimal")
        want = 1.0 / (2.0 + 2.0 * tau + tau * tau)
        worst = max(worst, abs(got - want) / want)
    report(1, "closed-form two-grid factor", worst <= 1e-9,
           f"max relative deviation {worst:.2e} over 5 step sizes")


def test_criterion_2_theory_practice_agreement():
    worst = (0.0, None)
    for p_t in (0, 1, 2, 3):
        basis = BasisSpec(p_t)
        for nu in (1, 2, 5):
            for tau in (1e-4, 1e-2, 1.0, 1e2):
                hier = TimeHierarchy.build(basis, tau, 1024, n_levels=2)
                cfg = CycleConfig(nu1=nu, nu2=nu, eps=1e-100, seed=42, max_iters=250)
                measured = measure_convergence_factor(hier, cfg)
                predicted = predicted_rho(basis, tau, 1024, nu, nu, "optimal")
                rel = abs(measured - predicted) / predicted
                if rel > worst[0]:
                    worst = (rel, (p_t, nu, tau))
    report(2, "theory-practice agreement", worst[0] <= 0.10,
           f"worst relative gap {worst[0]:.3f} at (p_t, nu, tau)={worst[1]} over 48 points")


def test_criterion_3_smoothing_bound():
    bound = 1.0 / math.sqrt(2.0) + 1e-12
    worst = 0.0
    for p_t in range(6):
        basis = BasisSpec(p_t)
        for tau in TAU_GRID_49:
            worst = max(worst, smoothing_factor(basis, tau, "optimal", 1024).mu_s)
    report(3, "smoothing factor bound", worst <= bound,
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
    exact = 0.5 * math.exp(-1.0) + 0.5 * (math.cos(1.0) + math.sin(1.0))
    details = []
    ok = True
    for p_t, steps in ((0, (64, 128, 256, 512)), (1, (8, 16, 32, 64)),
                       (2, (4, 8, 16, 32))):
        basis = BasisSpec(p_t)
        errs = []
        for n in steps:
            tau = 1.0 / n
            ops = assemble_local(basis, tau)
            u = forward_solve(GlobalSystem(ops, n),
                              rhs_moments(np.cos, basis, tau, n, u0=1.0))
            errs.append(abs(u[-1] @ ops.eval_end - exact))
        slope = -np.polyfit(np.log2(steps), np.log2(errs), 1)[0]
        want = 2 * p_t + 1
        ok = ok and abs(slope - want) <= 0.2
        details.append(f"p_t={p_t}: {slope:.3f} vs {want}")
    report(6, "order of accuracy", ok, "; ".join(details))


def test_criterion_7_brute_force_symbol_equivalence():
    n = 16
    freqs = frequencies(n)
    rng = np.random.default_rng(4)
    worst_sym, worst_spec = 0.0, 0.0
    for p_t in (0, 1, 2):
        basis = BasisSpec(p_t)
        for tau in (0.5, 2.0):
            hier = TimeHierarchy.build(basis, tau, n, n_levels=2, coarsest=2)
            ops, ops_c = hier.levels[0].ops, hier.levels[1].ops
            omega = optimal_omega(alpha(basis, tau))
            l_dense = dense_system(ops, n, periodic=True)
            s_dense = dense_smoother(ops, n, omega, periodic=True)
            for theta in freqs.all:
                u = rng.standard_normal(basis.n_t) + 1j * rng.standard_normal(basis.n_t)
                psi = mode_vector(theta, u, n).ravel()
                d1 = np.abs(l_dense @ psi
                            - mode_vector(theta, symbol_system(ops, theta) @ u, n).ravel()).max()
                d2 = np.abs(s_dense @ psi
                            - mode_vector(theta, symbol_smoother(ops, theta, omega) @ u,
                                          n).ravel()).max()
                worst_sym = max(worst_sym, d1, d2)
            m_dense = dense_twogrid(ops, ops_c, hier.levels[0].r1, hier.levels[0].r2,
                                    n, 1, 1, omega, periodic=True)
            union = []
            for theta in freqs.low:
                m_hat = twogrid_symbol(ops, ops_c, (hier.levels[0].r1, hier.levels[0].r2),
                                       theta, 1, 1, omega)
                union.extend(np.linalg.eigvals(m_hat))
            got = np.sort(np.abs(np.linalg.eigvals(m_dense)))
            want = np.sort(np.abs(np.asarray(union)))
            worst_spec = max(worst_spec, float(np.max(np.abs(got - want))))
    ok = worst_sym <= 1e-12 and worst_spec <= 1e-9
    report(7, "brute-force symbol equivalence", ok,
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


def test_criterion_10_desk_scale_scaling_trends():
    # Thresholds assume >= 4 hardware threads; with fewer cores the 4-worker
    # speedup is arithmetically capped below 2.5 and the criterion reports
    # the honest numbers for this host.
    cpus = os.cpu_count() or 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        strong = run_strong_scaling(ScalingPlan(
            mode="strong", workers=[1, 2, 4], total_steps=1 << 17,
            p_t_list=(0,), tau=1e-6, eps=1e-8, repetitions=3, seed=42))
        weak = run_weak_scaling(ScalingPlan(
            mode="weak", workers=[1, 2, 4, 8], steps_per_worker=1 << 15,
            p_t_list=(0,), tau=1e-6, eps=1e-8, repetitions=3, seed=42))
    speedup4 = [r.scaled for r in strong if r.workers == 4][0]
    ratio8 = [r.scaled for r in weak if r.workers == 8][0]
    ok = speedup4 >= 2.5 and ratio8 <= 3.0
    report(10, "desk-scale scaling trends", ok,
           f"strong speedup at 4 workers {speedup4:.2f} (need >= 2.5), "
           f"weak time ratio at 8 workers {ratio8:.2f} (need <= 3.0), "
           f"host has {cpus} hardware threads")
