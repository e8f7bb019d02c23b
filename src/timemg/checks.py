"""The paper's checkable claims, one function per claim, shared by
``timemg verify`` and the acceptance tests.  Each check takes its grid and
returns one ``Result`` per case, in grid order."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .dense import dense_smoother, dense_system, dense_twogrid
from .dg import BasisSpec, GlobalSystem, assemble_local, forward_solve, rhs_moments
from .fourier import (frequencies, mode_vector, predicted_rho, smoothing_factor,
                      symbol_smoother, symbol_system, twogrid_symbol)
from .multigrid import CycleConfig, TimeHierarchy, measure_convergence_factor
from .smoothing import alpha, resolve_damping


class Result(NamedTuple):
    """One checked case; ``value`` is the quantity the check gates."""

    label: str
    value: float
    ok: bool
    detail: str = ""


def closed_form_rho(taus) -> list:
    """Degree-0 predicted factor vs 1/(2 + 2 tau + tau^2); value: relative deviation."""
    results = []
    for tau in taus:
        got = predicted_rho(BasisSpec(0), tau, 1024, 1, 1, "optimal")
        want = 1.0 / (2.0 + 2.0 * tau + tau * tau)
        results.append(Result(f"closed-form rho p_t=0 tau={tau}", abs(got - want) / want,
                              abs(got - want) <= 1e-9 * want, f"{got:.6e} vs {want:.6e}"))
    return results


def measured_vs_predicted(points) -> list:
    """Measured two-grid factor within 10% of the prediction at each
    ``(p_t, nu, tau)``; value: relative gap."""
    results = []
    for p_t, nu, tau in points:
        basis = BasisSpec(p_t)
        hier = TimeHierarchy.build(basis, tau, 1024, n_levels=2)
        measured = measure_convergence_factor(
            hier, CycleConfig(nu1=nu, nu2=nu, eps=1e-100, seed=42))
        predicted = predicted_rho(basis, tau, 1024, nu, nu, "optimal")
        results.append(Result(f"measured vs predicted p_t={p_t} tau={tau} nu={nu}",
                              abs(measured - predicted) / predicted,
                              abs(measured - predicted) <= 0.1 * predicted,
                              f"{measured:.4f} vs {predicted:.4f}"))
    return results


def smoothing_bound(p_ts, taus) -> list:
    """Optimally damped mu_s <= 1/sqrt(2) per degree; value: largest mu_s."""
    bound = 1.0 / math.sqrt(2.0) + 1e-12
    results = []
    for p_t in p_ts:
        basis = BasisSpec(p_t)
        worst = max(smoothing_factor(basis, tau, "optimal", 1024).mu_s for tau in taus)
        results.append(Result(f"mu_s <= 1/sqrt(2) p_t={p_t}", worst, worst <= bound,
                              f"max {worst:.6f}"))
    return results


def all_frequency_bound(p_ts, taus) -> list:
    """All-frequency radius <= |a|(1 + |a|)/(1 + a^2) per degree; value:
    largest excess over the bound (<= 0 when it holds)."""
    results = []
    for p_t in p_ts:
        basis = BasisSpec(p_t)
        bad, excess = None, -math.inf
        for tau in taus:
            a = alpha(basis, tau)
            rep = smoothing_factor(basis, tau, "optimal", 1024)
            all_theta_bound = abs(a) * (1 + abs(a)) / (1 + a * a) + 1e-12
            excess = max(excess, rep.rho_all - all_theta_bound)
            bad = (p_t, tau, rep.rho_all, all_theta_bound) if rep.rho_all > all_theta_bound else bad
        results.append(Result(f"all-frequency bound p_t={p_t}", excess, bad is None,
                              "" if bad is None else f"violated at {bad}"))
    return results


def order_of_accuracy(cases) -> list:
    """Endpoint error slope 2 p_t + 1 (within 0.2) for u' + u = cos t, u(0) = 1
    on [0, 1], per ``(p_t, step_counts)``; value: fitted slope."""
    exact = 0.5 * math.exp(-1.0) + 0.5 * (math.cos(1.0) + math.sin(1.0))
    results = []
    for p_t, steps in cases:
        basis = BasisSpec(p_t)
        errs = []
        for n in steps:
            tau = 1.0 / n
            ops = assemble_local(basis, tau)
            u = forward_solve(GlobalSystem(ops, n), rhs_moments(np.cos, basis, tau, n, u0=1.0))
            errs.append(abs(u[-1] @ ops.eval_end - exact))
        slope = -np.polyfit(np.log2(steps), np.log2(errs), 1)[0]
        want = 2 * p_t + 1
        results.append(Result(f"order p_t={p_t}", slope, abs(slope - want) <= 0.2,
                              f"slope {slope:.2f} vs {want}"))
    return results


def symbol_equivalence(p_ts, taus, damping, seed, n=16) -> list:
    """Dense periodic operators on ``n`` steps (an even ``n >= 16``, so the
    hierarchy's floor of 8 steps leaves a coarse level) against their Fourier
    symbols.  Per ``(p_t, tau)``: system and smoother symbols on random single
    modes (gap <= 1e-12), then the two-grid spectrum against the union of the
    harmonic-pair spectra (gap <= 1e-9).  One generator, in (p_t, tau) order."""
    freqs = frequencies(n)
    rng = np.random.default_rng(seed)
    results = []
    for p_t in p_ts:
        basis = BasisSpec(p_t)
        for tau in taus:
            fine, coarse = TimeHierarchy.build(basis, tau, n, n_levels=2).levels
            ops, transfers = fine.ops, (fine.r1, fine.r2)
            omega = resolve_damping(damping, alpha(basis, tau))
            l_dense = dense_system(ops, n, periodic=True)
            s_dense = dense_smoother(ops, n, omega, periodic=True)
            err = 0.0
            for theta in freqs.all:
                u = rng.standard_normal(basis.n_t) + 1j * rng.standard_normal(basis.n_t)
                psi = mode_vector(theta, u, n).ravel()
                for dense, symbol in ((l_dense, symbol_system(ops, theta)),
                                      (s_dense, symbol_smoother(ops, theta, omega))):
                    want = mode_vector(theta, symbol @ u, n).ravel()
                    err = max(err, np.abs(dense @ psi - want).max())
            results.append(Result(f"symbols system/smoother p_t={p_t} tau={tau}", err,
                                  err <= 1e-12, f"max err {err:.2e}"))
            m_dense = dense_twogrid(ops, coarse.ops, *transfers, n, 1, 1, omega, periodic=True)
            moduli = np.abs(np.linalg.eigvals(twogrid_symbol(
                ops, coarse.ops, transfers, freqs.low, 1, 1, omega))).ravel()
            gap = np.max(np.abs(np.sort(np.abs(np.linalg.eigvals(m_dense))) - np.sort(moduli)))
            results.append(Result(f"two-grid spectrum p_t={p_t} tau={tau}", gap,
                                  gap <= 1e-9, f"max gap {gap:.2e}"))
    return results
