"""Property tests of the exact solver and the multigrid solve over drawn
(p_t, tau, n, workers, MIN_SLAB, chunk size): the blocked scan against dense
LU and the per-step loop, in place against out of place, a converged solve
against the scan, the cycle's coarse solve against the one-worker scan,
bitwise invariance over the worker team and the chunks of its passes, and
the measured two-grid factor of any cycle against its prediction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import forward_substitution
from timemg import multigrid
from timemg.dense import dense_system
from timemg.dg import (BasisSpec, GlobalSystem, apply_global, assemble_local, block_apply,
                       forward_solve, rhs_moments, scan_block, scan_buffer, scan_rows)
from timemg.fourier import predicted_rho
from timemg.multigrid import CycleConfig, TimeHierarchy, random_initial_guess, solve
from timemg.parallel import NullBarrier, run_team, team_barrier

# derandomized, so that tier-1 draws the same examples on every run
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True)

p_ts = st.integers(0, 4)
taus = st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e)
# powers of two, and lengths that end in a partial scan block
step_counts = st.one_of(st.integers(1, 12).map(lambda k: 1 << k), st.integers(2, 4096))


def _problem(p_t, tau, n, seed=0):
    basis = BasisSpec(p_t)
    rhs = rhs_moments(np.cos, basis, tau, n, u0=1.0)
    rhs += np.random.default_rng(seed).standard_normal(rhs.shape)
    return basis, GlobalSystem(assemble_local(basis, tau), n), rhs


def _max_rel(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@PROPERTY
@given(p_ts, taus, st.integers(1, 64))
def test_scan_matches_dense_lu(p_t, tau, n):
    _, system, rhs = _problem(p_t, tau, n)
    want = np.linalg.solve(dense_system(system.ops, n), rhs.ravel()).reshape(rhs.shape)
    assert _max_rel(forward_solve(system, rhs), want) <= 1e-10


@PROPERTY
@given(p_ts, taus, step_counts)
def test_scan_matches_step_loop(p_t, tau, n):
    _, system, rhs = _problem(p_t, tau, n)
    assert _max_rel(forward_solve(system, rhs), forward_substitution(system, rhs)) <= 1e-10


@PROPERTY
@given(p_ts, taus, step_counts)
def test_scan_in_place_matches_out_of_place(p_t, tau, n):
    # the coarsest level of a cycle is solved with rhs is y; each team
    # splits the steps by scan blocks, as the cycles do, and its workers
    # meet at the scan's barriers
    _, system, rhs = _problem(p_t, tau, n)
    block = scan_block(n)
    units = -(-n // block)
    for workers in (1, 2, 3):
        outs = []
        for in_place in (False, True):
            rows = rhs.T.copy()
            y = rows if in_place else np.empty_like(rows)
            work, barrier = scan_buffer(n), team_barrier(workers)

            def body(wid):
                a, b = (min(k * units // workers * block, n) for k in (wid, wid + 1))
                scan_rows(system.ops.end_step_inv, rows, y, work, a, b, barrier, wid == 0)

            run_team(workers, body, barrier)
            outs.append(y.tobytes())
        assert outs[0] == outs[1], workers


@PROPERTY
@given(p_ts, taus, step_counts.filter(lambda n: n >= 16), st.sampled_from((2, "max")))
def test_converged_solve_is_near_exact(p_t, tau, n, levels):
    # the solve stops once the residual is eps times the initial one; the
    # error it leaves stays within 10 eps of the initial error (measured:
    # at most 0.49 eps over 40 draws)
    basis, system, rhs = _problem(p_t, tau, n)
    hier = TimeHierarchy.build(basis, tau, n, n_levels=levels)
    eps = 1e-8
    guess = random_initial_guess(hier, 3)
    u, stats = solve(hier, rhs, guess, CycleConfig(eps=eps))
    exact = forward_solve(system, rhs)
    assert stats.converged
    bound = 10 * eps * np.max(np.abs(forward_solve(system, rhs - apply_global(system, guess))))
    assert np.max(np.abs(u - exact)) <= bound + 1e-12 * np.max(np.abs(exact))


@PROPERTY
@given(p_ts, taus, st.integers(5, 11).map(lambda k: 1 << k), st.integers(2, 4),
       st.sampled_from((16, 64)), st.sampled_from((2, "max")),
       st.sampled_from((8, 24, 1 << 14)))
def test_solve_bitwise_invariant_over_workers(p_t, tau, n, workers, min_slab, levels, chunk):
    # the team runs its passes in chunks of ``chunk`` steps, the single
    # worker in the default chunks; the whole team runs whenever the finest
    # level holds two slabs of MIN_SLAB steps
    basis, _, rhs = _problem(p_t, tau, n)
    hier = TimeHierarchy.build(basis, tau, n, n_levels=levels)
    guess = random_initial_guess(hier, 5)
    u1, s1 = solve(hier, rhs, guess, CycleConfig(eps=1e-8, max_iters=30))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multigrid, "_chunk_steps", lambda n_t: chunk)
        mp.setattr(multigrid, "MIN_SLAB", min_slab)
        uw, sw = solve(hier, rhs, guess, CycleConfig(eps=1e-8, workers=workers, max_iters=30))
    assert sw.workers == (workers if n >= 2 * min_slab else 1)
    assert uw.tobytes() == u1.tobytes() and sw.iterations == s1.iterations
    assert sw.residual_norms == s1.residual_norms


@PROPERTY
@given(p_ts, taus, st.integers(5, 11).map(lambda k: 1 << k), st.integers(1, 4),
       st.sampled_from((16, 64)))
def test_in_cycle_coarse_solve_is_the_scan(p_t, tau, n, workers, min_slab):
    # record each coarsest-level solve of a two-grid solve, split over the
    # team when the finest level is, and replay it through one worker's
    # out-of-place scan: the same bits.  The cycle does not refine its scan
    # as forward_solve does, so against forward_solve it agrees to 1e-12
    # only, once its y = S u is turned into u by one S^{-1} block product
    basis, _, rhs = _problem(p_t, tau, n)
    hier = TimeHierarchy.build(basis, tau, n)
    coarse = hier.levels[1]
    z = coarse.ops.end_step_inv
    scan_rows, solves = multigrid.scan_rows, []

    def recording(z, f, y, work, a, b, barrier=NullBarrier(), lead=True):
        f_in = f.copy() if lead else None  # complete: the cycle waits before the solve
        scan_rows(z, f, y, work, a, b, barrier, lead)
        barrier.wait()
        if lead:
            solves.append((f_in, y.copy()))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multigrid, "scan_rows", recording)
        mp.setattr(multigrid, "MIN_SLAB", min_slab)
        solve(hier, rhs, random_initial_guess(hier, 1),
              CycleConfig(eps=1e-8, workers=workers, max_iters=3))
    assert solves
    system = GlobalSystem(coarse.ops, coarse.n_steps)
    for f_in, y in solves:
        alone = np.empty_like(f_in)
        scan_rows(z, f_in, alone, scan_buffer(coarse.n_steps), 0, coarse.n_steps)
        assert alone.tobytes() == y.tobytes()
        u = np.empty_like(y)
        block_apply(coarse.ops.step_inv, y, u, add=False)
        assert _max_rel(u.T, forward_solve(system, f_in.T)) <= 1e-12


# every cycle with at most 2 pre- and post-sweeps, and the chooser's dampings
# or any fixed one in (0, 1]
sweep_pairs = st.sampled_from([(nu1, nu2) for nu1 in range(3) for nu2 in range(3) if nu1 + nu2])
dampings = st.one_of(st.sampled_from(("optimal", 0.75, 1.0)),
                     st.floats(0.0, 1.0, exclude_min=True))


def _asymptotic_factor(norms) -> float:
    """The residual reduction per cycle, as a geometric mean over the second
    half of the cycles.  ``SolveStats.factor`` is the largest single ratio,
    which reads above the prediction where the ratios alternate (p_t = 1,
    tau = 1, one sweep at the optimal damping: 0.09 and 0.26 in turn, max
    0.265, against a prediction of 0.157 and a geometric mean of 0.155)."""
    half = (len(norms) - 1) // 2
    return (norms[-1] / norms[half]) ** (1.0 / (len(norms) - 1 - half))


@PROPERTY
@given(st.integers(0, 3), st.floats(-6.0, 3.0).map(lambda e: 10.0 ** e), sweep_pairs, dampings)
def test_two_grid_factor_within_prediction(p_t, tau, sweeps, damping):
    # TestMeasuredVersusPredicted's gate, for unequal sweep counts and any
    # damping up to 1 (measured over p_t 0-3, 11 step sizes, 9 dampings and
    # all 8 pairs: at most 0.0075 above the prediction)
    basis, n = BasisSpec(p_t), 256
    hier = TimeHierarchy.build(basis, tau, n, n_levels=2)
    config = CycleConfig(*sweeps, damping=damping, eps=1e-30, max_iters=150)
    _, stats = solve(hier, np.zeros((n, basis.n_t)), None, config)
    predicted = predicted_rho(basis, tau, n, *sweeps, damping)
    assert _asymptotic_factor(stats.residual_norms) <= predicted + 0.02
