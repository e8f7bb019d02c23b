import threading
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from timemg.dense import (dense_prolongation, dense_restriction, dense_smoother,
                          dense_twogrid)
from timemg.dg import (NODE_RULES, BasisSpec, GlobalSystem, apply_global, assemble_local,
                       basis_values, forward_solve, rhs_moments)
from timemg.multigrid import (CycleConfig, TimeHierarchy, block_jacobi_sweep,
                              measure_convergence_factor, random_initial_guess,
                              solve, two_grid_cycle, v_cycle)
from timemg.parallel import run_team, team_barrier
from timemg.smoothing import alpha, optimal_omega
from timemg.transfers import build_transfers


class TestTransfers:
    def test_degree_zero_blocks(self):
        r1, r2 = build_transfers(BasisSpec(0), 0.7)
        assert_allclose(r1, [[1.0]], atol=1e-14)
        assert_allclose(r2, [[1.0]], atol=1e-14)

    def test_constant_reproduction(self):
        r1, r2 = build_transfers(BasisSpec(0), 0.5)
        p = dense_prolongation(r1, r2, 8)
        fine = p @ np.ones(4)
        assert_allclose(fine, 1.0, atol=1e-14)

    @pytest.mark.parametrize("p_t", [1, 2, 3])
    def test_polynomial_reproduction(self, p_t):
        # prolongating a coarse polynomial reproduces it on the fine grid
        basis = BasisSpec(p_t)
        tau = 0.3
        r1, r2 = build_transfers(basis, tau)
        rng = np.random.default_rng(p_t)
        coeffs = rng.standard_normal(p_t + 1)
        poly = np.polynomial.Polynomial(coeffs)
        n_coarse = 4
        xs = np.linspace(0.0, 1.0, p_t + 1)  # sample points per step

        def dofs(fn, t0, dt):
            # interpolation in the nodal basis via a small Vandermonde solve
            vals = basis_values(basis, xs)
            return np.linalg.solve(vals.T, fn(t0 + xs * dt))

        coarse = np.array([dofs(poly, 2 * tau * m, 2 * tau) for m in range(n_coarse)])
        fine_want = np.array([dofs(poly, tau * m, tau) for m in range(2 * n_coarse)])
        p = dense_prolongation(r1, r2, 2 * n_coarse)
        fine_got = (p @ coarse.ravel()).reshape(2 * n_coarse, p_t + 1)
        assert np.max(np.abs(fine_got - fine_want)) < 1e-12

    @pytest.mark.parametrize("p_t", [0, 1, 3])
    def test_adjointness(self, p_t):
        r1, r2 = build_transfers(BasisSpec(p_t), 1.2)
        r = dense_restriction(r1, r2, 12)
        p = dense_prolongation(r1, r2, 12)
        assert np.max(np.abs(p - r.T)) < 1e-14

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            build_transfers(BasisSpec(1), -1.0)


class TestHierarchy:
    def test_nesting(self):
        hier = TimeHierarchy.build(BasisSpec(1), 0.25, 64, coarsest=4)
        assert [lev.n_steps for lev in hier.levels] == [64, 32, 16, 8, 4]
        for fine, coarse in zip(hier.levels, hier.levels[1:]):
            assert coarse.tau == 2.0 * fine.tau  # exact doubling
            assert coarse.n_steps * 2 == fine.n_steps
        assert hier.levels[-1].r1 is None

    def test_level_cap(self):
        hier = TimeHierarchy.build(BasisSpec(0), 1.0, 64, n_levels=2)
        assert len(hier) == 2

    def test_coarsest_at_least_two(self):
        hier = TimeHierarchy.build(BasisSpec(0), 1.0, 8, coarsest=2)
        assert hier.levels[-1].n_steps >= 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CycleConfig(nu1=0, nu2=0)
        with pytest.raises(ValueError):
            CycleConfig(eps=1.5)
        with pytest.raises(ValueError):
            CycleConfig(workers=0)
        with pytest.raises(ValueError):
            CycleConfig(max_iters=0)


class TestJacobiSweep:
    def test_exact_solution_fixed_point(self):
        basis = BasisSpec(1)
        tau, n = 0.2, 16
        sys = GlobalSystem(assemble_local(basis, tau), n)
        rhs = rhs_moments(np.cos, basis, tau, n, u0=1.0)
        u = forward_solve(sys, rhs)
        out = block_jacobi_sweep(sys.ops, u, rhs, omega=0.8, nu=3)
        assert np.max(np.abs(out - u)) < 1e-14

    def test_two_block_example(self):
        # undamped sweep on ones with zero rhs: u = (0, 1/2)
        ops = assemble_local(BasisSpec(0), 1.0)
        out = block_jacobi_sweep(ops, np.ones((2, 1)), np.zeros((2, 1)), omega=1.0)
        assert_allclose(out.ravel(), [0.0, 0.5], atol=1e-15)

    def test_update_locality(self):
        # perturbing block m changes only blocks m and m+1 of one sweep
        basis = BasisSpec(2)
        ops = assemble_local(basis, 0.5)
        rng = np.random.default_rng(3)
        u = rng.standard_normal((10, 3))
        f = rng.standard_normal((10, 3))
        base = block_jacobi_sweep(ops, u, f, omega=0.9)
        for m in (0, 4, 9):
            u2 = u.copy()
            u2[m] += 1.0
            out = block_jacobi_sweep(ops, u2, f, omega=0.9)
            changed = np.where(np.max(np.abs(out - base), axis=1) > 1e-14)[0]
            assert set(changed) <= {m, m + 1}

    def test_invalid_omega(self):
        ops = assemble_local(BasisSpec(0), 1.0)
        with pytest.raises(ValueError):
            block_jacobi_sweep(ops, np.ones((2, 1)), np.zeros((2, 1)), omega=2.5)

    @pytest.mark.parametrize("tau", [1e-6, 0.3, 1e6])
    @pytest.mark.parametrize("node_rule", NODE_RULES)
    @pytest.mark.parametrize("p_t", range(5))
    def test_matches_dense_construction(self, p_t, node_rule, tau):
        # one sweep is S_dense u + omega blockdiag(step_matrix^{-1}) f; the
        # default rule has eval_start = e_0, scaled_legendre a dense one
        ops = assemble_local(BasisSpec(p_t, node_rule), tau)
        n, omega = 8, 0.7
        rng = np.random.default_rng(p_t)
        u = rng.standard_normal((n, ops.n_t))
        f = rng.standard_normal((n, ops.n_t))
        d_inv = np.kron(np.eye(n), np.linalg.inv(ops.step_matrix))
        want = dense_smoother(ops, n, omega) @ u.ravel() + omega * d_inv @ f.ravel()
        got = block_jacobi_sweep(ops, u, f, omega).ravel()
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestTwoGridCycle:
    def test_zero_input_stays_zero(self):
        hier = TimeHierarchy.build(BasisSpec(0), 1.0, 16, n_levels=2)
        out = two_grid_cycle(hier, 0, np.zeros((16, 1)), np.zeros((16, 1)))
        assert np.max(np.abs(out)) == 0.0

    @pytest.mark.parametrize("p_t", [0, 1])
    def test_matches_dense_error_propagation(self, p_t):
        # with f = 0 the exact solution is 0, so the cycle output IS the
        # propagated error and must match the dense two-grid matrix
        basis = BasisSpec(p_t)
        tau, n = 0.8, 8
        hier = TimeHierarchy.build(basis, tau, n, n_levels=2, coarsest=2)
        omega = optimal_omega(alpha(basis, tau))
        m_dense = dense_twogrid(hier.levels[0].ops, hier.levels[1].ops,
                                hier.levels[0].r1, hier.levels[0].r2,
                                n, 1, 1, omega, periodic=False)
        rng = np.random.default_rng(7)
        cfg = CycleConfig(nu1=1, nu2=1)
        f = np.zeros((n, p_t + 1))
        for _ in range(20):
            err = rng.standard_normal((n, p_t + 1))
            got = two_grid_cycle(hier, 0, err, f, cfg)
            want = (m_dense @ err.ravel()).reshape(n, p_t + 1)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_requires_coarser_level(self):
        hier = TimeHierarchy.build(BasisSpec(0), 1.0, 16, n_levels=2)
        with pytest.raises(ValueError):
            two_grid_cycle(hier, 1, np.zeros((8, 1)), np.zeros((8, 1)))


class TestVCycle:
    def test_two_level_equals_two_grid_bitwise(self):
        basis = BasisSpec(1)
        hier = TimeHierarchy.build(basis, 0.5, 32, n_levels=2)
        rng = np.random.default_rng(5)
        u = rng.random((32, 2))
        f = rng.random((32, 2))
        cfg = CycleConfig(nu1=2, nu2=1)
        a = v_cycle(hier, u, f, cfg)
        b = two_grid_cycle(hier, 0, u, f, cfg)
        assert a.tobytes() == b.tobytes()

    def test_zero_map(self):
        hier = TimeHierarchy.build(BasisSpec(0), 1.0, 32, coarsest=4)
        out = v_cycle(hier, np.zeros((32, 1)), np.zeros((32, 1)))
        assert np.max(np.abs(out)) == 0.0

    def test_four_level_reduction(self):
        # regression ceiling for the multilevel factor at small steps
        basis = BasisSpec(0)
        hier = TimeHierarchy.build(basis, 1e-3, 64, n_levels=4, coarsest=8)
        rng = np.random.default_rng(11)
        u = rng.random((64, 1))
        f = np.zeros((64, 1))
        sys = GlobalSystem(hier.finest.ops, 64)
        r_before = np.linalg.norm(f - apply_global(sys, u))
        out = v_cycle(hier, u, f)
        r_after = np.linalg.norm(f - apply_global(sys, out))
        assert r_after <= 0.55 * r_before


class TestSolve:
    def test_agrees_with_forward_substitution(self):
        basis = BasisSpec(1)
        tau, n = 0.01, 256
        hier = TimeHierarchy.build(basis, tau, n)
        rhs = rhs_moments(np.cos, basis, tau, n, u0=1.0)
        ref = forward_solve(GlobalSystem(hier.finest.ops, n), rhs)
        u, stats = solve(hier, rhs, config=CycleConfig(eps=1e-10, seed=1))
        assert stats.converged
        assert np.max(np.abs(u - ref)) <= 1e-8 * np.linalg.norm(rhs)

    def test_zero_iterations_when_started_exact(self):
        basis = BasisSpec(2)
        tau, n = 0.1, 64
        hier = TimeHierarchy.build(basis, tau, n)
        rhs = rhs_moments(np.sin, basis, tau, n, u0=0.5)
        ref = forward_solve(GlobalSystem(hier.finest.ops, n), rhs)
        u, stats = solve(hier, rhs, u_init=ref, config=CycleConfig(eps=1e-8))
        assert stats.iterations == 0
        assert stats.converged

    def test_nonconvergence_flagged_not_raised(self):
        hier = TimeHierarchy.build(BasisSpec(0), 1e-4, 64)
        f = np.zeros((64, 1))
        u, stats = solve(hier, f, config=CycleConfig(eps=1e-12, max_iters=2, seed=0))
        assert not stats.converged and stats.status == "max_iters"
        assert stats.iterations == 2

    @pytest.mark.filterwarnings("ignore:damping 1.99:UserWarning", "ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("p_t, tau, n, f, status, iterations", [
        (1, 0.1, 256, 0.0, "diverged", 2), (0, 1e-6, 1024, 0.0, "diverged", 1),
        (0, 0.1, 64, 1e300, "non_finite", 0)])
    def test_early_stop(self, p_t, tau, n, f, status, iterations):
        # damping 1.99 diverges; a 1e300 right-hand side overflows the first residual
        hier = TimeHierarchy.build(BasisSpec(p_t), tau, n)
        _, stats = solve(hier, np.full((n, p_t + 1), f),
                         config=CycleConfig(damping=1.99, max_iters=50))
        assert (stats.status, stats.iterations, stats.converged) == (status, iterations, False)

    def test_residual_history_monotone(self):
        hier = TimeHierarchy.build(BasisSpec(0), 1e-2, 128)
        f = np.zeros((128, 1))
        _, stats = solve(hier, f, config=CycleConfig(eps=1e-10, seed=3))
        norms = np.array(stats.residual_norms)
        assert np.all(norms[1:] <= norms[:-1] * (1 + 1e-12))

    def test_stats_shape(self):
        hier = TimeHierarchy.build(BasisSpec(0), 0.5, 32)
        f = np.zeros((32, 1))
        _, stats = solve(hier, f, config=CycleConfig(eps=1e-6, seed=0))
        d = stats.to_dict()
        assert {"iterations", "residual_norms", "factor", "times",
                "converged", "seed", "workers", "status"} <= set(d)
        assert d["status"] == "converged"
        assert set(d["times"]) == {"smoothing", "transfer", "coarse", "residual"}

    @pytest.mark.parametrize("workers", [2, 3, 4, 8])
    def test_worker_count_invariance_small(self, workers):
        # same bits for any worker count, including non powers of two
        basis = BasisSpec(1)
        hier = TimeHierarchy.build(basis, 1e-3, 1 << 12)
        f = np.zeros((1 << 12, 2))
        u_init = random_initial_guess(hier, 42)
        base, _ = solve(hier, f, u_init, CycleConfig(eps=1e-8, workers=1, min_slab=256))
        got, _ = solve(hier, f, u_init, CycleConfig(eps=1e-8, workers=workers, min_slab=256))
        assert got.tobytes() == base.tobytes()

    @pytest.mark.parametrize("workers", [2, 4])
    def test_worker_count_invariance_scaled_legendre(self, workers):
        # dense eval_start: every coupling column is a scaled update
        basis = BasisSpec(2, "scaled_legendre")
        hier = TimeHierarchy.build(basis, 0.05, 256)
        rhs = rhs_moments(np.cos, basis, 0.05, 256, u0=1.0)
        u_init = random_initial_guess(hier, 3)
        base, _ = solve(hier, rhs, u_init, CycleConfig(eps=1e-10, workers=1, min_slab=16))
        got, stats = solve(hier, rhs, u_init,
                           CycleConfig(eps=1e-10, workers=workers, min_slab=16))
        assert stats.converged
        assert got.tobytes() == base.tobytes()

    def test_single_level_reports_measured_residual(self):
        basis = BasisSpec(1)
        hier = TimeHierarchy.build(basis, 0.1, 64)
        rhs = rhs_moments(np.cos, basis, 0.1, 64, u0=1.0)
        u, stats = solve(hier, rhs, config=CycleConfig(levels=1))
        want = np.linalg.norm(rhs - apply_global(GlobalSystem(hier.finest.ops, 64), u))
        assert stats.converged and stats.iterations == 0 and len(stats.residual_norms) == 1
        assert 0.0 < stats.residual_norms[0] <= 1e-14 * np.linalg.norm(rhs)
        assert abs(stats.residual_norms[0] - want) <= 1e-15 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("f, u_init", [
        (0.0, None),
        (np.zeros((32, 2)), np.zeros(2)),
        (np.full((32, 2), np.nan), None),
        (np.zeros((32, 2)), np.full((32, 2), np.inf)),
    ], ids=["scalar-f", "one-block-guess", "nan-in-f", "inf-in-guess"])
    def test_rejects_unsolvable_input(self, f, u_init):
        hier = TimeHierarchy.build(BasisSpec(1), 0.1, 32)
        with pytest.raises(ValueError):
            solve(hier, f, u_init)

    def test_worker_result_independent_of_min_slab(self):
        hier = TimeHierarchy.build(BasisSpec(0), 1e-2, 1 << 10)
        f = np.zeros((1 << 10, 1))
        u_init = random_initial_guess(hier, 7)
        outs = {ms: solve(hier, f, u_init,
                          CycleConfig(eps=1e-8, workers=2, min_slab=ms))[0].tobytes()
                for ms in (64, 256, 1 << 20)}
        assert len(set(outs.values())) == 1


class TestSolveLargeScale:
    def test_tiny_step_vcycle_convergence(self):
        # many steps, tiny step size: converges with a per-cycle reduction
        # comfortably under the 0.5 two-grid ceiling plus multilevel slack
        hier = TimeHierarchy.build(BasisSpec(0), 1e-6, 1 << 15)
        f = np.zeros((1 << 15, 1))
        _, stats = solve(hier, f, config=CycleConfig(eps=1e-8, seed=42))
        assert stats.converged
        assert stats.factor <= 0.55


class TestMeasuredVersusPredicted:
    @pytest.mark.parametrize("nu", [1, 2, 5])
    def test_additive_agreement_across_grid(self, nu):
        # the measured two-grid factor never exceeds the prediction by more
        # than 0.02 across degrees and twelve decades of step sizes (the
        # reduction target only needs to reach the asymptotic regime)
        from timemg.fourier import predicted_rho
        for p_t in range(6):
            basis = BasisSpec(p_t)
            for tau in (1e-6, 1e-3, 1.0, 1e3, 1e6):
                hier = TimeHierarchy.build(basis, tau, 1024, n_levels=2)
                cfg = CycleConfig(nu1=nu, nu2=nu, eps=1e-30, seed=42, max_iters=150)
                measured = measure_convergence_factor(hier, cfg)
                predicted = predicted_rho(basis, tau, 1024, nu, nu)
                assert measured <= predicted + 0.02, (p_t, tau, nu)


class TestMeasureConvergenceFactor:
    def test_large_step_regime(self):
        hier = TimeHierarchy.build(BasisSpec(0), 1e3, 1024, n_levels=2)
        got = measure_convergence_factor(
            hier, CycleConfig(nu1=1, nu2=1, eps=1e-100, seed=42))
        assert got <= 1e-4

    def test_two_grid_bound_example(self):
        # measured factor stays within 10% above the tau=1 closed form 0.2
        hier = TimeHierarchy.build(BasisSpec(0), 1.0, 1024, n_levels=2)
        got = measure_convergence_factor(
            hier, CycleConfig(nu1=1, nu2=1, eps=1e-100, seed=7))
        assert got <= 0.2 * 1.1


@pytest.mark.parametrize("failing", [0, 1])
def test_run_team_reraises_and_releases_waiting_worker(failing):
    # the failing worker raises once the other waits at the barrier; the
    # caller runs in a daemon thread so a hang fails the join, not the suite
    barrier, outcome = team_barrier(2), []

    def body(wid):
        if wid != failing:
            barrier.wait()
        while barrier.n_waiting == 0:
            time.sleep(1e-3)
        raise KeyError(wid)

    def caller():
        try:
            run_team(2, body, barrier)
        except KeyError as exc:
            outcome.append(exc.args)

    before = set(threading.enumerate())
    thread = threading.Thread(target=caller, daemon=True)
    thread.start()
    thread.join(timeout=10)
    assert outcome == [(failing,)] and set(threading.enumerate()) <= before
