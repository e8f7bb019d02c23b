import dataclasses
import itertools
import re
import sys
import threading
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from timemg import multigrid
from timemg.dense import (dense_prolongation, dense_restriction, dense_smoother,
                          dense_twogrid)
from timemg.dg import (BasisSpec, GlobalSystem, apply_global, assemble_local,
                       basis_values, build_transfers, forward_solve, rhs_moments)
from timemg.fourier import predicted_rho
from timemg.multigrid import (CycleConfig, TimeHierarchy, block_jacobi_sweep,
                              measure_convergence_factor, random_initial_guess,
                              solve, two_grid_cycle, v_cycle)
from timemg.parallel import run_team, team_barrier
from timemg.smoothing import alpha, optimal_omega


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

    @pytest.mark.parametrize("tau", [0.0, np.nan, np.inf])
    def test_zero_or_non_finite_tau(self, tau):
        with pytest.raises(ValueError, match=f"must be finite and positive, got {tau}"):
            build_transfers(BasisSpec(1), tau)


class TestHierarchy:
    def test_nesting(self, monkeypatch):
        monkeypatch.setattr(multigrid, "COARSEST", 4)
        hier = TimeHierarchy.build(BasisSpec(1), 0.25, 64, n_levels="max")
        assert [lev.n_steps for lev in hier.levels] == [64, 32, 16, 8, 4]
        for fine, coarse in zip(hier.levels, hier.levels[1:]):
            assert coarse.tau == 2.0 * fine.tau  # exact doubling
            assert coarse.n_steps * 2 == fine.n_steps
        assert hier.levels[-1].r1 is None

    def test_level_cap(self):
        hier = TimeHierarchy.build(BasisSpec(0), 1.0, 64, n_levels=2)
        assert len(hier) == 2
        # the default hierarchy is the two-grid one
        assert len(TimeHierarchy.build(BasisSpec(0), 1.0, 64)) == 2
        assert len(TimeHierarchy.build(BasisSpec(0), 1.0, 64, n_levels=np.int64(3))) == 3

    @pytest.mark.parametrize("n_levels", [2.5, 3.0, True, False, 0, -1, "2", "MAX", None])
    def test_level_count_must_be_max_or_positive_integer(self, n_levels):
        # a float or a bool is refused, not truncated to a level count
        with pytest.raises(ValueError, match="n_levels must be 'max' or an integer >= 1, got "
                                             + re.escape(repr(n_levels))):
            TimeHierarchy.build(BasisSpec(0), 1.0, 64, n_levels=n_levels)

    @pytest.mark.parametrize("p_t", range(8))
    def test_prolongation_in_step_scaled_unknowns(self, p_t, monkeypatch):
        # the cycle prolongates y = S u: blockdiag(S_f) P blockdiag(S_c^{-1})
        n = 8
        monkeypatch.setattr(multigrid, "COARSEST", 2)
        hier = TimeHierarchy.build(BasisSpec(p_t), 0.3, n, n_levels=2)
        fine, coarse = hier.levels
        want = (np.kron(np.eye(n), fine.ops.step_matrix)
                @ dense_prolongation(fine.r1, fine.r2, n)
                @ np.kron(np.eye(n // 2), np.linalg.inv(coarse.ops.step_matrix)))
        got = dense_prolongation(fine.p1.T, fine.p2.T, n)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert coarse.p1 is None and coarse.p2 is None

    def test_coarsest_at_least_two(self, monkeypatch):
        monkeypatch.setattr(multigrid, "COARSEST", 2)
        hier = TimeHierarchy.build(BasisSpec(0), 1.0, 8, n_levels="max")
        assert hier.levels[-1].n_steps >= 2

    @pytest.mark.parametrize("tau", [0.0, -1.0, np.nan, np.inf])
    def test_invalid_tau(self, tau):
        with pytest.raises(ValueError, match=f"must be finite and positive, got {tau}"):
            TimeHierarchy.build(BasisSpec(1), tau, 64)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CycleConfig(nu1=0, nu2=0)
        with pytest.raises(ValueError):
            CycleConfig(eps=1.5)
        with pytest.raises(ValueError):
            CycleConfig(workers=0)
        with pytest.raises(ValueError):
            CycleConfig(max_iters=0)

    @pytest.mark.parametrize("field", ["nu1", "nu2", "max_iters", "workers", "seed"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True, "2", None, np.float64(2.0)],
                             ids=["float", "whole-float", "bool", "str", "none", "np-float"])
    def test_config_rejects_non_integer_counts(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            CycleConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("nu1", -1), ("nu2", -1), ("max_iters", 0), ("seed", -1), ("workers", 0)])
    def test_config_rejects_counts_below_their_minimum(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer >= {value + 1}, "):
            CycleConfig(**{field: value})

    @pytest.mark.parametrize("field", ["nu1", "nu2", "max_iters", "workers"])
    def test_config_accepts_numpy_integer_counts(self, field):
        assert getattr(CycleConfig(**{field: np.int64(3)}), field) == 3

    @pytest.mark.parametrize("entry, field", [("block_jacobi_sweep", "nu"),
                                              ("two_grid_cycle", "level")])
    @pytest.mark.parametrize("value", [1.5, 0.0, True, "0", -1],
                             ids=["float", "whole-float", "bool", "str", "negative"])
    def test_cycle_counts_name_their_field(self, entry, field, value):
        hier = TimeHierarchy.build(BasisSpec(1), 0.1, 32)
        u = np.zeros((32, 2))
        calls = {"block_jacobi_sweep": lambda: block_jacobi_sweep(hier.finest.ops, u, u, 0.7,
                                                                  value),
                 "two_grid_cycle": lambda: two_grid_cycle(hier, value, u, u)}
        with pytest.raises(ValueError, match=f"^{field} must be an integer >= 0, got "):
            calls[entry]()


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

    @pytest.mark.parametrize("p_t", [0, 1, 3])
    def test_zero_sweeps_return_input_bits(self, p_t):
        # no sweep, so no round trip through y = S u to round the input
        ops = assemble_local(BasisSpec(p_t), 0.3)
        rng = np.random.default_rng(p_t)
        u = rng.standard_normal((64, ops.n_t))
        out = block_jacobi_sweep(ops, u, rng.standard_normal((64, ops.n_t)), 0.7, nu=0)
        assert out.tobytes() == u.tobytes() and out is not u

    def test_invalid_omega(self):
        # the damping rule of the cycles, except that the sweep has no step
        # size to resolve "optimal": every refusal names omega and none
        # offers "optimal"
        ops = assemble_local(BasisSpec(0), 1.0)
        message = r"^omega must (be a number|lie) in \(0, 2\), got "
        for omega in (2.5, 0.0, True, None, "optimal", "abc"):
            with pytest.raises(ValueError, match=message) as info:
                block_jacobi_sweep(ops, np.ones((2, 1)), np.zeros((2, 1)), omega=omega)
            assert "'optimal' or" not in str(info.value), omega

    @pytest.mark.parametrize("tau", [1e-6, 0.3, 1e6])
    @pytest.mark.parametrize("p_t", range(10))
    def test_matches_dense_construction(self, p_t, tau):
        # one sweep is S_dense u + omega blockdiag(step_matrix^{-1}) f; the
        # kernel adds the coupling to row 0 only, the dense one to every row
        ops = assemble_local(BasisSpec(p_t), tau)
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

    @pytest.mark.parametrize("nu1, nu2", [(1, 1), (0, 1), (1, 0), (2, 2)])
    @pytest.mark.parametrize("p_t", [0, 1])
    def test_matches_dense_error_propagation(self, p_t, nu1, nu2, monkeypatch):
        # with f = 0 the exact solution is 0, so the cycle output IS the
        # propagated error and must match the dense two-grid matrix; the
        # residual shares a buffer with the smoother, so cover an empty
        # pre- and an empty post-smoothing side
        basis = BasisSpec(p_t)
        tau, n = 0.8, 8
        monkeypatch.setattr(multigrid, "COARSEST", 2)
        hier = TimeHierarchy.build(basis, tau, n, n_levels=2)
        omega = optimal_omega(alpha(basis, tau))
        m_dense = dense_twogrid(hier.levels[0].ops, hier.levels[1].ops,
                                hier.levels[0].r1, hier.levels[0].r2,
                                n, nu1, nu2, omega, periodic=False)
        rng = np.random.default_rng(7)
        cfg = CycleConfig(nu1=nu1, nu2=nu2)
        f = np.zeros((n, p_t + 1))
        for _ in range(20):
            err = rng.standard_normal((n, p_t + 1))
            got = two_grid_cycle(hier, 0, err, f, cfg)
            want = (m_dense @ err.ravel()).reshape(n, p_t + 1)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_requires_coarser_level(self):
        hier = TimeHierarchy.build(BasisSpec(0), 1.0, 16, n_levels=2)
        for level in (-1, 1):
            n = hier.levels[level].n_steps
            with pytest.raises(ValueError):
                two_grid_cycle(hier, level, np.zeros((n, 1)), np.zeros((n, 1)))


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

    def test_zero_map(self, monkeypatch):
        monkeypatch.setattr(multigrid, "COARSEST", 4)
        hier = TimeHierarchy.build(BasisSpec(0), 1.0, 32, n_levels="max")
        out = v_cycle(hier, np.zeros((32, 1)), np.zeros((32, 1)))
        assert np.max(np.abs(out)) == 0.0

    def test_depth_cap_below_two_levels_is_named(self):
        u = np.zeros((64, 1))
        single = TimeHierarchy.build(BasisSpec(0), 1.0, 64, n_levels=1)
        with pytest.raises(ValueError, match=r"the hierarchy has 1"):
            v_cycle(single, u, u)

    def test_four_level_reduction(self, monkeypatch):
        # regression ceiling for the multilevel factor at small steps
        basis = BasisSpec(0)
        monkeypatch.setattr(multigrid, "COARSEST", 8)
        hier = TimeHierarchy.build(basis, 1e-3, 64, n_levels=4)
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
        # damping 1.99 diverges; a 1e300 right-hand side overflows the first
        # residual; the iteration counts are those of the V-cycle
        hier = TimeHierarchy.build(BasisSpec(p_t), tau, n, n_levels="max")
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
        assert list(d) == ["iterations", "residual_norms", "factor", "times",
                           "converged", "seed", "workers", "status"]
        assert d["status"] == "converged" and d["converged"] is True
        assert set(d["times"]) == {"smoothing", "transfer", "coarse", "residual"}

    @pytest.mark.parametrize("n, workers, min_slab, levels, team", [
        (64, 4, 32768, 2, 1), (64, 4, 32768, "max", 1), (1 << 12, 4, 256, 1, 1),
        (1 << 12, 2, 256, 2, 2), (1 << 12, 4, 256, "max", 4), (1 << 12, 3, 256, 2, 3),
        (1 << 12, 6, 256, 2, 6), (1 << 12, 7, 256, "max", 7), (1 << 12, 1, 256, "max", 1),
        (1 << 12, 2, 256, "max", 2), (1 << 12, 3, 256, "max", 3), (1 << 12, 4, 256, 2, 4),
        (1 << 12, 7, 256, 2, 7)])
    def test_workers_is_the_team_that_ran(self, n, workers, min_slab, levels, team,
                                          monkeypatch, teams):
        # any team size splits; a finest level too small to split collapses
        # the team to one worker; the public cycles run on the solve's team
        monkeypatch.setattr(multigrid, "MIN_SLAB", min_slab)
        hier = TimeHierarchy.build(BasisSpec(1), 1e-2, n, n_levels=levels)
        config, zero = CycleConfig(eps=1e-6, workers=workers), np.zeros((n, 2))
        _, stats = solve(hier, zero, config=config)
        assert teams == [team] and stats.workers == team
        if len(hier) > 1:
            v_cycle(hier, zero, zero, config)
            two_grid_cycle(hier, 0, zero, zero, config)
            assert teams == [team] * 3

    def test_converged_follows_status(self):
        hier = TimeHierarchy.build(BasisSpec(0), 0.5, 32)
        _, stats = solve(hier, np.zeros((32, 1)), config=CycleConfig(eps=1e-6, seed=0))
        with pytest.raises(AttributeError):
            stats.converged = False
        marked = dataclasses.replace(stats, converged=False)
        assert (marked.converged, marked.status) == (False, "max_iters")
        assert dataclasses.replace(marked).status == "max_iters"
        with pytest.raises(ValueError):
            dataclasses.replace(marked, converged=True)

    @pytest.mark.parametrize("workers", [2, 3, 4, 7, 8])
    def test_worker_count_invariance_small(self, workers, monkeypatch, teams):
        # same bits for any worker count, including non powers of two; n_t = 4
        # is where a block product's memory layout could change the rounding
        monkeypatch.setattr(multigrid, "MIN_SLAB", 256)
        for p_t in (1, 3):
            basis = BasisSpec(p_t)
            hier = TimeHierarchy.build(basis, 1e-3, 1 << 12)
            f = np.zeros((1 << 12, basis.n_t))
            u_init = random_initial_guess(hier, 42)
            one, team = CycleConfig(eps=1e-8, workers=1), CycleConfig(eps=1e-8, workers=workers)
            base, _ = solve(hier, f, u_init, one)
            got, stats = solve(hier, f, u_init, team)
            assert stats.workers == workers and got.tobytes() == base.tobytes(), p_t
            for cycle in (v_cycle, lambda h, u, f, c: two_grid_cycle(h, 0, u, f, c)):
                del teams[:]
                got = cycle(hier, u_init, f, team)
                assert teams == [workers] and got.tobytes() == cycle(hier, u_init, f, one).tobytes()

    @pytest.mark.parametrize("workers", [2, 3, 4, 7])
    @pytest.mark.parametrize("basis", [BasisSpec(3), BasisSpec(2)], ids=["p3", "p2"])
    def test_worker_count_invariance_nonzero_rhs(self, basis, workers, monkeypatch, teams):
        # a non-zero f makes the finest g = omega f non-zero; with MIN_SLAB
        # 256 and 3 or 4 workers the levels split over the team, then over 2
        # or 3 workers, then run as a serial tail, so coarse g is made on
        # slabs of one split and read on another; the public V-cycle and the
        # two-grid cycle of each level pair run on the same team
        monkeypatch.setattr(multigrid, "MIN_SLAB", 256)
        tau, n = 1e-3, 1 << 12
        hier = TimeHierarchy.build(basis, tau, n, n_levels="max")
        rhs = rhs_moments(np.cos, basis, tau, n, u0=1.0)
        u_init = random_initial_guess(hier, 5)
        one, team = CycleConfig(eps=1e-10, workers=1), CycleConfig(eps=1e-10, workers=workers)
        base, base_stats = solve(hier, rhs, u_init, one)
        got, stats = solve(hier, rhs, u_init, team)
        assert stats.converged and stats.iterations == base_stats.iterations
        assert stats.workers == workers
        assert got.tobytes() == base.tobytes()
        del teams[:]
        got = v_cycle(hier, u_init, rhs, team)
        assert teams == [workers] and got.tobytes() == v_cycle(hier, u_init, rhs, one).tobytes()
        for level in range(len(hier) - 1):
            m = hier.levels[level].n_steps
            got = two_grid_cycle(hier, level, u_init[:m], rhs[:m], team)
            want = two_grid_cycle(hier, level, u_init[:m], rhs[:m], one)
            assert got.tobytes() == want.tobytes(), level

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("levels", [2, "max"])
    @pytest.mark.parametrize("p_t", [0, 1, 3])
    def test_reported_residual_is_that_of_returned_u(self, p_t, levels, workers, monkeypatch):
        # the cycle measures the residual of y = S u; the returned u = S^{-1} y
        # must have that residual, up to the rounding of the change back
        monkeypatch.setattr(multigrid, "MIN_SLAB", 64)
        basis = BasisSpec(p_t)
        tau, n = 1e-2, 1 << 10
        hier = TimeHierarchy.build(basis, tau, n, n_levels=levels)
        rhs = rhs_moments(np.cos, basis, tau, n, u0=1.0)
        u, stats = solve(hier, rhs, config=CycleConfig(eps=1e-8, workers=workers))
        want = np.linalg.norm(rhs - apply_global(GlobalSystem(hier.finest.ops, n), u))
        assert stats.converged and stats.iterations > 0
        assert abs(stats.residual_norms[-1] - want) <= 1e-12 * stats.residual_norms[0]

    def test_single_level_reports_measured_residual(self):
        basis = BasisSpec(1)
        hier = TimeHierarchy.build(basis, 0.1, 64, n_levels=1)
        rhs = rhs_moments(np.cos, basis, 0.1, 64, u0=1.0)
        u, stats = solve(hier, rhs)
        want = np.linalg.norm(rhs - apply_global(GlobalSystem(hier.finest.ops, 64), u))
        assert stats.converged and stats.iterations == 0 and len(stats.residual_norms) == 1
        assert 0.0 < stats.residual_norms[0] <= 1e-14 * np.linalg.norm(rhs)
        assert abs(stats.residual_norms[0] - want) <= 1e-15 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("p_t", [0, 1, 3])
    def test_no_cycle_returns_input_bits(self, p_t, workers):
        # a solve that runs no cycle skips the round trip through y = S u: a
        # single level returns forward_solve's bits, and a solve started
        # from them returns its guess
        basis, tau, n = BasisSpec(p_t), 0.1, 256
        rhs = rhs_moments(np.cos, basis, tau, n, u0=1.0)
        exact = forward_solve(GlobalSystem(assemble_local(basis, tau), n), rhs)
        single = TimeHierarchy.build(basis, tau, n, n_levels=1)
        u, stats = solve(single, rhs, config=CycleConfig(workers=workers))
        assert stats.iterations == 0 and u.tobytes() == exact.tobytes()
        hier = TimeHierarchy.build(basis, tau, n)
        u, stats = solve(hier, rhs, u_init=exact, config=CycleConfig(workers=workers))
        assert stats.iterations == 0 and u.tobytes() == exact.tobytes()

    @pytest.mark.parametrize("entry", ["solve", "v_cycle", "two_grid_cycle",
                                       "block_jacobi_sweep"])
    @pytest.mark.parametrize("f, u", [
        (0.0, None),
        (np.zeros((32, 2)), np.zeros(2)),
        (np.full((32, 2), np.nan), None),
        (np.zeros((32, 2)), np.full((32, 2), np.inf)),
        (np.zeros((32, 2)), np.zeros((32, 1))),
        (np.zeros((32, 2)), np.zeros(32)),
        (np.zeros((32, 1)), None),
    ], ids=["scalar-f", "one-block-guess", "nan-in-f", "inf-in-guess", "one-column-guess",
            "flat-guess", "one-column-f"])
    def test_rejects_unsolvable_input(self, f, u, entry):
        # the one-column and flat shapes would broadcast against (32, 2)
        hier = TimeHierarchy.build(BasisSpec(1), 0.1, 32)
        if u is None and entry != "solve":
            u = np.zeros((32, 2))
        calls = {
            "solve": lambda: solve(hier, f, u),
            "v_cycle": lambda: v_cycle(hier, u, f),
            "two_grid_cycle": lambda: two_grid_cycle(hier, 0, u, f),
            "block_jacobi_sweep": lambda: block_jacobi_sweep(hier.finest.ops, u, f, 0.7),
        }
        with pytest.raises(ValueError):
            calls[entry]()

    def test_worker_result_independent_of_min_slab(self, monkeypatch):
        # MIN_SLAB 2 splits every level above the 8-step coarsest, whose exact
        # solve then follows a split level, as it does in the two-grid cycle
        # at MIN_SLAB 64; 64 and 256 leave a serial tail of sub-cycles
        f = np.zeros((1 << 10, 1))
        for levels, min_slabs in (("max", (2, 64, 256, 1 << 20)), (2, (64,))):
            hier = TimeHierarchy.build(BasisSpec(0), 1e-2, 1 << 10, n_levels=levels)
            u_init = random_initial_guess(hier, 7)
            outs = {}
            for workers in (1, 2, 4):
                for ms in min_slabs:
                    monkeypatch.setattr(multigrid, "MIN_SLAB", ms)
                    outs[workers, ms] = solve(hier, f, u_init, CycleConfig(
                        eps=1e-8, workers=workers))[0].tobytes()
            assert len(set(outs.values())) == 1, levels

    @pytest.mark.parametrize("workers", [1, 2])
    def test_phase_times_leave_no_gaps(self, workers, monkeypatch):
        # a clock that advances by 1 per reading: the phases sum to the
        # readings minus one only if every interval between two readings of
        # worker 0 is charged to one phase
        readings = itertools.count()
        monkeypatch.setattr(multigrid.time, "perf_counter", lambda: float(next(readings)))
        hier = TimeHierarchy.build(BasisSpec(1), 1e-2, 1 << 10)
        f = rhs_moments(np.cos, BasisSpec(1), 1e-2, 1 << 10, u0=1.0)
        monkeypatch.setattr(multigrid, "MIN_SLAB", 64)
        _, stats = solve(hier, f, config=CycleConfig(eps=1e-8, workers=workers))
        assert stats.iterations > 0
        assert sum(stats.times.values()) == next(readings) - 1


class TestMemoryLayout:
    @pytest.mark.parametrize("p_t", [0, 1, 3])
    def test_public_api_returns_c_ordered_blocks(self, p_t):
        # (n_steps, n_t) C-ordered results whose bytes do not depend on
        # whether the inputs are C- or Fortran-ordered
        basis = BasisSpec(p_t)
        hier, deep, single = (TimeHierarchy.build(basis, 0.01, 256, n_levels=k)
                              for k in (2, "max", 1))
        f = rhs_moments(np.cos, basis, 0.01, 256, u0=1.0)
        u = random_initial_guess(hier, 5)
        calls = {
            "solve": lambda u, f: solve(hier, f, u, CycleConfig(eps=1e-10))[0],
            "solve n_levels=1": lambda u, f: solve(single, f, u)[0],
            "two_grid_cycle": lambda u, f: two_grid_cycle(hier, 0, u, f),
            "v_cycle": lambda u, f: v_cycle(deep, u, f),
            "block_jacobi_sweep": lambda u, f: block_jacobi_sweep(hier.finest.ops, u, f, 0.7, 2),
        }
        for name, call in calls.items():
            outs = [call(u, f), call(np.asfortranarray(u), np.asfortranarray(f))]
            for out in outs:
                assert out.shape == (256, basis.n_t) and out.flags.c_contiguous, name
            assert outs[0].tobytes() == outs[1].tobytes(), name

    @pytest.mark.parametrize("p_t", [0, 1, 3])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_reads_caller_arrays_without_writing_them(self, p_t, workers, monkeypatch):
        # the solver reads u and f in place: read-only and Fortran-ordered
        # inputs give the C-ordered call's bits in a new C-ordered array and
        # come back unchanged, also where no cycle or no sweep runs
        monkeypatch.setattr(multigrid, "MIN_SLAB", 64)
        basis, n = BasisSpec(p_t), 256
        hier, deep = (TimeHierarchy.build(basis, 0.01, n, n_levels=k) for k in (2, "max"))
        config = CycleConfig(eps=1e-10, workers=workers)
        f = rhs_moments(np.cos, basis, 0.01, n, u0=1.0)
        u, zero = random_initial_guess(hier, 5), np.zeros_like(f)
        ops = hier.finest.ops
        run_solve = lambda u, f: solve(hier, f, u, config)[0]
        calls = {
            "solve": (run_solve, u, f),
            "solve, no cycle": (run_solve, zero, zero),
            "v_cycle": (lambda u, f: v_cycle(deep, u, f, config), u, f),
            "two_grid_cycle": (lambda u, f: two_grid_cycle(deep, 0, u, f, config), u, f),
            "forward_solve": (lambda u, f: forward_solve(GlobalSystem(ops, n), f), u, f),
            "block_jacobi_sweep": (lambda u, f: block_jacobi_sweep(ops, u, f, 0.7, 2), u, f),
            "block_jacobi_sweep, nu=0": (lambda u, f: block_jacobi_sweep(ops, u, f, 0.7, 0),
                                         u, f),
        }
        for name, (call, u_in, f_in) in calls.items():
            want = call(u_in.copy(), f_in.copy())
            for order, writeable in itertools.product("CF", (True, False)):
                uu, ff = np.array(u_in, order=order), np.array(f_in, order=order)
                uu.flags.writeable = ff.flags.writeable = writeable
                keep = uu.tobytes(), ff.tobytes()
                out = call(uu, ff)
                assert out.flags.c_contiguous and out.flags.writeable, name
                assert out is not uu and out is not ff, name
                assert out.tobytes() == want.tobytes(), name
                assert (uu.tobytes(), ff.tobytes()) == keep, name

    @pytest.mark.parametrize("workers", [1, 2])
    def test_results_own_their_memory(self, workers, monkeypatch):
        # u comes back in the buffer of the solve's own copy of f, and a
        # solve that runs no cycle copies its guess: no result shares memory
        # with an input or with the result of a second identical call
        monkeypatch.setattr(multigrid, "MIN_SLAB", 64)
        basis, n = BasisSpec(1), 256
        hier, deep, single = (TimeHierarchy.build(basis, 0.01, n, n_levels=k)
                              for k in (2, "max", 1))
        config = CycleConfig(eps=1e-10, workers=workers)
        f = rhs_moments(np.cos, basis, 0.01, n, u0=1.0)
        u, zero = random_initial_guess(hier, 5), np.zeros_like(f)
        calls = {
            "solve": lambda: solve(hier, f, u, config)[0],
            "solve, no cycle": lambda: solve(hier, zero, zero, config)[0],
            "solve n_levels=1": lambda: solve(single, f, u, config)[0],
            "v_cycle": lambda: v_cycle(deep, u, f, config),
            "two_grid_cycle": lambda: two_grid_cycle(deep, 0, u, f, config),
        }
        for name, call in calls.items():
            first, second = call(), call()
            assert first.tobytes() == second.tobytes(), name
            for other in (f, u, zero, second):
                assert not np.shares_memory(first, other), name


class TestWorkspaceMemory:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("levels, budget", [(2, 4.0), ("max", 5.0)])
    def test_solve_peak_in_block_vectors(self, levels, budget, workers, traced_peak):
        # the benchmark's largest solve: per level only y and f (one array
        # on the coarsest level), u returned in f's buffer, and one chunk of
        # scratch per worker.  Measured: 3.44/3.63 block vectors (two-grid,
        # 1/2 workers) and 4.46/4.65 (V-cycle); with a level-size g, a
        # separate coarsest rhs and a separate result, 5.94 and 7.46
        basis, tau, n = BasisSpec(3), 1e-6, 1 << 17
        hier = TimeHierarchy.build(basis, tau, n, n_levels=levels)
        f = rhs_moments(lambda t: np.sin(2.0 * t), basis, tau, n, u0=1.0)
        guess = random_initial_guess(hier, 1)
        config = CycleConfig(eps=1e-8, workers=workers)
        peak = traced_peak(lambda: solve(hier, f, guess, config))
        assert peak / f.nbytes <= budget


class TestFusedPasses:
    @pytest.mark.parametrize("nu", [(2, 2), (0, 1), (1, 0), (3, 1)])
    @pytest.mark.parametrize("levels", [2, "max"])
    @pytest.mark.parametrize("p_t", [0, 1, 3])
    def test_output_independent_of_chunk_size(self, p_t, levels, nu, monkeypatch):
        # 120 steps over 1-4 workers with MIN_SLAB 8 give slabs of 120, 60,
        # 40, 30, 20, 16, 14 and 10 steps, split 4, 3 and 2 ways, uneven
        # shares (14 and 16 steps), a worker left idle on a level ("max", 4
        # workers) and partial last chunks of 8 and 24 steps, so the carries
        # cross chunk edges and the ghost sweeps cross slab edges; one worker
        # in a single chunk is the reference
        basis, n, tau = BasisSpec(p_t), 120, 1e-2
        hier = TimeHierarchy.build(basis, tau, n, n_levels=levels)
        rhs = rhs_moments(np.cos, basis, tau, n, u0=1.0)
        guess = random_initial_guess(hier, 5)
        monkeypatch.setattr(multigrid, "MIN_SLAB", 8)
        config = CycleConfig(nu1=nu[0], nu2=nu[1], eps=1e-10, max_iters=4)
        runs = {}
        for chunk, team in [(n, 1)] + [(c, w) for w in (1, 2, 3, 4) for c in (8, 24, n)]:
            monkeypatch.setattr(multigrid, "_chunk_steps", lambda n_t: chunk)
            u, stats = solve(hier, rhs, guess, dataclasses.replace(config, workers=team))
            runs[chunk, team] = (u.tobytes(), stats.iterations,
                                 np.array(stats.residual_norms).tobytes())
        assert len(set(runs.values())) == 1 and stats.iterations > 0

    def test_edge_handoff_under_forced_thread_switches(self, monkeypatch):
        # four and seven workers on fewer cores, 16-step chunks and a 1 us
        # switch interval interleave the passes finely: a ghost that read an
        # edge before it was published, or after it was overwritten, would
        # change the bits; seven workers take uneven shares and leave some
        # idle; the solves run in a daemon thread so a hang fails the join
        basis, n, tau = BasisSpec(1), 1 << 9, 1e-2
        hier = TimeHierarchy.build(basis, tau, n, n_levels="max")
        rhs = rhs_moments(np.cos, basis, tau, n, u0=1.0)
        guess = random_initial_guess(hier, 3)
        monkeypatch.setattr(multigrid, "MIN_SLAB", 16)
        config = CycleConfig(eps=1e-10, max_iters=6)
        want, _ = solve(hier, rhs, guess, config)
        monkeypatch.setattr(multigrid, "_chunk_steps", lambda n_t: 16)
        got = []
        thread = threading.Thread(daemon=True, target=lambda: got.extend(
            solve(hier, rhs, guess, dataclasses.replace(config, workers=w))[0] for w in (4, 7)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            thread.start()
            thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not thread.is_alive() and len(got) == 2
        assert all(u.tobytes() == want.tobytes() for u in got)

    @pytest.mark.parametrize("levels, min_slab, per_cycle", [
        (2, 64, 5),          # two-grid: split level and split coarse scan
        ("max", 64, 9),      # 4 split levels, then a serial tail
        ("max", 2, 17)])     # 7 split levels and a split coarse scan
    @pytest.mark.parametrize("nu", [(2, 2), (3, 1)])
    def test_barrier_waits_per_cycle(self, levels, min_slab, per_cycle, nu, monkeypatch):
        # each split level waits once after each of its two passes, whatever
        # nu1 and nu2; the exact coarse scan waits 3 times (a serial tail
        # once); every worker sums the residual norm after the last wait
        waits = []

        class CountingBarrier(threading.Barrier):
            def wait(self, timeout=None):
                waits.append(1)
                return super().wait(timeout)

        monkeypatch.setattr(multigrid, "team_barrier", CountingBarrier)
        monkeypatch.setattr(multigrid, "MIN_SLAB", min_slab)
        n = 1 << 10
        hier = TimeHierarchy.build(BasisSpec(1), 1e-2, n, n_levels=levels)
        counts = []
        for iters in (2, 5):
            waits.clear()
            _, stats = solve(hier, np.zeros((n, 2)), config=CycleConfig(
                nu1=nu[0], nu2=nu[1], eps=1e-15, workers=2, max_iters=iters))
            assert stats.workers == 2 and stats.iterations == iters
            counts.append(len(waits) / 2)
        assert (counts[1] - counts[0]) / 3 == per_cycle


class TestSolveLargeScale:
    def test_tiny_step_vcycle_convergence(self):
        # many steps, tiny step size: converges with a per-cycle reduction
        # comfortably under the 0.5 two-grid ceiling plus multilevel slack
        hier = TimeHierarchy.build(BasisSpec(0), 1e-6, 1 << 15, n_levels="max")
        f = np.zeros((1 << 15, 1))
        _, stats = solve(hier, f, config=CycleConfig(eps=1e-8, seed=42))
        assert stats.converged
        assert stats.factor <= 0.55


class TestReadmeIterations:
    @pytest.mark.parametrize("p_t, iterations", [(0, 14), (1, 8), (3, 8)])
    def test_two_grid_iterations_on_benchmark_problem(self, p_t, iterations):
        # README's two-grid counts on the benchmark's problem: n = 2^17,
        # tau = 1e-6, eps = 1e-8, f = sin 2t, u0 = 1, the default guess
        basis, tau, n = BasisSpec(p_t), 1e-6, 1 << 17
        hier = TimeHierarchy.build(basis, tau, n)
        rhs = rhs_moments(lambda t: np.sin(2.0 * t), basis, tau, n, u0=1.0)
        _, stats = solve(hier, rhs, config=CycleConfig(eps=1e-8))
        assert stats.converged and stats.iterations == iterations


class TestMeasuredVersusPredicted:
    @pytest.mark.parametrize("nu", [1, 2, 5])
    def test_additive_agreement_across_grid(self, nu):
        # the measured two-grid factor never exceeds the prediction by more
        # than 0.02 across degrees and twelve decades of step sizes (the
        # reduction target only needs to reach the asymptotic regime)
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
