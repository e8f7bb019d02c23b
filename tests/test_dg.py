import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import forward_substitution, pade_exp_eval
from timemg.dense import dense_system
from timemg.dg import (BasisSpec, GlobalSystem, apply_global, assemble_local,
                       basis_derivatives, basis_values, build_transfers, forward_solve,
                       radau_rule, reference_tables, rhs_moments, stability_function)


class TestRadauRule:
    def test_one_point(self):
        rule = radau_rule(1)
        assert_allclose(rule.c, [0.0])
        assert_allclose(rule.b, [1.0])

    def test_two_point(self):
        rule = radau_rule(2)
        assert_allclose(rule.c, [0.0, 2.0 / 3.0], atol=1e-15)
        assert_allclose(rule.b, [0.25, 0.75], atol=1e-15)
        # exactness identity: b . c^2 == 1/3
        assert abs(rule.b @ rule.c**2 - 1.0 / 3.0) < 1e-15

    def test_three_point(self):
        # the closed form of the order-5 rule, to within 1 ulp of each value
        rule = radau_rule(3)
        r6 = np.sqrt(6.0)
        assert_allclose(rule.c, [0.0, (6.0 - r6) / 10.0, (6.0 + r6) / 10.0],
                        rtol=0, atol=2.3e-16)
        assert_allclose(rule.b, [1.0 / 9.0, (16.0 + r6) / 36.0, (16.0 - r6) / 36.0],
                        rtol=0, atol=2.3e-16)

    @pytest.mark.parametrize("s", range(1, 12))
    def test_exactness_order(self, s):
        rule = radau_rule(s)
        assert rule.c[0] == 0.0
        assert np.all(rule.b > 0)
        for m in range(2 * s - 1):
            assert abs(rule.b @ rule.c**m - 1.0 / (m + 1)) < 1e-13

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            radau_rule(0)


def _coupling(ops):
    """The step coupling outer(eval_start, eval_end)."""
    return np.outer(ops.eval_start, ops.eval_end)


class TestAssembleLocal:
    def test_degree_zero(self):
        ops = assemble_local(BasisSpec(0), 0.7)
        assert_allclose(ops.stiffness, [[1.0]], atol=1e-15)
        assert_allclose(ops.mass, [[0.7]], atol=1e-15)
        assert_allclose(_coupling(ops), [[1.0]], atol=1e-15)

    def test_degree_zero_eigenvalue(self):
        ops = assemble_local(BasisSpec(0), 1.0)
        lam = np.linalg.eigvals(np.linalg.solve(ops.step_matrix, _coupling(ops)))
        assert abs(lam[0] - 0.5) < 1e-14

    @pytest.mark.parametrize("p_t", range(9))
    def test_eval_start_is_first_unit_vector(self, p_t):
        # the first left Radau point is 0, so only the first basis function
        # is 1 there; the kernels add the coupling to row 0 only
        basis = BasisSpec(p_t)
        e_0 = np.eye(basis.n_t)[0]
        assert np.array_equal(reference_tables(basis).eval_start, e_0)
        assert np.array_equal(assemble_local(basis, 0.3).eval_start, e_0)
        assert np.array_equal(basis_values(basis, 0.0)[:, 0], e_0)

    @pytest.mark.parametrize("p_t", range(12))
    def test_coupling_rank_one(self, p_t):
        # the sub-diagonal block of the global operator is -outer(e_0, eval_end)
        ops = assemble_local(BasisSpec(p_t), 0.3)
        block = -dense_system(ops, 2)[ops.n_t:, :ops.n_t]
        assert np.linalg.matrix_rank(block, tol=1e-12) == 1
        assert np.array_equal(block[0], ops.eval_end) and not block[1:].any()

    @pytest.mark.parametrize("p_t", range(6))
    def test_mass_spd_and_tau_scaling(self, p_t):
        a = assemble_local(BasisSpec(p_t), 0.4)
        b = assemble_local(BasisSpec(p_t), 0.8)
        assert_allclose(a.mass, a.mass.T, atol=1e-14)
        assert np.all(np.linalg.eigvalsh(a.mass) > 0)
        assert_allclose(2.0 * a.mass, b.mass, rtol=1e-13)
        assert_allclose(a.stiffness, b.stiffness, rtol=1e-13)
        assert_allclose(_coupling(a), _coupling(b), rtol=1e-13)

    @pytest.mark.parametrize("p_t", range(6))
    def test_step_matrix_eigenvalues(self, p_t):
        # spectrum of (stiffness+mass)^{-1} coupling is {0 x p_t, R(-tau)}
        tau = 2.5
        ops = assemble_local(BasisSpec(p_t), tau)
        lam = np.linalg.eigvals(np.linalg.solve(ops.step_matrix, _coupling(ops)))
        lam = lam[np.argsort(-np.abs(lam))]
        r = stability_function(BasisSpec(p_t), -tau)
        assert abs(lam[0] - r) < 1e-10
        assert np.all(np.abs(lam[1:]) < 1e-10)

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            assemble_local(BasisSpec(0), 0.0)

    @pytest.mark.parametrize("tau", [-1.0, np.nan, np.inf])
    def test_negative_or_non_finite_tau(self, tau):
        with pytest.raises(ValueError, match=f"must be finite and positive, got {tau}"):
            assemble_local(BasisSpec(0), tau)

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            BasisSpec(-1)


def _gauss_tables(basis):
    """Gauss-Legendre points, weights and basis values on [0, 1], from scratch."""
    xg, wg = np.polynomial.legendre.leggauss(basis.n_t)
    xg = (xg + 1.0) / 2.0
    return xg, wg / 2.0, basis_values(basis, xg)


@pytest.mark.parametrize("p_t", range(9))
@pytest.mark.parametrize("tau", [1e-6, 1e-3, 0.37, 3.0, 1e3, 1e6])
class TestReferenceCache:
    """Operators built from the cached per-basis tables equal, bitwise, the
    left Radau formulas evaluated from scratch, and agree with a
    Gauss-Legendre construction; the shared tables are read-only."""

    def test_assemble_local_matches_direct_formulas(self, p_t, tau):
        basis = BasisSpec(p_t)
        rule = radau_rule(basis.n_t)
        start = basis_values(basis, np.array([0.0]))[:, 0]
        end = basis_values(basis, np.array([1.0]))[:, 0]
        mass = np.diag(tau * rule.b)
        stiffness = -basis_derivatives(basis, rule.c) * rule.b + np.outer(end, end)
        ops = assemble_local(basis, tau)
        for got, want in ((ops.mass, mass), (ops.stiffness, stiffness),
                          (ops.eval_start, start), (ops.eval_end, end),
                          (ops.step_matrix, stiffness + mass),
                          (ops.step_inv, np.linalg.inv(stiffness + mass))):
            assert np.array_equal(got, want)
        assert np.array_equal(ops.mass, np.diag(np.diag(ops.mass)))

    def test_build_transfers_matches_direct_formulas(self, p_t, tau):
        basis = BasisSpec(p_t)
        c = radau_rule(basis.n_t).c
        r1, r2 = build_transfers(basis, tau)
        assert np.array_equal(r1, basis_values(basis, c / 2.0))
        assert np.array_equal(r2, basis_values(basis, (c + 1.0) / 2.0))
        # the pair is the basis's reference tables' own: one cache serves both
        ref = reference_tables(basis)
        assert r1 is ref.r1 and r2 is ref.r2
        # tau cancels: every valid step size gets the same read-only pair
        for other in (1e-6, 2.0 * tau, 1e6):
            pair = build_transfers(basis, other)
            assert pair[0] is r1 and pair[1] is r2

    def test_blocks_match_gauss_legendre_construction(self, p_t, tau):
        # oracle: the same integrals on the p_t + 1 Gauss-Legendre points,
        # exact to degree 2 p_t + 1, and the restriction pair as the L2
        # projection solved through the Gauss mass
        basis = BasisSpec(p_t)
        xg, wg, phi = _gauss_tables(basis)
        end = basis_values(basis, np.array([1.0]))[:, 0]
        mass = tau * (phi * wg) @ phi.T
        stiffness = -(basis_derivatives(basis, xg) * wg) @ phi.T + np.outer(end, end)
        proj1 = tau * (phi * wg) @ basis_values(basis, xg / 2.0).T
        proj2 = tau * (phi * wg) @ basis_values(basis, (xg + 1.0) / 2.0).T
        ops = assemble_local(basis, tau)
        r1, r2 = build_transfers(basis, tau)
        assert np.max(np.abs(ops.mass - mass)) <= 1e-13 * tau
        assert np.max(np.abs(ops.stiffness - stiffness)) <= 1e-13
        assert np.max(np.abs(r1 - np.linalg.solve(mass, proj1).T)) <= 1e-13
        assert np.max(np.abs(r2 - np.linalg.solve(mass, proj2).T)) <= 1e-13

    def test_cached_tables_are_read_only(self, p_t, tau):
        basis = BasisSpec(p_t)
        ref = reference_tables(basis)
        ops = assemble_local(basis, tau)
        tables = [getattr(ref, field.name) for field in dataclasses.fields(ref)]
        tables += [*build_transfers(basis, tau), ops.stiffness, ops.eval_start, ops.eval_end]
        for table in tables:
            with pytest.raises(ValueError, match="read-only"):
                table[...] = table

    def test_operators_own_their_step_dependent_blocks(self, p_t, tau):
        basis = BasisSpec(p_t)
        a, b = assemble_local(basis, tau), assemble_local(basis, 2.0 * tau)
        for name in ("mass", "step_matrix", "step_inv"):
            assert not np.shares_memory(getattr(a, name), getattr(b, name))
            assert getattr(a, name).flags.writeable
        assert a.stiffness is b.stiffness
        assert a.eval_start is b.eval_start and a.eval_end is b.eval_end


class TestApplyGlobal:
    def test_two_step_example(self):
        sys = GlobalSystem(assemble_local(BasisSpec(0), 1.0), 2)
        out = apply_global(sys, np.ones((2, 1)))
        assert_allclose(out.ravel(), [2.0, 1.0], atol=1e-15)

    def test_linearity_and_zero(self):
        sys = GlobalSystem(assemble_local(BasisSpec(2), 0.2), 9)
        rng = np.random.default_rng(0)
        u, v = rng.standard_normal((2, 9, 3))
        assert_allclose(apply_global(sys, u + 2.0 * v),
                        apply_global(sys, u) + 2.0 * apply_global(sys, v), atol=1e-13)
        assert_allclose(apply_global(sys, np.zeros((9, 3))), 0.0, atol=0.0)

    def test_shape_mismatch(self):
        sys = GlobalSystem(assemble_local(BasisSpec(1), 1.0), 4)
        with pytest.raises(ValueError):
            apply_global(sys, np.zeros((4, 3)))


class TestRhsMoments:
    def test_zero_function(self):
        rhs = rhs_moments(lambda t: 0.0 * t, BasisSpec(1), 0.5, 6)
        assert_allclose(rhs, 0.0, atol=0.0)

    def test_constant_p0(self):
        rhs = rhs_moments(lambda t: np.ones_like(t), BasisSpec(0), 0.5, 4)
        assert_allclose(rhs, 0.5, atol=1e-15)

    def test_linear_p1_exact(self):
        # Radau with s=2 integrates t * psi exactly (degree 2)
        basis = BasisSpec(1)
        rhs = rhs_moments(lambda t: t, basis, 1.0, 1)
        xg, wg = np.polynomial.legendre.leggauss(8)
        xg = (xg + 1.0) / 2.0
        wg = wg / 2.0
        exact = (basis_values(basis, xg) * (wg * xg)).sum(axis=1)
        assert_allclose(rhs[0], exact, atol=1e-14)

    def test_initial_value_folding(self):
        basis = BasisSpec(2)
        base = rhs_moments(lambda t: np.sin(t), basis, 0.3, 5)
        with_u0 = rhs_moments(lambda t: np.sin(t), basis, 0.3, 5, u0=2.0)
        start = basis_values(basis, np.array([0.0]))[:, 0]
        assert_allclose(with_u0[0] - base[0], 2.0 * start, atol=1e-14)
        assert_allclose(with_u0[1:], base[1:], atol=0.0)

    @pytest.mark.parametrize("p_t", range(9))
    @pytest.mark.parametrize("tau", [1e-6, 0.37, 1e6])
    def test_matches_quadrature_against_basis_values(self, p_t, tau):
        # the basis is the identity at the Radau nodes, so the weighted node
        # values are, bitwise, the quadrature of f against every basis function
        basis, n = BasisSpec(p_t), 257
        rule = radau_rule(basis.n_t)
        f = lambda t: np.sin(3.0 * t) + t
        fvals = f((np.arange(n)[:, None] + rule.c) * tau)
        want = fvals @ (tau * basis_values(basis, rule.c) * rule.b).T
        assert np.array_equal(rhs_moments(f, basis, tau, n), want)

    @pytest.mark.parametrize("tau", [-0.5, 0.0, np.nan, np.inf, -np.inf])
    def test_rejects_bad_step_size(self, tau):
        with pytest.raises(ValueError, match=f"must be finite and positive, got {tau}"):
            rhs_moments(np.cos, BasisSpec(1), tau, 4, u0=1.0)

    @pytest.mark.parametrize("n_steps", [0, -2])
    def test_rejects_fewer_than_one_step(self, n_steps):
        with pytest.raises(ValueError, match=f"^n_steps must be an integer >= 1, got {n_steps}"):
            rhs_moments(np.cos, BasisSpec(1), 0.5, n_steps, u0=1.0)

    @pytest.mark.parametrize("u0", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_initial_value(self, u0):
        with pytest.raises(ValueError, match=f"^u0 must be finite, got {u0}"):
            rhs_moments(np.cos, BasisSpec(1), 0.5, 4, u0=u0)


class TestForwardSolve:
    def test_backward_euler_decay(self):
        # p_t=0, f=0, u0=1: u_n = 1.1^{-n}
        ops = assemble_local(BasisSpec(0), 0.1)
        sys = GlobalSystem(ops, 8)
        rhs = rhs_moments(lambda t: 0.0 * t, BasisSpec(0), 0.1, 8, u0=1.0)
        u = forward_solve(sys, rhs)
        assert_allclose(u.ravel(), 1.1 ** -np.arange(1, 9), rtol=1e-13)

    def test_backward_euler_identity(self):
        # one step of the scheme with the one-point Radau rhs:
        # (1 + tau) u_1 == tau f(t_0) + u_0
        tau, u0 = 0.3, 0.7
        f = lambda t: np.cos(3.0 * t)
        sys = GlobalSystem(assemble_local(BasisSpec(0), tau), 1)
        rhs = rhs_moments(f, BasisSpec(0), tau, 1, u0=u0)
        u = forward_solve(sys, rhs)
        assert abs((1.0 + tau) * u[0, 0] - (tau * f(0.0) + u0)) < 1e-14

    @pytest.mark.parametrize("p_t", [0, 1, 3])
    def test_inverse_consistency(self, p_t):
        sys = GlobalSystem(assemble_local(BasisSpec(p_t), 0.37), 12)
        rng = np.random.default_rng(p_t)
        w = rng.standard_normal((12, p_t + 1))
        u = forward_solve(sys, apply_global(sys, w))
        assert np.max(np.abs(u - w)) < 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_rhs(self, bad):
        # a non-finite entry would spread through the scan to most of u
        sys = GlobalSystem(assemble_local(BasisSpec(1), 0.1), 64)
        rhs = np.ones((64, 2))
        rhs[20, 1] = bad
        with pytest.raises(ValueError, match="rhs has non-finite entries"):
            forward_solve(sys, rhs)

    def test_rejects_wrong_shape(self):
        sys = GlobalSystem(assemble_local(BasisSpec(1), 0.1), 64)
        with pytest.raises(ValueError, match=r"rhs has shape \(64, 1\), expected \(64, 2\)"):
            forward_solve(sys, np.ones((64, 1)))

    @pytest.mark.parametrize("p_t", [0, 2, 4])
    def test_residual_bound(self, p_t):
        sys = GlobalSystem(assemble_local(BasisSpec(p_t), 0.05), 40)
        rhs = rhs_moments(np.cos, BasisSpec(p_t), 0.05, 40, u0=1.0)
        u = forward_solve(sys, rhs)
        res = rhs - apply_global(sys, u)
        assert np.linalg.norm(res) <= 1e-12 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("n, tau, p_t", [
        *((n, tau, p_t) for n in (333, 1024, 1500, 2049)
          for tau in (1e-6, 1e-3, 1.0, 3.0, 1e3, 1e6) for p_t in range(6)),
        (1 << 17, 1e-6, 0), (1 << 17, 1e-6, 3), (1 << 17, 1e-3, 2), (1 << 17, 1e-6, 5),
        (1 << 15, 1e-2, 0), (1 << 16, 1e-2, 0), (1 << 17, 1e-2, 0)])
    def test_scan_matches_step_loop(self, p_t, tau, n):
        # the scan reorders the loop's arithmetic: it agrees to 1e-10 and its
        # relative residual is within 2x of the loop's, or below 1e-15 where
        # both are at rounding level; 333 and 1500 end in a partial scan
        # block, 2049 in a block of one step.  The bare scan, without
        # forward_solve's refinement step, reads up to 2.2x on this grid and
        # 3.3x on the three p_t = 0, tau = 1e-2 cases
        basis = BasisSpec(p_t)
        sys = GlobalSystem(assemble_local(basis, tau), n)
        rhs = rhs_moments(lambda t: np.sin(2.0 * t), basis, tau, n, u0=1.0)
        u, loop = forward_solve(sys, rhs), forward_substitution(sys, rhs)
        assert np.max(np.abs(u - loop)) <= 1e-10 * np.max(np.abs(loop))
        res, loop_res = (np.linalg.norm(rhs - apply_global(sys, x)) / np.linalg.norm(rhs)
                         for x in (u, loop))
        assert res <= 2.0 * loop_res or res < 1e-15

    def test_endpoint_order_p2(self):
        # endpoint error decays at order 2 p_t + 1 = 5 under step halving
        basis = BasisSpec(2)
        exact = 0.5 * np.exp(-1.0) + 0.5 * (np.cos(1.0) + np.sin(1.0))
        errs = []
        for n in (4, 8, 16):
            tau = 1.0 / n
            ops = assemble_local(basis, tau)
            u = forward_solve(GlobalSystem(ops, n),
                              rhs_moments(np.cos, basis, tau, n, u0=1.0))
            errs.append(abs(u[-1] @ ops.eval_end - exact))
        slopes = np.log2(np.array(errs[:-1]) / errs[1:])
        assert np.all(np.abs(slopes - 5.0) < 0.4)


class TestMemoryLayout:
    @pytest.mark.parametrize("p_t", range(12))
    def test_result_independent_of_input_layout(self, p_t):
        # a Fortran-ordered or transposed-view input must round like a C-ordered one
        basis = BasisSpec(p_t)
        sys = GlobalSystem(assemble_local(basis, 1e-6), 64)
        x = np.random.default_rng(p_t).random((64, basis.n_t))
        layouts = [x, np.asfortranarray(x), np.ascontiguousarray(x.T).T]
        for op in (forward_solve, apply_global):
            outs = [op(sys, v) for v in layouts]
            assert all(out.flags.c_contiguous for out in outs)
            assert {out.tobytes() for out in outs} == {outs[0].tobytes()}


class TestStabilityFunction:
    def test_p0_values(self):
        assert abs(stability_function(BasisSpec(0), -1.0) - 0.5) < 1e-14

    @pytest.mark.parametrize("p_t", range(6))
    def test_at_origin(self, p_t):
        assert abs(stability_function(BasisSpec(p_t), 0.0) - 1.0) < 1e-13

    def test_p1_zero(self):
        # numerator 1 + z/3 of the (1, 2) approximant vanishes at z = -3
        assert abs(stability_function(BasisSpec(1), -3.0)) < 1e-13
        assert abs(pade_exp_eval(1, 2, -3.0)) < 1e-15

    @pytest.mark.parametrize("p_t", range(12))
    def test_matches_independent_pade(self, p_t):
        # 200 seeded samples on |z| <= 10, skipping the approximant's pole
        # neighborhoods (|R| > 50) where a 1e-11 absolute comparison is not
        # representable in float64; near the poles the identity is still
        # checked relative to the value.
        basis = BasisSpec(p_t)
        rng = np.random.default_rng(2024)
        z = rng.uniform(-10, 10, 1200) + 1j * rng.uniform(-10, 10, 1200)
        z = z[np.abs(z) <= 10.0]
        want = pade_exp_eval(p_t, p_t + 1, z)
        got = np.array([stability_function(basis, zz) for zz in z])
        rel = np.abs(got - want) / np.maximum(1.0, np.abs(want))
        assert np.max(rel) < 1e-11
        keep = np.abs(want) <= 50.0
        assert keep.sum() >= 200
        assert np.max(np.abs(got - want)[keep][:200]) < 1e-11

    def test_a_stability_sampling(self):
        rng = np.random.default_rng(23)
        re = -(10.0 ** rng.uniform(-3, 3, 100))
        im = rng.uniform(-1e3, 1e3, 100)
        for p_t in range(4):
            basis = BasisSpec(p_t)
            vals = [abs(stability_function(basis, complex(a, b))) for a, b in zip(re, im)]
            assert max(vals) < 1.0
