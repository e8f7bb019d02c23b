import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from timemg.checks import all_frequency_bound
from timemg.dense import dense_smoother
from timemg.dg import BasisSpec, assemble_local
from timemg.fourier import rho_profile, smoothing_factor, symbol_smoother
from timemg.multigrid import CycleConfig, TimeHierarchy, block_jacobi_sweep, solve
from timemg.smoothing import (ALPHA_MIN, alpha, optimal_omega, resolve_damping,
                              smoothing_symbol_modulus)

TAUS = np.logspace(-6, 6, 13)


class TestAlpha:
    def test_values(self):
        assert abs(alpha(BasisSpec(0), 1.0) - 0.5) < 1e-14
        assert alpha(BasisSpec(3), 0.0) == 1.0

    def test_global_minimum_location(self):
        # for degree 1 the minimum (5 - 3 sqrt 3)/2 is attained at 3 + 3 sqrt 3
        t_star = 3.0 + 3.0 * math.sqrt(3.0)
        assert abs(alpha(BasisSpec(1), t_star) - ALPHA_MIN) < 1e-12

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            alpha(BasisSpec(0), -1.0)

    @pytest.mark.parametrize("tau", [np.nan, np.inf])
    def test_non_finite_tau_rejected(self, tau):
        with pytest.raises(ValueError, match=f"must be finite and >= 0, got {tau}"):
            alpha(BasisSpec(0), tau)


class TestOptimalOmega:
    def test_examples(self):
        assert optimal_omega(1.0) == 0.5
        assert abs(optimal_omega(0.5) - 0.8) < 1e-15
        assert optimal_omega(-0.05) == 1.0

    def test_resolve_fixed_warns_above_one(self):
        with pytest.warns(UserWarning):
            assert resolve_damping(1.5, 0.3) == 1.5

    def test_resolve_rejects_out_of_range(self):
        for bad in (0.0, 2.0, -0.1):
            with pytest.raises(ValueError):
                resolve_damping(bad, 0.3)
        with pytest.raises(ValueError):
            resolve_damping("fastest", 0.3)

    @pytest.mark.parametrize("damping", [True, False, np.True_])
    def test_bool_damping_refused(self, damping):
        # not read as the number 1.0 or 0.0, in a solve or in the analysis
        message = "^damping must be 'optimal' or a number in \\(0, 2\\), got " + re.escape(
            repr(damping))
        hier = TimeHierarchy.build(BasisSpec(1), 0.1, 32)
        with pytest.raises(ValueError, match=message):
            solve(hier, np.zeros((32, 2)), config=CycleConfig(damping=damping))
        with pytest.raises(ValueError, match=message):
            rho_profile(BasisSpec(1), 0.1, 16, damping=damping)


class TestSymbolModulus:
    def test_undamped_at_pi(self):
        for a in (-0.09, 0.3, 0.99):
            assert abs(smoothing_symbol_modulus(1.0, a, np.pi) - abs(a)) < 1e-14

    def test_half_damping(self):
        assert abs(smoothing_symbol_modulus(0.5, 1.0, np.pi / 2) - 1.0 / math.sqrt(2)) < 1e-14

    def test_zero_alpha(self):
        theta = np.linspace(-np.pi, np.pi, 9)
        assert_allclose(smoothing_symbol_modulus(1.0, 0.0, theta), 0.0, atol=1e-15)

    @pytest.mark.parametrize("p_t", range(4))
    def test_matches_eigenvalue_modulus(self, p_t):
        basis = BasisSpec(p_t)
        for tau in (0.1, 1.0, 10.0):
            ops = assemble_local(basis, tau)
            a = alpha(basis, tau)
            for omega in (0.4, 0.8, 1.0):
                for theta in (-2.5, -0.7, 0.0, 1.1, np.pi):
                    s = symbol_smoother(ops, theta, omega)
                    lam = np.linalg.eigvals(s)
                    expected = np.array([1 - omega] * p_t
                                        + [1 - omega + np.exp(-1j * theta) * omega * a])
                    assert_allclose(np.sort_complex(lam), np.sort_complex(expected),
                                    atol=1e-10)
                    got = smoothing_symbol_modulus(omega, a, theta)
                    rho = got if p_t == 0 else max(abs(1 - omega), got)
                    assert abs(np.max(np.abs(lam)) - rho) < 1e-10


class TestLocalSpectralRadius:
    @pytest.mark.parametrize("p_t", range(6))
    def test_strictly_below_one(self, p_t):
        # contraction of the local iteration for omega in (0, 1], tau > 0
        basis = BasisSpec(p_t)
        thetas = np.linspace(-np.pi, np.pi, 17)
        for tau in TAUS:
            ops = assemble_local(basis, tau)
            for omega in (0.3, 0.7, 1.0):
                for theta in thetas:
                    rho = np.max(np.abs(np.linalg.eigvals(
                        symbol_smoother(ops, theta, omega))))
                    assert rho < 1.0


class TestSmoothingFactor:
    def test_example_p0(self):
        rep = smoothing_factor(BasisSpec(0), 1.0, 0.8, 1024)
        assert abs(rep.mu_s - math.sqrt(0.2)) < 1e-12
        assert rep.alpha == pytest.approx(0.5)
        assert rep.mu_s <= rep.rho_all + 1e-15

    @pytest.mark.parametrize("p_t", range(6))
    def test_uniform_half_damping_bound(self, p_t):
        # the same bound holds empirically for the fixed damping 1/2
        bound = 1.0 / math.sqrt(2.0) + 1e-12
        for tau in TAUS:
            rep = smoothing_factor(BasisSpec(p_t), tau, 0.5, 1024)
            assert rep.mu_s <= bound

    def test_negative_alpha_branch(self):
        # odd degree, large step: alpha < 0, optimal damping 1, mu_s = |alpha|
        basis = BasisSpec(1)
        a = alpha(basis, 50.0)
        assert a < 0
        rep = smoothing_factor(basis, 50.0, "optimal", 1024)
        assert rep.omega == 1.0
        assert abs(rep.mu_s - abs(a)) < 1e-13

    @pytest.mark.parametrize("p_t", range(6))
    def test_all_frequency_bound(self, p_t):
        # max over every frequency stays below |a|(1+|a|)/(1+a^2)
        [result] = all_frequency_bound([p_t], TAUS)
        assert result.ok, result

    def test_invalid_step_count(self):
        with pytest.raises(ValueError):
            smoothing_factor(BasisSpec(0), 1.0, "optimal", 100)


class TestGlobalSmoother:
    @pytest.mark.parametrize("p_t", [0, 1, 2])
    @pytest.mark.parametrize("n", [4, 8])
    def test_spectral_radius_is_one_minus_omega(self, p_t, n):
        # Non-periodic iteration matrix is block lower triangular with
        # (1-omega) I diagonal blocks.  The eigenvalue is defective, so a
        # dense eigensolve only resolves it to O(eps^(1/n)); the triangular
        # structure itself is certified by the exact nilpotency of the rest.
        ops = assemble_local(BasisSpec(p_t), 0.8)
        for omega in (0.5, 0.9, 1.3):
            s = dense_smoother(ops, n, omega, periodic=False)
            rho = np.max(np.abs(np.linalg.eigvals(s)))
            assert abs(rho - abs(1 - omega)) < 30 * np.finfo(float).eps ** (1.0 / n)
            nil = s - (1 - omega) * np.eye(len(s))
            assert np.linalg.norm(np.linalg.matrix_power(nil, n)) < 1e-12

    def test_two_sweeps_exact_at_alpha_zero(self):
        # degree 1, tau = 3: alpha = 0 and the undamped sweep is nilpotent
        basis = BasisSpec(1)
        assert abs(alpha(basis, 3.0)) < 1e-14
        ops = assemble_local(basis, 3.0)
        rng = np.random.default_rng(8)
        err = rng.random((64, 2))
        out = block_jacobi_sweep(ops, err, np.zeros_like(err), omega=1.0, nu=2)
        assert np.linalg.norm(out) <= 1e-12 * np.linalg.norm(err)
