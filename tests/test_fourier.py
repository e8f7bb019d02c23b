import numpy as np
import pytest
from numpy.testing import assert_allclose

from timemg.checks import symbol_equivalence
from timemg.dense import dense_prolongation, dense_restriction
from timemg.dg import (BasisSpec, LocalOperators, assemble_local, build_transfers,
                       radau_rule)
from timemg.fourier import (MIN_TAU, frequencies, gamma, mode_vector, predicted_rho,
                            rho_profile, symbol_smoother, symbol_system,
                            transfer_symbols, twogrid_symbol)
from timemg.smoothing import alpha, optimal_omega


class TestFrequencies:
    def test_four_steps(self):
        fs = frequencies(4)
        assert_allclose(fs.all, [-np.pi / 2, 0.0, np.pi / 2, np.pi])
        assert_allclose(fs.low, [0.0, np.pi / 2])
        assert_allclose(fs.high, [-np.pi / 2, np.pi])

    def test_cardinality(self):
        fs = frequencies(8)
        assert len(fs.low) == 4 and len(fs.high) == 4
        assert np.pi in fs.high

    @pytest.mark.parametrize("n", [3, 2, 20, 0])
    def test_invalid_counts(self, n):
        with pytest.raises(ValueError):
            frequencies(n)


class TestGamma:
    def test_examples(self):
        assert gamma(np.pi / 2) == pytest.approx(-np.pi / 2)
        assert gamma(0.0) == pytest.approx(np.pi)
        assert gamma(-np.pi / 4) == pytest.approx(3 * np.pi / 4)

    @pytest.mark.parametrize("n", [8, 32])
    def test_involution_onto_high(self, n):
        fs = frequencies(n)
        img = gamma(fs.low)
        assert_allclose(np.sort(img), np.sort(fs.high), atol=1e-14)

    def test_double_application_identity(self):
        fs = frequencies(16)
        for theta in fs.low:
            g = gamma(theta)
            # map the high image back through the same formula
            back = g - np.sign(g) * np.pi if g != 0 else np.pi
            assert back == pytest.approx(theta, abs=1e-14)

    def test_rejects_high_frequency(self):
        with pytest.raises(ValueError):
            gamma(3.0)


class TestBlockDft:
    def test_shifting_property(self):
        # psi_{n-1}(theta) = e^{-i theta} psi_n(theta)
        fs = frequencies(8)
        for theta in fs.all:
            m = mode_vector(theta, np.array([0.3, -1.2]), 8)
            assert_allclose(m[:-1], np.exp(-1j * theta) * m[1:], atol=1e-14)


class TestLocalSymbols:
    def test_system_symbol_p0(self):
        ops = assemble_local(BasisSpec(0), 1.0)
        assert_allclose(symbol_system(ops, 0.0), [[1.0]], atol=1e-15)
        ops = assemble_local(BasisSpec(0), 0.4)
        assert_allclose(symbol_system(ops, np.pi), [[2.4]], atol=1e-14)

    def test_system_symbol_decoupled_limit(self):
        # with the step coupling zeroed out the symbol loses its frequency
        # dependence and reduces to the diagonal block
        base = assemble_local(BasisSpec(1), 0.5)
        ops = LocalOperators(base.stiffness, base.mass,
                             np.zeros_like(base.eval_start), base.eval_end)
        for theta in (0.0, 1.3, np.pi):
            assert_allclose(symbol_system(ops, theta), base.step_matrix, atol=1e-15)

    def test_smoother_symbol_powers(self):
        ops = assemble_local(BasisSpec(2), 0.7)
        assert_allclose(symbol_smoother(ops, 1.2, 0.8, 0), np.eye(3), atol=0.0)
        s1 = symbol_smoother(ops, 1.2, 0.8, 1)
        assert_allclose(symbol_smoother(ops, 1.2, 0.8, 3), s1 @ s1 @ s1, atol=1e-14)

    def test_smoother_symbol_scalar_formula(self):
        basis = BasisSpec(0)
        tau, omega, theta = 0.6, 0.75, 1.9
        ops = assemble_local(basis, tau)
        want = (1 - omega) + np.exp(-1j * theta) * omega / (1 + tau)
        assert_allclose(symbol_smoother(ops, theta, omega, 1), [[want]], atol=1e-14)

    def test_smoother_symbol_nilpotent(self):
        ops = assemble_local(BasisSpec(1), 3.0)
        s2 = symbol_smoother(ops, 0.9, 1.0, 2)
        assert np.max(np.abs(s2)) < 1e-12

    def test_transfer_symbols_p0(self):
        r1, r2 = build_transfers(BasisSpec(0), 0.8)
        for theta in (0.0, 0.7, np.pi, -1.1):
            rhat, phat = transfer_symbols(r1, r2, theta)
            assert_allclose(rhat, [[np.exp(-1j * theta) + 1.0]], atol=1e-14)
            assert_allclose(phat, [[(np.exp(1j * theta) + 1.0) / 2.0]], atol=1e-14)
            assert_allclose(phat, rhat.conj().T / 2.0, atol=1e-14)
        rhat_pi, phat_pi = transfer_symbols(r1, r2, np.pi)
        assert abs(rhat_pi[0, 0]) < 1e-14 and abs(phat_pi[0, 0]) < 1e-14


@pytest.mark.parametrize("p_t", [0, 1, 2])
@pytest.mark.parametrize("tau", [0.3, 1.0, 4.0])
class TestBruteForceSymbols:
    """Dense periodic operators act on single modes exactly like the symbols."""

    N = 16

    def _assert_symbol_checks(self, p_t, tau, label):
        for damping in (0.7, "optimal"):
            results = [r for r in symbol_equivalence([p_t], [tau], damping, seed=4, n=self.N)
                       if r.label.startswith(label)]
            assert results
            for result in results:
                assert result.ok, result

    def test_system_and_smoother(self, p_t, tau):
        self._assert_symbol_checks(p_t, tau, "symbols system/smoother")

    def test_twogrid_spectrum_equals_harmonic_union(self, p_t, tau):
        self._assert_symbol_checks(p_t, tau, "two-grid spectrum")

    def test_restriction_maps_harmonics_to_coarse_mode(self, p_t, tau):
        basis = BasisSpec(p_t)
        r1, r2 = build_transfers(basis, tau)
        n = self.N
        fs = frequencies(n)
        rng = np.random.default_rng(5)
        r_dense = dense_restriction(r1, r2, n)
        for theta in fs.low:
            u1 = rng.standard_normal(basis.n_t) + 1j * rng.standard_normal(basis.n_t)
            u2 = rng.standard_normal(basis.n_t) + 1j * rng.standard_normal(basis.n_t)
            psi = (mode_vector(theta, u1, n) + mode_vector(gamma(theta), u2, n)).ravel()
            rhat_t, _ = transfer_symbols(r1, r2, theta)
            rhat_g, _ = transfer_symbols(r1, r2, gamma(theta))
            want = mode_vector(2 * theta, rhat_t @ u1 + rhat_g @ u2, n // 2).ravel()
            assert np.max(np.abs(r_dense @ psi - want)) < 1e-12

    def test_prolongation_maps_coarse_mode_to_harmonics(self, p_t, tau):
        basis = BasisSpec(p_t)
        r1, r2 = build_transfers(basis, tau)
        n = self.N
        fs = frequencies(n)
        rng = np.random.default_rng(6)
        p_dense = dense_prolongation(r1, r2, n)
        for theta in fs.low:
            u = rng.standard_normal(basis.n_t) + 1j * rng.standard_normal(basis.n_t)
            psi_c = mode_vector(2 * theta, u, n // 2).ravel()
            _, phat_t = transfer_symbols(r1, r2, theta)
            _, phat_g = transfer_symbols(r1, r2, gamma(theta))
            want = (mode_vector(theta, phat_t @ u, n)
                    + mode_vector(gamma(theta), phat_g @ u, n)).ravel()
            assert np.max(np.abs(p_dense @ psi_c - want)) < 1e-12


class TestFrequencyDoubling:
    @pytest.mark.parametrize("n", [8, 64])
    def test_low_maps_onto_coarse_set(self, n):
        fs = frequencies(n)
        coarse = frequencies(n // 2)
        assert_allclose(np.sort(2.0 * fs.low), np.sort(coarse.all), atol=1e-13)


class TestTwoGridSymbol:
    def test_closed_form_profile_p0(self):
        # spectral radius against the explicit degree-0 formula, per frequency
        tau = 1.0
        ops_f = assemble_local(BasisSpec(0), tau)
        ops_c = assemble_local(BasisSpec(0), 2 * tau)
        tr = build_transfers(BasisSpec(0), tau)
        omega = optimal_omega(alpha(BasisSpec(0), tau))
        for theta in np.linspace(-np.pi / 2 + 0.05, np.pi / 2, 11):
            m = twogrid_symbol(ops_f, ops_c, tr, theta, 1, 1, omega)
            rho = np.max(np.abs(np.linalg.eigvals(m)))
            e2 = np.exp(2j * theta)
            want = abs((4 * (1 + tau) ** 2 * np.sin(theta) ** 2
                        + tau**2 * (1 + 2 * tau - e2))
                       / ((2 + tau * (2 + tau)) ** 2 * ((1 + 2 * tau) * e2 - 1)))
            assert abs(rho - want) < 1e-12

    def test_quarter_frequency_value(self):
        ops_f = assemble_local(BasisSpec(0), 1.0)
        ops_c = assemble_local(BasisSpec(0), 2.0)
        tr = build_transfers(BasisSpec(0), 1.0)
        m = twogrid_symbol(ops_f, ops_c, tr, np.pi / 2, 1, 1, 0.8)
        assert abs(np.max(np.abs(np.linalg.eigvals(m))) - 0.2) < 1e-13

    @pytest.mark.parametrize("p_t", [0, 1, 2])
    def test_coarse_modes_annihilated_without_smoothing(self, p_t):
        # with no smoothing, the correction kills anything prolongated
        basis = BasisSpec(p_t)
        rng = np.random.default_rng(9)
        for tau in (0.4, 2.0):
            ops_f = assemble_local(basis, tau)
            ops_c = assemble_local(basis, 2 * tau)
            r1, r2 = build_transfers(basis, tau)
            for theta in (0.2, -1.0, np.pi / 2):
                m = twogrid_symbol(ops_f, ops_c, (r1, r2), theta, 0, 0, 1.0)
                _, phat_t = transfer_symbols(r1, r2, theta)
                _, phat_g = transfer_symbols(r1, r2, gamma(theta))
                c = rng.standard_normal(basis.n_t) + 1j * rng.standard_normal(basis.n_t)
                x = np.concatenate([phat_t @ c, phat_g @ c])
                assert np.max(np.abs(m @ x)) < 1e-12 * max(1.0, np.max(np.abs(x)))


@pytest.mark.parametrize("p_t", [0, 1, 2, 3])
@pytest.mark.parametrize("tau", [1e-6, 1e-3, 1.0, 3.0, 1e3, 1e6])
class TestArrayFrequencies:
    """An array of frequencies gives, bitwise, the stack of the scalar calls."""

    LOW = frequencies(32).low
    NU_PAIRS = ((0, 0), (1, 1), (2, 1), (1, 3))

    def _setup(self, p_t, tau):
        basis = BasisSpec(p_t)
        transfers = build_transfers(basis, tau)
        return (assemble_local(basis, tau), assemble_local(basis, 2 * tau), transfers,
                optimal_omega(alpha(basis, tau)))

    def test_symbols_stack_scalar_calls(self, p_t, tau):
        ops_f, ops_c, (r1, r2), omega = self._setup(p_t, tau)
        symbols = [lambda th: symbol_system(ops_f, th),
                   lambda th: transfer_symbols(r1, r2, th)[0],
                   lambda th: transfer_symbols(r1, r2, th)[1]]
        symbols += [lambda th, nu=nu: symbol_smoother(ops_f, th, omega, nu) for nu in range(4)]
        symbols += [lambda th, nu1=nu1, nu2=nu2: twogrid_symbol(
            ops_f, ops_c, (r1, r2), th, nu1, nu2, omega) for nu1, nu2 in self.NU_PAIRS]
        for symbol in symbols:
            scalar = [symbol(float(theta)) for theta in self.LOW]
            assert all(m.ndim == 2 for m in scalar)
            stacked = symbol(self.LOW)
            assert stacked.shape == (len(self.LOW),) + scalar[0].shape
            assert np.array_equal(stacked, np.stack(scalar))

    def test_twogrid_is_smoothed_coarse_correction(self, p_t, tau):
        # S^{nu2} M(0, 0) S^{nu1} with the block-diagonal smoother pair built here
        ops_f, ops_c, transfers, omega = self._setup(p_t, tau)
        n_t = ops_f.n_t
        correction = twogrid_symbol(ops_f, ops_c, transfers, self.LOW, 0, 0, omega)

        def smoother_pair(nu):
            s = np.zeros_like(correction)
            s[:, :n_t, :n_t] = symbol_smoother(ops_f, self.LOW, omega, nu)
            s[:, n_t:, n_t:] = symbol_smoother(ops_f, gamma(self.LOW), omega, nu)
            return s

        for nu1, nu2 in self.NU_PAIRS:
            want = smoother_pair(nu2) @ correction @ smoother_pair(nu1)
            got = twogrid_symbol(ops_f, ops_c, transfers, self.LOW, nu1, nu2, omega)
            assert_allclose(got, want, rtol=0, atol=1e-13 * max(1.0, np.abs(want).max()))

    def test_rho_profile_matches_per_frequency_loop(self, p_t, tau):
        # rho_profile diagonalizes theta >= 0 and mirrors those radii onto
        # theta < 0, where the symbol is the conjugate of the one at -theta.
        # eigvals of two bitwise-conjugate matrices may return radii one ulp
        # apart, so the mirrored half is checked through its symbol.
        basis = BasisSpec(p_t)
        ops_f, ops_c, transfers, omega = self._setup(p_t, tau)
        for nu1, nu2 in self.NU_PAIRS:
            low, radii = rho_profile(basis, tau, 32, nu1, nu2, "optimal")
            assert np.array_equal(low, self.LOW)

            def symbol(theta):
                return twogrid_symbol(ops_f, ops_c, transfers, theta, nu1, nu2, omega)

            for theta, radius in zip(low, radii):
                if theta >= 0.0:
                    assert radius == np.max(np.abs(np.linalg.eigvals(symbol(theta))))
                else:
                    assert np.array_equal(symbol(theta), np.conj(symbol(-theta)))
                    assert np.array_equal(radii[low == -theta], [radius])


@pytest.mark.parametrize("n", [4, 8, 16, 64, 256, 1024])
@pytest.mark.parametrize("p_t", [0, 1, 2, 3])
@pytest.mark.parametrize("tau", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("nu1, nu2", [(1, 1), (2, 1)])
class TestConjugateMirror:
    """rho_profile diagonalizes the frequencies in [0, pi/2] only and mirrors
    their radii onto (-pi/2, 0)."""

    def _setup(self, n, p_t, tau, nu1, nu2):
        basis = BasisSpec(p_t)
        ops_f, ops_c = assemble_local(basis, tau), assemble_local(basis, 2 * tau)
        transfers = build_transfers(basis, tau)
        omega = optimal_omega(alpha(basis, tau))
        return basis, lambda theta: twogrid_symbol(ops_f, ops_c, transfers, theta,
                                                   nu1, nu2, omega)

    def test_radii_equal_full_diagonalization(self, n, p_t, tau, nu1, nu2):
        basis, symbol = self._setup(n, p_t, tau, nu1, nu2)
        low = frequencies(n).low
        want = np.abs(np.linalg.eigvals(symbol(low))).max(axis=-1)
        got_low, radii = rho_profile(basis, tau, n, nu1, nu2)
        assert np.array_equal(got_low, low)
        assert np.array_equal(radii, want)

    def test_symbol_at_minus_theta_is_conjugate(self, n, p_t, tau, nu1, nu2):
        _, symbol = self._setup(n, p_t, tau, nu1, nu2)
        low = frequencies(n).low
        mirrored = low[(low > 0.0) & (low < np.pi / 2)]
        assert len(mirrored) == n // 4 - 1
        assert np.array_equal(-mirrored, low[:n // 4 - 1][::-1])
        assert np.array_equal(symbol(-mirrored), np.conj(symbol(mirrored)))


class TestPredictedRho:
    def test_small_step_limit(self):
        assert predicted_rho(BasisSpec(0), 1e-9, 256, 1, 1) == pytest.approx(0.5, abs=1e-6)

    def test_large_step_decay(self):
        got = predicted_rho(BasisSpec(0), 1e3, 256, 1, 1)
        assert got <= 10.0 / (2.0 + 2e3 + 1e6)

    def test_profile_locates_maximizer_p0(self):
        low, radii = rho_profile(BasisSpec(0), 1.0, 256, 1, 1)
        assert abs(abs(low[np.argmax(radii)]) - np.pi / 2) < 1e-12

    @pytest.mark.parametrize("nu", [1, 2, 5])
    def test_higher_degrees_no_worse_than_p0(self, nu):
        taus = np.logspace(-6, 6, 49)
        base = np.array([predicted_rho(BasisSpec(0), t, 64, nu, nu) for t in taus])
        for p_t in range(1, 6):
            vals = np.array([predicted_rho(BasisSpec(p_t), t, 64, nu, nu) for t in taus])
            assert np.all(vals <= base + 0.05)

    def test_invalid_step_count(self):
        with pytest.raises(ValueError):
            predicted_rho(BasisSpec(0), 1.0, 100)

    @pytest.mark.parametrize("p_t", [1, 2, 3])
    def test_basis_independence(self, p_t):
        # the radii depend on the DG space, not on its coefficient basis: in
        # Legendre coefficients c, with Lagrange coefficients V c, the forms
        # become V^T A V, the endpoint values V^T e and the restriction
        # blocks V^T r V^{-T}
        basis, tau, omega = BasisSpec(p_t), 0.7, 0.9
        v = np.polynomial.legendre.legvander(2.0 * radau_rule(basis.n_t).c - 1.0, p_t)
        v_inv_t = np.linalg.inv(v).T

        def legendre(ops):
            return LocalOperators(v.T @ ops.stiffness @ v, v.T @ ops.mass @ v,
                                  v.T @ ops.eval_start, v.T @ ops.eval_end)

        ops_f, ops_c = assemble_local(basis, tau), assemble_local(basis, 2 * tau)
        r1, r2 = build_transfers(basis, tau)
        low = frequencies(64).low
        radii = [np.abs(np.linalg.eigvals(twogrid_symbol(f, c, r, low, 1, 1, omega))).max(axis=-1)
                 for f, c, r in ((ops_f, ops_c, (r1, r2)),
                                 (legendre(ops_f), legendre(ops_c),
                                  (v.T @ r1 @ v_inv_t, v.T @ r2 @ v_inv_t)))]
        assert np.max(np.abs(radii[0] - radii[1])) < 1e-11


@pytest.mark.parametrize("p_t", [0, 1, 2, 3])
class TestStepSizeFloor:
    """Below ``MIN_TAU`` the mass rounds away in stiffness + mass and the
    coarse symbol is singular: the analyzer refuses such a tau by name."""

    @pytest.mark.parametrize("tau", [1e-15, 1e-16, 1e-20])
    def test_refuses_tau_below_floor(self, p_t, tau):
        with pytest.raises(ValueError, match=f"^tau must be >= MIN_TAU = 1e-14, got {tau}: "):
            predicted_rho(BasisSpec(p_t), tau, 64)

    @pytest.mark.parametrize("nu", [1, 2])
    def test_floor_keeps_the_small_step_prediction(self, p_t, nu):
        at_floor = predicted_rho(BasisSpec(p_t), MIN_TAU, 1024, nu, nu)
        assert at_floor == pytest.approx(predicted_rho(BasisSpec(p_t), 1e-9, 1024, nu, nu),
                                         abs=1e-8)
