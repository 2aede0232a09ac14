"""Per-frequency linear analysis: eigenvalues, regimes, block energies, propagators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import expm

from euleralign.grid import Grid, SpectralField
from euleralign.linear import (
    LinearEnergyParams,
    _expm_2x2_coeffs,
    energy_Yj,
    kernel_bound_check,
    mode_eigenvalues,
    mode_matrix,
    propagate_pair_field,
    rate_floor,
    regime_classify,
)
from euleralign.lp import LPDecomp
from euleralign.model import ModelParams
from euleralign.operators import ParameterError, heat_semigroup, lambda_power

EP = LinearEnergyParams(alpha=1.5, lam=1.0, mu=1.0)


class TestModeAlgebra:
    def test_matrix_entries(self):
        m, inc = mode_matrix(2.0, EP)
        assert np.allclose(m, [[0.0, -2.0], [2.0, -2.0**1.5]])
        assert inc == pytest.approx(-(2.0**1.5))

    def test_matrix_requires_positive_xi(self):
        with pytest.raises(ParameterError):
            mode_matrix(0.0, EP)

    def test_eigenvalues_unit_frequency(self):
        # z^2 + z + 1 = 0 -> (-1 +- i sqrt 3)/2
        fast, slow = mode_eigenvalues(1.0, EP)
        assert fast.real == pytest.approx(-0.5)
        assert abs(fast.imag) == pytest.approx(np.sqrt(3) / 2)
        assert slow == np.conj(fast)

    def test_eigenvalues_high_frequency(self):
        # xi = 16: z^2 + 64 z + 256 = 0 -> -32 +- 16 sqrt 3
        fast, slow = mode_eigenvalues(16.0, EP)
        assert fast == pytest.approx(-32.0 - 16.0 * np.sqrt(3))
        assert slow == pytest.approx(-32.0 + 16.0 * np.sqrt(3))
        assert fast.imag == 0.0 and slow.imag == 0.0

    def test_eigenvalues_match_matrix(self):
        for xi in (0.5, 3.0, 16.0, 100.0):
            m, _ = mode_matrix(xi, EP)
            ev = np.sort_complex(np.linalg.eigvals(m))
            got = np.sort_complex(np.array(mode_eigenvalues(xi, EP)))
            assert np.allclose(ev, got, rtol=1e-12)

    def test_from_model(self):
        p = ModelParams(alpha=1.5, kappa=2.0, gamma=2.0, mu=0.5)
        ep = LinearEnergyParams.from_model(p)
        assert ep.lam == pytest.approx(2.0)
        assert ep.mu == 0.5 and ep.alpha == 1.5


class TestRegimes:
    def test_threshold_value(self):
        # |xi|^{1/2} = 4 -> |xi| = 16 for lam = mu = 1, alpha = 3/2
        assert EP.xi_threshold == pytest.approx(16.0)
        assert regime_classify(15.9, EP) == "low"
        assert regime_classify(16.0, EP) == "low"
        assert regime_classify(16.1, EP) == "high"

    def test_j0(self):
        assert EP.j0_real == pytest.approx(4.0)
        assert EP.j0 == 4

    def test_derived_coefficients(self):
        assert EP.delta == pytest.approx(1.0 / 300.0)
        assert EP.mu_bar == pytest.approx(EP.delta / 8.0)
        assert EP.nu_bar == pytest.approx(0.25)
        assert EP.mu_h == pytest.approx(min(0.25 * 2.0**2.0, 2.0**6.0))

    def test_rate_floor_dominated_by_true_decay(self):
        # the slow eigenvalue real part must beat the floor at every frequency
        for xi in np.logspace(-2, 3, 200):
            _, slow = mode_eigenvalues(xi, EP)
            assert -slow.real >= rate_floor(xi, EP) - 1e-12

    def test_rate_floor_crossover(self):
        # floor = (1/8) min(mu xi^a, (lam^2/mu) xi^{2-a}); branches meet at xi=1
        assert rate_floor(1.0, EP) == pytest.approx(0.125)
        assert rate_floor(4.0, EP) == pytest.approx(0.125 * 2.0)  # xi^{1/2} branch
        assert rate_floor(0.25, EP) == pytest.approx(0.125 * 0.125)  # xi^{3/2} branch


class TestBlockEnergy:
    def _annulus_pair(self, g, lp, j, seed):
        rng = np.random.default_rng(seed)
        f = SpectralField.from_physical(g, rng.standard_normal(g.shape))
        h = SpectralField.from_physical(g, rng.standard_normal(g.shape))
        return lp.dyadic_block(f, j), lp.dyadic_block(h, j)

    def test_low_regime_equivalence(self):
        # |Y_j^2 / (||s||^2 + ||d||^2) - 1| <= 2 delta below the split index
        g = Grid(1, 256, 2.0 * np.pi)
        lp = LPDecomp.for_grid(g)
        for j in range(0, EP.j0 + 1):
            for seed in range(20):
                s, d = self._annulus_pair(g, lp, j, 100 * j + seed)
                base = s.l2() ** 2 + d.l2() ** 2
                if base == 0:
                    continue
                y = energy_Yj(s, d, j, EP)
                assert abs(y**2 / base - 1.0) <= 2.0 * EP.delta

    def test_high_regime_lower_bound(self):
        # Y^2 >= (1/3) ||Lambda^{a-1} s||^2 + (1/2) (lam/mu)^2 ||d||^2
        g = Grid(1, 256, 2.0 * np.pi)
        lp = LPDecomp.for_grid(g)
        r = EP.lam / EP.mu
        for j in range(EP.j0 + 1, 7):
            for seed in range(20):
                s, d = self._annulus_pair(g, lp, j, 200 * j + seed)
                if s.l2() == 0 and d.l2() == 0:
                    continue
                y = energy_Yj(s, d, j, EP)
                lam_s = lambda_power(s, EP.alpha - 1.0)
                floor = (1.0 / 3.0) * lam_s.l2() ** 2 + 0.5 * r**2 * d.l2() ** 2
                assert y**2 >= floor - 1e-12 * max(floor, 1.0)

    def test_zero_data(self):
        g = Grid(1, 64, 2.0 * np.pi)
        z = SpectralField.zeros(g)
        assert energy_Yj(z, z, 2, EP) == 0.0


def _mode_field(g, values):
    """A scalar field that is zero but for the given {index: coefficient} modes."""
    coef = np.zeros(g.spectral_shape, dtype=np.complex128)
    for idx, value in values.items():
        coef[idx] = value
    return SpectralField(g, coef[np.newaxis])


class TestPropagator:
    # the exact flow of the (sigma, d) pair is propagate_pair_field; L = 4 pi
    # puts |xi| = k/2 on the lattice, so each tested |xi| is a grid mode
    G = Grid(1, 256, 4.0 * np.pi)

    def test_identity_at_t0(self):
        rng = np.random.default_rng(3)
        s = SpectralField.from_physical(self.G, rng.standard_normal(self.G.shape))
        d = SpectralField.from_physical(self.G, rng.standard_normal(self.G.shape))
        s1, d1 = propagate_pair_field(s, d, 0.0, EP)
        np.testing.assert_allclose(s1.coef, s.coef, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(d1.coef, d.coef, rtol=1e-12, atol=1e-15)
        # the incompressible part: the heat semigroup at t = 0
        pu = SpectralField.from_physical(self.G, rng.standard_normal(self.G.shape))
        np.testing.assert_allclose(heat_semigroup(pu, EP.alpha, EP.mu, 0.0).coef, pu.coef)

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(
        hnp.arrays(np.float64, (2, 32), elements=st.floats(-1, 1)),
        st.floats(0.0, 2.0),
        st.floats(0.0, 2.0),
    )
    def test_group_law(self, values, t1, t2):
        g = Grid(1, 32, 4.0 * np.pi)
        s = SpectralField.from_physical(g, values[0])
        d = SpectralField.from_physical(g, values[1])
        s1, d1 = propagate_pair_field(*propagate_pair_field(s, d, t1, EP), t2, EP)
        s2, d2 = propagate_pair_field(s, d, t1 + t2, EP)
        scale = max(float(np.max(np.abs(s.coef))), float(np.max(np.abs(d.coef))), 1e-300)
        np.testing.assert_allclose(s1.coef, s2.coef, rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(d1.coef, d2.coef, rtol=0, atol=1e-12 * scale)

    def test_matches_scipy_expm(self):
        t = 0.05
        ks = {xi: int(2 * xi) for xi in (0.5, 1.0, 15.0, 16.0, 40.0)}
        ones = _mode_field(self.G, {k: 1.0 for k in ks.values()})
        zero = SpectralField.zeros(self.G)
        from_s = propagate_pair_field(ones, zero, t, EP)
        from_d = propagate_pair_field(zero, ones, t, EP)
        for xi, k in ks.items():
            m, _ = mode_matrix(xi, EP)
            em = expm(m * t)
            for col, (sig, d) in enumerate((from_s, from_d)):
                assert sig.coef[0, k] == pytest.approx(em[0, col], rel=1e-10, abs=1e-12)
                assert d.coef[0, k] == pytest.approx(em[1, col], rel=1e-10, abs=1e-12)

    def test_near_double_root_continuity(self):
        # eigenvalues collide when b = 2a, i.e. mu xi^a = 2 lam xi
        ep = LinearEnergyParams(alpha=1.5, lam=1.0, mu=2.0)  # collision at xi = 1
        t = 0.3
        xi = 1.0 + np.array([1e-6, 1e-9, 0.0, -1e-9, -1e-6])
        c0, c1 = _expm_2x2_coeffs(ep.lam * xi, ep.mu * xi**ep.alpha, t)
        # e^{Mt} (1, 1) = c0 (1, 1) + c1 M (1, 1) per mode
        vals = [
            (c0[i] * np.eye(2) + c1[i] * mode_matrix(x, ep)[0]) @ [1.0, 1.0]
            for i, x in enumerate(xi)
        ]
        s_ref, d_ref = vals[2]
        for s, d in vals:
            assert abs(s - s_ref) < 1e-5 and abs(d - d_ref) < 1e-5
        # the exactly-degenerate point agrees with a dense matrix exponential,
        # and so does the field flow, whose mode k = 2 is |xi| = 1
        m, _ = mode_matrix(1.0, ep)
        em = expm(m * t)
        assert s_ref == pytest.approx(em[0, 0] + em[0, 1], rel=1e-9)
        assert d_ref == pytest.approx(em[1, 0] + em[1, 1], rel=1e-9)
        ones = _mode_field(self.G, {2: 1.0})
        s1, d1 = propagate_pair_field(ones, ones, t, ep)
        assert s1.coef[0, 2] == pytest.approx(s_ref, rel=1e-12)
        assert d1.coef[0, 2] == pytest.approx(d_ref, rel=1e-12)

    def test_oscillatory_return_with_uniform_decay(self):
        # at xi = 1 (lam = mu = 1) the mode rotates with period T = 4 pi / sqrt 3
        # while decaying uniformly: e^{MT} = e^{-T/2} I
        T = 4.0 * np.pi / np.sqrt(3.0)
        decay = np.exp(-T / 2.0)
        for s0, d0 in ((1.0, 0.0), (0.0, 1.0), (0.3 - 1.0j, 0.7j)):
            s1, d1 = propagate_pair_field(
                _mode_field(self.G, {2: s0}), _mode_field(self.G, {2: d0}), T, EP
            )
            assert s1.coef[0, 2] == pytest.approx(s0 * decay, rel=1e-10, abs=1e-12)
            assert d1.coef[0, 2] == pytest.approx(d0 * decay, rel=1e-10, abs=1e-12)

    def test_incompressible_part_pure_decay(self):
        g = Grid(1, 64, 2.0 * np.pi)
        pu = np.zeros((2,) + g.spectral_shape, dtype=np.complex128)
        pu[:, 2] = [1.0, -2.0]  # |xi| = 2
        out = heat_semigroup(SpectralField(g, pu), EP.alpha, EP.mu, 0.5)
        assert np.allclose(out.coef[:, 2], pu[:, 2] * np.exp(-(2.0**1.5) * 0.5), rtol=1e-13)

    def test_negative_time_rejected(self):
        s = _mode_field(self.G, {2: 1.0})
        with pytest.raises(ParameterError):
            propagate_pair_field(s, SpectralField.zeros(self.G), -1.0, EP)

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_time_rejected(self, t):
        s = _mode_field(self.G, {2: 1.0})
        with pytest.raises(ParameterError, match="t must be finite"):
            propagate_pair_field(s, SpectralField.zeros(self.G), t, EP)


class TestPairField:
    def _pair(self, seed=5, n=128):
        g = Grid(1, n, 2.0 * np.pi)
        rng = np.random.default_rng(seed)
        s = SpectralField.from_physical(g, rng.standard_normal(g.shape))
        d = SpectralField.from_physical(g, rng.standard_normal(g.shape))
        return g, s, d

    def test_matches_per_mode_propagator(self):
        # each mode of the field flow is e^{Mt} of that mode's matrix
        g, s, d = self._pair()
        t = 0.2
        s1, d1 = propagate_pair_field(s, d, t, EP)
        ks = g.wavenumbers()[0]
        for idx in (1, 5, 40):
            xi = abs(2.0 * np.pi / g.L * ks[idx])
            m, _ = mode_matrix(xi, EP)
            want = expm(m * t) @ [s.coef[0, idx], d.coef[0, idx]]
            assert s1.coef[0, idx] == pytest.approx(want[0], rel=1e-12, abs=1e-15)
            assert d1.coef[0, idx] == pytest.approx(want[1], rel=1e-12, abs=1e-15)
        # at k = n/2 the derivatives see no wavenumber: the coupling is 0, so
        # sigma is frozen and d decays at the pure heat rate
        nyq = g.n // 2
        rate = EP.mu * (2.0 * np.pi / g.L * nyq) ** EP.alpha
        assert s1.coef[0, nyq] == pytest.approx(s.coef[0, nyq], rel=1e-12, abs=1e-15)
        assert d1.coef[0, nyq] == pytest.approx(d.coef[0, nyq] * np.exp(-rate * t), rel=1e-12)

    def test_2d_mode_with_a_nyquist_component(self):
        # at (k_1, k_2) = (-n/2, 3) the derivatives see xi_2 only: the flow is
        # e^{Mt} with the coupling a = lam |xi_2| and the damping b = mu |xi|^alpha
        g = Grid(2, 32, 2.0 * np.pi)
        rng = np.random.default_rng(7)
        s, d = (SpectralField.from_physical(g, rng.standard_normal(g.shape)) for _ in range(2))
        t = 0.2
        s1, d1 = propagate_pair_field(s, d, t, EP)
        idx = (g.n // 2, 3)
        assert (g.wavenumbers()[0][idx], g.wavenumbers()[1][idx]) == (-g.n // 2, 3)
        a, b = EP.lam * 3.0, EP.mu * np.hypot(g.n // 2, 3.0) ** EP.alpha
        want = expm(np.array([[0.0, -a], [a, -b]]) * t) @ [s.coef[(0, *idx)], d.coef[(0, *idx)]]
        assert s1.coef[(0, *idx)] == pytest.approx(want[0], rel=1e-12, abs=1e-15)
        assert d1.coef[(0, *idx)] == pytest.approx(want[1], rel=1e-12, abs=1e-15)

    def test_mean_mode_invariant(self):
        # the full complex mean coefficients pass through bit for bit
        g, s, d = self._pair()
        s = s + SpectralField.from_physical(g, np.full(g.shape, 3.0))
        s1, d1 = propagate_pair_field(s, d, 1.0, EP)
        assert s1.coef[0, 0].tobytes() == s.coef[0, 0].tobytes()
        assert d1.coef[0, 0].tobytes() == d.coef[0, 0].tobytes()

    def test_total_energy_monotone(self):
        g, s, d = self._pair()
        s, d = s.mean_free(), d.mean_free()
        prev = np.inf
        for t in (0.0, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0):
            s1, d1 = propagate_pair_field(s, d, t, EP)
            e = s1.l2() ** 2 + d1.l2() ** 2
            assert e <= prev * (1.0 + 1e-12)
            prev = e


class TestKernelBound:
    def test_s0_closed_form(self):
        # s=0: integral = (1 - e^{-rate t})/rate; weighted by 2^{j a} gives
        # sup_t -> 2^{j a}/rate = 1/c
        val = kernel_bound_check(1.5, 2.0, 3, 0.0, np.linspace(1.0, 50.0, 20))
        assert val <= 0.5 + 1e-12
        assert val == pytest.approx(0.5, rel=1e-2)

    def test_uniform_in_j_and_s(self):
        t_grid = np.logspace(-2, np.log10(600.0), 40)
        for j in (-4, 0, 4, 8):
            for s in (0.0, 0.3, 0.6):
                val = kernel_bound_check(1.5, 1.0, j, s, t_grid)
                assert val < 2.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            kernel_bound_check(1.5, 1.0, 0, 1.0, [1.0])
        with pytest.raises(ParameterError):
            kernel_bound_check(1.5, -1.0, 0, 0.5, [1.0])
