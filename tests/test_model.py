"""Model parameters, state conversions, alignment force, and right-hand sides."""

import numpy as np
import pytest

from euleralign.grid import Grid, GridError, SpectralField
from euleralign.model import (
    ModelParams,
    State,
    VacuumError,
    alignment_commutator,
    alignment_direct,
    frac_laplacian_constant,
    h_of_sigma,
    rho_from_sigma,
    rhs,
    rhs_conservative,
    scaling_check,
    sigma_from_rho,
)
from euleralign.operators import ParameterError, dealias, fractional_laplacian
from euleralign.simulation import Recorder


class TestConstantsAndParams:
    def test_normalization_constant_alpha1(self):
        # |c(1, 1)| = |2 Gamma(1) / (sqrt(pi) Gamma(-1/2))| = 1/pi
        assert frac_laplacian_constant(1.0 + 1e-14, 1) == pytest.approx(1.0 / np.pi, rel=1e-10)

    def test_constant_positive_and_finite(self):
        for alpha in (0.3, 1.2, 1.5, 1.8):
            for dim in (1, 2):
                c = frac_laplacian_constant(alpha, dim)
                assert np.isfinite(c) and c > 0

    def test_constant_matches_scipy_gamma(self):
        from scipy.special import gamma

        for alpha in (0.3, 1.2, 1.5, 1.8):
            for dim in (1, 2):
                ref = abs(
                    2.0**alpha * gamma((dim + alpha) / 2.0)
                    / (np.pi ** (dim / 2.0) * gamma(-alpha / 2.0))
                )
                assert frac_laplacian_constant(alpha, dim) == pytest.approx(ref, rel=1e-14)

    def test_constant_alpha_range(self):
        with pytest.raises(ParameterError):
            frac_laplacian_constant(2.0, 1)
        with pytest.raises(ParameterError):
            frac_laplacian_constant(0.0, 1)

    def test_default_mu_is_reciprocal_constant(self):
        p = ModelParams(alpha=1.5, kappa=1.0, gamma=1.0)
        assert p.mu == pytest.approx(1.0 / frac_laplacian_constant(1.5, 1), rel=1e-14)

    def test_lam(self):
        p = ModelParams(alpha=1.5, kappa=2.0, gamma=1.4, mu=1.0)
        assert p.lam == pytest.approx(np.sqrt(2.8))
        assert p.lam == float(np.sqrt(p.kappa * p.gamma))  # the same bits

    def test_lam_is_derived_not_a_parameter(self):
        # lam is set once in __post_init__ but takes no part in the key of
        # plan_for's cache: equality, hash and repr see the parameters only
        p = ModelParams(alpha=1.5, kappa=2.0, gamma=1.4, mu=1.0)
        q = ModelParams(1.5, 2.0, 1.4, 1, 1.0)
        assert p == q and hash(p) == hash(q)
        assert hash(p) == hash((1.5, 2.0, 1.4, 1, 1.0))
        assert "lam" not in repr(p)
        with pytest.raises(TypeError):
            ModelParams(alpha=1.5, kappa=2.0, gamma=1.4, lam=3.0)

    def test_param_validation(self):
        with pytest.raises(ParameterError):
            ModelParams(alpha=2.5, kappa=1.0, gamma=1.0)
        with pytest.raises(ParameterError):
            ModelParams(alpha=1.0, kappa=1.0, gamma=1.0)
        with pytest.raises(ParameterError):
            ModelParams(alpha=1.5, kappa=-1.0, gamma=1.0)
        with pytest.raises(ParameterError):
            ModelParams(alpha=1.5, kappa=1.0, gamma=0.5)
        with pytest.raises(ParameterError):
            ModelParams(alpha=1.5, kappa=1.0, gamma=1.0, mu=-2.0)

    @pytest.mark.parametrize("name", ["kappa", "gamma", "mu"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_params_rejected(self, name, value):
        kwargs = dict(alpha=1.5, kappa=1.0, gamma=1.0, mu=1.0)
        with pytest.raises(ParameterError):
            ModelParams(**{**kwargs, name: value})


class TestConversions:
    @pytest.mark.parametrize("gamma", [1.0, 1.4, 2.0])
    def test_round_trip(self, gamma):
        p = ModelParams(alpha=1.5, kappa=0.7, gamma=gamma, mu=1.0)
        rho = 1.0 + 0.3 * np.sin(np.linspace(0, 2 * np.pi, 64, endpoint=False))
        sig = sigma_from_rho(rho, p)
        back = rho_from_sigma(sig, p)
        assert np.max(np.abs(back - rho)) < 1e-14

    def test_equilibrium_maps_to_zero(self):
        p = ModelParams(alpha=1.5, kappa=1.0, gamma=1.4, mu=1.0)
        assert np.all(sigma_from_rho(np.ones(8), p) == 0.0)
        assert np.all(h_of_sigma(np.zeros(8), p) == 0.0)

    def test_small_sigma_linearization(self):
        # h(sigma) ~ sigma / lam for small sigma, any gamma
        for gamma in (1.0, 1.4):
            p = ModelParams(alpha=1.5, kappa=1.0, gamma=gamma, mu=1.0)
            s = np.array([1e-9, -1e-9])
            h = h_of_sigma(s, p)
            assert np.allclose(h, s / p.lam, rtol=1e-6)

    def test_stability_near_vacuum(self):
        p = ModelParams(alpha=1.5, kappa=1.0, gamma=1.4, mu=1.0)
        rho = np.array([1e-200, 1.0])
        sig = sigma_from_rho(rho, p)
        assert np.all(np.isfinite(sig))

    def test_vacuum_raises(self):
        p = ModelParams(alpha=1.5, kappa=1.0, gamma=1.4, mu=1.0)
        with pytest.raises(VacuumError):
            sigma_from_rho(np.array([0.0, 1.0]), p)
        with pytest.raises(VacuumError):
            h_of_sigma(np.array([-10.0 * p.lam]), p)

    @pytest.mark.parametrize("convert", [h_of_sigma, rho_from_sigma])
    @pytest.mark.parametrize("value", [-1000.0, np.nan], ids=["underflow", "nan"])
    def test_no_density_raises_at_gamma_1(self, convert, value):
        # rho = e^{sigma/lam} has no domain check of its own: e^{-1000}
        # underflows to 0 and a NaN has no density, so both are vacuum
        p = ModelParams(alpha=1.5, kappa=2.0, gamma=1.0, mu=1.0)
        with pytest.raises(VacuumError):
            convert(np.array([0.0, value * p.lam]), p)

    def test_state_representation_round_trip(self):
        # a state holds sigma; its density comes back from the samples
        g = Grid(1, 64, 2 * np.pi)
        p = ModelParams(alpha=1.5, kappa=1.0, gamma=1.4, mu=1.0)
        rho = 1.0 + 0.2 * np.cos(g.axis_points())
        sig = SpectralField.from_physical(g, sigma_from_rho(rho, p))
        st = State(sig, SpectralField.from_physical(g, 0.1 * np.sin(g.axis_points())))
        assert np.max(np.abs(rho_from_sigma(st.scalar.to_physical()[0], p) - rho)) < 1e-14
        row, *_ = Recorder(st.grid, p).row(st)
        assert row["min_rho"] == pytest.approx(0.8, rel=1e-14)

    def test_state_validation(self):
        g = Grid(2, 16, 1.0)
        with pytest.raises(GridError):
            State(SpectralField.zeros(g, 2), SpectralField.zeros(g, 2))
        with pytest.raises(GridError):
            State(SpectralField.zeros(g), SpectralField.zeros(g))


class TestAlignmentCommutator:
    def test_vanishes_for_constant_velocity(self):
        g = Grid(1, 64, 2 * np.pi)
        u = SpectralField.from_physical(g, np.full(g.shape, 0.7))
        h = dealias(SpectralField.from_physical(g, np.cos(3 * g.axis_points())))
        assert alignment_commutator(u, h, 1.5).l2() < 1e-14

    def test_single_mode_oracle(self):
        # u = cos(x), g = cos(2x): commutator computable in closed form from
        # products of modes 1 and 2 -> modes 1 and 3 with |xi|^a weights
        g = Grid(1, 128, 2 * np.pi)
        x = g.axis_points()
        alpha = 1.5
        u = SpectralField.from_physical(g, np.cos(x))
        h = SpectralField.from_physical(g, np.cos(2 * x))
        out = alignment_commutator(u, h, alpha)
        w1, w2, w3 = 1.0, 2.0**alpha, 3.0**alpha
        expect = 0.5 * (w1 - w2) * np.cos(x) + 0.5 * (w3 - w2) * np.cos(3 * x)
        assert np.max(np.abs(out.to_physical()[0] - expect)) < 1e-12

    def test_vector_components_independent(self):
        g = Grid(2, 32, 2 * np.pi)
        xs = g.points()
        u = SpectralField.from_physical(
            g, np.stack([np.cos(xs[0]), np.sin(xs[1])])
        )
        h = dealias(SpectralField.from_physical(g, np.cos(xs[0] + xs[1])))
        out = alignment_commutator(u, h, 1.5)
        u0 = SpectralField(g, u.coef[:1])
        out0 = alignment_commutator(u0, h, 1.5)
        assert (SpectralField(g, out.coef[:1]) - out0).l2() < 1e-14


class TestAlignmentDirect:
    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    def test_matches_commutator_force(self, alpha):
        g = Grid(1, 64, 2 * np.pi)
        x = g.axis_points()
        p = ModelParams(alpha=alpha, kappa=1.0, gamma=1.4)
        rho_vals = 1.0 + 0.2 * np.cos(x)
        u_vals = 0.3 * np.sin(x) + 0.1 * np.cos(2 * x)
        rho = dealias(SpectralField.from_physical(g, rho_vals))
        u = dealias(SpectralField.from_physical(g, u_vals))

        direct = alignment_direct(rho, u, alpha, refine=16)

        rv = rho.to_physical()[0]
        q = SpectralField.from_physical(g, rv * u.to_physical())
        lam_q = fractional_laplacian(q, alpha).to_physical()
        lam_r = fractional_laplacian(rho, alpha).to_physical()[0]
        bracket = -(rv * lam_q - q.to_physical() * lam_r)

        # the singular-integral evaluation reproduces the multiplier bracket
        denom = max(np.max(np.abs(bracket)), 1e-30)
        resid = np.max(np.abs(direct.to_physical() - bracket)) / denom
        assert resid < 1e-3

        # fitted proportionality between the model force (mu * bracket) and
        # the quadrature value recovers mu = 1/|c|
        d = direct.to_physical().ravel()
        f = (p.mu * bracket).ravel()
        fitted = float(np.dot(f, d) / np.dot(d, d))
        assert fitted == pytest.approx(p.mu, rel=1e-6)

    def test_momentum_neutral(self):
        g = Grid(1, 64, 2 * np.pi)
        x = g.axis_points()
        rho = SpectralField.from_physical(g, 1.0 + 0.3 * np.cos(x))
        u = SpectralField.from_physical(g, 0.5 * np.sin(x))
        d = alignment_direct(rho, u, 1.5)
        assert abs(np.sum(d.to_physical()) * g.cell_volume()) < 1e-10

    def test_nyquist_mode_counted_once(self):
        # cos(8x) is the Nyquist mode of n = 16; the expected values come from
        # zero-padding the full spectrum, which holds that mode once
        g = Grid(1, 16, 2 * np.pi)
        x = g.axis_points()
        rho = SpectralField.from_physical(g, 1.0 + 0.2 * np.cos(x) + 0.05 * np.cos(8 * x))
        u = SpectralField.from_physical(g, 0.3 * np.sin(x) + 0.1 * np.cos(8 * x))
        expect = [
            -3.4146733770163147, 2.7896161462630578, -3.4230641213949218, 2.117126652924906,
            -2.730210037731433, 1.579435740507196, -1.95387870905053, 1.32768745948933,
            -1.5851902397691988, 1.4429393220081335, -1.6656640745444105, 1.9928435098691657,
            -2.096291777500695, 2.762222192803263, -2.783758527027785, 3.1365557792982166,
        ]
        out = alignment_direct(rho, u, 1.5, refine=2).to_physical()[0]
        np.testing.assert_allclose(out, expect, rtol=1e-10, atol=0)

    @pytest.mark.parametrize(
        "alpha, expect",
        [
            (1.2, [-0.30853390011113363, -0.07026033753821045, -0.16189419004575617,
                   0.5297396585214542]),
            (1.5, [-0.3897647713124367, -0.0171574286871732, -0.1927048811047689,
                   0.5828425061624004]),
            (1.8, [-0.4925572202417131, 0.04821880850012604, -0.2287780903104656,
                   0.6482181545923031]),
        ],
    )
    def test_circulant_kernel_matches_the_full_quadrature(self, alpha, expect):
        # values of the quadrature that evaluated the kernel at all n*m point
        # pairs; evaluating it once per offset moves them by rounding only
        g = Grid(1, 64, 2 * np.pi)
        x = g.axis_points()
        rho = dealias(SpectralField.from_physical(g, 1.0 + 0.2 * np.cos(x)))
        u = dealias(SpectralField.from_physical(g, 0.3 * np.sin(x) + 0.1 * np.cos(2 * x)))
        out = alignment_direct(rho, u, alpha, refine=4).to_physical()[0]
        np.testing.assert_allclose(out[::16], expect, rtol=1e-9, atol=0)

    def test_guards(self):
        g = Grid(1, 1024, 2 * np.pi)
        f = SpectralField.zeros(g)
        with pytest.raises(GridError):
            alignment_direct(f, f, 1.5)
        g2 = Grid(1, 64, 2 * np.pi)
        f2 = SpectralField.zeros(g2)
        with pytest.raises(ParameterError):
            alignment_direct(f2, f2, 1.5, refine=3)


def _smooth_fields(n=64, amp=0.05, dim=1):
    """Dealiased low-mode (rho, u) and their parameters."""
    g = Grid(dim, n, 2 * np.pi)
    p = ModelParams(alpha=1.5, kappa=1.0, gamma=1.4, dim=dim, mu=1.0)
    if dim == 1:
        x = g.axis_points()
        rho_vals = 1.0 + amp * (np.cos(x) + 0.5 * np.sin(2 * x))
        u_vals = amp * (np.sin(x) - 0.3 * np.cos(3 * x))
    else:
        xs = g.points()
        rho_vals = 1.0 + amp * np.cos(xs[0]) * np.cos(xs[1])
        u_vals = amp * np.stack([np.sin(xs[0]), np.sin(xs[1] + 0.3)])
    rho = dealias(SpectralField.from_physical(g, rho_vals))
    u = dealias(SpectralField.from_physical(g, u_vals))
    return rho, u, p


def _smooth_state(n=64, amp=0.05, dim=1):
    """The state of ``_smooth_fields``, sigma sampled from its rho."""
    rho, u, p = _smooth_fields(n, amp, dim)
    sig = sigma_from_rho(rho.to_physical()[0], p)
    return State(SpectralField.from_physical(rho.grid, sig), u.copy()), p


class TestRHS:
    def test_equilibrium_is_stationary(self):
        g = Grid(1, 64, 2 * np.pi)
        p = ModelParams(alpha=1.5, kappa=1.0, gamma=1.4, mu=1.0)
        st = State(SpectralField.zeros(g), SpectralField.zeros(g, 1))
        ds, du = rhs(st, p)
        assert ds.l2() == 0.0 and du.l2() == 0.0

    def test_representations_agree(self):
        rho, u, p = _smooth_fields()
        st_s, _ = _smooth_state()
        dr, du_r = rhs_conservative(rho, u, p)
        dsig, du_s = rhs(st_s, p)
        # velocity tendency must match directly
        scale = max(du_r.l2(), 1e-30)
        assert (du_r - du_s).l2() / scale < 1e-10
        # scalar tendencies relate via the chain rule d sigma = sigma'(rho) d rho
        rho_vals = rho.to_physical()[0]
        sprime = p.lam * rho_vals ** (p.gamma - 2.0)
        chain = SpectralField.from_physical(rho.grid, sprime * dr.to_physical()[0])
        chain = dealias(chain)
        assert (dealias(dsig) - chain).l2() / max(chain.l2(), 1e-30) < 1e-6

    def test_mass_and_momentum_tendency_vanish(self):
        rho, u, p = _smooth_fields(n=128, amp=0.05)
        dr, du = rhs_conservative(rho, u, p)
        cell = rho.grid.cell_volume()
        assert abs(np.sum(dr.to_physical()) * cell) < 1e-12
        # momentum tendency: d(rho u)/dt = rho du + u drho
        rv = rho.to_physical()[0]
        uv = u.to_physical()
        dmom = rv * du.to_physical() + uv * dr.to_physical()[0]
        assert abs(np.sum(dmom) * cell) < 1e-10

    def test_conserved_quantities(self):
        rho, u, p = _smooth_fields()
        st, _ = _smooth_state()
        # the trace row's mass and momentum columns are int rho and int rho u
        row, *_ = Recorder(st.grid, p).row(st)
        rv = rho.to_physical()[0]
        uv = u.to_physical()[0]
        cell = st.grid.cell_volume()
        assert row["mass"] == pytest.approx(np.sum(rv) * cell, rel=1e-14)
        assert row["mom_1"] == pytest.approx(np.sum(rv * uv) * cell, rel=1e-12, abs=1e-15)

    def test_vacuum_guard_in_rho_u(self):
        g = Grid(1, 64, 2 * np.pi)
        p = ModelParams(alpha=1.5, kappa=1.0, gamma=1.4, mu=1.0)
        rho = SpectralField.from_physical(g, -0.5 + np.zeros(g.shape))
        with pytest.raises(VacuumError):
            rhs_conservative(rho, SpectralField.zeros(g, 1), p)

    def test_2d_rhs_runs_and_conserves(self):
        rho, u, p = _smooth_fields(n=64, amp=1e-3, dim=2)
        dr, du = rhs_conservative(rho, u, p)
        cell = rho.grid.cell_volume()
        assert abs(np.sum(dr.to_physical()) * cell) < 1e-12
        rv = rho.to_physical()[0]
        uv = u.to_physical()
        dmom = rv * du.to_physical() + uv * dr.to_physical()[0]
        for i in range(2):
            assert abs(np.sum(dmom[i]) * cell) < 1e-8


class TestScaling:
    def test_equivariance(self):
        st, p = _smooth_state(amp=0.05)
        assert scaling_check(st, p, 2.0) < 1e-10

    def test_deliberate_violation_detected(self):
        # dropping the velocity prefactor scale^{alpha-1} breaks equivariance:
        # recompute the residual by hand with the wrong prefactor
        st, p = _smooth_state(amp=0.05)
        a, lam_s = p.alpha, 2.0
        g2 = Grid(st.grid.dim, st.grid.n, st.grid.L / lam_s)
        scaled_params = ModelParams(
            alpha=a,
            kappa=p.kappa * lam_s ** (2.0 * a - 2.0),
            gamma=p.gamma,
            dim=p.dim,
            mu=p.mu,
        )
        bad_state = State(
            SpectralField(g2, st.scalar.coef * lam_s ** (a - 1.0)),
            SpectralField(g2, st.u.coef.copy()),  # missing scale^{alpha-1}
        )
        ds_s, du_s = rhs(bad_state, scaled_params)
        ds, du = rhs(st, p)
        ref_s = SpectralField(g2, ds.coef * lam_s ** (2.0 * a - 1.0))
        ref_u = SpectralField(g2, du.coef * lam_s ** (2.0 * a - 1.0))
        num = np.sqrt((ds_s - ref_s).l2() ** 2 + (du_s - ref_u).l2() ** 2)
        den = np.sqrt(ref_s.l2() ** 2 + ref_u.l2() ** 2)
        assert num / den > 0.1

    def test_scale_validation(self):
        st, p = _smooth_state(amp=0.05)
        with pytest.raises(ParameterError):
            scaling_check(st, p, 3.0)
        with pytest.raises(ParameterError):
            scaling_check(st, p, -2.0)
