"""Grid construction, spectral transforms, and Fourier multiplier operators."""

import numpy as np
import pytest

from euleralign.grid import Grid, GridError, SpectralField
from euleralign.model import ModelParams, State, plan_for
from euleralign.operators import (
    ParameterError,
    dealias,
    divergence,
    fractional_laplacian,
    grad_lambda_inv,
    gradient,
    heat_semigroup,
    lambda_inv_div,
    lambda_power,
    leray_project,
    physical_product,
    spectral_derivative,
)
from euleralign.simulation import step


def assert_real_field(f: SpectralField, rtol: float = 1e-14):
    """The coefficients are those of the real field they describe."""
    back = SpectralField.from_physical(f.grid, f.to_physical()).coef
    assert np.max(np.abs(back - f.coef)) <= rtol * np.max(np.abs(f.coef))


class TestGrid:
    def test_basic_properties(self):
        g = Grid(1, 64, 2.0 * np.pi)
        assert g.dx == pytest.approx(2.0 * np.pi / 64)
        assert g.shape == (64,)
        assert g.volume() == pytest.approx(2.0 * np.pi)
        assert g.cell_volume() == pytest.approx(g.dx)

    @pytest.mark.parametrize(
        "dim,n,L",
        [(3, 64, 1.0), (1, 48, 1.0), (1, 4, 1.0), (1, 64, -1.0), (1, 64, 0.0),
         (1, 8, np.inf), (2, 16, np.nan)],
    )
    def test_invalid_construction(self, dim, n, L):
        with pytest.raises(GridError):
            Grid(dim, n, L)

    def test_wavenumbers_integer(self):
        g = Grid(1, 16, 5.0)
        (k,) = g.wavenumbers()
        assert list(k.astype(int)) == list(range(0, 9))  # the half spectrum

    def test_xi_scaling(self):
        g = Grid(1, 16, 4.0 * np.pi)
        (xi,) = g.xi()
        assert xi[1] == pytest.approx(0.5)

    def test_dealias_mask_two_thirds(self):
        g = Grid(1, 32, 1.0)
        (k,) = g.wavenumbers()
        mask = g.dealias_mask()
        assert np.array_equal(mask, np.abs(k) <= 10)

    def test_nyquist_mask(self):
        # xi_tilde is 0 exactly where |k| = n/2 (or k = 0) on its own axis
        for dim in (1, 2):
            g = Grid(dim, 16, 1.0)
            for k, xi, xt in zip(g.wavenumbers(), g.xi(), g.xi_tilde()):
                assert np.array_equal(xt == 0, (k == 0) | (np.abs(k) == 8))
                assert np.array_equal(xt, np.where(np.abs(k) == 8, 0.0, xi))


    @pytest.mark.parametrize("batch", [(), (1,), (4,)])
    def test_1d_transform_pair_matches_the_nd_transforms(self, batch):
        # on a 1D grid the pair calls rfft/irfft; the bits are those of rfftn/irfftn
        g = Grid(1, 64, 2.0 * np.pi)
        values = np.random.default_rng(3).standard_normal(batch + g.shape)
        coef = g.spectral(values)
        assert coef.shape == batch + g.spectral_shape
        assert np.array_equal(coef, np.fft.rfftn(values, axes=(-1,), norm="forward"))
        back = g.physical(coef)
        assert np.array_equal(back, np.fft.irfftn(coef, s=g.shape, axes=(-1,), norm="forward"))
        np.testing.assert_allclose(back, values, rtol=0, atol=1e-14 * np.max(np.abs(values)))
        np.testing.assert_allclose(g.spectral(back), coef, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("batch", [(), (1,), (5,)])
    def test_2d_forward_transform_is_rfftn(self, batch):
        # rfft along the last axis, then fft along the first in place: the
        # bits of rfftn, which runs the same passes into a fresh array
        g = Grid(2, 32, 2.0 * np.pi)
        values = np.random.default_rng(4).standard_normal(batch + g.shape)
        coef = g.spectral(values)
        assert coef.shape == batch + g.spectral_shape
        assert coef.tobytes() == np.fft.rfftn(values, axes=(-2, -1), norm="forward").tobytes()
        # the inverse runs irfftn's two passes itself: its bits, for unmasked coefficients
        want = np.fft.irfftn(coef, s=g.shape, axes=(-2, -1), norm="forward")
        assert g.physical(coef).tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim, n", [(1, 64), (2, 8), (2, 16), (2, 32), (2, 64)])
    def test_band_limited_inverse_is_irfftn(self, dim, n):
        # the 2D leading-axis pass runs over the n//3 + 1 kept columns only;
        # n = 8 and 16 keep 3 and 6, so the edge column k = n//3 is exercised.
        # The masked coefficients carry zeros of both signs, as in the tendency.
        g = Grid(dim, n, 2.0 * np.pi)
        values = np.random.default_rng(n).standard_normal((5,) + g.shape)
        coef = g.spectral(values) * g.dealias_mask()
        want = np.fft.irfftn(coef, s=g.shape, axes=tuple(range(-dim, 0)), norm="forward")
        assert g.band_physical(coef).tobytes() == want.tobytes()

    @pytest.mark.parametrize("given_out", [False, True], ids=["new", "out"])
    @pytest.mark.parametrize("batch", [(), (3,), (2, 3)])
    @pytest.mark.parametrize("dim, n", [(1, 8), (1, 256), (1, 4096), (2, 8), (2, 64), (2, 256)])
    def test_every_transform_has_the_bits_of_rfftn_and_irfftn(self, dim, n, batch, given_out):
        # the transforms call NumPy's pocketfft gufuncs without the numpy.fft
        # wrapper; the public functions pin their bits, so a NumPy that moves or
        # changes the gufuncs fails here
        g = Grid(dim, n, 2.0 * np.pi)
        axes = tuple(range(-dim, 0))
        values = np.random.default_rng(n + len(batch)).standard_normal(batch + g.shape)
        out = np.empty(batch + g.spectral_shape, complex) if given_out else None
        coef = g.spectral(values, out=out)
        assert out is None or coef is out
        assert coef.tobytes() == np.fft.rfftn(values, axes=axes, norm="forward").tobytes()
        want = np.fft.irfftn(coef, s=g.shape, axes=axes, norm="forward")
        assert g.physical(coef).tobytes() == want.tobytes()
        masked = coef * g.dealias_mask()
        want = np.fft.irfftn(masked, s=g.shape, axes=axes, norm="forward")
        out = np.empty(batch + g.shape) if given_out else None
        back = g.band_physical(masked, out=out)
        assert out is None or back is out
        assert back.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim, n", [(1, 32), (2, 32)])
    def test_in_place_transforms_leave_the_state_untouched(self, dim, n):
        # the tendency's inverse transforms overwrite its own batches; the
        # writable state coefficients that fill them must keep their bits
        g = Grid(dim, n, 2.0 * np.pi)
        p = ModelParams(alpha=1.5, kappa=1.0, gamma=1.4, dim=dim)
        rng = np.random.default_rng(8)
        sig = g.spectral(0.1 * rng.standard_normal((1,) + g.shape))
        u = g.spectral(0.1 * rng.standard_normal((dim,) + g.shape))
        before = sig.tobytes(), u.tobytes()
        plan_for(g, p).tendency(sig, u)
        step(State(SpectralField(g, sig), SpectralField(g, u)), p, 1e-3)
        assert (sig.tobytes(), u.tobytes()) == before


class TestSpectralField:
    def test_physical_round_trip(self):
        g = Grid(1, 64, 2.0 * np.pi)
        vals = np.exp(np.sin(g.axis_points()))
        f = SpectralField.from_physical(g, vals)
        assert np.allclose(f.to_physical()[0], vals, atol=1e-14)

    def test_plancherel(self):
        g = Grid(1, 256, 3.0)
        rng = np.random.default_rng(1)
        vals = rng.standard_normal(g.shape)
        f = SpectralField.from_physical(g, vals)
        direct = np.sqrt(np.sum(vals**2) * g.cell_volume())
        assert f.l2() == pytest.approx(direct, rel=1e-12)

    def test_plancherel_2d(self):
        g = Grid(2, 32, 1.5)
        rng = np.random.default_rng(2)
        vals = rng.standard_normal(g.shape)
        f = SpectralField.from_physical(g, vals)
        direct = np.sqrt(np.sum(vals**2) * g.cell_volume())
        assert f.l2() == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("dim, nyquist_axis", [(1, None), (1, 0), (2, None), (2, 0), (2, 1)])
    def test_plancherel_weights(self, dim, nyquist_axis):
        # in 2D a Nyquist mode on axis 0 lies in the last-axis column k = 0
        # and one on axis 1 in the column k = n/2, so each edge weight is tested
        g = Grid(dim, 32, 1.5)
        if nyquist_axis is None:
            vals = np.random.default_rng(dim).standard_normal(g.shape)
        else:
            vals = 0.3 + (-1.0) ** np.indices(g.shape)[nyquist_axis]
        f = SpectralField.from_physical(g, vals)
        assert f.l2() ** 2 == pytest.approx(np.sum(vals**2) * g.cell_volume(), rel=1e-12)

    def test_mean_and_mean_free(self):
        g = Grid(1, 32, 2.0)
        f = SpectralField.from_physical(g, 3.0 + np.sin(np.pi * g.axis_points()))
        assert f.mean()[0] == pytest.approx(3.0)
        assert f.mean_free().mean()[0] == pytest.approx(0.0, abs=1e-15)

    def test_conjugate_symmetry_defect(self):
        g = Grid(1, 32, 1.0)
        f = SpectralField.from_physical(g, np.cos(2 * np.pi * 3 * g.axis_points()))
        assert_real_field(f)

    def test_cached_samples_cannot_go_stale(self):
        g = Grid(1, 16, 1.0)
        f = SpectralField.from_physical(g, np.sin(2 * np.pi * g.axis_points()))
        with pytest.raises(ValueError):
            f.coef[0, 1] = 0.0
        fresh = SpectralField(g, f.coef.copy())  # no cached samples
        assert np.allclose(f.to_physical(), fresh.to_physical(), atol=1e-15)
        assert f.mean_free().mean()[0] == 0.0
        assert (2.0 * f - f).l2() == pytest.approx(f.l2(), rel=1e-15)

    def test_arithmetic(self):
        g = Grid(1, 16, 1.0)
        f = SpectralField.from_physical(g, np.sin(2 * np.pi * g.axis_points()))
        h = 2.0 * f - f
        assert np.allclose(h.coef, f.coef)
        assert np.allclose((-f).coef, -f.coef)

    def test_grid_mismatch(self):
        f = SpectralField.zeros(Grid(1, 16, 1.0))
        h = SpectralField.zeros(Grid(1, 16, 2.0))
        with pytest.raises(GridError):
            f + h

    def test_shape_validation(self):
        g = Grid(1, 16, 1.0)
        with pytest.raises(GridError):
            SpectralField(g, np.zeros((1, 17), dtype=complex))


class TestFractionalLaplacian:
    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    @pytest.mark.parametrize("k", [1, 5, 20])
    def test_eigenfunction(self, alpha, k):
        g = Grid(1, 256, 2.0 * np.pi)
        x = g.axis_points()
        f = SpectralField.from_physical(g, np.cos(k * x))
        out = fractional_laplacian(f, alpha).to_physical()[0]
        assert np.max(np.abs(out - k**alpha * np.cos(k * x))) / k**alpha < 1e-10

    def test_eigenfunction_2d(self):
        g = Grid(2, 32, 2.0 * np.pi)
        X, Y = g.points()
        f = SpectralField.from_physical(g, np.sin(X) * np.cos(2 * Y))
        out = fractional_laplacian(f, 1.5).to_physical()[0]
        lam = 5.0**0.75  # |xi|^2 = 1 + 4
        assert np.max(np.abs(out - lam * f.to_physical()[0])) / lam < 1e-12

    def test_composition(self):
        g = Grid(1, 64, 2.0 * np.pi)
        f = SpectralField.from_physical(g, np.sin(3 * g.axis_points()))
        a = fractional_laplacian(fractional_laplacian(f, 0.7), 0.8)
        b = fractional_laplacian(f, 1.5)
        assert np.allclose(a.coef, b.coef, atol=1e-13)

    def test_annihilates_mean(self):
        g = Grid(1, 32, 1.0)
        f = SpectralField.from_physical(g, np.full(g.shape, 4.2))
        assert fractional_laplacian(f, 1.5).l2() == 0.0

    @pytest.mark.parametrize("alpha", [0.0, -1.0, 4.0, 5.0])
    def test_alpha_range(self, alpha):
        f = SpectralField.zeros(Grid(1, 16, 1.0))
        with pytest.raises(ParameterError):
            fractional_laplacian(f, alpha)

    def test_lambda_power_negative(self):
        g = Grid(1, 64, 2.0 * np.pi)
        f = SpectralField.from_physical(g, np.cos(4 * g.axis_points()))
        out = lambda_power(f, -1.0).to_physical()[0]
        assert np.allclose(out, np.cos(4 * g.axis_points()) / 4.0, atol=1e-13)


class TestDerivatives:
    def test_derivative_of_sine(self):
        g = Grid(1, 64, 2.0 * np.pi)
        x = g.axis_points()
        f = SpectralField.from_physical(g, np.sin(3 * x))
        df = spectral_derivative(f, 0).to_physical()[0]
        assert np.allclose(df, 3 * np.cos(3 * x), atol=1e-12)

    def test_nyquist_zeroed_for_odd_multiplier(self):
        g = Grid(1, 16, 2.0 * np.pi)
        x = g.axis_points()
        f = SpectralField.from_physical(g, np.cos(8 * x))  # pure Nyquist content
        assert spectral_derivative(f, 0).l2() == 0.0

    def test_nyquist_kept_for_even_multiplier(self):
        g = Grid(1, 16, 2.0 * np.pi)
        f = SpectralField.from_physical(g, np.cos(8 * g.axis_points()))
        out = fractional_laplacian(f, 1.5)
        assert out.l2() == pytest.approx(8**1.5 * f.l2(), rel=1e-12)

    def test_derivative_real_output(self):
        g = Grid(1, 32, 1.0)
        rng = np.random.default_rng(3)
        f = SpectralField.from_physical(g, rng.standard_normal(g.shape))
        assert_real_field(spectral_derivative(f, 0))

    def test_gradient_divergence_2d(self):
        g = Grid(2, 32, 2.0 * np.pi)
        X, Y = g.points()
        f = SpectralField.from_physical(g, np.sin(X + 2 * Y))
        grad = gradient(f)
        assert np.allclose(grad.to_physical()[0], np.cos(X + 2 * Y), atol=1e-12)
        assert np.allclose(grad.to_physical()[1], 2 * np.cos(X + 2 * Y), atol=1e-12)
        # div grad = laplacian = -|xi|^2
        lap = divergence(grad).to_physical()[0]
        assert np.allclose(lap, -5 * np.sin(X + 2 * Y), atol=1e-11)

    def test_axis_out_of_range(self):
        f = SpectralField.zeros(Grid(1, 16, 1.0))
        with pytest.raises(GridError):
            spectral_derivative(f, 1)


class TestProjections:
    def test_leray_1d_kills_gradients(self):
        g = Grid(1, 32, 2.0 * np.pi)
        u = SpectralField.from_physical(g, 1.5 + np.sin(2 * g.axis_points()))
        pu = leray_project(u)
        # in 1D only the mean survives
        assert pu.mean()[0] == pytest.approx(1.5)
        assert pu.mean_free().l2() < 1e-14

    def test_leray_2d_divergence_free(self):
        g = Grid(2, 32, 2.0 * np.pi)
        rng = np.random.default_rng(4)
        u = SpectralField.from_physical(g, rng.standard_normal((2,) + g.shape))
        pu = leray_project(u)
        assert divergence(pu).l2() < 1e-12 * u.l2()
        # idempotent
        assert np.allclose(leray_project(pu).coef, pu.coef, atol=1e-14)

    def test_compressible_round_trip(self):
        g = Grid(1, 64, 2.0 * np.pi)
        u = SpectralField.from_physical(g, np.sin(3 * g.axis_points()))
        d = lambda_inv_div(u)
        back = grad_lambda_inv(d)
        assert np.allclose(back.coef, u.mean_free().coef, atol=1e-13)

    @staticmethod
    def _assert_explicit_projector(dim):
        # leray_project against (I - xi xi^T/|xi|^2) u over the Nyquist-zeroed
        # xi, written out here: the operators build it from the Riesz symbol
        g = Grid(dim, 32, 2.0 * np.pi)
        rng = np.random.default_rng(5)
        u = SpectralField.from_physical(g, rng.standard_normal((dim,) + g.shape))
        xi = np.stack(g.xi_tilde())
        xi2 = np.sum(xi**2, axis=0)
        nz = xi2 > 0
        dot = np.sum(xi * u.coef, axis=0)
        expect = u.coef.copy()
        expect[:, nz] -= xi[:, nz] * dot[nz] / xi2[nz]
        got = leray_project(u).coef
        assert np.max(np.abs(got - expect)) <= 1e-15 * np.max(np.abs(u.coef))

    def test_helmholtz_split_1d(self):
        self._assert_explicit_projector(1)

    def test_helmholtz_split_2d(self):
        self._assert_explicit_projector(2)

    def test_riesz_symbol_is_unit_off_the_zero_modes(self):
        for g in (Grid(1, 32, 2.0 * np.pi), Grid(2, 32, 3.0)):
            r = g.riesz()
            size = np.sum(np.abs(r) ** 2, axis=0)
            nz = g.xi_tilde_norm() > 0
            np.testing.assert_allclose(size[nz], 1.0, rtol=0, atol=1e-15)
            assert not np.any(r[:, ~nz])


_G2 = Grid(2, 16, 1.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: gradient(SpectralField.zeros(_G2, 2)), "gradient expects a scalar"),
        (lambda: divergence(SpectralField.zeros(_G2, 1)), "divergence expects 2 components, got 1"),
        (lambda: lambda_inv_div(SpectralField.zeros(_G2, 3)), "lambda_inv_div expects 2"),
        (lambda: leray_project(SpectralField.zeros(_G2, 1)), "leray_project expects 2"),
        (lambda: grad_lambda_inv(SpectralField.zeros(_G2, 2)), "grad_lambda_inv expects a scalar"),
        (
            lambda: physical_product(
                SpectralField.zeros(_G2), SpectralField.zeros(Grid(2, 16, 2.0))
            ),
            "different grids",
        ),
        (lambda: SpectralField.from_physical(_G2, np.zeros((2, 16, 8))), "sample shape"),
    ],
    ids=[
        "gradient", "divergence", "lambda_inv_div", "leray_project", "grad_lambda_inv",
        "product_grids", "from_physical",
    ],
)
def test_argument_checks_raise_grid_error(call, message):
    with pytest.raises(GridError, match=message):
        call()


def test_product_takes_the_scalar_factor_either_side():
    rng = np.random.default_rng(8)
    s = SpectralField.from_physical(_G2, rng.standard_normal(_G2.shape))
    v = SpectralField.from_physical(_G2, rng.standard_normal((2,) + _G2.shape))
    assert np.array_equal(physical_product(v, s).coef, physical_product(s, v).coef)


class TestHeatSemigroup:
    def test_identity_at_zero(self):
        g = Grid(1, 32, 1.0)
        f = SpectralField.from_physical(g, np.sin(2 * np.pi * g.axis_points()))
        out = heat_semigroup(f, 1.5, 1.0, 0.0)
        assert np.allclose(out.coef, f.coef)

    def test_group_property(self):
        g = Grid(1, 64, 2.0 * np.pi)
        f = SpectralField.from_physical(g, np.cos(3 * g.axis_points()))
        a = heat_semigroup(heat_semigroup(f, 1.5, 0.7, 0.3), 1.5, 0.7, 0.5)
        b = heat_semigroup(f, 1.5, 0.7, 0.8)
        assert np.allclose(a.coef, b.coef, atol=1e-14)

    def test_single_mode_decay_rate(self):
        g = Grid(1, 64, 2.0 * np.pi)
        f = SpectralField.from_physical(g, np.cos(2 * g.axis_points()))
        out = heat_semigroup(f, 1.5, 1.0, 1.0)
        assert out.l2() == pytest.approx(np.exp(-(2.0**1.5)) * f.l2(), rel=1e-12)

    def test_parameter_validation(self):
        f = SpectralField.zeros(Grid(1, 16, 1.0))
        with pytest.raises(ParameterError):
            heat_semigroup(f, 1.5, 1.0, -0.1)
        with pytest.raises(ParameterError):
            heat_semigroup(f, 1.5, -1.0, 0.1)
        with pytest.raises(ParameterError):
            heat_semigroup(f, 1.5, np.inf, 0.1)
        with pytest.raises(ParameterError):
            heat_semigroup(f, 2.5, 1.0, 0.1)

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_time_rejected(self, t):
        f = SpectralField.from_physical(Grid(1, 16, 1.0), np.ones(16))
        with pytest.raises(ParameterError, match="t must be finite"):
            heat_semigroup(f, 1.5, 1.0, t)


class TestDealiasAndProducts:
    def test_dealias_idempotent(self):
        g = Grid(1, 32, 1.0)
        rng = np.random.default_rng(6)
        f = SpectralField.from_physical(g, rng.standard_normal(g.shape))
        once = dealias(f)
        twice = dealias(once)
        assert np.array_equal(once.coef, twice.coef)

    def test_dealiased_product_is_exact_truncated_convolution(self):
        # band-limited inputs below n/3: pseudospectral product = exact product
        g = Grid(1, 64, 2.0 * np.pi)
        x = g.axis_points()
        f = SpectralField.from_physical(g, np.cos(3 * x))
        h = SpectralField.from_physical(g, np.sin(5 * x))
        prod = physical_product(f, h)
        exact = 0.5 * (np.sin(8 * x) + np.sin(2 * x))
        assert np.allclose(prod.to_physical()[0], exact, atol=1e-13)

    def test_product_requires_scalar_factor(self):
        g = Grid(2, 16, 1.0)
        u = SpectralField.zeros(g, 2)
        with pytest.raises(GridError):
            physical_product(u, u)
