"""Dyadic decomposition, Besov-type norms, and the paraproduct identity."""

import numpy as np
import pytest

from euleralign.besov import (
    DataError,
    NormSpec,
    NormTrace,
    besov_norm,
    bony_decompose,
    chemin_lerner,
    norm_on_blocks,
)
from euleralign.grid import Grid, SpectralField
from euleralign.lp import LPDecomp, chi_profile, phi_profile
from euleralign.operators import dealias, physical_product, spectral_derivative


class TestProfiles:
    def test_chi_plateaus(self):
        r = np.array([0.0, 0.5, 0.75, 4.0 / 3.0, 2.0, 10.0])
        chi = chi_profile(r)
        assert np.array_equal(chi[:3], [1.0, 1.0, 1.0])
        assert np.array_equal(chi[3:], [0.0, 0.0, 0.0])

    def test_chi_monotone_in_transition(self):
        r = np.linspace(0.75, 4.0 / 3.0, 200)
        chi = chi_profile(r)
        assert np.all(np.diff(chi) <= 1e-12)
        assert np.all((chi >= 0) & (chi <= 1))

    def test_phi_support(self):
        r = np.array([0.5, 0.74, 8.0 / 3.0 + 1e-9, 5.0])
        assert np.allclose(phi_profile(r), 0.0)
        r_in = np.linspace(0.8, 2.5, 50)
        assert np.all(phi_profile(r_in) >= 0)
        assert phi_profile(np.array([1.4]))[0] == pytest.approx(1.0)

    def test_chi_matches_the_banded_formula_bit_for_bit(self):
        def banded(r):  # the masked form chi_profile was first written in
            t = (r - 0.75) / (4.0 / 3.0 - 0.75)
            up, down = glue(1.0 - t), glue(t)
            band = (r > 0.75) & (r < 4.0 / 3.0)
            out = np.where(r <= 0.75, 1.0, 0.0)
            return np.where(band, up / np.where(band, up + down, 1.0), out)

        def glue(x):
            out = np.zeros_like(x)
            out[x > 0] = np.exp(-1.0 / x[x > 0])
            return out

        edges = np.array([-2.0, 0.75, 4.0 / 3.0, 3.0])
        r = np.concatenate([
            np.linspace(-2.0, 3.0, 1_200_001), edges,
            np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
            [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, np.inf, -np.inf],
        ])
        assert chi_profile(r).tobytes() == banded(r).tobytes()

    def test_telescoping(self):
        # sum over j of phi(2^-j r) telescopes to 1 for r away from 0
        r = np.linspace(0.3, 100.0, 500)
        total = sum(phi_profile(r * 2.0**-j) for j in range(-6, 12))
        assert np.max(np.abs(total - 1.0)) < 1e-14


class TestLPDecomp:
    @pytest.mark.parametrize("dim,n,L", [(1, 256, 2 * np.pi), (1, 64, 512 * np.pi), (2, 64, 2 * np.pi), (1, 1024, 1.0)])
    def test_partition_defect(self, dim, n, L):
        lp = LPDecomp.for_grid(Grid(dim, n, L))
        assert lp.partition_defect() <= 1e-10

    def test_blocks_reconstruct_mean_free_field(self):
        g = Grid(1, 256, 2.0 * np.pi)
        lp = LPDecomp.for_grid(g)
        rng = np.random.default_rng(7)
        f = dealias(SpectralField.from_physical(g, rng.standard_normal(g.shape)))
        total = SpectralField.zeros(g)
        for j in lp.j_range:
            total = total + lp.dyadic_block(f, j)
        assert (total - f.mean_free()).l2() < 1e-12 * f.l2()

    def test_out_of_range_blocks_vanish(self):
        g = Grid(1, 64, 2.0 * np.pi)
        lp = LPDecomp.for_grid(g)
        f = SpectralField.from_physical(g, np.sin(3 * g.axis_points()))
        assert lp.dyadic_block(f, lp.j_min - 2).l2() == 0.0
        assert lp.dyadic_block(f, lp.j_max + 2).l2() == 0.0

    def test_single_mode_lands_in_matching_blocks(self):
        g = Grid(1, 256, 2.0 * np.pi)
        lp = LPDecomp.for_grid(g)
        f = SpectralField.from_physical(g, np.cos(16 * g.axis_points()))
        norms = lp.block_norms(f)
        js = np.array(lp.j_range)
        active = js[norms > 1e-14 * f.l2()]
        # |xi| = 16 = 2^4 can only touch annuli with 3/4 <= 16/2^j <= 8/3
        assert set(active).issubset({3, 4, 5})
        assert np.sqrt(np.sum(norms**2)) <= f.l2() * (1 + 1e-12)

    def test_block_energy_between_half_and_full(self):
        # sum phi_j = 1 with <= 2 active blocks gives sum phi_j^2 in [1/2, 1]
        g = Grid(1, 256, 2.0 * np.pi)
        lp = LPDecomp.for_grid(g)
        rng = np.random.default_rng(8)
        f = dealias(SpectralField.from_physical(g, rng.standard_normal(g.shape))).mean_free()
        total = np.sum(lp.block_norms(f) ** 2)
        assert 0.5 * f.l2() ** 2 - 1e-12 <= total <= f.l2() ** 2 + 1e-12

    def test_low_pass_plus_tail(self):
        g = Grid(1, 128, 2.0 * np.pi)
        lp = LPDecomp.for_grid(g)
        f = SpectralField.from_physical(g, np.cos(5 * g.axis_points()))
        j_hi = lp.j_max + 2
        assert (lp.low_pass(f, j_hi) - f.mean_free()).l2() < 1e-13

    def test_bernstein_derivative_bound(self):
        # || d/dx Delta_j f || <= (8/3) 2^j || Delta_j f || on annulus blocks
        g = Grid(1, 512, 2.0 * np.pi)
        lp = LPDecomp.for_grid(g)
        rng = np.random.default_rng(9)
        f = SpectralField.from_physical(g, rng.standard_normal(g.shape))
        for j in range(2, 7):
            blk = lp.dyadic_block(f, j)
            if blk.l2() == 0:
                continue
            ratio = spectral_derivative(blk, 0).l2() / blk.l2()
            assert ratio <= (8.0 / 3.0) * 2.0**j + 1e-9
            assert ratio >= 0.75 * 2.0**j - 1e-9


class TestNormSpec:
    def test_constructors(self):
        assert NormSpec.homogeneous(0.5).kind == "homogeneous"
        assert NormSpec.hybrid(0.0, 1.0, 4).j0 == 4
        assert NormSpec.restricted(1.0, "low", 3).kind == "low"

    def test_validation(self):
        with pytest.raises(ValueError):
            NormSpec("bogus")
        with pytest.raises(ValueError):
            NormSpec.homogeneous(0.5, r=2)
        with pytest.raises(ValueError):
            NormSpec("hybrid", s=0.0, s2=1.0, r=np.inf, j0=4)  # a block sum only
        with pytest.raises(ValueError):
            NormSpec("low", s=1.0)  # missing j0
        with pytest.raises(ValueError):
            NormSpec.restricted(1.0, "mid", 3)


class TestBesovNorm:
    def test_single_annulus_scaling(self):
        g = Grid(1, 512, 2.0 * np.pi)
        x = g.axis_points()
        f = SpectralField.from_physical(g, np.cos(32 * x))
        for s in (-0.5, 0.0, 1.5):
            val = besov_norm(f, NormSpec.homogeneous(s, 1))
            # content at |xi| = 32 = 2^5 -> weights within [2^{4s}, 2^{6s}]
            lo = min(2.0 ** (4 * s), 2.0 ** (6 * s))
            hi = max(2.0 ** (4 * s), 2.0 ** (6 * s))
            assert lo * f.l2() * 0.99 <= val <= 2 * hi * f.l2() * 1.01

    def test_sup_below_sum(self):
        g = Grid(1, 256, 2.0 * np.pi)
        rng = np.random.default_rng(10)
        f = SpectralField.from_physical(g, rng.standard_normal(g.shape))
        s = 0.3
        assert besov_norm(f, NormSpec.homogeneous(s, np.inf)) <= besov_norm(
            f, NormSpec.homogeneous(s, 1)
        )

    def test_hybrid_equals_low_plus_high(self):
        g = Grid(1, 256, 2.0 * np.pi)
        rng = np.random.default_rng(11)
        f = SpectralField.from_physical(g, rng.standard_normal(g.shape))
        j0 = 3
        hybrid = besov_norm(f, NormSpec.hybrid(0.5, 1.25, j0))
        low = besov_norm(f, NormSpec.restricted(0.5, "low", j0))
        high = besov_norm(f, NormSpec.restricted(1.25, "high", j0))
        assert hybrid == pytest.approx(low + high, rel=1e-12)

    @pytest.mark.parametrize("j0", [-5, 0, 3, 9])
    def test_weights_made_once_give_the_masked_formula(self, j0):
        # norm_on_blocks slices a prefix and a suffix where the formula masks
        # js <= j0 and js > j0: the same sums, bit for bit, on either side of
        # the range too
        js = np.arange(-2, 8)
        bn = np.random.default_rng(j0 + 10).random(js.size)
        low = js <= j0

        def masked(w, sel, r):
            vals = w[sel] * bn[sel]
            return float(np.add.reduce(vals)) if r == 1 else float(np.max(vals, initial=0.0))

        specs = {
            NormSpec.homogeneous(0.7): masked(2.0 ** (js * 0.7), slice(None), 1),
            NormSpec.homogeneous(0.7, np.inf): masked(2.0 ** (js * 0.7), slice(None), np.inf),
            NormSpec.restricted(0.4, "low", j0): masked(2.0 ** (js * 0.4), low, 1),
            NormSpec.restricted(0.4, "high", j0, np.inf): masked(2.0 ** (js * 0.4), ~low, np.inf),
            NormSpec.hybrid(0.5, 1.25, j0): float(
                np.add.reduce(2.0 ** (js[low] * 0.5) * bn[low])
                + np.add.reduce(2.0 ** (js[~low] * 1.25) * bn[~low])
            ),
        }
        for spec, want in specs.items():
            assert norm_on_blocks(js, spec)(bn) == want
        with pytest.raises(ValueError, match="ascend"):
            norm_on_blocks(js[::-1], NormSpec.homogeneous(0.7))

    def test_mean_mode_excluded(self):
        g = Grid(1, 64, 2.0 * np.pi)
        f = SpectralField.from_physical(g, np.full(g.shape, 7.0))
        assert besov_norm(f, NormSpec.homogeneous(0.0, 1)) == 0.0

    def test_nonfinite_rejected(self):
        g = Grid(1, 16, 1.0)
        f = SpectralField.zeros(g)
        f.coef[0, 3] = np.nan
        with pytest.raises(DataError):
            besov_norm(f, NormSpec.homogeneous(0.0, 1))


class TestCheminLerner:
    def _heat_block_trace(self, g, lp, k, rate, times):
        f = SpectralField.from_physical(g, np.cos(k * g.axis_points()))
        rows = [lp.block_norms(f) * np.exp(-rate * t) for t in times]
        return f, np.array(rows)

    def test_q_inf_is_initial_value_for_decaying_data(self):
        g = Grid(1, 128, 2.0 * np.pi)
        lp = LPDecomp.for_grid(g)
        times = np.linspace(0.0, 2.0, 41)
        f, rows = self._heat_block_trace(g, lp, 8, 1.3, times)
        js = np.array(lp.j_range)
        spec = NormSpec.homogeneous(0.0, 1)
        val = chemin_lerner(times, rows, js, np.inf, spec)
        assert val == pytest.approx(besov_norm(f, spec), rel=1e-12)

    def test_q1_matches_closed_form_integral(self):
        # exponential decay integrates to (1 - e^{-rT}) / r per block
        g = Grid(1, 128, 2.0 * np.pi)
        lp = LPDecomp.for_grid(g)
        rate, T = 0.9, 3.0
        times = np.linspace(0.0, T, 2001)
        f, rows = self._heat_block_trace(g, lp, 8, rate, times)
        js = np.array(lp.j_range)
        spec = NormSpec.homogeneous(0.4, 1)
        val = chemin_lerner(times, rows, js, 1, spec)
        expect = besov_norm(f, spec) * (1.0 - np.exp(-rate * T)) / rate
        assert val == pytest.approx(expect, rel=1e-6)

    def test_q1_needs_two_samples(self):
        with pytest.raises(DataError):
            chemin_lerner(np.array([0.0]), np.zeros((1, 3)), np.arange(3), 1, NormSpec.homogeneous(0.0, 1))

    def test_bad_q(self):
        with pytest.raises(ValueError):
            chemin_lerner(np.array([0.0, 1.0]), np.zeros((2, 3)), np.arange(3), 2, NormSpec.homogeneous(0.0, 1))


class TestNormTrace:
    def test_append_and_column(self):
        tr = NormTrace(["t", "a"])
        assert tr.t.size == 0 and tr.column("a").size == 0
        tr.append({"t": 0.0, "a": 1.0})
        tr.append({"t": 1.0, "a": 2.0})
        assert tr.columns == ["t", "a"]
        assert np.array_equal(tr.column("a"), [1.0, 2.0])
        assert np.array_equal(tr.t, [0.0, 1.0])
        assert tr.status == "ok"


class TestBony:
    def test_exact_sum_identity(self):
        g = Grid(1, 256, 2.0 * np.pi)
        rng = np.random.default_rng(12)
        f = SpectralField.from_physical(g, rng.standard_normal(g.shape))
        h = SpectralField.from_physical(g, rng.standard_normal(g.shape))
        t_fh, t_hf, r = bony_decompose(f, h)
        prod = physical_product(dealias(f.mean_free()), dealias(h.mean_free()))
        defect = (t_fh + t_hf + r - prod).l2() / prod.l2()
        assert defect <= 1e-9

    def test_exact_sum_identity_2d(self):
        g = Grid(2, 64, 2.0 * np.pi)
        rng = np.random.default_rng(13)
        f = SpectralField.from_physical(g, rng.standard_normal(g.shape))
        h = SpectralField.from_physical(g, rng.standard_normal(g.shape))
        t_fh, t_hf, r = bony_decompose(f, h)
        prod = physical_product(dealias(f.mean_free()), dealias(h.mean_free()))
        assert (t_fh + t_hf + r - prod).l2() / prod.l2() <= 1e-9

    def test_paraproduct_frequency_localization(self):
        # T_f g with f at low frequency and g in a high annulus stays near g's annulus
        g = Grid(1, 512, 2.0 * np.pi)
        x = g.axis_points()
        f = SpectralField.from_physical(g, np.cos(2 * x))
        h = SpectralField.from_physical(g, np.cos(64 * x))
        t_fh, t_hf, r = bony_decompose(f, h)
        lp = LPDecomp.for_grid(g)
        norms = lp.block_norms(t_fh)
        js = np.array(lp.j_range)
        active = js[norms > 1e-12 * max(t_fh.l2(), 1e-30)]
        if len(active):
            assert active.min() >= 4 and active.max() <= 8

    def test_scalar_fields_required(self):
        g = Grid(2, 16, 1.0)
        u = SpectralField.zeros(g, 2)
        f = SpectralField.zeros(g)
        with pytest.raises(Exception):
            bony_decompose(u, f)
