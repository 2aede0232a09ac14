"""Grid construction, spectral transforms, and Fourier multiplier operators."""

import functools
import gc
import os
import subprocess
import sys
import threading
import time
import types
import weakref
from pathlib import Path

import numpy as np
import pytest

from euleralign import grid as grid_module
from euleralign.cli import main
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
    leray_project,
    physical_product,
    spectral_derivative,
)
from euleralign.simulation import step

SRC = str(Path(grid_module.__file__).resolve().parents[1])


def _python(script: str, *args, **kwargs) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports euleralign from here."""
    path = [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env=env, capture_output=True, text=True, timeout=120, **kwargs,
    )


def assert_real_field(f: SpectralField, rtol: float = 1e-14):
    """The coefficients are those of the real field they describe."""
    back = SpectralField.from_physical(f.grid, f.to_physical()).coef
    assert np.max(np.abs(back - f.coef)) <= rtol * np.max(np.abs(f.coef))


def kept_modes(g: Grid) -> np.ndarray:
    """True on the half-spectrum modes that the 2/3 rule keeps: the band."""
    return g.unband(np.ones(g.band_shape, bool))


def _transform(g: Grid, kind: str, a: np.ndarray, given_out: bool) -> np.ndarray:
    """The transform ``kind`` of ``a``: bound into a new buffer of the result's
    shape if ``given_out``, else the allocating ``spectral`` or ``physical``."""
    if not given_out:
        return getattr(g, kind)(a)
    forward = kind.endswith("spectral")
    coefs = g.band_shape if kind.startswith("band") else g.spectral_shape
    per_field = coefs if forward else g.shape
    out = np.empty(a.shape[: a.ndim - g.dim] + per_field, complex if forward else float)
    assert g.bind(kind, a, out)() is out
    return out


# batches that Grid splits over the CPUs: along the fields in 1D, and along
# the rows and the columns of one field or of many in 2D
SPLIT_CASES = [(1, 65536, (4,)), (2, 256, (2,)), (2, 256, (9,)), (2, 512, ())]


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
         (1, 8, np.inf), (2, 16, np.nan), (1, 64.0, 1.0), (1.0, 64, 1.0), (True, 64, 1.0)],
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

    @pytest.mark.parametrize("dim, n", [(1, 32), (1, 64), (2, 16), (2, 32)])
    def test_dealias_is_the_two_thirds_band(self, dim, n):
        # dealias keeps exactly the modes with every |k_i| <= n // 3, as exact
        # copies, and puts +0 on all the others, whatever they held (a NaN,
        # a -0, a negative value whose product with a mask would be -0)
        g = Grid(dim, n, 1.0)
        kept = np.logical_and.reduce([np.abs(k) <= n // 3 for k in g.wavenumbers()])
        assert np.array_equal(kept_modes(g), kept)
        rng = np.random.default_rng(n + dim)
        coef = rng.standard_normal(g.spectral_shape) + 1j * rng.standard_normal(g.spectral_shape)
        masked = np.flatnonzero(~kept)
        coef.flat[masked[0]], coef.flat[masked[-1]] = complex(np.nan, np.nan), complex(-0.0, -0.0)
        once = dealias(SpectralField(g, coef[np.newaxis])).coef[0]
        assert once[kept].tobytes() == coef[kept].tobytes()
        assert once[~kept].tobytes() == np.zeros(masked.size, complex).tobytes()
        assert dealias(SpectralField(g, once[np.newaxis])).coef[0].tobytes() == once.tobytes()

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
    def test_band_transforms_are_rfftn_and_irfftn(self, dim, n):
        # the 2D leading-axis passes run over the n//3 + 1 kept columns only;
        # n = 8 and 16 keep 3 and 6, so the edge column k = n//3 is exercised.
        # The masked coefficients of irfftn's input carry zeros of both signs,
        # as the products of a mask do; the band's inverse has none
        g = Grid(dim, n, 2.0 * np.pi)
        axes = tuple(range(-dim, 0))
        values = np.random.default_rng(n).standard_normal((5,) + g.shape)
        coef = np.fft.rfftn(values, axes=axes, norm="forward")
        band = g.bind("band_spectral", values, np.empty((5,) + g.band_shape, complex))()
        assert band.shape == (5,) + g.band_shape and band.tobytes() == g.band(coef).tobytes()
        assert g.bind("band_spectral", values, None)().tobytes() == band.tobytes()
        masked = coef * kept_modes(g)
        assert np.array_equal(g.unband(band), masked)
        want = np.fft.irfftn(masked, s=g.shape, axes=axes, norm="forward")
        assert g.bind("band_physical", band, np.empty(want.shape))().tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_the_band_is_the_kept_modes_in_order(self, dim):
        # 1D: k = 0..K; 2D: the columns 0..K of the rows 0..K, then -K..-1
        g = Grid(dim, 16, 1.0)
        K = g.dealias_cutoff
        band = g.band(np.stack(g.wavenumbers()))
        assert band.shape == (dim,) + g.band_shape
        assert np.array_equal(band[-1], np.broadcast_to(np.arange(K + 1), g.band_shape))
        if dim == 2:
            rows = np.r_[0 : K + 1, -K:0]
            assert np.array_equal(band[0], np.broadcast_to(rows[:, None], g.band_shape))

    @pytest.mark.parametrize("given_out", [False, True], ids=["new", "out"])
    @pytest.mark.parametrize(
        "dim, n, batch",
        [
            (dim, n, batch)
            for dim, n in [(1, 8), (1, 256), (1, 4096), (2, 8), (2, 64), (2, 256)]
            for batch in [(), (3,), (2, 3)]
        ]
        + SPLIT_CASES,
    )
    def test_every_transform_has_the_bits_of_rfftn_and_irfftn(self, dim, n, batch, given_out):
        # the transforms call NumPy's pocketfft gufuncs without the numpy.fft
        # wrapper; the public functions pin their bits, so a NumPy that moves or
        # changes the gufuncs fails here.  Given buffers go through bind, and
        # so do its band transforms, which have the bits on the kept modes
        g = Grid(dim, n, 2.0 * np.pi)
        if (dim, n, batch) in SPLIT_CASES:
            assert np.prod(batch + g.spectral_shape) >= grid_module._SPLIT_MIN
        axes = tuple(range(-dim, 0))
        values = np.random.default_rng(n + len(batch)).standard_normal(batch + g.shape)
        coef = _transform(g, "spectral", values, given_out)
        assert coef.tobytes() == np.fft.rfftn(values, axes=axes, norm="forward").tobytes()
        want = np.fft.irfftn(coef, s=g.shape, axes=axes, norm="forward")
        assert _transform(g, "physical", coef, given_out).tobytes() == want.tobytes()
        masked = coef * kept_modes(g)
        want = np.fft.irfftn(masked, s=g.shape, axes=axes, norm="forward")
        assert _transform(g, "physical", masked, given_out).tobytes() == want.tobytes()
        if given_out:
            band = _transform(g, "band_spectral", values, given_out)
            assert band.tobytes() == g.band(coef).tobytes()
            assert _transform(g, "band_physical", band, given_out).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "dim, n, batch", [(1, 64, ()), (1, 64, (3,)), (2, 32, (3,)), (2, 256, (9,))]
    )
    def test_the_transforms_leave_their_input_as_it_was(self, dim, n, batch, two_cpus):
        # spectral and physical return a new array, and the band transforms
        # write their out and their work only (at 2D n=256 every pass splits)
        g = Grid(dim, n, 2.0 * np.pi)
        values = np.random.default_rng(n).standard_normal(batch + g.shape)
        before = values.tobytes()
        coef = g.spectral(values)
        masked = coef * kept_modes(g)
        band = g.band(coef)
        kept = coef.tobytes(), masked.tobytes(), band.tobytes()
        g.physical(coef)
        g.physical(masked)
        g.bind("band_physical", band, np.empty(values.shape))()
        g.bind("band_spectral", values, np.empty_like(band))()
        after = values.tobytes(), coef.tobytes(), masked.tobytes(), band.tobytes()
        assert after == (before, *kept)

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

    @pytest.mark.parametrize(
        "dim, n, batch", [(1, 64, (3,)), (1, 256, (2,)), (2, 32, (3,)), (2, 256, (3,))]
    )
    def test_a_bound_transform_has_the_bits_of_the_call(self, dim, n, batch, two_cpus):
        # a bound transform checks its buffers once, then runs the transform's
        # own passes on them at each call (split in halves at 2D n=256)
        g = Grid(dim, n, 2.0 * np.pi)
        values = np.random.default_rng(n).standard_normal(batch + g.shape)
        coef = np.empty(batch + g.spectral_shape, complex)
        assert g.bind("spectral", values, coef)() is coef
        assert coef.tobytes() == g.spectral(values).tobytes()
        masked = coef * kept_modes(g)
        band, samples = g.band(coef), np.empty(batch + g.shape)
        # the kept columns of all rows, which the 2D inverse transforms in place
        work = np.empty(batch + g.spectral_shape[:-1] + g.band_shape[-1:], complex)
        to_grid = g.bind("band_physical", band, samples, work)
        for _ in range(2):  # it zeroes the masked rows of its work at each call
            work[...] = np.inf
            assert to_grid() is samples
            assert samples.tobytes() == g.physical(masked).tobytes()
        # a band out that is the prefix view of a 1D work needs no gather
        work = np.empty(batch + g.spectral_shape, complex)
        out = work[..., : g.dealias_cutoff + 1] if dim == 1 else np.empty_like(band)
        assert g.bind("band_spectral", values, out, work)() is out
        assert out.tobytes() == band.tobytes()
        out = np.empty_like(samples)
        assert g.bind("physical", coef, out)() is out
        assert out.tobytes() == g.physical(coef).tobytes()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_a_buffer_of_another_shape_is_refused_when_bound(self, dim):
        g = Grid(dim, 64, 1.0)
        values, coef = np.ones((3,) + g.shape), np.ones((3,) + g.spectral_shape, complex)
        with pytest.raises(GridError, match="input has shape"):
            g.bind("spectral", values[..., :60], coef)
        with pytest.raises(GridError, match="out has shape"):
            g.bind("spectral", values, coef[..., :20])
        for transform in ("band_physical", "physical"):
            with pytest.raises(GridError, match="input has shape"):
                g.bind(transform, values, values)
        with pytest.raises(GridError, match="input has shape"):
            g.bind("band_physical", coef, values)
        band = g.band(coef)
        with pytest.raises(GridError, match="out has shape"):
            g.bind("band_physical", band, band.real)
        with pytest.raises(GridError, match="out has shape"):
            g.bind("band_spectral", values, coef)
        with pytest.raises(GridError, match="work has shape"):
            g.bind("band_spectral", values, band, band)
        if dim == 2:  # the kept columns of all rows, not the half spectrum
            with pytest.raises(GridError, match="work has shape"):
                g.bind("band_physical", band, values, coef)
        with pytest.raises(GridError, match="no transform 'rfft'"):
            g.bind("rfft", values, coef)


FORK_SCRIPT = """
import os, signal, sys
import numpy as np
from euleralign import grid
grid._CPUS = max(grid._CPUS, 2)  # the pool runs on one CPU too
g = grid.Grid(2, 256, 1.0)
values = np.random.default_rng(5).standard_normal((9,) + g.shape)
want = np.fft.rfftn(values, axes=(-2, -1), norm="forward").tobytes()
assert g.spectral(values).tobytes() == want and grid._helper, "no split in the parent"
pid = os.fork()
if pid == 0:  # the parent's helper threads are not here
    signal.alarm(30)  # ends a child that waits for them
    ok = g.spectral(values).tobytes() == want
    os._exit(0 if ok and grid._helper.is_alive() else 1)
sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""

RUN_SCRIPT = """
import os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from euleralign import cli, grid
assert grid._CPUS == 1
sys.exit(cli.main(["run", "--config", sys.argv[1], "--output", sys.argv[2]]))
"""


class TestSplitPasses:
    """Grid runs each pass of a large batch as two halves, one of them on a
    helper thread."""

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_transforms(self):
        # a child inherits the parent's pool but not its threads: it must
        # start its own, and its transforms must not wait for the parent's
        proc = _python(FORK_SCRIPT)
        assert proc.returncode == 0, proc.stderr

    @staticmethod
    def _split_pass(monkeypatch, gufunc, a, out):
        """A pass of the stand-in ``gufunc``, which ``_run_passes`` looks up on
        ``_pocketfft_umath`` as it does the real gufuncs, in a batch of
        ``_SPLIT_MIN`` coefficients: it splits where two CPUs or more are usable."""
        monkeypatch.setattr(grid_module, "_CPUS", max(grid_module._CPUS, 2))
        monkeypatch.setattr(grid_module, "_pocketfft_umath", types.SimpleNamespace(irfft=gufunc))
        return grid_module._run_passes([(("irfft", a, 1.0, out),)], grid_module._SPLIT_MIN, out)

    def test_a_pass_splits_in_two_on_any_cpu_count(self, monkeypatch):
        monkeypatch.setattr(grid_module, "_CPUS", 4)
        rows = []

        def record(a, fct, out):
            rows.append(len(a))

        a = np.zeros((8, 1))
        self._split_pass(monkeypatch, record, a, np.empty_like(a))
        assert rows == [4, 4]

    def test_the_helper_lives_on_with_more_cpus(self, monkeypatch):
        # one helper takes one half of each pass however many CPUs there are,
        # and no thread dies with an exception
        monkeypatch.setattr(grid_module, "_CPUS", 4)
        died = []
        monkeypatch.setattr(threading, "excepthook", died.append)
        threads = threading.active_count()
        g = Grid(2, 256, 1.0)
        values = np.random.default_rng(8).standard_normal((9,) + g.shape)
        want = np.fft.rfftn(values, axes=(-2, -1), norm="forward")
        for _ in range(20):
            coef = g.spectral(values)
            assert coef.tobytes() == want.tobytes()
            g.physical(coef)
        # a step shares the one helper between its passes and its phases
        st = State(SpectralField(g, 0.1 * coef[:1]), SpectralField(g, 0.1 * coef[1:3]))
        step(st, ModelParams(1.5, 1.0, 1.4, dim=2), 1e-4, steps=3)
        assert died == []
        assert grid_module._helper.is_alive()
        assert threading.active_count() <= threads + 1

    def test_a_failed_pass_raises_in_the_caller(self, two_cpus):
        # a wrong last axis is refused before any pass (the gufuncs would take
        # the transform's length from it), a wrong batch fails in the one
        # gufunc call it falls back to, and a wrong dtype in every piece
        g = Grid(2, 256, 1.0)
        values = np.random.default_rng(6).standard_normal((9,) + g.shape)
        with pytest.raises(ValueError, match="out has shape"):
            g.bind("spectral", values, np.empty((9, 256, 128), complex))
        with pytest.raises(ValueError):
            g.bind("spectral", values, np.empty((8,) + g.spectral_shape, complex))()
        with pytest.raises(TypeError):
            g.bind("spectral", values, np.empty((9,) + g.spectral_shape))()
        want = np.fft.rfftn(values, axes=(-2, -1), norm="forward")
        assert g.spectral(values).tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_an_out_of_another_length_is_refused(self, dim):
        g = Grid(dim, 64, 1.0)
        values = np.ones((3,) + g.shape)
        with pytest.raises(GridError, match="out has shape"):
            g.bind("spectral", values, np.empty((3,) + g.shape[:-1] + (32,), complex))
        coef = g.spectral(values)
        for transform, a in (("band_physical", g.band(coef)), ("physical", coef)):
            with pytest.raises(GridError, match="out has shape"):
                g.bind(transform, a, np.empty((3,) + g.shape[:-1] + (60,)))

    @pytest.mark.parametrize("given_out", [False, True], ids=["new", "out"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_an_input_of_another_shape_is_refused(self, dim, given_out):
        # the gufuncs take a transform's length from their output: a wrong
        # input would make a zero-padded or truncated transform, not an error
        g = Grid(dim, 64, 1.0)
        bad_samples = {1: [(3, 60), (3, 64, 60)], 2: [(3, 64, 60), (3, 48, 64), (1, 1, 64), (64,)]}
        bad_coefs = {1: [(3, 20), (3, 64)], 2: [(3, 64, 20), (3, 48, 33), (1, 1, 33), (33,)]}
        for shape in bad_samples[dim]:
            for kind in ("band_spectral", "spectral") if given_out else ("spectral",):
                with pytest.raises(GridError, match="input has shape"):
                    _transform(g, kind, np.ones(shape), given_out)
        for shape in bad_coefs[dim]:
            for kind in ("band_physical", "physical") if given_out else ("physical",):
                with pytest.raises(GridError, match="input has shape"):
                    _transform(g, kind, np.ones(shape, complex), given_out)
        if dim == 2:  # an out of the right last axis but other rows: numpy refuses it
            with pytest.raises(ValueError):
                g.bind("spectral", np.ones((3,) + g.shape), np.empty((3, 48, 33), complex))()
            band = np.ones((3,) + g.band_shape, complex)
            with pytest.raises(ValueError):
                g.bind("band_physical", band, np.empty((3, 48, 64)))()

    @staticmethod
    def _two_row_pass(first, second):
        """A stand-in gufunc for a pass split into its two rows, which run on
        two threads at once: the first row waits until the second has begun."""
        begun = threading.Event()

        def two_rows(a, fct, out):
            if a[0, 0]:
                begun.set()
                second(out)
            else:
                assert begun.wait(10), "the rows ran one after the other"
                first(out)

        return two_rows

    def test_an_error_in_either_row_reaches_the_caller(self, monkeypatch):
        def fails(out):
            raise KeyError("this row")

        a = np.array([[0.0], [1.0]])
        for rows in [(fails, lambda out: None), (lambda out: None, fails)]:
            with pytest.raises(KeyError, match="this row"):
                self._split_pass(monkeypatch, self._two_row_pass(*rows), a, np.empty_like(a))

    def test_every_piece_ends_before_the_caller_raises(self, monkeypatch):
        def fails(out):
            raise KeyError("first row")

        def slow(out):
            time.sleep(0.2)
            out[...] = 1.0

        a, out = np.array([[0.0], [1.0]]), np.zeros((2, 1))
        with pytest.raises(KeyError, match="first row"):
            self._split_pass(monkeypatch, self._two_row_pass(fails, slow), a, out)
        assert out[1, 0] == 1.0

    def test_two_halves_returns_both_results_and_keeps_no_array(self):
        a = np.arange(4.0)
        kept = weakref.ref(a)
        halves = functools.partial(lambda arr, i: float(grid_module.half(arr, i, -1).sum()), a)
        assert grid_module.two_halves(halves) == [1.0, 5.0]
        del a, halves
        gc.collect()
        assert kept() is None  # neither thread, nor a call left in the inbox, holds f

    def test_the_helper_runs_under_the_callers_errstate(self, monkeypatch):
        seen = []

        def record(out):
            seen.append(np.geterr()["over"])

        a = np.array([[0.0], [1.0]])
        with np.errstate(over="raise"):
            self._split_pass(monkeypatch, self._two_row_pass(record, record), a, np.empty_like(a))
        assert seen == ["raise", "raise"]

    def test_transforms_from_several_threads(self, two_cpus, monkeypatch):
        # more callers than CPUs share the pool, every pass split and the GIL
        # switched often: a piece lost or run twice would change the bits
        monkeypatch.setattr(grid_module, "_SPLIT_MIN", 1)
        g = Grid(2, 16, 1.0)
        values = np.random.default_rng(7).standard_normal((8, 3) + g.shape)
        want = [np.fft.rfftn(v, axes=(-2, -1), norm="forward").tobytes() for v in values]
        wrong = []

        def transform(i):
            for _ in range(200):
                if g.spectral(values[i]).tobytes() != want[i]:
                    wrong.append(i)

        threads = [threading.Thread(target=transform, args=(i,)) for i in range(len(values))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
    @pytest.mark.parametrize("gamma", [1.0, 1.4])
    def test_a_run_on_one_cpu_has_the_bits_of_this_run(self, tmp_path, gamma):
        # criterion 10 on both sides of the CPU count: this process splits the
        # passes and the pointwise phases of a 2D n=256 step where it has
        # several CPUs; gamma > 1 takes h(sigma)'s log1p/expm1 path, whose
        # SIMD loops meet halves with other tails
        outputs = []
        for side in ("here", "one_cpu"):
            cfg = tmp_path / f"{side}.ini"
            cfg.write_text(
                f"[model]\ngamma = {gamma}\n"
                "[grid]\ndim = 2\nn = 256\n[time]\nt_end = 0.04\ncadence = 2\n"
                "[ic]\npreset = random_smooth\nseed = 3\n"
                f"[output]\nsnapshot = {tmp_path / side}.snap\n"
            )
            csv = tmp_path / f"{side}.csv"
            if side == "here":
                assert main(["run", "--config", str(cfg), "--output", str(csv)]) == 0
            else:
                proc = _python(RUN_SCRIPT, cfg, csv)
                assert proc.returncode == 0, proc.stderr
            outputs.append((csv.read_bytes(), (tmp_path / f"{side}.snap").read_bytes()))
        assert outputs[0] == outputs[1]


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

    def test_lambda_symbol_takes_a_negative_power(self):
        g = Grid(1, 64, 2.0 * np.pi)
        f = SpectralField.from_physical(g, np.cos(4 * g.axis_points()))
        out = SpectralField(g, f.coef * g.lambda_symbol(-1.0)).to_physical()[0]
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
