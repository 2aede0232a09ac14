"""Periodic FFT grid and spectral field containers.

A real field is stored by its half spectrum, the ``numpy.fft.rfftn``
coefficients coef(k) = (1/n^dim) * sum_x f(x) e^{-i xi.x} (``norm="forward"``).
The leading axis of a 2D grid holds the integers k in [-n/2, n/2); the last
axis holds k = 0..n/2, so its Nyquist mode is +n/2.  The coefficients left
out are coef(-k) = conj(coef(k)); Plancherel therefore counts each stored
coefficient twice, except on the last-axis columns k = 0 and n/2, which hold
their own conjugates.  Physical wavenumbers are xi = 2*pi*k/L.

A ``Grid`` builds each Fourier symbol of its lattice once, read-only:
``wavenumbers``, ``xi_norm``, the Nyquist-zeroed ``xi_tilde`` with its
``xi_tilde_norm``, derivative symbol ``ixi`` and Riesz symbol ``riesz`` (the
one symbol of the Helmholtz split), the powers ``lambda_symbol`` and the
``plancherel_weights``.  Only the dyadic multipliers live in ``lp.LPDecomp``.
The 2/3 rule is written once, as the band: the coefficients with every
|k_i| <= K (K = ``dealias_cutoff``), of ``band_shape``: k = 0..K in 1D, and in
2D the columns k_2 = 0..K of the rows k_1 = 0..K, then -K..-1.  ``band``
gathers it from half-spectrum coefficients, and ``unband`` scatters it into
zeros, so ``unband(band(coef))`` is the dealiased ``coef``.

A ``Grid`` also makes every transform; no other module calls ``numpy.fft``.
``spectral`` and ``physical`` return a new array and leave their input as it
was.  ``bind`` is the one way to transform given buffers: it checks them once
and returns a call that runs the transform into its ``out``.  It also names
the band's transforms, "band_spectral" and "band_physical", which run through
a transform buffer the caller may give: the band is gathered from a forward
output and, in 2D, scattered into the kept columns of an inverse batch, whose
other rows are zeroed, unless it already sits there.  In 2D each transform
runs the 1D passes of ``rfftn`` or ``irfftn`` itself, in their order, so the
bits are theirs, over the kept columns only for the band.

Each pass calls NumPy's pocketfft gufuncs (``rfft_n_even``, ``irfft``, ``fft``,
``ifft`` of ``numpy.fft._pocketfft_umath``) directly, with the factors the
public functions pass for ``norm="forward"`` (1/n forward, 1 inverse) and an
explicit ``out``.  This skips the Python wrapper that ``numpy.fft`` runs on
every call (dtype resolution, the norm factor, the axis check and an output
allocation), most of a transform's cost on the small 1D grids of long runs.
The gufuncs are NumPy's own FFT since 2.0, the release that added them with
the ``out=`` the in-place passes need and the floor this package declares.
Their module is private, which is accepted because only this module refers to
it, and because the tests pin the bits of every transform here to the public
``numpy.fft.rfftn``/``irfftn`` on the shapes the code uses: a NumPy that moves
or changes them fails those tests rather than drifting.  The gufuncs take the
transform's length from their output, so ``Grid._passes``, which writes each
transform's pass list, checks that its input ends in ``shape`` (samples) or
``spectral_shape`` (coefficients) and its ``out`` in the result's last axis,
and raises ``GridError`` otherwise.  ``spectral`` and ``physical`` build the
list at each call; ``bind`` builds it once, so a caller that reuses its
buffers, like the plan of ``model``, skips the check at each call.

``two_halves(f)`` runs ``f(0)`` and ``f(1)`` at once: the caller takes one
half and one daemon helper thread, started on first use and afresh in a
forked child, the other; it returns, or raises a half's error, only when both
have ended, and ``f`` runs under the caller's ``np.errstate``.  ``half``
takes a contiguous half of an array, and ``splits(size)`` says where halves
pay: from ``_SPLIT_MIN`` = 2**16 half-spectrum coefficients on (``is_large``,
the size half of the rule, which the plan also reads), where the process may
use two CPUs or more (``os.sched_getaffinity``, read at import); they are the
one place that rule is written.

Every pass runs in the one loop of ``_run_passes``, which looks its gufunc up
on ``_pocketfft_umath`` at each call, so a counter that replaces that handle
sees every call: two for a pass that splits.  Each call of a transform asks
``splits`` once, for its batch, counted in half-spectrum coefficients also
for the band.  The gufuncs release the GIL for a whole pass, so a pass of a
batch that splits runs as two halves along axis -2: the rows in 2D and the
fields in 1D for a last-axis pass, and the columns for a leading-axis pass,
which is given the transposed views ``.mT``; the band's copies run in the
same halves as the pass they feed or follow.  Each line still meets the same
gufunc with the same factor, so every transform keeps its bits.  The plan of ``model`` runs its pointwise work between the
transforms on the same helper.  Two halves is the case that was measured;
more pieces wait for measurements on more CPUs.  With one CPU, below the
threshold (split, a 2D n=256 step is faster and a 2D n=64 one slower: README,
"Numerics") or with nothing to split (one 1D field), a pass is one gufunc
call.  No setting selects the path.  Transforms may be called from several
threads, which share the helper.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import math
import os
import queue
import threading
from dataclasses import dataclass, field

import numpy as np
from numpy.fft import _pocketfft_umath


class GridError(ValueError):
    """Invalid grid construction or mismatched grids."""


# the CPUs this process may run on, read once
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# work on this many half-spectrum coefficients, a transform's batch or a
# plan's state, runs as two halves (the crossover table is in README "Numerics")
_SPLIT_MIN = 2**16

_inbox = queue.SimpleQueue()  # the halves that the helper thread takes
_helper = None  # the helper thread, started on first use
_start_lock = threading.Lock()


def _serve(inbox: queue.SimpleQueue) -> None:
    while True:
        inbox.get()()


def _forget_helper() -> None:
    # a forked child has none of the parent's threads: it starts its own
    global _inbox, _helper, _start_lock
    _inbox, _helper, _start_lock = queue.SimpleQueue(), None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def is_large(size: int) -> bool:
    """Whether ``size`` coefficients are many enough to split, where two CPUs
    are usable (README, "Numerics")."""
    return size >= _SPLIT_MIN


def splits(size: int) -> bool:
    """Whether work on ``size`` coefficients runs as two halves (README, "Numerics")."""
    return is_large(size) and _CPUS >= 2


def half(a: np.ndarray, i: int, axis: int = -2) -> np.ndarray:
    """Half ``i`` (0 or 1) of ``a`` along ``axis``, or all of a broadcast ``a``."""
    m = a.shape[axis]
    rows = slice(None) if m == 1 else slice(None, m // 2) if i == 0 else slice(m // 2, None)
    return a[(Ellipsis, rows) + (slice(None),) * (-1 - axis)]


def two_halves(f) -> list:
    """``[f(0), f(1)]`` at once: the caller takes half 0 and the helper thread
    half 1, unless the caller is free first, so a helper that is slow to wake
    or busy stalls no one.  It returns, or raises the first error a half met,
    when both have ended; then no thread holds ``f``.  ``f`` runs in the
    caller's context, so under its ``np.errstate`` on either thread."""
    global _helper
    results, errors = [None, None], []
    taken, ended = itertools.count(), itertools.count(1)  # atomic under the GIL
    done = threading.Lock()
    done.acquire()  # released when the second half ends

    def work() -> None:
        for i in taken:
            if i > 1:
                return
            try:
                results[i] = f(i)
            except BaseException as exc:
                errors.append(exc)
            if next(ended) == 2:
                done.release()

    with _start_lock:
        if _helper is None:
            _helper = threading.Thread(target=_serve, args=(_inbox,), daemon=True)
            _helper.start()
    _inbox.put(functools.partial(contextvars.copy_context().run, work))
    work()
    done.acquire()
    found, results[:], f = results[:], (), None  # a late helper finds no half and no array
    if errors:
        raise errors[0]
    return found


def _run_passes(passes: list, size: int, out: np.ndarray) -> np.ndarray:
    """Run a transform's ``passes`` (``Grid._passes``), a list of groups of
    passes, in order and return ``out``.  Each pass is ``gufunc(a, fct,
    out=y)`` along the last axis, the gufunc looked up on ``_pocketfft_umath``
    at each call, or a "copy" of ``a`` into ``y``.  Where ``splits`` holds for
    the batch of ``size`` coefficients, a group runs by ``two_halves`` on the
    halves along axis -2, each half running its lines of every pass in turn
    and each line with the bits of one call; the group runs whole instead
    where a pass's ``a`` has no axis -2 to split or its batch is not ``y``'s.
    A leading-axis pass is given the transposed views ``.mT``, so it splits
    along the columns, and the copies of the band into or out of its buffer
    join its group, on the same columns."""
    split = splits(size)
    for group in passes:
        if split and all(a.ndim > 1 and a.shape[:-1] == y.shape[:-1] and a.shape[-2] > 1 for _, a, _, y in group):
            two_halves(lambda i: [_gufunc(g)(half(a, i), fct, out=half(y, i)) for g, a, fct, y in group])
        else:
            for gufunc, a, fct, y in group:
                _gufunc(gufunc)(a, fct, out=y)
    return out


def _gufunc(name: str):
    """The pass ``name``: "copy", or the pocketfft gufunc, looked up at each call."""
    return _copy if name == "copy" else getattr(_pocketfft_umath, name)


def _copy(a: np.ndarray, fct, out: np.ndarray) -> None:
    """The pass that moves coefficients between the band and a transform buffer."""
    np.copyto(out, a)


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _is_view(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether ``a`` and ``b`` are the same elements of the same memory."""
    return a.shape == b.shape and a.strides == b.strides and a.ctypes.data == b.ctypes.data


def read_only(arr: np.ndarray) -> np.ndarray:
    """Mark ``arr`` read-only, so that a shared cached array stays intact."""
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, L)^dim with n points per axis: ``dim``
    (1 or 2) and ``n`` (a power of two >= 8) are ints, NumPy's included."""

    dim: int
    n: int
    L: float

    def __post_init__(self):
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in (self.dim, self.n)):
            raise GridError(f"dim and n must be ints, got {self.dim!r} and {self.n!r}")
        if self.dim not in (1, 2):
            raise GridError(f"dim must be 1 or 2, got {self.dim}")
        if self.n < 8 or not _is_power_of_two(self.n):
            raise GridError(f"n must be a power of two >= 8, got {self.n}")
        if not 0 < self.L < np.inf:
            raise GridError(f"L must be finite and > 0, got {self.L}")

    @property
    def dx(self) -> float:
        return self.L / self.n

    @functools.cached_property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @functools.cached_property
    def spectral_shape(self) -> tuple:
        """Shape of the half spectrum: the last axis keeps k = 0..n/2."""
        return self.shape[:-1] + (self.n // 2 + 1,)

    @property
    def dealias_cutoff(self) -> int:
        """Largest |k| per axis that the 2/3 rule keeps: n // 3."""
        return self.n // 3

    @functools.cached_property
    def band_shape(self) -> tuple:
        """Shape of the band, the coefficients that the 2/3 rule keeps, every
        |k_i| <= K = ``dealias_cutoff``: k = 0..K in 1D, and in 2D the columns
        k_2 = 0..K of the rows k_1 = 0..K, then -K..-1."""
        K = self.dealias_cutoff
        return (2 * K + 1,) * (self.dim - 1) + (K + 1,)

    def _blocks(self, kept: np.ndarray, band: np.ndarray) -> list:
        """The (rows of ``kept``, the same modes of ``band``) view pairs, where
        ``kept`` holds the kept columns k_2 <= K, of all n rows in 2D; there
        they are transposed (``.mT``), so they split along the columns."""
        if self.dim == 1:
            return [(kept, band)]
        K = self.dealias_cutoff
        rows = [(slice(None, K + 1), slice(None, K + 1)), (slice(-K, None), slice(K + 1, None))]
        return [(kept[..., r, :].mT, band[..., b, :].mT) for r, b in rows]

    def band(self, coef: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """The band of half-spectrum coefficients ``coef``, copied into ``out``
        (a new array if None)."""
        if out is None:
            out = np.empty(coef.shape[: coef.ndim - self.dim] + self.band_shape, coef.dtype)
        for kept, b in self._blocks(coef[..., : self.dealias_cutoff + 1], out):
            b[...] = kept
        return out

    def unband(self, band: np.ndarray) -> np.ndarray:
        """The half-spectrum coefficients that hold ``band`` and are zero
        elsewhere, in a new array."""
        out = np.zeros(band.shape[: band.ndim - self.dim] + self.spectral_shape, band.dtype)
        for kept, b in self._blocks(out[..., : self.dealias_cutoff + 1], band):
            kept[...] = b
        return out

    def axis_points(self) -> np.ndarray:
        return np.arange(self.n) * self.dx

    def points(self):
        """Physical coordinates, one array per axis (broadcastable)."""
        x = self.axis_points()
        if self.dim == 1:
            return (x,)
        return tuple(np.meshgrid(x, x, indexing="ij"))

    def physical(self, coef: np.ndarray) -> np.ndarray:
        """Grid samples of any half-spectrum coefficients, in a new array that
        leaves ``coef`` as it was; leading axes are batched.  In 2D ``irfftn``'s
        passes, so its bits: ``ifft`` along the leading axis into a new array,
        then ``irfft``."""
        return _run_passes(*self._passes("physical", coef, None))

    def spectral(self, values: np.ndarray) -> np.ndarray:
        """Half-spectrum coefficients of real grid samples, in a new array that
        leaves ``values`` as they were; leading axes are batched.

        ``rfftn``'s two 1D passes in its order, so its bits: ``rfft`` along the
        last axis, then in 2D ``fft`` along the leading axis, in place.
        """
        return _run_passes(*self._passes("spectral", values, None))

    def bind(self, transform: str, a: np.ndarray, out: np.ndarray, work: np.ndarray = None):
        """The transform named ``transform`` of ``a`` into ``out``, as a call of
        no arguments that returns ``out``: for a caller that reuses its buffers,
        the shapes are checked once, here.  "spectral" and "physical" are the
        public transforms.  "band_spectral" gives the band (``band_shape``) of
        ``spectral``'s coefficients and "band_physical" the samples of band
        coefficients, which are ``physical``'s of the half spectrum that holds
        them and zeros elsewhere, bit for bit.  Each runs through the complex
        transform buffer ``work`` (a new one if None): the half spectrum for
        "band_spectral", whose band is gathered from it after the transform
        unless ``out`` is already that band, a view; and for "band_physical"
        in 2D the kept columns k_2 <= ``dealias_cutoff`` of all n rows, into
        which the band is scattered, with the masked rows zeroed, before the
        leading-axis ``ifft`` runs in place over them.  ``irfft`` zero-pads the
        other columns, so in 1D it reads the band itself.  Each call runs the
        transform's passes (``_run_passes``), looking up their gufuncs and
        asking ``splits`` afresh, so it has the bits of the public transform."""
        return functools.partial(_run_passes, *self._passes(transform, a, out, work))

    def _passes(self, transform: str, a: np.ndarray, out: np.ndarray, work=None) -> tuple:
        """The passes of ``transform`` from ``a`` into ``out`` in their order, as
        (gufunc or "copy", input, factor, output) tuples, the batch's size in
        half-spectrum coefficients, by which they split, and ``out``, made
        here if None."""
        if transform not in ("spectral", "physical", "band_spectral", "band_physical"):
            raise GridError(f"no transform {transform!r}")
        forward, band = transform.endswith("spectral"), transform.startswith("band")
        shape, result = self.shape, self.band_shape if band else self.spectral_shape
        if not forward:
            shape, result = result, shape
        # the gufuncs take a transform's length from their output, so an array of
        # another shape would make a transform of another length, not an error
        if a.shape[-self.dim :] != shape:
            raise GridError(f"input has shape {a.shape}, not {shape} per field")
        if out is not None and out.shape[-1] != result[-1]:  # numpy checks a's other axes
            raise GridError(f"out has shape {out.shape}, not {result} per field")
        fields, K = a.shape[: a.ndim - self.dim], self.dealias_cutoff
        kept = self.spectral_shape if forward else self.spectral_shape[:-1] + (K + 1,)
        if band and (forward or self.dim == 2):  # the transform buffer
            work = np.empty(fields + kept, complex) if work is None else work
            if work.shape[-1] != kept[-1]:
                raise GridError(f"work has shape {work.shape}, not {kept} per field")
        passes, size = [], math.prod(fields + self.spectral_shape)
        if not forward and self.dim == 2:  # ifft in place over the kept columns, or into rows
            rows = work if band else np.empty(a.shape, complex)
            group = (("ifft", (rows if band else a).mT, 1.0, rows.mT),)
            if band:  # after the band's scatter into the kept columns and zeros in the others
                zero = work[..., K + 1 : -K, :].mT
                scatter = [("copy", b, None, k) for k, b in self._blocks(work, a) if not _is_view(k, b)]
                group = (*scatter, ("copy", np.broadcast_to(0j, zero.shape), None, zero), *group)
            passes.append(group)
            a = rows
        if out is None:
            out = np.empty(fields + result, complex if forward else float)
        if not forward:
            return passes + [(("irfft", a, 1.0, out),)], size, out
        # rfft along the last axis, then in 2D fft along the leading one in
        # place, over the kept columns only for the band, whose gather joins
        # the last pass's group
        passes.append((("rfft_n_even", a, 1.0 / self.n, work if band else out),))
        y = work[..., : K + 1] if band else out
        if self.dim == 2:
            passes.append((("fft", y.mT, 1.0 / self.n, y.mT),))
        if band:
            passes[-1] += tuple(("copy", k, None, b) for k, b in self._blocks(y, out) if not _is_view(k, b))
        return passes, size, out

    @functools.lru_cache(maxsize=32)
    def wavenumbers(self):
        """Integer wavenumber arrays per axis on the half-spectrum lattice."""
        k = np.fft.fftfreq(self.n, d=1.0 / self.n)  # integers in [-n/2, n/2)
        k_last = np.fft.rfftfreq(self.n, d=1.0 / self.n)  # 0..n/2
        ks = (k_last,) if self.dim == 1 else np.meshgrid(k, k_last, indexing="ij")
        return tuple(read_only(k) for k in ks)

    def xi(self):
        """Physical wavenumber vectors per axis: 2*pi*k/L."""
        scale = 2.0 * np.pi / self.L
        return tuple(scale * k for k in self.wavenumbers())

    @functools.lru_cache(maxsize=32)
    def xi_norm(self) -> np.ndarray:
        """|xi| on the half-spectrum lattice."""
        return read_only(np.sqrt(sum(c**2 for c in self.xi())))

    @functools.lru_cache(maxsize=32)
    def xi_tilde(self):
        """Per-axis xi with the unpaired Nyquist mode |k| = n/2 zeroed:
        i*xi_tilde is the odd multiplier, so projections commute with derivatives."""
        return tuple(
            read_only(np.where(np.abs(k) == self.n // 2, 0.0, xi))
            for k, xi in zip(self.wavenumbers(), self.xi())
        )

    @functools.lru_cache(maxsize=32)
    def xi_tilde_norm(self) -> np.ndarray:
        """|xi_tilde|, the wavenumber magnitude the odd multipliers see."""
        return read_only(np.sqrt(sum(c**2 for c in self.xi_tilde())))

    @functools.lru_cache(maxsize=32)
    def ixi(self) -> np.ndarray:
        """The derivative symbols i*xi_tilde, stacked over the axes."""
        return read_only(np.stack([1j * xt for xt in self.xi_tilde()]))

    @functools.lru_cache(maxsize=32)
    def riesz(self) -> np.ndarray:
        """The Riesz symbols i*xi_tilde/|xi_tilde|, stacked over the axes like
        ``ixi``, with 0 where xi_tilde = 0: the Helmholtz split's one symbol."""
        xin = self.xi_tilde_norm()
        nz = xin > 0
        r = np.zeros_like(self.ixi())
        r[:, nz] = self.ixi()[:, nz] / xin[nz]
        return read_only(r)

    @functools.lru_cache(maxsize=32)
    def lambda_symbol(self, power: float) -> np.ndarray:
        """|xi|^power with the mean mode zeroed."""
        xi = self.xi_norm()
        mult = np.zeros_like(xi)
        nz = xi > 0
        mult[nz] = xi[nz] ** power
        return read_only(mult)

    @functools.lru_cache(maxsize=32)
    def plancherel_weights(self) -> np.ndarray:
        """Times each stored coefficient occurs in the full spectrum: once on
        the last-axis columns k = 0 and n/2, twice elsewhere."""
        w = np.full(self.spectral_shape, 2.0)
        w[..., 0] = w[..., -1] = 1.0
        return read_only(w)

    def cell_volume(self) -> float:
        return self.dx**self.dim

    def volume(self) -> float:
        return self.L**self.dim


@dataclass
class SpectralField:
    """Real scalar or vector field stored by its half spectrum.

    ``coef`` has shape (components,) + grid.spectral_shape and is complex.  A
    field built by ``from_physical`` keeps its exact samples for
    ``to_physical``, so its ``coef`` is read-only: a write cannot leave them stale.
    """

    grid: Grid
    coef: np.ndarray = field(repr=False)
    _phys: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.coef = np.asarray(self.coef, dtype=np.complex128)
        expect = self.grid.spectral_shape
        if self.coef.shape[1:] != expect:
            raise GridError(
                f"coefficient shape {self.coef.shape} incompatible with grid {expect}"
            )

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_physical(cls, grid: Grid, values: np.ndarray) -> "SpectralField":
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == grid.dim:
            values = values[np.newaxis]
        if values.shape[1:] != grid.shape:
            raise GridError(
                f"sample shape {values.shape} incompatible with grid {grid.shape}"
            )
        # keep the exact samples so to_physical() round-trips bitwise
        return cls(grid, read_only(grid.spectral(values)), values.copy())

    @classmethod
    def zeros(cls, grid: Grid, components: int = 1) -> "SpectralField":
        return cls(grid, np.zeros((components,) + grid.spectral_shape, dtype=np.complex128))

    # -- basic properties ---------------------------------------------------

    @property
    def components(self) -> int:
        return self.coef.shape[0]

    @property
    def is_scalar(self) -> bool:
        return self.components == 1

    def to_physical(self) -> np.ndarray:
        if self._phys is not None:
            return self._phys.copy()
        return self.grid.physical(self.coef)

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coef.copy())

    def component(self, i: int) -> "SpectralField":
        return SpectralField(self.grid, self.coef[i : i + 1].copy())

    def mean(self) -> np.ndarray:
        """Spatial mean of each component."""
        idx = (slice(None),) + (0,) * self.grid.dim
        return np.real(self.coef[idx])

    def mean_free(self) -> "SpectralField":
        out = self.copy()
        idx = (slice(None),) + (0,) * self.grid.dim
        out.coef[idx] = 0.0
        return out

    def l2(self) -> float:
        """Physical L2 norm via Plancherel."""
        return float(np.sqrt(self.inner(self)))

    def inner(self, other: "SpectralField") -> float:
        """Real L2 inner product (self | other) via Plancherel."""
        prod = np.real(np.conj(self.coef) * other.coef)
        return float(np.sum(self.grid.plancherel_weights() * prod) * self.grid.volume())

    # -- arithmetic ---------------------------------------------------------

    def _check_same_grid(self, other: "SpectralField"):
        if self.grid != other.grid:
            raise GridError("fields live on different grids")

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check_same_grid(other)
        return SpectralField(self.grid, self.coef + other.coef)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check_same_grid(other)
        return SpectralField(self.grid, self.coef - other.coef)

    def __mul__(self, scalar) -> "SpectralField":
        return SpectralField(self.grid, self.coef * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.grid, -self.coef)
