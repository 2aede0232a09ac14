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
one symbol of the Helmholtz split), the powers ``lambda_symbol``, the 2/3
rule's ``dealias_mask`` and ``dealias_cutoff``, and the ``plancherel_weights``.
Only the dyadic multipliers live in ``lp.LPDecomp``.

A ``Grid`` also makes every transform; no other module calls ``numpy.fft``:
the general pair ``spectral``/``physical``, and ``band_physical``, the faster
inverse of coefficients that the 2/3 rule has masked.  In 2D each runs the 1D
passes of ``rfftn`` or ``irfftn`` itself, in their order, so the bits are theirs.

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
or changes them fails those tests rather than drifting.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from numpy.fft import _pocketfft_umath

__all__ = ["Grid", "SpectralField", "GridError"]


class GridError(ValueError):
    """Invalid grid construction or mismatched grids."""


# the gufunc ``axes`` of a pass along the leading axis of a 2D batch
_LEADING_AXIS = [(-2,), (), (-2,)]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def read_only(arr: np.ndarray) -> np.ndarray:
    """Mark ``arr`` read-only, so that a shared cached array stays intact."""
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, L)^dim with n points per axis."""

    dim: int
    n: int
    L: float

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise GridError(f"dim must be 1 or 2, got {self.dim}")
        if self.n < 8 or not _is_power_of_two(self.n):
            raise GridError(f"n must be a power of two >= 8, got {self.n}")
        if not 0 < self.L < np.inf:
            raise GridError(f"L must be finite and > 0, got {self.L}")

    @property
    def dx(self) -> float:
        return self.L / self.n

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @property
    def spectral_shape(self) -> tuple:
        """Shape of the half spectrum: the last axis keeps k = 0..n/2."""
        return self.shape[:-1] + (self.n // 2 + 1,)

    @property
    def dealias_cutoff(self) -> int:
        """Largest |k| per axis that the 2/3 rule keeps: n // 3."""
        return self.n // 3

    def axis_points(self) -> np.ndarray:
        return np.arange(self.n) * self.dx

    def points(self):
        """Physical coordinates, one array per axis (broadcastable)."""
        x = self.axis_points()
        if self.dim == 1:
            return (x,)
        return tuple(np.meshgrid(x, x, indexing="ij"))

    def physical(self, coef: np.ndarray) -> np.ndarray:
        """Grid samples of any half-spectrum coefficients; leading axes are
        batched.  In 2D ``irfftn``'s passes, so its bits: ``ifft`` along the
        leading axis into a new array, then ``irfft``."""
        if self.dim == 2:
            coef = _pocketfft_umath.ifft(
                coef, 1.0, axes=_LEADING_AXIS, out=np.empty(coef.shape, complex)
            )
        return _pocketfft_umath.irfft(coef, 1.0, out=np.empty(coef.shape[:-1] + (self.n,)))

    def band_physical(self, coef: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """``physical`` of coefficients that ``dealias_mask`` has zeroed, bit for
        bit, into ``out`` if given.  In 2D the leading-axis ``ifft`` runs in place
        over the last-axis columns k <= ``dealias_cutoff`` that the rule keeps,
        overwriting them in ``coef``, and ``irfft`` zero-pads the others."""
        if self.dim == 2:
            kept = coef[..., : self.dealias_cutoff + 1]
            coef = _pocketfft_umath.ifft(kept, 1.0, axes=_LEADING_AXIS, out=kept)
        if out is None:
            out = np.empty(coef.shape[:-1] + (self.n,))
        return _pocketfft_umath.irfft(coef, 1.0, out=out)

    def spectral(self, values: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """Half-spectrum coefficients of real grid samples; leading axes are batched.

        ``rfftn``'s two 1D passes in its order, so its bits: ``rfft`` along the
        last axis, then in 2D ``fft`` along the leading axis, in place.  The
        coefficients go to ``out`` if given.
        """
        if out is None:
            out = np.empty(values.shape[:-1] + (self.n // 2 + 1,), complex)
        coef = _pocketfft_umath.rfft_n_even(values, 1.0 / self.n, out=out)
        if self.dim == 2:
            _pocketfft_umath.fft(coef, 1.0 / self.n, axes=_LEADING_AXIS, out=coef)
        return coef

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
    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask: True where every |k_i| <= ``dealias_cutoff``."""
        keep = [np.abs(k) <= self.dealias_cutoff for k in self.wavenumbers()]
        return read_only(np.logical_and.reduce(keep))

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
