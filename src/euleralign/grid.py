"""Periodic FFT grid and spectral field containers.

All spectral data uses the normalization coef(k) = (1/n^dim) * sum_x f(x) e^{-i xi.x},
i.e. numpy's forward FFT divided by the number of grid points.  Physical
wavenumbers are xi = 2*pi*k/L with integer k per axis in [-n/2, n/2).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Grid", "SpectralField", "GridError"]


class GridError(ValueError):
    """Invalid grid construction or mismatched grids."""


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
        if not (self.L > 0):
            raise GridError(f"L must be positive, got {self.L}")

    @property
    def dx(self) -> float:
        return self.L / self.n

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    def axis_points(self) -> np.ndarray:
        return np.arange(self.n) * self.dx

    def points(self):
        """Physical coordinates, one array per axis (broadcastable)."""
        x = self.axis_points()
        if self.dim == 1:
            return (x,)
        return tuple(np.meshgrid(x, x, indexing="ij"))

    @functools.lru_cache(maxsize=32)
    def wavenumbers(self):
        """Integer wavenumber arrays per axis, broadcast against grid shape."""
        k = np.fft.fftfreq(self.n, d=1.0 / self.n)  # integers in [-n/2, n/2)
        ks = (k,) if self.dim == 1 else np.meshgrid(k, k, indexing="ij")
        return tuple(read_only(k) for k in ks)

    def xi(self):
        """Physical wavenumber vectors per axis: 2*pi*k/L."""
        scale = 2.0 * np.pi / self.L
        return tuple(scale * k for k in self.wavenumbers())

    @functools.lru_cache(maxsize=32)
    def xi_norm(self) -> np.ndarray:
        """|xi| on the full frequency lattice."""
        return read_only(np.sqrt(sum(c**2 for c in self.xi())))

    @functools.lru_cache(maxsize=32)
    def nyquist_mask(self) -> np.ndarray:
        """True at indices where any axis sits on the unpaired Nyquist mode."""
        on_nyquist = [k == -self.n // 2 for k in self.wavenumbers()]
        return read_only(np.logical_or.reduce(on_nyquist))

    @functools.lru_cache(maxsize=32)
    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask: True where a coefficient is kept."""
        keep = [np.abs(k) <= self.n / 3.0 for k in self.wavenumbers()]
        return read_only(np.logical_and.reduce(keep))

    def cell_volume(self) -> float:
        return self.dx**self.dim

    def volume(self) -> float:
        return self.L**self.dim


@dataclass
class SpectralField:
    """Scalar or vector field stored as Fourier coefficients.

    ``coef`` has shape (components,) + grid.shape and is complex.  A field
    representing real data satisfies conjugate symmetry coef(-k) = conj(coef(k)).
    """

    grid: Grid
    coef: np.ndarray = field(repr=False)
    _phys: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.coef = np.asarray(self.coef, dtype=np.complex128)
        expect = self.grid.shape
        if self.coef.ndim == self.grid.dim:
            self.coef = self.coef[np.newaxis]
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
        axes = tuple(range(1, grid.dim + 1))
        coef = np.fft.fftn(values, axes=axes) / grid.n**grid.dim
        # keep the exact samples so to_physical() round-trips bitwise
        return cls(grid, coef, values.copy())

    @classmethod
    def zeros(cls, grid: Grid, components: int = 1) -> "SpectralField":
        return cls(grid, np.zeros((components,) + grid.shape, dtype=np.complex128))

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
        axes = tuple(range(1, self.grid.dim + 1))
        vals = np.fft.ifftn(self.coef * self.grid.n**self.grid.dim, axes=axes)
        return np.real(vals)

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
        return float(
            np.sqrt(np.sum(np.abs(self.coef) ** 2) * self.grid.volume())
        )

    def conj_symmetry_defect(self) -> float:
        """Max relative deviation from conjugate symmetry."""
        axes = tuple(range(1, self.grid.dim + 1))
        flipped = self.coef.copy()
        for ax in axes:
            flipped = np.flip(flipped, axis=ax)
            flipped = np.roll(flipped, 1, axis=ax)
        scale = np.max(np.abs(self.coef)) or 1.0
        return float(np.max(np.abs(self.coef - np.conj(flipped))) / scale)

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
