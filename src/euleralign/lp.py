"""Littlewood-Paley dyadic decomposition on the discrete frequency lattice.

The dyadic profile is phi(xi) = chi(xi/2) - chi(xi), built from a smooth
radial cutoff chi that equals 1 for |xi| <= 3/4 and 0 for |xi| >= 4/3.  The
transition uses the classical exp(-1/x) glue, so phi is supported in the
annulus {3/4 <= |xi| <= 8/3} and the shifted profiles telescope exactly to a
partition of unity away from the origin.

``LPDecomp`` builds each block multiplier phi_j and low-pass multiplier chi_j
once (memoised, read-only, shared by equal decompositions).  The block-norm
table ``block_table`` keeps phi_j^2 * w (w: Plancherel weights) where it is
!= 0, not where phi_j is (the square underflows), and keeps no phi_j itself.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .grid import Grid, SpectralField, read_only

_CHI_LO = 0.75
_CHI_HI = 4.0 / 3.0


def _glue(x: np.ndarray) -> np.ndarray:
    """exp(-1/x) for x > 0, 0 otherwise (C^infinity)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = np.exp(-1.0 / x[pos])
    return out


def chi_profile(r) -> np.ndarray:
    """Smooth radial cutoff: 1 for r <= 3/4, 0 for r >= 4/3."""
    t = (np.asarray(r, dtype=np.float64) - _CHI_LO) / (_CHI_HI - _CHI_LO)
    # one glue is > 0 at every r, so the plateaus come out as 1.0 and +0.0
    up = _glue(1.0 - t)
    return up / (up + _glue(t))


def phi_profile(r) -> np.ndarray:
    """Dyadic bump phi(r) = chi(r/2) - chi(r), supported in [3/4, 8/3]."""
    r = np.asarray(r, dtype=np.float64)
    return chi_profile(r / 2.0) - chi_profile(r)


@dataclass(frozen=True)
class LPDecomp:
    """Dyadic block machinery tied to one grid.

    j_min/j_max bracket the dyadic annuli that meet the band the grid's 2/3
    rule keeps (``Grid.dealias_cutoff`` K, |xi_K| = 2 pi K / L): 2^{j_max} >=
    |xi_K|, so block j_max + 1, which starts at 1.5 * 2^{j_max}, lies past
    every band mode, the 2D corner sqrt(2) |xi_K| included.  On band-limited
    fields the blocks outside the range are identically zero.
    """

    grid: Grid
    j_min: int
    j_max: int

    @classmethod
    def for_grid(cls, grid: Grid) -> "LPDecomp":
        j_min = int(np.floor(np.log2(2.0 * np.pi / grid.L))) - 1
        j_max = int(np.ceil(np.log2(np.pi * grid.dealias_cutoff / grid.L))) + 1
        return cls(grid, j_min, j_max)

    @property
    def j_range(self) -> range:
        return range(self.j_min, self.j_max + 1)

    def _phi(self, j: int) -> np.ndarray:
        return phi_profile(self.grid.xi_norm() * 2.0 ** (-j))

    # maxsize fits every block one decomposition uses (j_min-1 .. j_max+1)
    @functools.lru_cache(maxsize=32)
    def block_multiplier(self, j: int) -> np.ndarray:
        """phi(2^{-j} xi) on the grid's frequency lattice."""
        return read_only(self._phi(j))

    @functools.lru_cache(maxsize=32)
    def lowpass_multiplier(self, j: int) -> np.ndarray:
        """chi(2^{-j} xi) with the mean mode excluded (mean-free convention)."""
        xi = self.grid.xi_norm()
        return read_only(np.where(xi > 0, chi_profile(xi * 2.0 ** (-j)), 0.0))

    @functools.lru_cache(maxsize=8)
    def block_table(self) -> tuple:
        """The flat indices where phi_j^2 * w != 0 and its values there, for
        each j in j_range in turn, in two read-only arrays, and each block's
        slice of them.  The arrays are filled in place, from a first pass that counts
        the entries: at 2D n=256 joining per-block arrays would hold the
        table twice, and that transient raised a run's peak RSS."""
        def weights(j):
            return (self._phi(j) ** 2 * self.grid.plancherel_weights()).ravel()

        ends = np.cumsum([0] + [np.count_nonzero(weights(j)) for j in self.j_range])
        idx, w2 = np.empty(ends[-1], np.intp), np.empty(ends[-1])
        for j, a, b in zip(self.j_range, ends[:-1], ends[1:]):
            w = weights(j)
            idx[a:b] = np.flatnonzero(w)
            w2[a:b] = w[idx[a:b]]
        return read_only(idx), read_only(w2), tuple(map(slice, ends[:-1], ends[1:]))

    def dyadic_block(self, f: SpectralField, j: int) -> SpectralField:
        """Delta_j f = phi(2^{-j} D) f; zero outside [j_min-1, j_max+1]."""
        if j < self.j_min - 1 or j > self.j_max + 1:
            return SpectralField.zeros(f.grid, f.components)
        return SpectralField(f.grid, f.coef * self.block_multiplier(j)[np.newaxis])

    def low_pass(self, f: SpectralField, j: int) -> SpectralField:
        """S_j f = sum_{k <= j-1} Delta_k f, mean mode excluded."""
        if j <= self.j_min:
            return SpectralField.zeros(f.grid, f.components)
        return SpectralField(f.grid, f.coef * self.lowpass_multiplier(j)[np.newaxis])

    def block_norms(self, f: SpectralField) -> np.ndarray:
        """L2 norms of all blocks (vector fields: joint l2 over components)."""
        energy = np.add.reduce(np.abs(f.coef) ** 2, axis=0).ravel()
        idx, w2, blocks = self.block_table()
        vals, vol = energy.take(idx), self.grid.volume()
        vals *= w2  # one take and one product for all blocks
        return np.sqrt([np.add.reduce(vals[b]) * vol for b in blocks])

    def partition_defect(self) -> float:
        """Max |sum_j phi_j(xi) - 1| over the frequencies 2 pi / L <= |xi| <= |xi_K|."""
        xi = self.grid.xi_norm()
        lo = 2.0 * np.pi / self.grid.L
        hi = self.grid.dealias_cutoff * (2.0 * np.pi / self.grid.L)
        sel = (xi >= lo) & (xi <= hi)
        total = sum(self.block_multiplier(j) for j in self.j_range)
        return float(np.max(np.abs(total[sel] - 1.0)))
