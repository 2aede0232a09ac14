"""Besov-type norms and Bony paraproduct machinery on dyadic blocks.

All norms are L2-based (p = 2); the mean mode is excluded throughout, per the
homogeneous convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .grid import GridError, SpectralField
from .lp import LPDecomp
from .operators import dealias, physical_product

__all__ = [
    "NormSpec",
    "NormTrace",
    "besov_norm",
    "chemin_lerner",
    "bony_decompose",
    "DataError",
]


class DataError(ValueError):
    """Non-finite or otherwise unusable numerical input."""


@dataclass(frozen=True)
class NormSpec:
    """Specification of a dyadic norm.

    kind:
      * "homogeneous": sum_j 2^{js} ||Delta_j f|| (r=1) or sup_j (r=inf)
      * "hybrid":      sum_{j<=j0} 2^{j s1} + sum_{j>j0} 2^{j s2}
      * "low"/"high":  the restricted partial sums of the homogeneous norm,
                       split at j0 (low: j <= j0, high: j > j0)
    """

    kind: str
    s: float = 0.0
    s2: float = 0.0
    r: float = 1
    j0: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("homogeneous", "hybrid", "low", "high"):
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if not (np.isfinite(self.s) and np.isfinite(self.s2)):
            raise ValueError(f"norm exponents must be finite, got {self.s}, {self.s2}")
        if self.r not in ((1,) if self.kind == "hybrid" else (1, np.inf)):
            raise ValueError(f"r must be 1 (or inf unless hybrid), got {self.r}")
        if self.kind in ("hybrid", "low", "high") and self.j0 is None:
            raise ValueError(f"{self.kind} norm requires a split index j0")

    @classmethod
    def homogeneous(cls, s: float, r: float = 1) -> "NormSpec":
        return cls("homogeneous", s=s, r=r)

    @classmethod
    def hybrid(cls, s1: float, s2: float, j0: int) -> "NormSpec":
        return cls("hybrid", s=s1, s2=s2, j0=j0)

    @classmethod
    def restricted(cls, s: float, part: str, j0: int, r: float = 1) -> "NormSpec":
        if part not in ("low", "high"):
            raise ValueError(f"part must be 'low' or 'high', got {part!r}")
        return cls(part, s=s, r=r, j0=j0)


def _combine(weights: np.ndarray, block_norms: np.ndarray, r: float) -> float:
    vals = weights * block_norms
    if r == 1:
        return float(np.add.reduce(vals))
    return float(np.maximum.reduce(vals)) if vals.size else 0.0


def besov_norm(
    f: SpectralField, spec: NormSpec, lp: Optional[LPDecomp] = None
) -> float:
    """Evaluate a Besov-type norm from dyadic block L2 norms."""
    if not np.all(np.isfinite(f.coef)):
        raise DataError("field contains non-finite coefficients")
    if lp is None:
        lp = LPDecomp.for_grid(f.grid)
    js = np.array(lp.j_range)
    bn = lp.block_norms(f)
    return besov_norm_from_blocks(js, bn, spec)


def besov_norm_from_blocks(js: np.ndarray, block_norms: np.ndarray, spec: NormSpec) -> float:
    """Same as :func:`besov_norm`, from precomputed per-block L2 norms."""
    js = np.asarray(js, dtype=float)
    bn = np.asarray(block_norms, dtype=float)
    if spec.kind == "homogeneous":
        return _combine(2.0 ** (js * spec.s), bn, spec.r)
    if spec.kind == "hybrid":
        low = js <= spec.j0
        return float(
            np.add.reduce(2.0 ** (js[low] * spec.s) * bn[low])
            + np.add.reduce(2.0 ** (js[~low] * spec.s2) * bn[~low])
        )
    sel = js <= spec.j0 if spec.kind == "low" else js > spec.j0
    return _combine(2.0 ** (js[sel] * spec.s), bn[sel], spec.r)


def chemin_lerner(
    times: np.ndarray,
    block_norms: np.ndarray,
    js: np.ndarray,
    q: float,
    spec: NormSpec,
) -> float:
    """Time-integrated dyadic norm (time-Lebesgue inside the block sum).

    ``block_norms`` has shape (len(times), len(js)) and holds per-block L2
    norms of the field along the trace.  q = inf takes the per-block max over
    time; q = 1 integrates each block norm with the trapezoid rule.
    """
    times = np.asarray(times, dtype=float)
    block_norms = np.asarray(block_norms, dtype=float)
    if q == 1 and len(times) < 2:
        raise DataError("q=1 Chemin-Lerner norm needs at least 2 samples")
    if q == np.inf:
        per_block = np.max(block_norms, axis=0)
    elif q == 1:
        per_block = np.trapezoid(block_norms, times, axis=0)
    else:
        raise ValueError(f"q must be 1 or inf, got {q}")
    return besov_norm_from_blocks(js, per_block, spec)


@dataclass
class NormTrace:
    """Time series of named norm / diagnostic values, in the ``columns`` it is
    built with (one of them "t"); a trace with no rows still has them."""

    columns: list
    rows: list = field(default_factory=list)
    status: str = "ok"

    def append(self, values: dict):
        self.rows.append([values[c] for c in self.columns])

    def column(self, name: str) -> np.ndarray:
        i = self.columns.index(name)
        return np.array([r[i] for r in self.rows])

    @property
    def t(self) -> np.ndarray:
        return self.column("t")


def bony_decompose(f: SpectralField, g: SpectralField, lp: Optional[LPDecomp] = None):
    """Bony decomposition of the (dealiased) product of two scalar fields.

    Returns (T_f g, T_g f, R(f, g)); the three parts sum to the dealiased
    pointwise product of the mean-free parts.  Out-of-range block interactions
    of the finite dyadic range are attributed to R by construction.
    """
    if f.grid != g.grid:
        raise GridError("fields live on different grids")
    if not (f.is_scalar and g.is_scalar):
        raise GridError("bony_decompose expects scalar fields")
    if lp is None:
        lp = LPDecomp.for_grid(f.grid)

    f = dealias(f.mean_free())
    g = dealias(g.mean_free())

    def paraproduct(a: SpectralField, b: SpectralField) -> SpectralField:
        out = SpectralField.zeros(a.grid)
        for j in lp.j_range:
            low = lp.low_pass(a, j - 1)
            blk = lp.dyadic_block(b, j)
            out = out + physical_product(low, blk)
        return out

    t_fg = paraproduct(f, g)
    t_gf = paraproduct(g, f)

    remainder = SpectralField.zeros(f.grid)
    for j in lp.j_range:
        blk_f = lp.dyadic_block(f, j)
        near = (
            lp.dyadic_block(g, j - 1) + lp.dyadic_block(g, j) + lp.dyadic_block(g, j + 1)
        )
        remainder = remainder + physical_product(blk_f, near)

    return t_fg, t_gf, remainder
