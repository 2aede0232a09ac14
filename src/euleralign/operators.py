"""Fourier multiplier operators on spectral fields.

Conventions:
  * the fractional Laplacian is the multiplier |xi|^alpha with the mean mode
    annihilated;
  * odd multipliers (derivatives, grad, div, Lambda^{-1} div) zero the
    unpaired Nyquist mode to keep real fields real;
  * even multipliers act on the Nyquist mode normally.
"""

from __future__ import annotations

import functools

import numpy as np

from .grid import Grid, GridError, SpectralField, read_only

__all__ = [
    "fractional_laplacian",
    "spectral_derivative",
    "gradient",
    "divergence",
    "leray_project",
    "lambda_inv_div",
    "heat_semigroup",
    "dealias",
    "ParameterError",
]


class ParameterError(ValueError):
    """Operator parameter outside its admissible range."""


def _apply_scalar_multiplier(f: SpectralField, mult: np.ndarray) -> SpectralField:
    return SpectralField(f.grid, f.coef * mult[np.newaxis])


@functools.lru_cache(maxsize=32)
def _lambda_symbol(grid: Grid, power: float) -> np.ndarray:
    """|xi|^power with the mean mode zeroed, built once per (grid, power)."""
    xi = grid.xi_norm()
    mult = np.zeros_like(xi)
    nz = xi > 0
    mult[nz] = xi[nz] ** power
    return read_only(mult)


@functools.lru_cache(maxsize=32)
def _xi_tilde(grid: Grid):
    """Per-axis xi with the unpaired Nyquist mode zeroed, built once per grid:
    i*xi_tilde is the odd multiplier, so projections commute with derivatives."""
    return tuple(
        read_only(np.where(np.abs(k) == grid.n // 2, 0.0, xi))
        for k, xi in zip(grid.wavenumbers(), grid.xi())
    )


@functools.lru_cache(maxsize=32)
def _xi_tilde_norm(grid: Grid) -> np.ndarray:
    """|xi_tilde|, the wavenumber magnitude the odd multipliers see."""
    return read_only(np.sqrt(sum(c**2 for c in _xi_tilde(grid))))


def _heat_multiplier(grid: Grid, alpha: float, mu: float, t: float) -> np.ndarray:
    """Symbol e^{-mu t |xi|^alpha} of the fractional heat semigroup."""
    return np.exp(-mu * t * _lambda_symbol(grid, alpha))


def fractional_laplacian(f: SpectralField, alpha: float) -> SpectralField:
    """Lambda^alpha f via the symbol |xi|^alpha; mean mode annihilated.

    ``alpha`` may be any real in (0, 4) so that composed applications
    (e.g. Lambda^{alpha-1} for alpha in (1,2)) reuse the same routine;
    callers enforcing the model range check alpha in (0, 2) themselves.
    """
    if not (0.0 < alpha < 4.0):
        raise ParameterError(f"alpha must lie in (0, 4), got {alpha}")
    return lambda_power(f, alpha)


def lambda_power(f: SpectralField, power: float) -> SpectralField:
    """|xi|^power multiplier with the mean mode zeroed (any real power)."""
    return _apply_scalar_multiplier(f, _lambda_symbol(f.grid, power))


def spectral_derivative(f: SpectralField, axis: int = 0) -> SpectralField:
    """Partial derivative along one axis (odd multiplier, Nyquist zeroed)."""
    if axis < 0 or axis >= f.grid.dim:
        raise GridError(f"axis {axis} out of range for dim {f.grid.dim}")
    return _apply_scalar_multiplier(f, 1j * _xi_tilde(f.grid)[axis])


def gradient(f: SpectralField) -> SpectralField:
    """Gradient of a scalar field; result has dim components."""
    if not f.is_scalar:
        raise GridError("gradient expects a scalar field")
    parts = [f.coef[0] * (1j * xt) for xt in _xi_tilde(f.grid)]
    return SpectralField(f.grid, np.stack(parts))


def divergence(u: SpectralField) -> SpectralField:
    """Divergence of a vector field; result is scalar."""
    if u.components != u.grid.dim:
        raise GridError(
            f"divergence expects {u.grid.dim} components, got {u.components}"
        )
    out = sum(u.coef[ax] * (1j * xt) for ax, xt in enumerate(_xi_tilde(u.grid)))
    return SpectralField(u.grid, out[np.newaxis])


def leray_project(u: SpectralField) -> SpectralField:
    """Projection onto divergence-free fields: coef'(k) = (I - xi xi^T/|xi|^2) coef(k).

    The mean mode passes through unchanged.  In 1D the projector removes all
    non-mean content.
    """
    if u.components != u.grid.dim:
        raise GridError(
            f"leray_project expects {u.grid.dim} components, got {u.components}"
        )
    xi = _xi_tilde(u.grid)
    xi2 = sum(c**2 for c in xi)
    safe = np.where(xi2 > 0, xi2, 1.0)
    dot = sum(xi[ax] * u.coef[ax] for ax in range(u.grid.dim))
    out = np.empty_like(u.coef)
    for ax in range(u.grid.dim):
        out[ax] = u.coef[ax] - np.where(xi2 > 0, xi[ax] * dot / safe, 0.0)
    return SpectralField(u.grid, out)


def lambda_inv_div(u: SpectralField) -> SpectralField:
    """Compressible component d = Lambda^{-1} Div u; mean mode set to 0."""
    if u.components != u.grid.dim:
        raise GridError(
            f"lambda_inv_div expects {u.grid.dim} components, got {u.components}"
        )
    xin = _xi_tilde_norm(u.grid)
    safe = np.where(xin > 0, xin, 1.0)
    div = divergence(u).coef[0]
    d = np.where(xin > 0, div / safe, 0.0)
    return SpectralField(u.grid, d[np.newaxis])


def grad_lambda_inv(d: SpectralField) -> SpectralField:
    """-grad Lambda^{-1} d, the compressible velocity carried by d."""
    if not d.is_scalar:
        raise GridError("grad_lambda_inv expects a scalar field")
    xin = _xi_tilde_norm(d.grid)
    safe = np.where(xin > 0, xin, 1.0)
    base = np.where(xin > 0, d.coef[0] / safe, 0.0)
    parts = [-base * (1j * xt) for xt in _xi_tilde(d.grid)]
    return SpectralField(d.grid, np.stack(parts))


def heat_semigroup(f: SpectralField, alpha: float, mu: float, t: float) -> SpectralField:
    """Fractional heat semigroup e^{-mu t Lambda^alpha} f."""
    if not 0 <= t < np.inf:
        raise ParameterError(f"t must be finite and >= 0, got {t}")
    if not mu > 0:
        raise ParameterError(f"mu must be > 0, got {mu}")
    if not (0.0 < alpha < 2.0):
        raise ParameterError(f"alpha must lie in (0, 2), got {alpha}")
    return _apply_scalar_multiplier(f, _heat_multiplier(f.grid, alpha, mu, t))


def dealias(f: SpectralField) -> SpectralField:
    """Zero all coefficients with any |k_i| > n/3 (2/3 rule); idempotent."""
    return _apply_scalar_multiplier(f, f.grid.dealias_mask())


def physical_product(f: SpectralField, g: SpectralField) -> SpectralField:
    """Pointwise product computed pseudospectrally, dealiased."""
    if f.grid != g.grid:
        raise GridError("fields live on different grids")
    if f.is_scalar:
        vals = f.to_physical()[0] * g.to_physical()
    elif g.is_scalar:
        vals = f.to_physical() * g.to_physical()[0]
    else:
        raise GridError("one factor must be scalar")
    out = SpectralField.from_physical(f.grid, vals)
    return dealias(out)
