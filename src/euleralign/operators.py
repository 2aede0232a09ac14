"""Fourier multiplier operators on spectral fields.

Each multiplier is a symbol the field's ``Grid`` builds once: ``ixi``,
``riesz``, ``lambda_symbol`` or ``dealias_mask``.  The Helmholtz split takes
the one Riesz symbol R = i xi_tilde/|xi_tilde|: d = Lambda^{-1} Div u = R.u,
its velocity -R d, and the Leray projection u minus that velocity.

Conventions:
  * the fractional Laplacian is the multiplier |xi|^alpha with the mean mode
    annihilated;
  * odd multipliers (derivatives, grad, div, Lambda^{-1} div) zero the
    unpaired Nyquist mode to keep real fields real;
  * even multipliers act on the Nyquist mode normally.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid, GridError, SpectralField

__all__ = [
    "fractional_laplacian",
    "spectral_derivative",
    "gradient",
    "divergence",
    "leray_project",
    "lambda_inv_div",
    "heat_semigroup",
    "heat_multiplier",
    "dealias",
    "ParameterError",
]


class ParameterError(ValueError):
    """Operator parameter outside its admissible range."""


def heat_multiplier(grid: Grid, alpha: float, mu: float, t: float) -> np.ndarray:
    """Symbol e^{-mu t |xi|^alpha} of the fractional heat semigroup."""
    return np.exp(-mu * t * grid.lambda_symbol(alpha))


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
    return SpectralField(f.grid, f.coef * f.grid.lambda_symbol(power))


def spectral_derivative(f: SpectralField, axis: int = 0) -> SpectralField:
    """Partial derivative along one axis (odd multiplier, Nyquist zeroed)."""
    if axis < 0 or axis >= f.grid.dim:
        raise GridError(f"axis {axis} out of range for dim {f.grid.dim}")
    return SpectralField(f.grid, f.coef * f.grid.ixi()[axis])


def gradient(f: SpectralField) -> SpectralField:
    """Gradient of a scalar field; result has dim components."""
    if not f.is_scalar:
        raise GridError("gradient expects a scalar field")
    return SpectralField(f.grid, f.coef[0] * f.grid.ixi())


def divergence(u: SpectralField) -> SpectralField:
    """Divergence of a vector field; result is scalar."""
    if u.components != u.grid.dim:
        raise GridError(
            f"divergence expects {u.grid.dim} components, got {u.components}"
        )
    out = sum(u.coef * u.grid.ixi())
    return SpectralField(u.grid, out[np.newaxis])


def leray_project(u: SpectralField) -> SpectralField:
    """Projection onto divergence-free fields: u minus its compressible part,
    coef'(k) = (I - xi xi^T/|xi|^2) coef(k) with xi = xi_tilde.

    The mean mode passes through unchanged.  In 1D the projector removes all
    non-mean content.
    """
    if u.components != u.grid.dim:
        raise GridError(
            f"leray_project expects {u.grid.dim} components, got {u.components}"
        )
    return u - grad_lambda_inv(lambda_inv_div(u))


def lambda_inv_div(u: SpectralField) -> SpectralField:
    """Compressible component d = Lambda^{-1} Div u = sum_a R_a u_a; mean mode 0."""
    if u.components != u.grid.dim:
        raise GridError(
            f"lambda_inv_div expects {u.grid.dim} components, got {u.components}"
        )
    d = sum(u.coef * u.grid.riesz())
    return SpectralField(u.grid, d[np.newaxis])


def grad_lambda_inv(d: SpectralField) -> SpectralField:
    """-grad Lambda^{-1} d = -R d, the compressible velocity carried by d."""
    if not d.is_scalar:
        raise GridError("grad_lambda_inv expects a scalar field")
    return SpectralField(d.grid, -(d.coef[0] * d.grid.riesz()))


def heat_semigroup(f: SpectralField, alpha: float, mu: float, t: float) -> SpectralField:
    """Fractional heat semigroup e^{-mu t Lambda^alpha} f."""
    if not 0 <= t < np.inf:
        raise ParameterError(f"t must be finite and >= 0, got {t}")
    if not 0 < mu < np.inf:
        raise ParameterError(f"mu must be > 0 and finite, got {mu}")
    if not (0.0 < alpha < 2.0):
        raise ParameterError(f"alpha must lie in (0, 2), got {alpha}")
    return SpectralField(f.grid, f.coef * heat_multiplier(f.grid, alpha, mu, t))


def dealias(f: SpectralField) -> SpectralField:
    """Zero all coefficients with any |k_i| > n // 3 (2/3 rule); idempotent."""
    return SpectralField(f.grid, f.coef * f.grid.dealias_mask())


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
