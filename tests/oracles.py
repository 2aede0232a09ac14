"""Helpers that only the tests call: the sigma conversion of a density, the
conservative rho-u right-hand side, the scaling-equivariance residual and the
kernel bound of criterion 09.  Each cross-checks another implementation in
``euleralign``; none is a second solver path, and none runs in ``euleralign``
itself, so SciPy (``kernel_bound_check``'s quadrature) is a test dependency
only."""

import numpy as np
from scipy.integrate import quad

from euleralign.grid import Grid, SpectralField
from euleralign.model import ModelParams, State, VacuumError, rhs
from euleralign.operators import (
    ParameterError,
    dealias,
    divergence,
    fractional_laplacian,
    gradient,
    spectral_derivative,
)


def sigma_from_rho(rho: np.ndarray, params: ModelParams) -> np.ndarray:
    """sigma = lam/(gamma-1) (rho^{gamma-1} - 1), or lam ln rho at gamma=1 (lam = sqrt(kappa))."""
    rho = np.asarray(rho, dtype=np.float64)
    mn = float(np.min(rho))
    if mn <= 0:
        raise VacuumError(mn)
    if params.gamma == 1.0:
        return params.lam * np.log(rho)
    gm1 = params.gamma - 1.0
    return params.lam / gm1 * np.expm1(gm1 * np.log(rho))


def rhs_conservative(rho: SpectralField, u: SpectralField, params: ModelParams):
    """Tendencies of (rho, u) from the conservative form (test oracle).

    Mass and momentum tendencies integrate to zero: the flux and pressure
    terms are exact spectral divergences/gradients and the alignment force is
    discretely antisymmetric.
    """
    grid = rho.grid
    rho = dealias(rho)
    u = dealias(u)
    rv = rho.to_physical()[0]
    mn = float(np.min(rv))
    if mn <= 0:
        raise VacuumError(mn)
    uv = u.to_physical()

    # continuity: d rho/dt = -Div(rho u)
    flux = SpectralField.from_physical(grid, rv * uv)
    drho = -1.0 * divergence(flux)

    # momentum: d(rho u)/dt = -Div(rho u x u) - grad P + D
    dm = np.zeros((grid.dim,) + grid.shape)
    for i in range(grid.dim):
        for ax in range(grid.dim):
            fij = SpectralField.from_physical(grid, rv * uv[i] * uv[ax])
            dm[i] -= spectral_derivative(fij, ax).to_physical()[0]
    pressure = SpectralField.from_physical(grid, params.kappa * rv**params.gamma)
    dm -= gradient(pressure).to_physical()
    # D = -mu rho (Lambda^alpha q - u Lambda^alpha rho) with q the flux: the
    # same product q in both terms makes the momentum integral of D cancel
    lam_q = fractional_laplacian(flux, params.alpha).to_physical()
    lam_rho = fractional_laplacian(rho, params.alpha).to_physical()[0]
    dm -= params.mu * (rv * lam_q - flux.to_physical() * lam_rho)
    dmom = SpectralField.from_physical(grid, dm)

    # du/dt = (d(rho u)/dt - u * d rho/dt) / rho, pointwise
    drho_phys = drho.to_physical()[0]
    du_vals = (dmom.to_physical() - uv * drho_phys) / rv
    du = SpectralField.from_physical(grid, du_vals)
    return drho, du


def scaling_check(state: State, params: ModelParams, scale: float) -> float:
    """Relative residual of the system's scaling equivariance.

    Rescaling x -> scale*x, t -> scale^alpha * t maps the box length to
    L/scale while the sampled arrays are unchanged; the velocity and sigma
    (which scales with the sound speed) pick up scale^{alpha-1} and the
    pressure coefficient scale^{2(alpha-1)}.  The returned value is
    ||rhs(scaled) - scaled rhs|| / ||scaled rhs|| in L2 over both tendency
    components.
    """
    if scale <= 0 or np.log2(scale) != round(np.log2(scale)):
        raise ParameterError(f"scale must be a positive power of two, got {scale}")
    lam_s = float(scale)
    a = params.alpha

    g2 = Grid(state.grid.dim, state.grid.n, state.grid.L / lam_s)
    scaled_scalar = SpectralField(g2, state.scalar.coef * lam_s ** (a - 1.0))
    scaled_u = SpectralField(g2, state.u.coef * lam_s ** (a - 1.0))
    scaled_params = ModelParams(
        alpha=a,
        kappa=params.kappa * lam_s ** (2.0 * a - 2.0),
        gamma=params.gamma,
        dim=params.dim,
        mu=params.mu,
    )
    scaled_state = State(scaled_scalar, scaled_u, state.t)

    ds_s, du_s = rhs(scaled_state, scaled_params)
    ds, du = rhs(state, params)

    # d/dt picks up scale^alpha on top of the fields' own scale^{alpha-1}
    ref_s = SpectralField(g2, ds.coef * lam_s ** (2.0 * a - 1.0))
    ref_u = SpectralField(g2, du.coef * lam_s ** (2.0 * a - 1.0))

    num = np.sqrt((ds_s - ref_s).l2() ** 2 + (du_s - ref_u).l2() ** 2)
    den = np.sqrt(ref_s.l2() ** 2 + ref_u.l2() ** 2)
    if den == 0.0:
        return 0.0
    return float(num / den)


def kernel_bound_check(
    alpha: float, c: float, j: int, s: float, t_grid
) -> float:
    """sup over t_grid of 2^{j alpha} * int_0^t e^{-c 2^{j a}(t-tau)} t^s tau^{-s} dtau.

    The tau^{-s} endpoint is integrable for s < 1; adaptive quadrature with an
    explicit endpoint declaration handles it.
    """
    if not (0.0 <= s < 1.0):
        raise ParameterError(f"s must lie in [0, 1), got {s}")
    if c <= 0:
        raise ParameterError(f"c must be > 0, got {c}")
    rate = c * 2.0 ** (j * alpha)
    best = 0.0
    for t in np.asarray(t_grid, dtype=float):
        if t <= 0:
            continue
        if s == 0.0:
            integral = (1.0 - np.exp(-rate * t)) / rate
        else:
            val, _ = quad(
                lambda tau: np.exp(-rate * (t - tau)) * tau ** (-s),
                0.0,
                t,
                limit=200,
            )
            integral = t**s * val
        best = max(best, integral * 2.0 ** (j * alpha))
    return float(best)
