"""The Euler-alignment model: parameters, state, right-hand sides and the step.

A state holds the acoustic variable sigma (a monotone function of the
density rho that vanishes at the equilibrium rho = 1) and the velocity u;
``sigma_from_rho`` and ``rho_from_sigma`` convert samples.  A
``SpectralPlan`` per (grid, params) holds the sigma-u tendency and the
integrating-factor RK4 ``step`` on coefficient arrays, with the buffers they
share; ``rhs`` goes through the same tendency.  ``rhs_conservative`` takes
(rho, u) through the conservative form; like the quadrature
``alignment_direct``, it is an oracle for tests, not a second solver path.

The alignment force uses the commutator form -mu * rho * (Lambda^alpha(rho u)
- u Lambda^alpha rho), with Lambda^alpha realized by its Fourier symbol.  The
dissipation coefficient mu defaults to 1/|c| where c is the classical
normalization constant of the singular-integral fractional Laplacian.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .grid import Grid, GridError, SpectralField, read_only
from .operators import (
    ParameterError,
    _heat_multiplier,
    _lambda_symbol,
    _xi_tilde,
    dealias,
    divergence,
    fractional_laplacian,
    gradient,
    physical_product,
    spectral_derivative,
)

__all__ = [
    "ModelParams",
    "State",
    "VacuumError",
    "frac_laplacian_constant",
    "sigma_from_rho",
    "rho_from_sigma",
    "h_of_sigma",
    "alignment_commutator",
    "alignment_direct",
    "rhs_conservative",
    "SpectralPlan",
    "plan_for",
    "rhs",
    "scaling_check",
]

VACUUM_THRESHOLD = 1e-6


class VacuumError(RuntimeError):
    """Density reached (near-)vacuum; the alignment model degenerates."""

    def __init__(self, min_rho: float):
        super().__init__(f"vacuum guard triggered: min rho = {min_rho:.6e}")
        self.min_rho = min_rho


def frac_laplacian_constant(alpha: float, dim: int) -> float:
    """|c| for the singular-integral normalization of Lambda^alpha.

    c = 2^alpha Gamma((dim+alpha)/2) / (pi^{dim/2} Gamma(-alpha/2)); the
    Gamma(-alpha/2) factor is negative on (0,2), so the absolute value is
    returned (the positive-kernel convention).
    """
    if not (0.0 < alpha < 2.0):
        raise ParameterError(f"alpha must lie in (0, 2), got {alpha}")
    c = 2.0**alpha * math.gamma((dim + alpha) / 2.0) / (
        math.pi ** (dim / 2.0) * math.gamma(-alpha / 2.0)
    )
    return abs(c)


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters alpha, kappa, gamma and derived coefficients."""

    alpha: float
    kappa: float
    gamma: float
    dim: int = 1
    mu: Optional[float] = None
    # the acoustic speed sqrt(kappa * gamma), derived once; it takes no part
    # in equality or hashing, so plan_for's cache keys stay the parameters
    lam: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not (1.0 < self.alpha < 2.0):
            raise ParameterError(f"alpha must lie in (1, 2), got {self.alpha}")
        if self.kappa <= 0:
            raise ParameterError(f"kappa must be > 0, got {self.kappa}")
        if self.gamma < 1:
            raise ParameterError(f"gamma must be >= 1, got {self.gamma}")
        if self.mu is None:
            object.__setattr__(
                self, "mu", 1.0 / frac_laplacian_constant(self.alpha, self.dim)
            )
        if self.mu <= 0:
            raise ParameterError(f"mu must be > 0, got {self.mu}")
        object.__setattr__(self, "lam", float(np.sqrt(self.kappa * self.gamma)))


# -- state conversions ------------------------------------------------------


def sigma_from_rho(rho: np.ndarray, params: ModelParams) -> np.ndarray:
    """sigma = lam/(gamma-1) (rho^{gamma-1} - 1), or sqrt(kappa) ln rho at gamma=1."""
    rho = np.asarray(rho, dtype=np.float64)
    mn = float(np.min(rho))
    if mn <= 0:
        raise VacuumError(mn)
    if params.gamma == 1.0:
        return np.sqrt(params.kappa) * np.log(rho)
    gm1 = params.gamma - 1.0
    return params.lam / gm1 * np.expm1(gm1 * np.log(rho))


def h_of_sigma(
    sigma: np.ndarray, params: ModelParams, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """h(sigma) = rho - 1, evaluated in numerically stable form.

    Every operation writes into ``out`` when it is given (it may be ``sigma``
    itself), and otherwise into one new array.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    if params.gamma == 1.0:
        arg = np.divide(sigma, np.sqrt(params.kappa), out=out)
        return np.expm1(arg, out=arg)
    gm1 = params.gamma - 1.0
    arg = np.multiply(gm1, sigma, out=out)
    np.divide(arg, params.lam, out=arg)
    mn = float(np.min(arg))
    if mn <= -1.0:
        raise VacuumError(mn + 1.0)
    np.log1p(arg, out=arg)
    np.divide(arg, gm1, out=arg)
    return np.expm1(arg, out=arg)


def rho_from_sigma(
    sigma: np.ndarray, params: ModelParams, out: Optional[np.ndarray] = None
) -> np.ndarray:
    h = h_of_sigma(sigma, params, out=out)
    return np.add(1.0, h, out=h)


@dataclass
class State:
    """Instantaneous state: the acoustic variable sigma (``scalar``) and velocity u."""

    scalar: SpectralField
    u: SpectralField
    t: float = 0.0

    def __post_init__(self):
        if not self.scalar.is_scalar:
            raise GridError("state scalar must have one component")
        if self.u.components != self.u.grid.dim:
            raise GridError("velocity must have dim components")

    @property
    def grid(self) -> Grid:
        return self.scalar.grid


# -- alignment force --------------------------------------------------------


def alignment_commutator(u: SpectralField, g: SpectralField, alpha: float) -> SpectralField:
    """Bracket content Lambda^alpha(u g) - u Lambda^alpha g, componentwise.

    Inputs are expected dealiased; products are dealiased pseudospectrally.
    """
    prod = physical_product(g, u)
    term1 = fractional_laplacian(prod, alpha)
    term2 = physical_product(fractional_laplacian(g, alpha), u)
    return term1 - term2


def _periodized_kernel(z: np.ndarray, alpha: float, L: float) -> np.ndarray:
    """Sum over all periodic images of |c| / |z + m L|^{1+alpha}, exactly.

    For z in (0, L) the image sum is a pair of Hurwitz zeta values:
    sum_m |z + mL|^{-1-a} = L^{-1-a} [zeta(1+a, z/L) + zeta(1+a, 1 - z/L)].
    """
    from scipy.special import zeta as hurwitz_zeta  # here, so runs never load SciPy

    c = frac_laplacian_constant(alpha, 1)
    frac = np.mod(z / L, 1.0)
    s = 1.0 + alpha
    out = np.zeros_like(frac)
    interior = (frac > 0) & (frac < 1)
    out[interior] = (
        c / L**s * (hurwitz_zeta(s, frac[interior]) + hurwitz_zeta(s, 1.0 - frac[interior]))
    )
    return out


def alignment_direct(
    rho: SpectralField,
    u: SpectralField,
    alpha: float,
    refine: int = 16,
) -> SpectralField:
    """Quadrature evaluation of the nonlocal alignment integral (1D oracle).

    D(u, rho)(x) = -rho(x) * PV int K(x-y) (u(x)-u(y)) rho(y) dy with the
    positive kernel K(z) = |c| / |z|^{1+alpha}, periodized exactly over all
    images.  The fields are upsampled by trigonometric interpolation (factors
    ``refine`` and ``2*refine``) and the midpoint sums are Richardson
    extrapolated in the mesh size h, cancelling the leading O(h^{2-alpha})
    singular-cell error.  Desk-scale only: n <= 512.
    """
    grid = rho.grid
    if grid.dim != 1:
        raise GridError("alignment_direct supports 1D grids only")
    if grid.n > 512:
        raise GridError("alignment_direct is a desk-scale oracle; n <= 512")
    if refine < 1 or (refine & (refine - 1)) != 0:
        raise ParameterError(f"refine must be a power of two, got {refine}")

    rv = rho.to_physical()[0]

    # the coarse Nyquist mode is an ordinary mode of the fine grids: halved,
    # it counts once, as cos(n x/2), not twice
    r_coef, u_coef = (f.coef[0] * np.append(np.ones(grid.n // 2), 0.5) for f in (rho, u))

    def midpoint_sum(factor: int) -> np.ndarray:
        m = grid.n * factor
        fine = Grid(1, m, grid.L)
        rf = np.fft.irfft(r_coef, n=m, norm="forward")
        uf = np.fft.irfft(u_coef, n=m, norm="forward")
        # K(x_i - y_j) depends on (i*factor - j) mod m only: m kernel values
        kern = _periodized_kernel(fine.axis_points(), alpha, grid.L)
        kern = kern[(np.arange(grid.n)[:, None] * factor - np.arange(m)) % m]
        ux = uf[:: factor]
        du = ux[:, None] - uf[None, :]
        return np.einsum("ij,ij,j->i", kern, du, rf) * fine.dx

    d1 = midpoint_sum(refine)
    d2 = midpoint_sum(2 * refine)
    w = 2.0 ** (2.0 - alpha)
    integral = (w * d2 - d1) / (w - 1.0)
    return SpectralField.from_physical(grid, -rv * integral)


# -- right-hand sides -------------------------------------------------------


class Workspace:
    """The buffers of one plan's ``tendency`` and ``step``, allocated once.

    With N = grid.dim, a "field" is one component's half spectrum (complex)
    or grid samples (real):

    ``batch``    complex, 1 + 2N + N^2 fields: the (sigma, u, grad sigma,
                 grad u) coefficients.  Once they are transformed, the first
                 two slots hold the (g, Lambda^alpha g) pair; once that is
                 transformed, ``scratch`` (the same memory as real samples)
                 holds the products' temporaries, and then the first 1 + 2N
                 slots hold the products' spectra.  ``step`` forms its stage
                 inputs in the (sigma, u) slots, and its vacuum guard in slot 0.
    ``samples``  real, max(1 + 2N + N^2, 3 + 3N) fields: the batch's samples.
                 ``products`` are the 1 + 2N slots from 2 + N on; in 2D these
                 are d_2 sigma and grad u, dead once the products' terms are
                 formed.  The guard's samples go to slot 0.
    ``pair``     real, 2 fields: h(sigma), then the samples of (g, Lambda^alpha g).
    ``k``        complex, 3 x (1 + N) fields: the RK4 sum and two stage tendencies.
    ``factor``   real, one half spectrum: dt e^{-mu (dt/2) Lambda^alpha},
                 then twice that semigroup.
    """

    def __init__(self, grid: Grid):
        dim, spectral, shape = grid.dim, grid.spectral_shape, grid.shape
        n_batch, n_scratch = 1 + 2 * dim + dim * dim, 2 + dim + dim * dim
        self.batch = np.empty((n_batch,) + spectral, dtype=complex)
        self.samples = np.empty((max(n_batch, 3 + 3 * dim),) + shape)
        self.pair = np.empty((2,) + shape)
        self.k = np.empty((3, 1 + dim) + spectral, dtype=complex)
        self.factor = np.empty(spectral)
        flat = self.batch.reshape(-1).view(np.float64)
        self.scratch = flat[: n_scratch * grid.n**dim].reshape((n_scratch,) + shape)
        self.products = self.samples[2 + dim : 3 + 3 * dim]


class SpectralPlan:
    """Multipliers, the masked inverse transform, the sigma-u tendency, the
    integrating-factor RK4 step and the reusable buffers of one (grid, params).

    Arrays are the grid's cached read-only half-spectrum symbols: ``ixi``
    (i*xi per axis, Nyquist zeroed), ``lam_alpha`` (|xi|^alpha, mean zeroed)
    and ``mask`` (2/3 rule), and ``mu_lam_alpha`` = mu * ``lam_alpha``.  The
    tendency moves its batches to the grid with ``band_physical`` and back
    with the grid's ``spectral``: 4 transform batches, and 17 per ``step``
    with the vacuum guard.  In 2D each batch is two NumPy calls, one 1D pass
    per axis.  The batches, temporaries, stage inputs and tendencies live in
    ``workspace``, allocated on first use and reused by every later
    ``tendency`` and ``step``, so a step allocates only the arrays it
    returns.  A plan is therefore not re-entrant: two threads must not run
    its ``tendency`` or ``step`` at once.  Use ``plan_for``.
    """

    def __init__(self, grid: Grid, params: ModelParams):
        self.grid, self.params = grid, params
        self.ixi = read_only(np.stack([1j * xt for xt in _xi_tilde(grid)]))
        self.lam_alpha = _lambda_symbol(grid, params.alpha)
        self.mu_lam_alpha = read_only(params.mu * self.lam_alpha)
        self.mask = grid.dealias_mask()
        self._semigroup = None  # (dt, its pair): a run steps with one dt

    @functools.cached_property
    def workspace(self) -> Workspace:
        return Workspace(self.grid)

    def semigroup(self, dt: float):
        """(e^{-mu (dt/2) Lambda^alpha}, its square), memoised for the last dt."""
        if self._semigroup is None or self._semigroup[0] != dt:
            p = self.params
            e_half = read_only(_heat_multiplier(self.grid, p.alpha, p.mu, dt / 2.0))
            self._semigroup = dt, (e_half, read_only(e_half * e_half))
        return self._semigroup[1]

    def band_physical(self, coef: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """``grid.physical`` of coefficients that ``mask`` has zeroed, bit for bit.

        In 2D the leading-axis ``ifft`` runs only over the last-axis columns
        k <= n/3 that the 2/3 rule keeps, in place: it overwrites them in
        ``coef``, which is always one of the workspace's batches.  ``irfft``
        zero-pads the other columns.  On a 1D grid this is
        ``grid.physical``'s ``irfft``.  The samples go to ``out`` if given.
        """
        grid = self.grid
        if grid.dim == 2:
            kept = coef[..., : grid.n // 3 + 1]
            coef = np.fft.ifft(kept, axis=-2, norm="forward", out=kept)
        return np.fft.irfft(coef, n=grid.n, axis=-1, norm="forward", out=out)

    def tendency(
        self, sig: np.ndarray, u: np.ndarray, linear_only: bool = False, out=None
    ):
        """Dealiased tendencies of the coefficients (sigma, u), without the
        stiff -mu Lambda^alpha u term.

        sigma' = -lam div u - u.grad sigma - (gamma-1) sigma div u
        u'     = -lam grad sigma - (u.grad) u - mu (Lambda^alpha(g u) - u Lambda^alpha g)
        with g = h(sigma) = rho - 1.  The nonlinear terms cost four batched
        transforms: (sigma, u, grad sigma, grad u) to the grid, h(sigma) back,
        (g, Lambda^alpha g) to the grid, and the three products back.  All of
        them run in ``workspace`` (see ``Workspace`` for its layout), with the
        operations and operation order of the out-of-place formula, so the
        bits are the same.  ``sig`` and ``u`` are read only before anything
        is written, so they may be the batch's own (sigma, u) slots.

        The tendencies go to ``out`` = (d sigma, d u) if given (``step``
        passes its slots); otherwise they are new arrays that own their memory.
        """
        p, dim, mask, ixi = self.params, self.grid.dim, self.mask, self.ixi
        ws = self.workspace
        coef = ws.batch
        np.multiply(sig, mask, out=coef[:1])
        np.multiply(u, mask, out=coef[1 : 1 + dim])
        np.multiply(ixi, coef[:1], out=coef[1 + dim : 1 + 2 * dim])
        grad_u = coef[1 + 2 * dim :].reshape((dim,) + u.shape)  # [a, i] = d_a u_i
        np.multiply(ixi[:, np.newaxis], coef[1 : 1 + dim], out=grad_u)
        if out is None:
            out = np.empty((1,) + mask.shape, dtype=complex), np.empty_like(coef[1 : 1 + dim])
        dsig, du = out
        coef[1 + 2 * dim :: dim + 1].sum(axis=0, keepdims=True, out=dsig)  # div u
        np.multiply(-p.lam, dsig, out=dsig)
        np.multiply(-p.lam, coef[1 + dim : 1 + 2 * dim], out=du)
        if linear_only:
            return dsig, du
        phys = self.band_physical(coef, out=ws.samples[: len(coef)])
        sv, uv = phys[0], phys[1 : 1 + dim]
        gs, gu = phys[1 + dim : 1 + 2 * dim], phys[1 + 2 * dim :].reshape((dim, dim) + sv.shape)
        pair = coef[:2]  # (g, Lambda^alpha g)
        self.grid.spectral(h_of_sigma(sv, p, out=ws.pair[0]), out=pair[0])
        np.multiply(pair[0], mask, out=pair[0])
        np.multiply(self.lam_alpha, pair[0], out=pair[1])
        gv, lam_g = self.band_physical(pair, out=ws.pair)
        tmp = ws.scratch  # the batch's memory: its contents are dead from here
        div_u = tmp[0]
        np.add(0, gu[0, 0], out=div_u)  # 0 + d_1 u_1 + d_2 u_2, as sum() adds
        for i in range(1, dim):
            np.add(div_u, gu[i, i], out=div_u)
        adv_sig, adv_u = tmp[1 + dim], tmp[1 : 1 + dim]  # adv_u takes uv * gs's slots
        np.multiply(uv, gs, out=tmp[1 : 1 + dim]).sum(axis=0, out=adv_sig)
        uv_gu = tmp[2 + dim : 2 + dim + dim * dim].reshape(gu.shape)
        np.multiply(uv[:, np.newaxis], gu, out=uv_gu).sum(axis=0, out=adv_u)
        prods = ws.products  # over slots of phys that are dead from here
        compress = np.multiply(p.gamma - 1.0, sv, out=tmp[2 + dim])
        np.multiply(compress, div_u, out=compress)
        np.subtract(np.negative(adv_sig, out=adv_sig), compress, out=prods[0])
        align = np.multiply(p.mu, uv, out=tmp[2 + dim : 2 + 2 * dim])
        np.multiply(align, lam_g, out=align)
        np.add(np.negative(adv_u, out=adv_u), align, out=prods[1 : 1 + dim])
        np.multiply(gv, uv, out=prods[1 + dim :])
        prods = self.grid.spectral(prods, out=coef[: len(prods)])
        dsig += prods[:1]
        du += prods[1 : 1 + dim]
        du -= np.multiply(self.mu_lam_alpha, prods[1 + dim :], out=prods[1 + dim :])
        return np.multiply(dsig, mask, out=dsig), np.multiply(du, mask, out=du)

    def step(self, sig: np.ndarray, u: np.ndarray, dt: float, linear_only: bool = False):
        """One integrating-factor RK4 step of the coefficients (sigma, u).

        The stiff -mu Lambda^alpha u term is integrated exactly through
        ``semigroup(dt)``, the rest through four ``tendency`` stages.  They run
        in ``workspace``, and the RK4 sums accumulate in place as the stages
        finish, in the formula's operation order, so the bits are those of the
        out-of-place expression.  Returns the new (sigma, u), the only new
        memory, once the vacuum guard has passed the new sigma's density; a
        NaN trips the guard too.
        """
        e_half, e_full = self.semigroup(dt)
        ws = self.workspace
        acc, ka, kb = ws.k  # the RK4 sum, from k1 on, and two stage tendencies
        xs, xu = ws.batch[:1], ws.batch[1 : 1 + self.grid.dim]  # stage input, in place
        half = 0.5 * dt

        self.tendency(sig, u, linear_only, out=(acc[:1], acc[1:]))  # k1
        # sig + dt/2 k1s, (u + dt/2 k1u) e_half
        np.add(sig, np.multiply(half, acc[:1], out=xs), out=xs)
        np.add(u, np.multiply(half, acc[1:], out=xu), out=xu)
        np.multiply(xu, e_half, out=xu)
        self.tendency(xs, xu, linear_only, out=(ka[:1], ka[1:]))  # k2
        # sig + dt/2 k2s, u e_half + dt/2 k2u
        np.add(sig, np.multiply(half, ka[:1], out=xs), out=xs)
        np.multiply(u, e_half, out=xu)
        np.add(xu, np.multiply(half, ka[1:], out=kb[1:]), out=xu)
        ka[:1] *= 2.0
        acc[:1] += ka[:1]  # k1s + 2 k2s
        acc[1:] *= e_full  # e_full k1u
        self.tendency(xs, xu, linear_only, out=(kb[:1], kb[1:]))  # k3
        # sig + dt k3s, u e_full + dt e_half k3u
        np.add(sig, np.multiply(dt, kb[:1], out=xs), out=xs)
        ka[1:] += kb[1:]  # k2u + k3u
        np.multiply(np.multiply(dt, e_half, out=ws.factor), kb[1:], out=kb[1:])
        np.add(np.multiply(u, e_full, out=xu), kb[1:], out=xu)
        kb[:1] *= 2.0
        acc[:1] += kb[:1]  # + 2 k3s
        acc[1:] += np.multiply(np.multiply(2.0, e_half, out=ws.factor), ka[1:], out=ka[1:])
        self.tendency(xs, xu, linear_only, out=(ka[:1], ka[1:]))  # k4
        acc += ka
        s_new = np.multiply(acc[:1], dt / 6.0)
        s_new += sig
        s_new *= self.mask
        u_new = np.multiply(acc[1:], dt / 6.0)
        u_new += np.multiply(u, e_full, out=kb[1:])
        u_new *= self.mask

        guard = ws.batch[0]
        np.copyto(guard, s_new[0])
        samples = self.band_physical(guard, out=ws.samples[0])
        mn = float(np.min(rho_from_sigma(samples, self.params, out=samples)))
        if not (mn >= VACUUM_THRESHOLD):
            raise VacuumError(mn)
        return s_new, u_new


@functools.lru_cache(maxsize=8)
def plan_for(grid: Grid, params: ModelParams) -> SpectralPlan:
    """The shared SpectralPlan of (grid, params), built on first use.

    ``params.dim`` must match ``grid.dim``: the default mu depends on it.
    """
    if params.dim != grid.dim:
        raise ParameterError(
            f"ModelParams.dim = {params.dim} does not match the {grid.dim}D grid"
        )
    return SpectralPlan(grid, params)


def rhs_conservative(
    rho: SpectralField, u: SpectralField, params: ModelParams, linear_only: bool = False
):
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
    if not linear_only:
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


def rhs(state: State, params: ModelParams, linear_only: bool = False):
    """Time derivative of the state: the spectral fields (d sigma/dt, du/dt).

    It goes through ``plan_for(grid, params).tendency``, the kernel the
    stepper uses: four transform batches (none with ``linear_only``), plus the
    stiff term -mu Lambda^alpha u.
    """
    plan = plan_for(state.grid, params)
    u = state.u.coef
    dsig, du = plan.tendency(state.scalar.coef, u, linear_only)
    du -= plan.mu_lam_alpha * (u * plan.mask)
    return SpectralField(state.grid, dsig), SpectralField(state.grid, du)


# -- scaling equivariance check --------------------------------------------


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
