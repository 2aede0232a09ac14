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
    dealias,
    divergence,
    fractional_laplacian,
    gradient,
    heat_multiplier,
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
        if not 0 < self.kappa < np.inf:
            raise ParameterError(f"kappa must be finite and > 0, got {self.kappa}")
        if not 1 <= self.gamma < np.inf:
            raise ParameterError(f"gamma must be finite and >= 1, got {self.gamma}")
        if self.mu is None:
            object.__setattr__(
                self, "mu", 1.0 / frac_laplacian_constant(self.alpha, self.dim)
            )
        if not 0 < self.mu < np.inf:
            raise ParameterError(f"mu must be finite and > 0, got {self.mu}")
        object.__setattr__(self, "lam", float(np.sqrt(self.kappa * self.gamma)))


# -- state conversions ------------------------------------------------------


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


def h_of_sigma(
    sigma: np.ndarray, params: ModelParams, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """h(sigma) = rho - 1, evaluated in numerically stable form.

    Every operation writes into ``out`` when it is given (it may be ``sigma``
    itself), and otherwise into one new array.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    if params.gamma == 1.0:
        arg = np.divide(sigma, params.lam, out=out)
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


def rho_from_sigma(sigma: np.ndarray, params: ModelParams) -> np.ndarray:
    h = h_of_sigma(sigma, params)
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
        rf, uf = fine.physical(r_coef), fine.physical(u_coef)
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

    With N = grid.dim, the stacked state x = (sigma, u_1, ..., u_N) has
    F = 1 + N fields; a "field" is one component's half spectrum (complex) or
    grid samples (real).  Three arrays hold every buffer, and each slot is a
    view of one of them, named here once:

    ``batch``    complex, F^2 fields.  ``x`` = (``sig``, ``u``), the stage
                 input, masked in place, then ``grad``, grad[a, c] = d_a x_c:
                 ``grad_sig`` is grad[:, 0] and ``div_terms`` the d_a u_a.
                 Once they are transformed, ``pair_hat`` (the first two
                 fields) holds (g, Lambda^alpha g); once that is transformed,
                 the real ``div_u`` and ``adv`` = (u.grad sigma, (u.grad) u)
                 use the same memory, and then ``prods_hat``, the first
                 1 + 2N fields, holds the products' spectra.
    ``samples``  real, max(F^2, 2 + 3N) + 2 fields: ``phys``, the batch's
                 samples, which are ``xv`` = (``sv``, ``uv``) and ``gv``
                 (grad's, with ``gv_diag`` its d_a u_a).  The u_a d_a x
                 products overwrite ``gv``, and once they are reduced, the
                 1 + 2N ``prods`` start where ``gv`` did: ``terms``, the
                 (sigma, u) terms without Lambda^alpha(g u), then ``gu``.  The
                 last two fields are ``pair``: h(sigma), then the samples of
                 (g, Lambda^alpha g).  One array, not two, keeps the heap free
                 of a long-lived 1 MB block at 2D n=256.
    ``k``        complex, 3 x F fields: ``acc``, the RK4 sum, and the stage
                 tendencies ``ka`` and ``kb``, each with its (sigma, u) parts.
    """

    def __init__(self, grid: Grid):
        dim, spectral, shape = grid.dim, grid.spectral_shape, grid.shape
        F = 1 + dim
        self.batch = np.empty((F * F,) + spectral, dtype=complex)
        n_phys = max(F * F, 2 + 3 * dim)
        self.samples = np.empty((n_phys + 2,) + shape)
        self.k = np.empty((3, F) + spectral, dtype=complex)

        self.x, self.sig, self.u = self.batch[:F], self.batch[:1], self.batch[1:F]
        self.grad = self.batch[F:].reshape((dim, F) + spectral)
        self.grad_sig, self.div_terms = self.batch[F::F], self.batch[F + 1 :: F + 1]
        self.pair_hat, self.prods_hat = self.batch[:2], self.batch[: 1 + 2 * dim]
        real = self.batch.reshape(-1).view(np.float64)[: (1 + F) * grid.n**dim]
        real = real.reshape((1 + F,) + shape)
        self.div_u, self.adv = real[0], real[1:]

        self.pair = self.samples[n_phys:]
        self.phys, self.xv = self.samples[: F * F], self.samples[:F]
        self.sv, self.uv = self.samples[0], self.samples[1:F]
        self.uv_col = self.uv[:, np.newaxis]
        self.gv = self.samples[F : F * F].reshape((dim, F) + shape)
        self.gv_diag = self.samples[F + 1 : F * F : F + 1]
        self.prods = self.samples[F : F + 1 + 2 * dim]
        self.terms, self.gu = self.prods[:F], self.prods[F:]
        self.terms_hat, self.gu_hat = self.prods_hat[:F], self.prods_hat[F:]

        self.acc, self.ka, self.kb = self.k
        self.acc_s, self.ka_s, self.kb_s = self.k[:, :1]
        self.acc_u, self.ka_u, self.kb_u = self.k[:, 1:]


class SpectralPlan:
    """Multipliers, the sigma-u tendency, the integrating-factor RK4 step and
    the reusable buffers of one (grid, params).

    ``ixi`` (i*xi per axis, Nyquist zeroed), ``lam_alpha`` (|xi|^alpha, mean
    zeroed) and ``mask`` (2/3 rule) are the grid's own read-only symbols;
    ``mu_lam_alpha`` = mu * ``lam_alpha``.  The tendency acts on the stacked
    (sigma, u) array: each operation that is the same for sigma and u runs
    once on all 1 + N fields.  It moves its batches to the grid with the
    grid's ``band_physical`` and back with its ``spectral``: 4 transform
    batches, 16 per ``step``, whose first stage checks the input's density on
    samples it makes anyway.  In 2D each batch is two NumPy calls, one 1D pass
    per axis.  The batches, temporaries, stage inputs and tendencies live in
    ``workspace``, allocated on first use and reused by every later
    ``tendency`` and ``step``, so a step allocates only the arrays it
    returns.  A plan is therefore not re-entrant: two threads must not run
    its ``tendency`` or ``step`` at once.  Use ``plan_for``.
    """

    def __init__(self, grid: Grid, params: ModelParams):
        self.grid, self.params = grid, params
        self.ixi = grid.ixi()
        self.lam_alpha = grid.lambda_symbol(params.alpha)
        self.mu_lam_alpha = read_only(params.mu * self.lam_alpha)
        self.mask = grid.dealias_mask()
        self._ixi_col = self.ixi[:, np.newaxis]
        # the fields' factors in -(gamma-1) sigma div u and mu u Lambda^alpha g
        source = [-(params.gamma - 1.0)] + [params.mu] * grid.dim
        self._source_factor = read_only(np.array(source).reshape((-1,) + (1,) * grid.dim))
        # (dt, its pair, (dt e_half, 2 e_half)): a run steps with one dt
        self._semigroup = None

    @functools.cached_property
    def workspace(self) -> Workspace:
        return Workspace(self.grid)

    def semigroup(self, dt: float):
        """(e^{-mu (dt/2) Lambda^alpha}, its square), memoised for the last dt
        together with the step's dt e_half and 2 e_half."""
        if self._semigroup is None or self._semigroup[0] != dt:
            p = self.params
            e_half = read_only(heat_multiplier(self.grid, p.alpha, p.mu, dt / 2.0))
            scaled = read_only(dt * e_half), read_only(2.0 * e_half)
            self._semigroup = dt, (e_half, read_only(e_half * e_half)), scaled
        return self._semigroup[1]

    def tendency(self, sig: np.ndarray, u: np.ndarray, linear_only: bool = False):
        """Dealiased tendencies of the coefficients (sigma, u), without the
        stiff -mu Lambda^alpha u term, as two new arrays.

        sigma' = -lam div u - u.grad sigma - (gamma-1) sigma div u
        u'     = -lam grad sigma - (u.grad) u - mu (Lambda^alpha(g u) - u Lambda^alpha g)
        with g = h(sigma) = rho - 1.  The inputs are copied into the
        workspace's stage input, so they may be any arrays; the kernel is the
        one ``step`` runs (see ``_tendency``).
        """
        ws = self.workspace
        ws.sig[...], ws.u[...] = sig, u
        self._tendency(ws.kb, linear_only)
        return ws.kb_s.copy(), ws.kb_u.copy()

    def _tendency(self, k: np.ndarray, linear_only: bool, guard: bool = False) -> None:
        """The tendency of the stage input ``workspace.x`` into the stacked k.

        The nonlinear terms cost four batched transforms: (sigma, u) and their
        gradients to the grid, h(sigma) back, (g, Lambda^alpha g) to the grid,
        and the 1 + 2N products back.  The mask, the gradients, the -lam
        terms, the advection, the source terms and the final sums run once
        on the stacked (sigma, u) fields, each element with the operations and
        operation order of the out-of-place formula, so the bits are the same.
        With ``guard`` the density min rho = 1 + min h(sigma) of the samples
        is checked, and ``VacuumError`` raised below ``VACUUM_THRESHOLD`` or
        at a NaN; ``linear_only`` makes no transform and so checks nothing.
        """
        p, ws, mask = self.params, self.workspace, self.mask
        np.multiply(ws.x, mask, out=ws.x)
        np.multiply(self._ixi_col, ws.x, out=ws.grad)
        np.add.reduce(ws.div_terms, axis=0, keepdims=True, out=k[:1])
        k[1:] = ws.grad_sig
        np.multiply(-p.lam, k, out=k)  # -lam (div u, grad sigma)
        if linear_only:
            return
        self.grid.band_physical(ws.batch, out=ws.phys)
        g = h_of_sigma(ws.sv, p, out=ws.pair[0])
        if guard:
            mn = 1.0 + float(np.minimum.reduce(g, axis=None))
            if not (mn >= VACUUM_THRESHOLD):
                raise VacuumError(mn)
        pair_hat = ws.pair_hat  # (g, Lambda^alpha g)
        self.grid.spectral(g, out=pair_hat[0])
        np.multiply(pair_hat[0], mask, out=pair_hat[0])
        np.multiply(self.lam_alpha, pair_hat[0], out=pair_hat[1])
        gv, lam_g = self.grid.band_physical(pair_hat, out=ws.pair)
        div_u, adv, terms = ws.div_u, ws.adv, ws.terms  # the batch is dead
        np.add.reduce(ws.gv_diag, axis=0, initial=0.0, out=div_u)  # 0 + d_1 u_1 + ..., as sum() adds
        np.add.reduce(np.multiply(ws.uv_col, ws.gv, out=ws.gv), axis=0, out=adv)
        # -(gamma-1) sigma div u and mu u Lambda^alpha g; a - b is a + (-b)
        np.multiply(self._source_factor, ws.xv, out=terms)
        np.multiply(terms[0], div_u, out=terms[0])
        np.multiply(terms[1:], lam_g, out=terms[1:])
        np.add(np.negative(adv, out=adv), terms, out=terms)
        np.multiply(gv, ws.uv, out=ws.gu)
        self.grid.spectral(ws.prods, out=ws.prods_hat)
        k += ws.terms_hat
        k[1:] -= np.multiply(self.mu_lam_alpha, ws.gu_hat, out=ws.gu_hat)
        np.multiply(k, mask, out=k)

    def step(self, sig: np.ndarray, u: np.ndarray, dt: float, linear_only: bool = False):
        """One integrating-factor RK4 step of the coefficients (sigma, u).

        The stiff -mu Lambda^alpha u term is integrated exactly through
        ``semigroup(dt)``, the rest through four stages of the tendency
        kernel.  The first stage guards the input: it raises ``VacuumError``
        when the density of the given sigma nears vacuum or is NaN (a
        ``linear_only`` step checks nothing).  The stages run in
        ``workspace``; stage inputs that treat sigma and u alike are formed
        on the stacked array, and the RK4 sums accumulate in place as the
        stages finish, in the formula's operation order, so the bits are
        those of the out-of-place expression.  Returns the new (sigma, u),
        the only new memory.
        """
        e_half, e_full = self.semigroup(dt)
        dt_e_half, two_e_half = self._semigroup[2]
        ws, half = self.workspace, 0.5 * dt
        x, xs, xu = ws.x, ws.sig, ws.u  # the stage input, in the batch
        acc, ka, kb = ws.acc, ws.ka, ws.kb  # the RK4 sum, from k1 on, and two stages

        xs[...], xu[...] = sig, u
        self._tendency(acc, linear_only, guard=True)  # k1
        # sig + dt/2 k1s, (u + dt/2 k1u) e_half
        np.multiply(half, acc, out=x)
        np.add(sig, xs, out=xs)
        np.multiply(np.add(u, xu, out=xu), e_half, out=xu)
        self._tendency(ka, linear_only)  # k2
        # sig + dt/2 k2s, u e_half + dt/2 k2u
        np.multiply(half, ka, out=x)
        np.add(sig, xs, out=xs)
        np.add(np.multiply(u, e_half, out=ws.kb_u), xu, out=xu)
        ws.ka_s *= 2.0
        ws.acc_s += ws.ka_s  # k1s + 2 k2s
        ws.acc_u *= e_full  # e_full k1u
        self._tendency(kb, linear_only)  # k3
        # sig + dt k3s, u e_full + dt e_half k3u
        np.add(sig, np.multiply(dt, ws.kb_s, out=xs), out=xs)
        ws.ka_u += ws.kb_u  # k2u + k3u
        np.multiply(dt_e_half, ws.kb_u, out=ws.kb_u)
        np.add(np.multiply(u, e_full, out=xu), ws.kb_u, out=xu)
        ws.kb_s *= 2.0
        ws.acc_s += ws.kb_s  # + 2 k3s
        ws.acc_u += np.multiply(two_e_half, ws.ka_u, out=ws.ka_u)
        self._tendency(ka, linear_only)  # k4
        acc += ka
        s_new = np.multiply(ws.acc_s, dt / 6.0)
        s_new += sig
        s_new *= self.mask
        u_new = np.multiply(ws.acc_u, dt / 6.0)
        u_new += np.multiply(u, e_full, out=ws.kb_u)
        u_new *= self.mask
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
