"""The Euler-alignment model: parameters, state, right-hand sides and the step.

A state holds the acoustic variable sigma (a monotone function of the
density rho that vanishes at the equilibrium rho = 1) and the velocity u;
``sigma_from_rho`` and ``rho_from_sigma`` convert samples.  A
``SpectralPlan`` per (grid, params) holds the sigma-u tendency and the
integrating-factor RK4 ``step`` on coefficient arrays, with the buffers they
share; ``rhs`` calls the same kernel, ``SpectralPlan.tendency``, which
includes the stiff term.  ``rhs_conservative`` takes
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
import types
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .grid import Grid, GridError, SpectralField, half, is_large, read_only, splits, two_halves
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
        # trigonometric interpolation: the fine modes above the coarse ones are 0
        rf, uf = (fine.physical(np.pad(c, (0, m // 2 - grid.n // 2))) for c in (r_coef, u_coef))
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
    F = 1 + N fields; a "field" is one component's coefficients (complex) or
    grid samples (real).  The spectral arithmetic runs on the band
    (``Grid.band_shape``), the coefficients that the 2/3 rule keeps, so no
    phase multiplies by a mask.  Only the transform buffers ``spec`` and
    ``cols`` keep a half spectrum's lines.  Each slot is a view of one of
    four arrays, named here once:

    ``batch``    complex, F^2 band fields.  ``x`` = (``sig``, ``u``), the
                 stage input, then ``grad``, grad[a, c] = d_a x_c:
                 ``grad_sig`` is grad[:, 0] and ``div_terms`` the d_a u_a.
                 Once they are transformed, ``pair_hat`` (the first two
                 fields) holds (``g_hat``, ``lam_g_hat``) = (g, Lambda^alpha
                 g), and once that is transformed ``prods_hat``, the first
                 1 + 2N fields, holds the band of the products' spectra.
                 In 2D the batch is the top 2K + 1 rows of ``cols``, the
                 kept columns k_2 <= K of all n rows, F^2 fields: the inverse
                 transforms move the band's rows k_1 = -K..-1 to the bottom,
                 zero the rows between and run in place there.  In 1D it is
                 the prefix k <= K of the lines of ``spec``.
    ``spec``     complex, 1 + 2N half spectra (1D: F^2, of which the first
                 1 + 2N are ``spec``): the forward transforms' outputs, whose
                 band is gathered into ``g_hat`` and ``prods_hat`` (in 1D
                 they are that band, so nothing is copied).  Between the
                 transforms the real ``div_u`` and ``adv`` = (u.grad sigma,
                 (u.grad) u) use its memory.
    ``samples``  real, max(F^2, 2 + 3N) + 2 fields: ``phys``, the batch's
                 samples, which are ``xv`` = (``sv``, ``uv``) and ``gv``
                 (grad's, with ``gv_diag`` its d_a u_a).  The u_a d_a x
                 products overwrite ``gv``, and once they are reduced, the
                 1 + 2N ``prods`` start where ``gv`` did: ``terms``, the
                 (sigma, u) terms (``terms_s``, ``terms_u``) without
                 Lambda^alpha(g u), then ``gu``.  The last two fields are
                 ``pair`` = (``g``, ``lam_g``): h(sigma), then the samples of
                 (g, Lambda^alpha g).  One array, not two, keeps the heap free
                 of a long-lived 1 MB block at 2D n=256.
    ``k``        complex, 4 x F band fields: ``x0`` = (``s0``, ``u0``), the
                 band of a step's or a tendency's input, then ``acc``, the
                 RK4 sum, and the stage tendencies ``ka`` and ``kb``, each
                 with its (sigma, u) parts.

    The stage's four transforms are bound to their slots here, once, by
    ``Grid.bind``, so their shapes are checked once: ``to_grid`` (``batch``
    to ``phys``, through ``cols``), ``g_back`` (``g`` to ``g_hat``, through
    ``spec``), ``pair_to_grid`` (``pair_hat`` to ``pair``) and
    ``prods_back`` (``prods`` to ``prods_hat``).  The plan also takes each
    slot's two halves along axis -N, once, as views
    (``SpectralPlan._parts``), so that two threads can run pointwise work on
    them at once.  Like the plan, a workspace is not re-entrant.
    """

    def __init__(self, grid: Grid):
        dim, spectral, shape, band = grid.dim, grid.spectral_shape, grid.shape, grid.band_shape
        F = 1 + dim
        # the forward outputs, in 1D the F^2 lines whose prefixes are the batch
        spec = np.empty((F * F if dim == 1 else 1 + 2 * dim,) + spectral, dtype=complex)
        # in 2D the inverse batches' kept columns of all rows; the batch is their top rows
        self.cols = np.empty((F * F,) + spectral[:-1] + band[-1:], complex) if dim == 2 else spec
        self.batch = self.cols[(..., slice(band[0])) + (slice(None),) * (dim - 1)]
        self.spec = spec[: 1 + 2 * dim]
        n_phys = max(F * F, 2 + 3 * dim)
        self.samples = np.empty((n_phys + 2,) + shape)
        self.k = np.empty((4, F) + band, dtype=complex)

        self.x, self.sig, self.u = self.batch[:F], self.batch[:1], self.batch[1:F]
        self.grad = self.batch[F:].reshape((dim, F) + band)
        self.grad_sig, self.div_terms = self.batch[F::F], self.batch[F + 1 :: F + 1]
        self.pair_hat, self.prods_hat = self.batch[:2], self.batch[: 1 + 2 * dim]
        self.g_hat, self.lam_g_hat = self.pair_hat
        real = spec.reshape(-1).view(np.float64)[: (1 + F) * grid.n**dim].reshape((1 + F,) + shape)
        self.div_u, self.adv = real[0], real[1:]

        self.pair = self.samples[n_phys:]
        self.g, self.lam_g = self.pair
        self.phys, self.xv = self.samples[: F * F], self.samples[:F]
        self.sv, self.uv = self.samples[0], self.samples[1:F]
        self.uv_col = self.uv[:, np.newaxis]
        self.gv = self.samples[F : F * F].reshape((dim, F) + shape)
        self.gv_diag = self.samples[F + 1 : F * F : F + 1]
        self.prods = self.samples[F : F + 1 + 2 * dim]
        self.terms, self.gu = self.prods[:F], self.prods[F:]
        self.terms_s, self.terms_u = self.terms[0], self.terms[1:]
        self.terms_hat, self.gu_hat = self.prods_hat[:F], self.prods_hat[F:]

        self.x0, self.acc, self.ka, self.kb = self.k
        self.s0, self.u0 = self.x0[:1], self.x0[1:]
        self.acc_s, self.ka_s, self.kb_s = self.k[1:, :1]
        self.acc_u, self.ka_u, self.kb_u = self.k[1:, 1:]

        self.to_grid = grid.bind("band_physical", self.batch, self.phys, self.cols)
        self.g_back = grid.bind("band_spectral", self.g, self.g_hat, self.spec[0])
        self.pair_to_grid = grid.bind("band_physical", self.pair_hat, self.pair, self.cols[:2])
        self.prods_back = grid.bind("band_spectral", self.prods, self.prods_hat, self.spec)


class SpectralPlan:
    """The sigma-u tendency, the integrating-factor RK4 step and the reusable
    buffers of one (grid, params).

    The plan keeps no half-spectrum symbol: its phases read the bands of the
    grid's ``ixi`` (i*xi per axis, Nyquist zeroed) and ``lambda_symbol``
    (|xi|^alpha, mean zeroed), and mu |xi|^alpha formed on the band
    (``_parts``).  ``tendency`` is the whole right-hand side, the stiff
    -mu Lambda^alpha u included, which ``step`` integrates exactly instead.
    The tendency acts on the stacked (sigma, u) array: each operation that is
    the same for sigma and u runs once on all 1 + N fields.  Its spectral
    arithmetic runs on the band of the 2/3 rule (``Grid.band_shape``):
    ``tendency`` and ``step`` gather the band of their half-spectrum inputs
    into the workspace's ``x0``, the stage inputs, tendencies and RK4 sums
    stay on the band, and the results are the band scattered into zeros
    (``Grid.unband``), so every masked mode of a result is +0 and no phase
    multiplies by a mask.  A ``step`` call of several steps gathers and
    scatters once: between its steps the state stays on the band, each step
    starting from the last one's RK4 sum.  The tendency moves its batches to
    the grid with the grid's bound "band_physical" and back with its
    "band_spectral": 4 transform batches, 16 per step, whose first stage
    checks that step's input density on samples it makes anyway.  In 2D each
    batch is two NumPy calls, one 1D pass per axis, and the band's scatter
    or gather.  The batches, temporaries, stage inputs and tendencies live
    in ``workspace``, allocated on first use and reused by every later
    ``tendency`` and ``step``, so a ``step`` call allocates only the arrays
    it returns.  A plan is therefore not re-entrant: two threads must not
    run its ``tendency`` or ``step`` at once.  Use ``plan_for``.

    Between the transforms the work is pointwise.  ``tendency`` and ``step``
    write it as generators of phases, and each yield of ``_tendency`` names
    the workspace's bound transform that runs next; ``_run`` drives the
    generator to its end with one plain loop, or through ``_halves`` on two
    halves at once where ``grid.splits`` holds for the (sigma, u)
    coefficients of the half spectrum (not of the band, which at 2D n=256
    holds fewer than 2**16), and runs each named transform in between.  So
    the stage's transform sequence is written once, in ``_tendency``.  Its
    ufuncs take ``out`` positionally, which skips NumPy's keyword parsing.
    The phases read their symbols' bands from a namespace of the part
    (``_parts``), where the factors of complex products are complex
    (``_operand``) below ``grid.is_large`` state coefficients, and -lam and
    the step's scalars are ``np.complex128``: NumPy would otherwise convert
    them at every call, with the same bits.
    """

    def __init__(self, grid: Grid, params: ModelParams):
        self.grid, self.params = grid, params
        # the fields' factors in -(gamma-1) sigma div u and mu u Lambda^alpha g
        source = [-(params.gamma - 1.0)] + [params.mu] * grid.dim
        self._source_factor = read_only(np.array(source).reshape((-1,) + (1,) * grid.dim))
        self._state_size = (1 + grid.dim) * math.prod(grid.spectral_shape)
        # (dt, its pair): a run steps with one dt
        self._semigroup = None

    @functools.cached_property
    def workspace(self) -> Workspace:
        return Workspace(self.grid)

    @functools.cached_property
    def _parts(self) -> tuple:
        """The whole workspace with the symbols, then its two halves along axis
        -N, each a namespace of those names, ``neg_lam`` = -lam and ``cut``,
        which takes the same part of any array; ``semigroup`` adds the step's
        symbols and scalars.  The symbols are the bands of the grid's ``ixi``
        (as ``ixi_col``) and ``lambda_symbol(alpha)`` (``lam_alpha``), and
        ``mu_lam_alpha`` = mu ``lam_alpha``, formed on the band."""
        whole = {k: a for k, a in vars(self.workspace).items() if isinstance(a, np.ndarray)}
        grid, p = self.grid, self.params
        lam = grid.band(grid.lambda_symbol(p.alpha))
        symbols = dict(ixi_col=grid.band(grid.ixi())[:, np.newaxis], lam_alpha=lam, mu_lam_alpha=p.mu * lam)
        whole.update({k: self._operand(a) for k, a in symbols.items()}, source=self._source_factor)
        cuts = [lambda a: a] + [functools.partial(half, i=i, axis=-grid.dim) for i in (0, 1)]
        neg_lam = np.complex128(-p.lam)
        return tuple(
            types.SimpleNamespace(**{k: c(a) for k, a in whole.items()}, neg_lam=neg_lam, cut=c)
            for c in cuts
        )

    def _operand(self, a: np.ndarray) -> np.ndarray:
        """Symbol ``a`` on the band, read-only, as a factor of complex arrays: a
        complex copy where the state is not ``is_large`` (NumPy would cast a
        real operand at every call), and ``a`` itself above, where copies cost
        memory."""
        return read_only(a if is_large(self._state_size) else a.astype(complex))

    def semigroup(self, dt: float):
        """(e^{-mu (dt/2) Lambda^alpha}, its square) on the band, memoised for
        the last dt together with the step's dt e_half and 2 e_half, and their
        halves, as operands (``_operand``), and the scalars dt/2, dt, dt/6 and 2."""
        if self._semigroup is None or self._semigroup[0] != dt:
            p = self.params
            e_half = read_only(self.grid.band(heat_multiplier(self.grid, p.alpha, p.mu, dt / 2.0)))
            e_full = read_only(e_half * e_half)
            self._semigroup = dt, (e_half, e_full)
            symbols = dict(e_half=e_half, e_full=e_full, dt_e_half=dt * e_half)
            symbols.update(two_e_half=2.0 * e_half)
            symbols = {k: self._operand(a) for k, a in symbols.items()}
            # the step's floats, as complex128 (the cast is exact)
            scalars = np.array([0.5 * dt, dt, dt / 6.0, 2.0], complex)
            scalars = dict(zip(("half_dt", "dt", "sixth_dt", "two"), scalars))
            for v in self._parts:
                vars(v).update({k: v.cut(a) for k, a in symbols.items()}, **scalars)
        return self._semigroup[1]

    def _run(self, phases) -> None:
        """Drive the generator ``phases(part)`` to its end, and between its yields
        run the transform each names: a (bound transform of the workspace, min
        h(sigma) for the guard or None) pair.  Where the (sigma, u)
        coefficients do not split, this is one plain loop over ``phases`` of
        the whole workspace; where ``grid.splits`` holds for them, ``_halves``
        drives ``phases`` on the two halves at once."""
        whole = not splits(self._state_size)
        for transform, mn in phases(self._parts[0]) if whole else self._halves(phases):
            if mn is not None:
                mn = 1.0 + float(mn)
                if not (mn >= VACUUM_THRESHOLD):
                    raise VacuumError(mn)
            transform()

    def _halves(self, phases):
        """The (transform, min h(sigma) of both halves or None) pairs of
        ``phases`` run on the two halves at once by ``two_halves``.  A
        ``VacuumError`` in a half, which knows only its own min rho, reruns
        ``phases`` on the whole workspace, to name the global one."""
        gens = [phases(v) for v in self._parts[1:]]
        advance = lambda i: next(gens[i], None)
        while True:
            try:
                named = two_halves(advance)
            except VacuumError:
                yield from phases(self._parts[0])
                return
            if named[0] is None:
                return
            (transform, mn), (_, mn_1) = named
            yield transform, (None if mn is None else np.minimum(mn, mn_1))

    def tendency(self, sig: np.ndarray, u: np.ndarray, linear_only: bool = False):
        """Dealiased tendencies of the coefficients (sigma, u), the stiff
        -mu Lambda^alpha u term included, as two new arrays.

        sigma' = -lam div u - u.grad sigma - (gamma-1) sigma div u
        u'     = -lam grad sigma - (u.grad) u - mu (Lambda^alpha(g u) - u Lambda^alpha g)
                 - mu Lambda^alpha u
        with g = h(sigma) = rho - 1.  The band of the inputs is copied into
        the workspace's ``x0``, so they may be any arrays, and the phases copy
        it into the stage input, as ``step``'s first stage does: a rerun after
        a half's ``VacuumError`` starts from the input, which the first
        transform overwrites in the batch.  The kernel is the one ``step``
        runs (see ``_tendency``), which leaves the stiff term to the
        semigroup; it is subtracted here, on the band, before the one
        scatter.  The masked modes of the results are +0.
        """
        v = self._parts[0]  # the whole workspace
        self.grid.band(sig, v.s0)
        self.grid.band(u, v.u0)
        self._run(lambda part: self._tendency(part, part.kb, part.kb_s, part.kb_u, linear_only, first=True))
        v.kb_u -= np.multiply(v.mu_lam_alpha, v.u0, v.ka_u)
        return self.grid.unband(v.kb_s), self.grid.unband(v.kb_u)

    def _tendency(self, v, k, k_s, k_u, linear_only: bool, guard: bool = False, first: bool = False):
        """The phases of the tendency of the stage input ``v.x`` into the
        stacked k, with its (sigma, u) parts ``k_s`` and ``k_u``, on part v:
        a generator whose every yield names the transform that runs next, for
        ``_run`` to run on the whole workspace.  With ``first`` the stage
        input is first copied from the input ``v.x0``.

        The nonlinear terms cost four batched transforms: (sigma, u) and their
        gradients to the grid, h(sigma) back, (g, Lambda^alpha g) to the grid,
        and the 1 + 2N products back, each from or to the band.  The
        gradients, the -lam terms, the advection, the source terms and the
        final sums run once on the stacked (sigma, u) fields, each kept mode
        with the operations and operation order of the out-of-place formula,
        so the bits are the same.
        With ``guard`` h(sigma)'s yield carries min h(sigma) of the samples,
        and ``_run`` raises ``VacuumError`` where min rho = 1 + that is below
        ``VACUUM_THRESHOLD`` or NaN; ``linear_only`` makes no transform and so
        checks nothing.
        """
        p, ws = self.params, self.workspace
        if first:
            v.x[...] = v.x0
        np.multiply(v.ixi_col, v.x, v.grad)
        np.add.reduce(v.div_terms, axis=0, keepdims=True, out=k_s)
        k_u[...] = v.grad_sig
        np.multiply(v.neg_lam, k, k)  # -lam (div u, grad sigma)
        if linear_only:
            return
        yield ws.to_grid, None  # (x, grad x) to the grid
        h_of_sigma(v.sv, p, out=v.g)
        # h(sigma) back, with its min for the guard
        yield ws.g_back, (np.minimum.reduce(v.g, axis=None) if guard else None)
        np.multiply(v.lam_alpha, v.g_hat, v.lam_g_hat)  # (g, Lambda^alpha g)
        yield ws.pair_to_grid, None  # (g, Lambda^alpha g) to the grid
        # div u and the advection terms use spec, dead until the products go back
        np.add.reduce(v.gv_diag, axis=0, initial=0.0, out=v.div_u)  # 0 + d_1 u_1 + ...
        np.add.reduce(np.multiply(v.uv_col, v.gv, v.gv), axis=0, out=v.adv)
        # -(gamma-1) sigma div u and mu u Lambda^alpha g; a - b is a + (-b)
        np.multiply(v.source, v.xv, v.terms)
        np.multiply(v.terms_s, v.div_u, v.terms_s)
        np.multiply(v.terms_u, v.lam_g, v.terms_u)
        np.add(np.negative(v.adv, v.adv), v.terms, v.terms)
        np.multiply(v.g, v.uv, v.gu)
        yield ws.prods_back, None  # the products back
        k += v.terms_hat
        k_u -= np.multiply(v.mu_lam_alpha, v.gu_hat, v.gu_hat)

    def step(
        self, sig: np.ndarray, u: np.ndarray, dt: float, linear_only: bool = False, steps: int = 1
    ):
        """``steps`` integrating-factor RK4 steps of the coefficients (sigma, u).

        The stiff -mu Lambda^alpha u term is integrated exactly through
        ``semigroup(dt)``, the rest through four stages of the tendency
        kernel.  The first stage of each step guards that step's input: it
        raises ``VacuumError`` when the density of its sigma nears vacuum or
        is NaN (a ``linear_only`` step checks nothing).  The stages run in
        ``workspace``; stage inputs that treat sigma and u alike are formed
        on the stacked array, and the RK4 sums accumulate in place as the
        stages finish, in the formula's operation order, so the bits are
        those of the out-of-place expression.  It gathers the band of its
        half-spectrum inputs into ``x0`` once; each step after the first
        starts from the last one's RK4 sum, copied into ``x0``, so the state
        stays on the band and each step has the bits of a call of its own.
        It returns the new (sigma, u), the band of the last RK4 sum scattered
        into zeros: the only new memory.
        """
        self.semigroup(dt)  # the parts' symbols for this dt
        ws = self.workspace
        self.grid.band(sig, ws.s0)
        self.grid.band(u, ws.u0)

        def phases(v):
            s, w = v.s0, v.u0
            x, xs, xu = v.x, v.sig, v.u  # the stage input, in the batch
            acc, ka, kb = v.acc, v.ka, v.kb  # the RK4 sum, from k1 on, and two stages
            stage = functools.partial(self._tendency, v, linear_only=linear_only)
            yield from stage(acc, v.acc_s, v.acc_u, guard=True, first=True)  # k1
            # sig + dt/2 k1s, (u + dt/2 k1u) e_half
            np.multiply(v.half_dt, acc, x)
            np.add(s, xs, xs)
            np.multiply(np.add(w, xu, xu), v.e_half, xu)
            yield from stage(ka, v.ka_s, v.ka_u)  # k2
            # sig + dt/2 k2s, u e_half + dt/2 k2u
            np.multiply(v.half_dt, ka, x)
            np.add(s, xs, xs)
            np.add(np.multiply(w, v.e_half, v.kb_u), xu, xu)
            v.ka_s *= v.two
            v.acc_s += v.ka_s  # k1s + 2 k2s
            v.acc_u *= v.e_full  # e_full k1u
            yield from stage(kb, v.kb_s, v.kb_u)  # k3
            # sig + dt k3s, u e_full + dt e_half k3u
            np.add(s, np.multiply(v.dt, v.kb_s, xs), xs)
            v.ka_u += v.kb_u  # k2u + k3u
            np.multiply(v.dt_e_half, v.kb_u, v.kb_u)
            np.add(np.multiply(w, v.e_full, xu), v.kb_u, xu)
            v.kb_s *= v.two
            v.acc_s += v.kb_s  # + 2 k3s
            v.acc_u += np.multiply(v.two_e_half, v.ka_u, v.ka_u)
            yield from stage(ka, v.ka_s, v.ka_u)  # k4
            acc += ka
            acc *= v.sixth_dt
            v.acc_s += s
            v.acc_u += np.multiply(w, v.e_full, v.kb_u)

        # one _run a step: a half's VacuumError reruns that step from x0, its input
        self._run(phases)
        for _ in range(steps - 1):
            np.copyto(ws.x0, ws.acc)
            self._run(phases)
        return self.grid.unband(ws.acc_s), self.grid.unband(ws.acc_u)


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

    It is ``plan_for(grid, params).tendency``, the kernel the stepper uses,
    stiff term included: four transform batches (none with ``linear_only``).
    """
    dsig, du = plan_for(state.grid, params).tendency(state.scalar.coef, state.u.coef, linear_only)
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
