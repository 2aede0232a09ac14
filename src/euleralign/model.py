"""The Euler-alignment model: parameters, state, right-hand sides and the step.

A state holds the acoustic variable sigma (a monotone function of the
density rho that vanishes at the equilibrium rho = 1) and the velocity u;
``rho_from_sigma`` converts samples.  A ``SpectralPlan`` per (grid, params)
holds the sigma-u tendency and the integrating-factor RK4 ``step`` on
coefficient arrays, with the buffers they share; ``rhs`` calls the same
kernel, ``SpectralPlan.tendency``, which includes the stiff term.  The
quadrature ``alignment_direct`` is an oracle for the tests and the benchmark,
not a second solver path.

The alignment force uses the commutator form -mu * rho * (Lambda^alpha(rho u)
- u Lambda^alpha rho), with Lambda^alpha realized by its Fourier symbol.  The
dissipation coefficient mu defaults to 1/|c| where c is the classical
normalization constant of the singular-integral fractional Laplacian.
"""

from __future__ import annotations

import functools
import math
import operator
import types
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .grid import Grid, GridError, SpectralField, half, is_large, read_only, splits, two_halves
# dealias is not called here: perfbench/test_harness.py reads model.dealias to
# check that its tracer restores the names a module imported
from .operators import ParameterError, dealias, fractional_laplacian, heat_multiplier, physical_product

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


def _h(params: ModelParams):
    """h(sigma) = rho - 1 in numerically stable form, as a call h(sigma, out)
    bound to ``params`` that writes every operation into ``out`` (a new array
    if None); at gamma > 1, rho <= 0 raises VacuumError."""
    lam, gm1 = params.lam, params.gamma - 1.0

    def h(sigma, out):
        if gm1 == 0.0:  # gamma = 1
            arg = np.divide(sigma, lam, out)
            return np.expm1(arg, arg)
        arg = np.multiply(gm1, sigma, out)
        np.divide(arg, lam, arg)
        mn = float(np.min(arg))
        if mn <= -1.0:
            raise VacuumError(mn + 1.0)
        np.log1p(arg, arg)
        np.divide(arg, gm1, arg)
        return np.expm1(arg, arg)
    return h


def h_of_sigma(sigma: np.ndarray, params: ModelParams) -> np.ndarray:
    """h(sigma) = rho - 1 (``_h``), as one new array.  It owns the rule rho > 0
    for every sigma the program reads or records: min rho = 1 + min h not > 0
    raises ``VacuumError``, which covers a NaN and, at gamma = 1, a rho that
    underflows to 0.  Steps and later records keep their own, stricter guard
    (``VACUUM_THRESHOLD``)."""
    h = _h(params)(np.asarray(sigma, dtype=np.float64), None)
    mn = 1.0 + float(np.min(h))
    if not mn > 0:
        raise VacuumError(mn)
    return h


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
    c = frac_laplacian_constant(alpha, 1)
    frac = np.mod(z / L, 1.0)
    s = 1.0 + alpha
    out = np.zeros_like(frac)
    interior = (frac > 0) & (frac < 1)
    out[interior] = (
        c / L**s * (_hurwitz_zeta(s, frac[interior]) + _hurwitz_zeta(s, 1.0 - frac[interior]))
    )
    return out


# B_{2j} / (2j)!, j = 1..7: the Euler-Maclaurin tail's Bernoulli coefficients
_BERNOULLI = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
              -691 / 1307674368000, 1 / 74724249600)


def _hurwitz_zeta(s: float, q: np.ndarray) -> np.ndarray:
    """Hurwitz zeta sum_{k >= 0} (k + q)^{-s} for s > 1 and q in (0, 1], by
    Euler-Maclaurin summation (Johansson, Numer. Algorithms 69 (2015)): 10
    terms, then the tail from a = q + 10, a^{1-s}/(s-1) + a^{-s}/2 plus 7
    Bernoulli terms.  For s < 3 the remainder is below 1e-16 of the sum."""
    a = q + 10.0
    total = a ** (1.0 - s) / (s - 1.0) + 0.5 * a**-s
    term = s * a ** (-s - 1.0)  # s (s+1) ... (s+2j-2) a^{-s-2j+1}, from j = 1
    for j, b in enumerate(_BERNOULLI, start=1):
        total += b * term
        term *= (s + 2 * j - 1) * (s + 2 * j) / (a * a)
    for k in range(10):
        total += (q + k) ** -s
    return total


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
    buffers of one (grid, params).  Use ``plan_for``.

    ``tendency`` is the whole right-hand side, the stiff -mu Lambda^alpha u
    included, which ``step`` integrates exactly instead.  Both act on the
    stacked (sigma, u) array, each operation that is the same for sigma and
    u once on all 1 + N fields, on the band of the 2/3 rule
    (``Grid.band_shape``): they gather their inputs' band into the
    workspace's ``x0`` and scatter their results' band into zeros, so every
    masked mode of a result is +0 and no phase multiplies by a mask.  The
    plan keeps no half-spectrum symbol.  A tendency makes 4 bound band
    transforms, a step 16, whose first stage checks the step's input
    density on samples it makes anyway.  The buffers live in ``workspace``,
    so a ``step`` call allocates only the arrays it returns, and a plan is
    not re-entrant: two threads must not run it at once.

    Between the transforms the work is pointwise: a program (``_program``)
    of phases, closures bound once to the arrays of one part of the
    workspace (``_parts``), each paired with the bound transform that runs
    after it.  ``_run`` drives the whole workspace's program with one plain
    loop, or, where ``grid.splits`` holds for the (sigma, u) coefficients of
    the half spectrum (not of the band, which at 2D n=256 holds fewer than
    2**16), the two halves' programs at once, phase by phase.  So the
    stage's transform sequence is written once, in ``_program``.  Its ufuncs
    take ``out`` positionally, which skips NumPy's keyword parsing.  Below
    ``grid.is_large`` state coefficients the factors of complex products are
    complex (``_operand``), and -lam and the step's scalars are
    ``np.complex128``: NumPy would otherwise convert them at every call,
    with the same bits.
    """

    def __init__(self, grid: Grid, params: ModelParams):
        self.grid, self.params = grid, params
        # the fields' factors in -(gamma-1) sigma div u and mu u Lambda^alpha g
        source = [-(params.gamma - 1.0)] + [params.mu] * grid.dim
        self._source_factor = read_only(np.array(source).reshape((-1,) + (1,) * grid.dim))
        self._state_size = (1 + grid.dim) * math.prod(grid.spectral_shape)
        # (dt, its pair): a run steps with one dt
        self._semigroup = None
        self._programs = {}  # each part's, by (step, linear_only): see _run

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

    def _run(self, key: tuple, split: bool = True) -> None:
        """Run the whole workspace's program of ``key`` = (step, linear_only)
        (``_program``, built on first use), each phase then its transform, or
        where ``grid.splits`` holds for the (sigma, u) coefficients, phase j of
        the halves' programs at once by ``two_halves``.  Min rho = 1 + min
        h(sigma) below ``VACUUM_THRESHOLD`` or NaN raises ``VacuumError``; a
        half's own, which knows only its min rho, reruns the whole program."""
        if key not in self._programs:
            self._programs[key] = tuple(self._program(v, *key) for v in self._parts)
        whole, *halves = self._programs[key]
        split = split and splits(self._state_size)
        for j, (phase, transform) in enumerate(whole):
            if not split:
                mn = phase()
            else:
                try:
                    mn, mn_1 = two_halves(lambda i: halves[i][j][0]())
                except VacuumError:
                    return self._run(key, split=False)
                mn = mn if mn is None else np.minimum(mn, mn_1)
            if mn is not None:
                mn = 1.0 + float(mn)
                if not (mn >= VACUUM_THRESHOLD):
                    raise VacuumError(mn)
            transform()

    def tendency(self, sig: np.ndarray, u: np.ndarray):
        """Dealiased tendencies of the coefficients (sigma, u), the stiff
        -mu Lambda^alpha u term included, as two new arrays.

        sigma' = -lam div u - u.grad sigma - (gamma-1) sigma div u
        u'     = -lam grad sigma - (u.grad) u - mu (Lambda^alpha(g u) - u Lambda^alpha g)
                 - mu Lambda^alpha u
        with g = h(sigma) = rho - 1.  The kernel is the one ``step`` runs
        (``_program``), which leaves the stiff term to the semigroup; it is
        subtracted here, on the band, before the one scatter.
        """
        v = self._parts[0]  # the whole workspace
        self.grid.band(sig, v.s0)
        self.grid.band(u, v.u0)
        self._run((False, False))
        v.kb_u -= np.multiply(v.mu_lam_alpha, v.u0, v.ka_u)
        return self.grid.unband(v.kb_s), self.grid.unband(v.kb_u)

    def _program(self, v, step: bool, linear_only: bool) -> tuple:
        """The program of a ``step``, or of a ``tendency`` into ``kb``, on part
        v: (phase, transform) pairs, each phase a closure bound here, once, to
        the part's arrays and to h(sigma) (``_h``); it reads the step's dt
        symbols, which ``semigroup`` replaces, from the part at each call.  The
        first copies the input ``x0`` into the stage input, which the first
        transform overwrites, so a rerun starts afresh.  A stage (the tendency
        of ``x`` into a stacked k) is five phases around four transforms:
        (x, grad x) to the grid, h(sigma) back, (g, Lambda^alpha g) to the
        grid and the 1 + 2N products back; a ``linear_only`` step keeps only
        the -lam terms.  Each kept mode meets the operations of the out-of-place
        formula in its order, so the bits are the same.  Phases with no
        transform between them run as one, the RK4 combinations with the end
        of one stage and the start of the next: 17 phases a step, 5 a
        tendency, 1 a ``linear_only`` step.
        """
        ws, h = self.workspace, _h(self.params)
        transforms = to_grid, g_back, pair_to_grid, prods_back = ws.to_grid, ws.g_back, ws.pair_to_grid, ws.prods_back
        (x, xs, xu, x0, s0, u0, acc, acc_s, acc_u, ka, ka_s, ka_u, kb, kb_s, kb_u, sv, g, g_hat, lam_g_hat, ixi_col,
         grad, div_terms, grad_sig, neg_lam, lam_alpha, gv_diag, div_u, uv_col, gv, adv, source, xv, uv, lam_g, terms,
         terms_s, terms_u, gu, terms_hat, gu_hat, mu_lam_alpha) = operator.attrgetter(*(
            "x sig u x0 s0 u0 acc acc_s acc_u ka ka_s ka_u kb kb_s kb_u sv g g_hat lam_g_hat ixi_col grad div_terms"
            " grad_sig neg_lam lam_alpha gv_diag div_u uv_col gv adv source xv uv lam_g terms terms_s terms_u gu"
            " terms_hat gu_hat mu_lam_alpha").split())(v)

        def stage(k, k_s, k_u, guard=False):
            def start():  # the gradients, then -lam (div u, grad sigma)
                np.multiply(ixi_col, x, grad)
                np.add.reduce(div_terms, axis=0, keepdims=True, out=k_s)
                k_u[...] = grad_sig
                np.multiply(neg_lam, k, k)
            def h_phase():  # with its min for the guard
                h(sv, g)
                return np.minimum.reduce(g, axis=None) if guard else None
            def pair():  # (g, Lambda^alpha g)
                np.multiply(lam_alpha, g_hat, lam_g_hat)
            def prods():
                # div u and the advection terms use spec, dead until the products go back
                np.add.reduce(gv_diag, axis=0, initial=0.0, out=div_u)  # 0 + d_1 u_1 + ...
                np.add.reduce(np.multiply(uv_col, gv, gv), axis=0, out=adv)
                # -(gamma-1) sigma div u and mu u Lambda^alpha g; a - b is a + (-b)
                np.multiply(source, xv, terms)
                np.multiply(terms_s, div_u, terms_s)
                np.multiply(terms_u, lam_g, terms_u)
                np.add(np.negative(adv, adv), terms, terms)
                np.multiply(g, uv, gu)
            def end():  # k += the products, k_u -= mu Lambda^alpha(g u)
                np.add(k, terms_hat, k)
                np.subtract(k_u, np.multiply(mu_lam_alpha, gu_hat, gu_hat), k_u)
            return [start] if linear_only else [start, to_grid, h_phase, g_back, pair, pair_to_grid, prods, prods_back, end]

        def k2_input():  # sig + dt/2 k1s, (u + dt/2 k1u) e_half
            np.multiply(v.half_dt, acc, x)
            np.add(s0, xs, xs)
            np.multiply(np.add(u0, xu, xu), v.e_half, xu)
        def k3_input():  # sig + dt/2 k2s, u e_half + dt/2 k2u
            np.multiply(v.half_dt, ka, x)
            np.add(s0, xs, xs)
            np.add(np.multiply(u0, v.e_half, kb_u), xu, xu)
            np.multiply(ka_s, v.two, ka_s)
            np.add(acc_s, ka_s, acc_s)  # k1s + 2 k2s
            np.multiply(acc_u, v.e_full, acc_u)  # e_full k1u
        def k4_input():  # sig + dt k3s, u e_full + dt e_half k3u
            np.add(s0, np.multiply(v.dt, kb_s, xs), xs)
            np.add(ka_u, kb_u, ka_u)  # k2u + k3u
            np.multiply(v.dt_e_half, kb_u, kb_u)
            np.add(np.multiply(u0, v.e_full, xu), kb_u, xu)
            np.multiply(kb_s, v.two, kb_s)
            np.add(acc_s, kb_s, acc_s)  # + 2 k3s
            np.add(acc_u, np.multiply(v.two_e_half, ka_u, ka_u), acc_u)
        def rk4_sum():
            np.add(acc, ka, acc)
            np.multiply(acc, v.sixth_dt, acc)
            np.add(acc_s, s0, acc_s)
            np.add(acc_u, np.multiply(u0, v.e_full, kb_u), acc_u)

        # k1 goes into the RK4 sum, k2 and k4 into ka, k3 into kb; the transforms cut the sequence into phases
        seq = [*stage(acc, acc_s, acc_u, guard=True), k2_input, *stage(ka, ka_s, ka_u), k3_input,
               *stage(kb, kb_s, kb_u), k4_input, *stage(ka, ka_s, ka_u), rk4_sum] if step else stage(kb, kb_s, kb_u)
        program, phase = [], [functools.partial(x.__setitem__, ..., x0)]  # x[...] = x0
        for f in seq:
            if f in transforms:
                program.append((_joined(phase), f))
                phase = []
            else:
                phase.append(f)
        return (*program, (_joined(phase), lambda: None))

    def step(
        self, sig: np.ndarray, u: np.ndarray, dt: float, linear_only: bool = False, steps: int = 1
    ):
        """``steps`` integrating-factor RK4 steps of the coefficients (sigma, u).

        The stiff -mu Lambda^alpha u term is integrated exactly through
        ``semigroup(dt)``, the rest through four stages of the tendency
        kernel, whose first raises ``VacuumError`` when the density of the
        step's input nears vacuum or is NaN (a ``linear_only`` step checks
        nothing).  The RK4 sums follow the formula's operation order, so the
        bits are those of the out-of-place expression.  Each step after the
        first starts from the last one's RK4 sum, copied into ``x0``, so each
        has the bits of a call of its own.  It returns the new (sigma, u),
        the last RK4 sum scattered into zeros: the only new memory.
        """
        self.semigroup(dt)  # the parts' symbols for this dt
        ws = self.workspace
        self.grid.band(sig, ws.s0)
        self.grid.band(u, ws.u0)
        key = True, bool(linear_only)
        # one _run a step: a half's VacuumError reruns that step from x0, its input
        self._run(key)
        for _ in range(steps - 1):
            np.copyto(ws.x0, ws.acc)
            self._run(key)
        return self.grid.unband(ws.acc_s), self.grid.unband(ws.acc_u)


def _joined(phases: list):
    """One phase that runs ``phases`` in turn, or the one phase itself."""
    def joined():
        for phase in phases:
            phase()
    return phases[0] if len(phases) == 1 else joined


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


def rhs(state: State, params: ModelParams):
    """Time derivative of the state: the spectral fields (d sigma/dt, du/dt).

    It is ``plan_for(grid, params).tendency``, the kernel the stepper uses,
    stiff term included: four transform batches.
    """
    dsig, du = plan_for(state.grid, params).tendency(state.scalar.coef, state.u.coef)
    return SpectralField(state.grid, dsig), SpectralField(state.grid, du)
