"""Constant-coefficient analysis of the linearized system.

Per frequency, the compressible pair (sigma_hat, d_hat) obeys

    d/dt [sigma_hat]   [ 0        -lam*|xi|  ] [sigma_hat]
         [d_hat    ] = [ lam*|xi| -mu*|xi|^a ] [d_hat    ]

while each incompressible component decays at the pure rate -mu*|xi|^alpha.
``propagate_pair_field`` is the one exact flow of the pair: it applies the
closed-form exponential e^{Mt} = c0 I + c1 M to every frequency of a field
at once (``simulation.linear_exact_flow`` adds the incompressible part).
The regime threshold |xi|^{alpha-1} = 4*lam/mu separates the damped-wave
(low) and damped/parabolic (high) behavior; the block energies Y_j carry the
corresponding decay rates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import SpectralField
from .model import ModelParams
from .operators import ParameterError, _lambda_symbol, lambda_power

__all__ = [
    "LinearEnergyParams",
    "mode_matrix",
    "mode_eigenvalues",
    "regime_classify",
    "energy_Yj",
    "propagate_pair_field",
    "rate_floor",
    "kernel_bound_check",
]

DELTA = 1.0 / 300.0


@dataclass(frozen=True)
class LinearEnergyParams:
    """Derived coefficients of the block-energy machinery."""

    alpha: float
    lam: float
    mu: float

    @classmethod
    def from_model(cls, params: ModelParams) -> "LinearEnergyParams":
        return cls(alpha=params.alpha, lam=params.lam, mu=params.mu)

    @property
    def delta(self) -> float:
        return DELTA

    @property
    def mu_bar(self) -> float:
        """Low-regime rate coefficient delta*mu/8."""
        return DELTA * self.mu / 8.0

    @property
    def nu_bar(self) -> float:
        """High-regime rate coefficient lam^2/(4 mu)."""
        return self.lam**2 / (4.0 * self.mu)

    @property
    def j0_real(self) -> float:
        """Real solution of 2^{j0 (alpha-1)} = 4 lam / mu."""
        return np.log2(4.0 * self.lam / self.mu) / (self.alpha - 1.0)

    @property
    def j0(self) -> int:
        """Integer split index (floor keeps the low-regime inequality valid)."""
        return int(np.floor(self.j0_real))

    @property
    def mu_h(self) -> float:
        """High-frequency damping rate min(nu_bar 2^{j0(2-a)}, mu 2^{j0 a})."""
        j0 = self.j0_real
        return min(
            self.nu_bar * 2.0 ** (j0 * (2.0 - self.alpha)),
            self.mu * 2.0 ** (j0 * self.alpha),
        )

    @property
    def xi_threshold(self) -> float:
        """|xi| at the regime boundary."""
        return (4.0 * self.lam / self.mu) ** (1.0 / (self.alpha - 1.0))


def mode_matrix(xi: float, ep: LinearEnergyParams):
    """2x2 mode matrix acting on (sigma_hat, d_hat) and the incompressible rate."""
    if xi <= 0:
        raise ParameterError(f"|xi| must be > 0, got {xi}")
    a = ep.lam * xi
    b = ep.mu * xi**ep.alpha
    m = np.array([[0.0, -a], [a, -b]])
    return m, -b


def _mode_roots(a, b):
    """Discriminant and roots (-b +- sqrt(disc))/2 of z^2 + b z + a^2."""
    disc = b * b - 4.0 * a * a
    rt = np.sqrt(np.asarray(disc, dtype=np.complex128))
    return disc, (-b + rt) / 2.0, (-b - rt) / 2.0


def mode_eigenvalues(xi: float, ep: LinearEnergyParams):
    """Eigenvalues of the mode matrix, ordered (fast, slow) by |Re|."""
    _, z1, z2 = _mode_roots(ep.lam * xi, ep.mu * xi**ep.alpha)
    # fast = more negative real part
    return (z1, z2) if z1.real <= z2.real else (z2, z1)


def regime_classify(xi: float, ep: LinearEnergyParams) -> str:
    """'low' iff |xi|^{alpha-1} <= 4 lam/mu, else 'high'."""
    return "low" if xi ** (ep.alpha - 1.0) <= 4.0 * ep.lam / ep.mu else "high"


def rate_floor(xi: float, ep: LinearEnergyParams) -> float:
    """Dissipation floor (1/8) min(mu |xi|^a, (lam^2/mu) |xi|^{2-a})."""
    return 0.125 * min(
        ep.mu * xi**ep.alpha, (ep.lam**2 / ep.mu) * xi ** (2.0 - ep.alpha)
    )


# -- block energies ---------------------------------------------------------


def energy_Yj(
    sigma_block: SpectralField,
    d_block: SpectralField,
    j: int,
    ep: LinearEnergyParams,
) -> float:
    """Block energy Y_j for annulus-supported (sigma, d) data.

    Low regime (j <= j0):
        Y^2 = ||s||^2 + ||d||^2 - delta (mu/lam) (d | Lambda^{a-1} s)
    High regime:
        Y^2 = ||Lambda^{a-1} s||^2 + 2 (lam/mu)^2 ||d||^2
              - 2 (lam/mu) (d | Lambda^{a-1} s)
    """
    lam_s = lambda_power(sigma_block, ep.alpha - 1.0)
    cross = d_block.inner(lam_s)
    if j <= ep.j0:
        y2 = (
            sigma_block.l2() ** 2
            + d_block.l2() ** 2
            - ep.delta * (ep.mu / ep.lam) * cross
        )
    else:
        r = ep.lam / ep.mu
        y2 = lam_s.l2() ** 2 + 2.0 * r**2 * d_block.l2() ** 2 - 2.0 * r * cross
    if y2 < -1e-12 * max(sigma_block.l2() ** 2 + d_block.l2() ** 2, 1.0):
        raise RuntimeError(f"negative block energy radicand: {y2}")
    return float(np.sqrt(max(y2, 0.0)))


# -- exact propagator -------------------------------------------------------

_DOUBLE_ROOT_TOL = 1e-12


def _expm_2x2_coeffs(a: np.ndarray, b: np.ndarray, t: float):
    """Scalar coefficients (c0, c1) with e^{Mt} = c0 I + c1 M, vectorized.

    a = lam|xi|, b = mu|xi|^alpha; eigenvalues are the roots of
    z^2 + b z + a^2.  Falls back to the double-root branch when the
    discriminant is negligible against b^2.
    """
    disc, zp, zm = _mode_roots(a, b)
    ezp = np.exp(zp * t)
    ezm = np.exp(zm * t)
    diff = zp - zm
    double = np.abs(disc) < _DOUBLE_ROOT_TOL * np.maximum(b * b, 1e-300)
    safe_diff = np.where(double, 1.0, diff)
    c1 = np.where(double, t * np.exp(-b / 2.0 * t), (ezp - ezm) / safe_diff)
    c0 = np.where(
        double,
        (1.0 + b / 2.0 * t) * np.exp(-b / 2.0 * t),
        (zp * ezm - zm * ezp) / safe_diff,
    )
    return c0, c1


def propagate_pair_field(
    sigma: SpectralField,
    d: SpectralField,
    t: float,
    ep: LinearEnergyParams,
    coupling: np.ndarray | None = None,
):
    """Exact linear flow of a (sigma, d) field pair, applied per frequency.

    ``coupling`` overrides the wave-coupling magnitude per mode (default
    |xi|); the damping always uses mu |xi|^alpha.  The mean mode is invariant.
    """
    if not 0 <= t < np.inf:
        raise ParameterError(f"t must be finite and >= 0, got {t}")
    grid = sigma.grid
    xi = grid.xi_norm()
    a = ep.lam * (xi if coupling is None else coupling)
    b = ep.mu * _lambda_symbol(grid, ep.alpha)
    s0, d0 = sigma.coef[0], d.coef[0]
    c0, c1 = _expm_2x2_coeffs(a, b, t)
    s1 = np.where(xi == 0, s0, c0 * s0 - c1 * a * d0)
    d1 = np.where(xi == 0, d0, c1 * a * s0 + (c0 - c1 * b) * d0)
    return SpectralField(grid, s1[np.newaxis]), SpectralField(grid, d1[np.newaxis])


# -- kernel bound (time-weighted heat kernel integral) ----------------------


def kernel_bound_check(
    alpha: float, c: float, j: int, s: float, t_grid
) -> float:
    """sup over t_grid of 2^{j alpha} * int_0^t e^{-c 2^{j a}(t-tau)} t^s tau^{-s} dtau.

    The tau^{-s} endpoint is integrable for s < 1; adaptive quadrature with an
    explicit endpoint declaration handles it.
    """
    from scipy.integrate import quad  # here, so runs never load SciPy

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
