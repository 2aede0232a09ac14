"""Constant-coefficient analysis of the linearized system.

Per frequency, the compressible pair (sigma_hat, d_hat) obeys

    d/dt [sigma_hat]   [ 0        -lam*|xi|  ] [sigma_hat]
         [d_hat    ] = [ lam*|xi| -mu*|xi|^a ] [d_hat    ]

while each incompressible component decays at the pure rate -mu*|xi|^alpha.
``propagate_pair_field`` is the one exact flow of the pair: it applies the
closed-form exponential e^{Mt} = c0 I + c1 M to every frequency of a field
at once (``simulation.linear_exact_flow`` adds the incompressible part).  Its
wave coupling is lam |xi_tilde|, the Nyquist-zeroed magnitude that the
discrete derivatives see, so sigma is frozen on a mode with a Nyquist
component; the damping is mu |xi|^alpha.
The regime threshold |xi|^{alpha-1} = 4*lam/mu, that is log2|xi| = j0_real,
separates the damped-wave (low) and damped/parabolic (high) behavior; the
block energies Y_j carry the corresponding decay rates.  ``regime_classify``
compares log2|xi| with j0_real, so dyadic block 2^j reads "low" exactly when
j <= j0, the split of ``energy_Yj`` and of the trace's hybrid norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import SpectralField
from .model import ModelParams
from .operators import ParameterError, fractional_laplacian

DELTA = 1.0 / 300.0


@dataclass(frozen=True)
class LinearEnergyParams:
    """Derived coefficients of the block-energy machinery."""

    alpha: float
    lam: float
    mu: float

    def __post_init__(self):
        if not 1.0 < self.alpha < 2.0:
            raise ParameterError(f"alpha must lie in (1, 2), got {self.alpha}")
        for name, value in (("lam", self.lam), ("mu", self.mu)):
            if not 0 < value < np.inf:
                raise ParameterError(f"{name} must be finite and > 0, got {value}")

    @classmethod
    def from_model(cls, params: ModelParams) -> "LinearEnergyParams":
        return cls(alpha=params.alpha, lam=params.lam, mu=params.mu)

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
        return _exp2(min(np.log2(self.nu_bar) + j0 * (2.0 - self.alpha),
                         np.log2(self.mu) + j0 * self.alpha))

    @property
    def xi_threshold(self) -> float:
        """|xi| at the regime boundary, 2^{j0_real}."""
        return _exp2(self.j0_real)


def _exp2(x: float) -> float:
    """2^x, and inf where that exceeds the float range (j0 grows without
    bound as alpha -> 1)."""
    return float(2.0**x) if x < 1024 else np.inf


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
    """'low' iff log2|xi| <= j0_real (|xi|^{alpha-1} <= 4 lam/mu), else 'high'.

    log2 of a power of two is exact, so 2^j is 'low' iff j <= ``ep.j0``."""
    if xi <= 0:
        raise ParameterError(f"|xi| must be > 0, got {xi}")
    return "low" if np.log2(xi) <= ep.j0_real else "high"


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
    lam_s = fractional_laplacian(sigma_block, ep.alpha - 1.0)
    cross = d_block.inner(lam_s)
    if j <= ep.j0:
        y2 = (
            sigma_block.l2() ** 2
            + d_block.l2() ** 2
            - DELTA * (ep.mu / ep.lam) * cross
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
):
    """Exact linear flow of a (sigma, d) field pair, applied per frequency.

    The wave coupling is lam |xi_tilde| (``Grid.xi_tilde_norm``), which the
    discrete derivatives see; the damping is mu |xi|^alpha.  The mean mode
    is invariant.
    """
    if not 0 <= t < np.inf:
        raise ParameterError(f"t must be finite and >= 0, got {t}")
    grid = sigma.grid
    xi = grid.xi_norm()
    a = ep.lam * grid.xi_tilde_norm()
    b = ep.mu * grid.lambda_symbol(ep.alpha)
    s0, d0 = sigma.coef[0], d.coef[0]
    c0, c1 = _expm_2x2_coeffs(a, b, t)
    s1 = np.where(xi == 0, s0, c0 * s0 - c1 * a * d0)
    d1 = np.where(xi == 0, d0, c1 * a * s0 + (c0 - c1 * b) * d0)
    return SpectralField(grid, s1[np.newaxis]), SpectralField(grid, d1[np.newaxis])

