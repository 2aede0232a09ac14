"""The spectral plan and the fused real-FFT sigma-u right-hand side."""

import numpy as np
import pytest

from euleralign.grid import Grid, SpectralField
from euleralign.lp import LPDecomp
from euleralign.model import (
    ModelParams,
    State,
    alignment_commutator,
    h_of_sigma,
    plan_for,
    rhs,
)
from euleralign.operators import (
    ParameterError,
    dealias,
    divergence,
    fractional_laplacian,
    gradient,
    physical_product,
)
from euleralign.simulation import step
from test_grid_operators import assert_real_field


def _advection(u: SpectralField, f: SpectralField) -> SpectralField:
    """u . grad f, one dealiased product per term, componentwise in f."""
    grid = u.grid
    rows = []
    for c in range(f.components):
        grad = gradient(f.component(c))
        acc = SpectralField.zeros(grid)
        for ax in range(grid.dim):
            acc = acc + physical_product(u.component(ax), grad.component(ax))
        rows.append(acc.coef[0])
    return SpectralField(grid, np.stack(rows))


def reference_rhs(state: State, params: ModelParams, linear_only: bool):
    """The sigma-u tendencies assembled from the composable operators."""
    grid = state.grid
    sig = dealias(state.scalar)
    u = dealias(state.u)
    div_u = divergence(u)
    dsig = -params.lam * div_u
    du = -params.lam * gradient(sig) - params.mu * fractional_laplacian(u, params.alpha)
    if not linear_only:
        dsig = dsig - _advection(u, sig) - (params.gamma - 1.0) * physical_product(sig, div_u)
        du = du - _advection(u, u)
        h = SpectralField.from_physical(grid, h_of_sigma(sig.to_physical()[0], params))
        du = du - params.mu * alignment_commutator(u, dealias(h), params.alpha)
    return dealias(dsig), dealias(du)


def random_state(dim: int, n: int, seed: int, amp: float = 0.1) -> State:
    grid = Grid(dim, n, 2 * np.pi)
    rng = np.random.default_rng(seed)
    sig = SpectralField.from_physical(grid, amp * rng.standard_normal(grid.shape))
    u = SpectralField.from_physical(grid, amp * rng.standard_normal((dim,) + grid.shape))
    return State(sig, u)


def rel_err(a: SpectralField, b: SpectralField) -> float:
    return float(np.max(np.abs(a.coef - b.coef)) / np.max(np.abs(b.coef)))


@pytest.mark.parametrize("dim, n, seed", [(1, 64, 0), (1, 256, 1), (2, 32, 2), (2, 64, 3)])
@pytest.mark.parametrize("gamma", [1.0, 1.4])
@pytest.mark.parametrize("linear_only", [False, True])
def test_fused_rhs_matches_composable_reference(dim, n, seed, gamma, linear_only):
    st = random_state(dim, n, seed)
    p = ModelParams(alpha=1.5, kappa=1.0, gamma=gamma, dim=dim)
    dsig, du = rhs(st, p, linear_only=linear_only)
    ref_sig, ref_u = reference_rhs(st, p, linear_only)
    assert rel_err(dsig, ref_sig) <= 1e-12
    assert rel_err(du, ref_u) <= 1e-12


@pytest.mark.parametrize("dim, n", [(1, 128), (2, 32)])
def test_step_output_is_conjugate_symmetric(dim, n):
    st = random_state(dim, n, seed=5)
    p = ModelParams(alpha=1.5, kappa=1.0, gamma=1.4, dim=dim)
    out = step(st, p, 1e-2)
    assert_real_field(out.scalar)
    assert_real_field(out.u)


def test_plan_is_shared_and_read_only():
    grid = Grid(2, 16, 2 * np.pi)
    p = ModelParams(alpha=1.5, kappa=1.0, gamma=1.0, dim=2)
    plan = plan_for(grid, p)
    # equal (not identical) keys find the same plan
    assert plan_for(Grid(2, 16, 2 * np.pi), ModelParams(1.5, 1.0, 1.0, dim=2)) is plan
    arrays = [plan.ixi, plan.lam_alpha, plan.mask, *plan.semigroup(0.1)]
    arrays += [*grid.wavenumbers(), grid.xi_norm(), grid.dealias_mask(), grid.nyquist_mask()]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 0
    assert plan.semigroup(0.1) is plan.semigroup(0.1)


def test_plan_rejects_a_dimension_mismatch():
    # a 1D state with 2D params would silently run with the 2D default mu
    st = random_state(1, 32, seed=5)
    p = ModelParams(alpha=1.5, kappa=1.0, gamma=1.0, dim=2)
    for call in (lambda: rhs(st, p), lambda: step(st, p, 0.01)):
        with pytest.raises(ParameterError, match="dim"):
            call()


@pytest.mark.parametrize("dim, n", [(1, 256), (2, 64)])
def test_cached_block_weights_match_block_multipliers(dim, n):
    st = random_state(dim, n, seed=11)
    lp = LPDecomp.for_grid(st.grid)
    energy = np.sum(np.abs(st.u.coef) ** 2, axis=0) * st.grid.plancherel_weights()
    direct = [
        np.sqrt(np.sum(lp.block_multiplier(j) ** 2 * energy) * st.grid.volume())
        for j in lp.j_range
    ]
    np.testing.assert_allclose(lp.block_norms(st.u), direct, rtol=1e-13, atol=0)
