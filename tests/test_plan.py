"""The spectral plan and the fused real-FFT sigma-u right-hand side."""

import gc
import tracemalloc
import types
import weakref

import numpy as np
import pytest

from euleralign import grid as grid_module
from euleralign.grid import Grid, SpectralField
from euleralign.lp import LPDecomp
from euleralign.model import (
    VACUUM_THRESHOLD,
    ModelParams,
    State,
    VacuumError,
    alignment_commutator,
    h_of_sigma,
    plan_for,
    rho_from_sigma,
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


def _irfftn(grid: Grid, coef):
    return np.fft.irfftn(coef, s=grid.shape, axes=tuple(range(-grid.dim, 0)), norm="forward")


def _rfftn(grid: Grid, values):
    return np.fft.rfftn(values, axes=tuple(range(-grid.dim, 0)), norm="forward")


def reference_tendency(plan, sig, u, linear_only):
    """The tendency kernel with out-of-place temporaries and n-d transforms."""
    p, dim, mask, grid = plan.params, plan.grid.dim, plan.mask, plan.grid
    sig, u = sig * mask, u * mask
    grad_sig = plan.ixi * sig
    dsig = -p.lam * np.sum(plan.ixi * u, axis=0, keepdims=True)
    du = -p.lam * grad_sig
    if linear_only:
        return dsig, du
    grad_u = (plan.ixi[:, np.newaxis] * u).reshape((dim * dim,) + u.shape[1:])
    phys = _irfftn(grid, np.concatenate([sig, u, grad_sig, grad_u]))
    sv, uv = phys[0], phys[1 : 1 + dim]
    gs, gu = phys[1 + dim : 1 + 2 * dim], phys[1 + 2 * dim :].reshape((dim, dim) + sv.shape)
    div_u = sum(gu[i, i] for i in range(dim))  # gu[a, i] = d_a u_i
    g_hat = _rfftn(grid, h_of_sigma(sv, p)) * mask
    gv, lam_g = _irfftn(grid, np.stack([g_hat, plan.lam_alpha * g_hat]))
    n_sig = -np.sum(uv * gs, axis=0) - (p.gamma - 1.0) * sv * div_u
    n_u = -np.sum(uv[:, np.newaxis] * gu, axis=0) + p.mu * uv * lam_g
    prods = _rfftn(grid, np.concatenate([n_sig[np.newaxis], n_u, gv * uv]))
    dsig = dsig + prods[:1]
    du = du + prods[1 : 1 + dim] - p.mu * plan.lam_alpha * prods[1 + dim :]
    return dsig * mask, du * mask


def reference_step(state: State, params: ModelParams, dt: float, linear_only: bool) -> State:
    """The IF-RK4 step with out-of-place stage sums, on ``reference_tendency``."""
    grid = state.grid
    plan = plan_for(grid, params)
    e_half, e_full = plan.semigroup(dt)

    def tend(s, u):
        return reference_tendency(plan, s, u, linear_only)

    s0, u0 = state.scalar.coef, state.u.coef
    k1s, k1u = tend(s0, u0)
    k2s, k2u = tend(s0 + 0.5 * dt * k1s, (u0 + 0.5 * dt * k1u) * e_half)
    k3s, k3u = tend(s0 + 0.5 * dt * k2s, u0 * e_half + 0.5 * dt * k2u)
    k4s, k4u = tend(s0 + dt * k3s, u0 * e_full + dt * e_half * k3u)
    s_new = s0 + dt / 6.0 * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
    u_new = u0 * e_full + dt / 6.0 * (e_full * k1u + 2.0 * e_half * (k2u + k3u) + k4u)
    s_new, u_new = s_new * plan.mask, u_new * plan.mask
    mn = float(np.min(rho_from_sigma(_irfftn(grid, s_new[0]), params)))
    if not (mn >= VACUUM_THRESHOLD):
        raise VacuumError(mn)
    return State(SpectralField(grid, s_new), SpectralField(grid, u_new), state.t + dt)


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
    arrays += [*grid.wavenumbers(), grid.xi_norm(), grid.dealias_mask(), *grid.xi_tilde()]
    arrays += [grid.xi_tilde_norm(), grid.ixi(), grid.riesz(), grid.lambda_symbol(0.5)]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 0
    assert plan.semigroup(0.1) is plan.semigroup(0.1)


def test_a_dropped_plan_is_collected():
    # the semigroup memo lives on the plan, so no shared cache keeps a plan,
    # and its workspace, alive once plan_for has dropped it
    st = random_state(2, 16, seed=7)
    p = ModelParams(alpha=1.5, kappa=1.0, gamma=1.0, dim=2)
    step(st, p, 1e-3)
    plan = weakref.ref(plan_for(st.grid, p))
    plan_for.cache_clear()
    gc.collect()
    assert plan() is None


def test_plan_rejects_a_dimension_mismatch():
    # a 1D state with 2D params would silently run with the 2D default mu
    st = random_state(1, 32, seed=5)
    p = ModelParams(alpha=1.5, kappa=1.0, gamma=1.0, dim=2)
    for call in (lambda: rhs(st, p), lambda: step(st, p, 0.01)):
        with pytest.raises(ParameterError, match="dim"):
            call()


def test_lp_multipliers_are_shared_and_read_only():
    lp, twin = (LPDecomp.for_grid(Grid(2, 16, 2 * np.pi)) for _ in range(2))
    assert twin is not lp
    arrays = [arr for pair in lp.block_weights() for arr in pair]
    for j in range(lp.j_min - 1, lp.j_max + 2):
        arrays += [lp.block_multiplier(j), lp.lowpass_multiplier(j)]
        assert twin.block_multiplier(j) is lp.block_multiplier(j)
        assert twin.lowpass_multiplier(j) is lp.lowpass_multiplier(j)
    assert twin.block_weights() is lp.block_weights()
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 0


@pytest.mark.parametrize("dim, n", [(1, 256), (2, 64), (2, 256)])
def test_block_norm_table_matches_block_multipliers(dim, n):
    st = random_state(dim, n, seed=11)
    lp = LPDecomp.for_grid(st.grid)
    w = st.grid.plancherel_weights()
    energy = np.sum(np.abs(st.u.coef) ** 2, axis=0) * w
    direct = [
        np.sqrt(np.sum(lp.block_multiplier(j) ** 2 * energy) * st.grid.volume())
        for j in lp.j_range
    ]
    np.testing.assert_allclose(lp.block_norms(st.u), direct, rtol=1e-13, atol=0)
    # the table keeps the points where phi_j^2 * w != 0, not phi_j's support:
    # at 2D n=256 the square underflows at some points where phi_j != 0
    underflows = 0
    for j, (idx, w2) in zip(lp.j_range, lp.block_weights()):
        full = (lp.block_multiplier(j) ** 2 * w).ravel()
        keep = np.flatnonzero(full)
        assert _same_bits(idx, keep) and _same_bits(w2, full[keep])
        underflows += np.count_nonzero(lp.block_multiplier(j)) - keep.size
    assert (underflows > 0) == (n == 256 and dim == 2)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    # stricter than np.array_equal: the sign of a zero counts too
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dim, n", [(1, 64), (1, 256), (2, 32), (2, 64)])
@pytest.mark.parametrize("gamma", [1.0, 1.4])
@pytest.mark.parametrize("linear_only", [False, True])
def test_kernel_is_bit_identical_to_the_reference(dim, n, gamma, linear_only):
    st = ref = random_state(dim, n, seed=21)
    p = ModelParams(alpha=1.5, kappa=1.0, gamma=gamma, dim=dim)
    plan = plan_for(st.grid, p)
    got = plan.tendency(st.scalar.coef, st.u.coef, linear_only)
    want = reference_tendency(plan, st.scalar.coef, st.u.coef, linear_only)
    assert all(_same_bits(a, b) for a, b in zip(got, want))
    for _ in range(20):
        st = step(st, p, 1e-3, linear_only)
        ref = reference_step(ref, p, 1e-3, linear_only)
    assert _same_bits(st.scalar.coef, ref.scalar.coef) and _same_bits(st.u.coef, ref.u.coef)


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 32)])
def test_results_own_their_memory(dim, n):
    # step accumulates into the stage tendencies in place, so they must not
    # alias one another, the inputs, the plan or a transform batch
    a, b = random_state(dim, n, seed=31), random_state(dim, n, seed=32)
    p = ModelParams(alpha=1.5, kappa=1.0, gamma=1.4, dim=dim)
    plan = plan_for(a.grid, p)
    shared = [plan.ixi, plan.lam_alpha, plan.mask, *plan.semigroup(1e-3)]
    inputs = [a.scalar.coef, a.u.coef, b.scalar.coef, b.u.coef]
    first = rhs(a, p)
    kept = [f.coef.copy() for f in first]
    outs = [f.coef for f in first + rhs(b, p)]
    assert all(np.array_equal(f.coef, k) for f, k in zip(first, kept))
    for linear_only in (False, True):
        for arr in plan.tendency(a.scalar.coef, a.u.coef, linear_only):
            assert arr.base is None  # not a view of a batch that it would keep alive
            outs.append(arr)
    for i, arr in enumerate(outs):
        for other in outs[i + 1 :] + shared + inputs:
            assert not np.shares_memory(arr, other)
    assert not any(arr.flags.writeable for arr in shared)


@pytest.mark.parametrize("dim, n", [(1, 256), (2, 64)])
@pytest.mark.parametrize("gamma", [1.0, 1.4])
def test_step_allocates_only_its_result(dim, n, gamma):
    # after a warm-up step has built the workspace and the semigroup, the
    # batches, stages and guard reuse it: the peak is about the new state
    p = ModelParams(alpha=1.5, kappa=1.0, gamma=gamma, dim=dim)
    st = step(random_state(dim, n, seed=41), p, 1e-3)
    tracemalloc.start()
    try:
        st = step(st, p, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * (st.scalar.coef.nbytes + st.u.coef.nbytes)


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 32)])
def test_step_results_share_no_memory(dim, n):
    a = random_state(dim, n, seed=43)
    p = ModelParams(alpha=1.5, kappa=1.0, gamma=1.4, dim=dim)
    b = step(a, p, 1e-3)
    c = step(b, p, 1e-3)
    work = list(vars(plan_for(a.grid, p).workspace).values())
    outs = [b.scalar.coef, b.u.coef, c.scalar.coef, c.u.coef]
    for i, arr in enumerate(outs):
        for other in outs[i + 1 :] + [a.scalar.coef, a.u.coef, *work]:
            assert not np.shares_memory(arr, other)
    finer = plan_for(Grid(dim, 2 * n, 2 * np.pi), p)
    assert not any(np.shares_memory(x, y) for x in work for y in vars(finer.workspace).values())


def _count_transforms(monkeypatch) -> list:
    """Record the name of every pocketfft gufunc call that ``Grid`` makes from
    here on: its transforms call them through its ``_pocketfft_umath`` handle."""
    calls = []
    counted = {}
    for name in ("fft", "ifft", "rfft_n_even", "irfft"):

        def count(*args, _fn=getattr(grid_module._pocketfft_umath, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        counted[name] = count
    monkeypatch.setattr(grid_module, "_pocketfft_umath", types.SimpleNamespace(**counted))
    return calls


@pytest.mark.parametrize("dim, n, per_batch", [(1, 64, 1), (2, 32, 2)])
def test_transform_counts(dim, n, per_batch, monkeypatch):
    # 4 batches per tendency and 16 per step: the step checks the density on
    # the samples of its first stage, with no batch of its own.  A 2D batch
    # is one gufunc call per axis; a linear step makes none.
    st = random_state(dim, n, seed=51)
    p = ModelParams(alpha=1.5, kappa=1.0, gamma=1.4, dim=dim)
    plan = plan_for(st.grid, p)
    step(st, p, 1e-3)  # builds the workspace and the semigroup
    calls = _count_transforms(monkeypatch)
    plan.tendency(st.scalar.coef, st.u.coef)
    assert len(calls) == 4 * per_batch
    calls.clear()
    step(st, p, 1e-3)
    assert len(calls) == 16 * per_batch
    calls.clear()
    step(st, p, 1e-3, linear_only=True)
    assert calls == []
