"""The spectral plan and the fused real-FFT sigma-u right-hand side."""

import gc
import tracemalloc
import types
import weakref

import numpy as np
import pytest

from euleralign import grid as grid_module
from euleralign import model as model_module
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
from euleralign.simulation import step, trajectory
from test_grid_operators import assert_real_field, kept_modes


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


def reference_rhs(state: State, params: ModelParams):
    """The sigma-u tendencies assembled from the composable operators."""
    grid = state.grid
    sig = dealias(state.scalar)
    u = dealias(state.u)
    div_u = divergence(u)
    dsig = -params.lam * div_u - _advection(u, sig) - (params.gamma - 1.0) * physical_product(sig, div_u)
    du = -params.lam * gradient(sig) - params.mu * fractional_laplacian(u, params.alpha) - _advection(u, u)
    h = SpectralField.from_physical(grid, h_of_sigma(sig.to_physical()[0], params))
    du = du - params.mu * alignment_commutator(u, dealias(h), params.alpha)
    return dealias(dsig), dealias(du)


def _irfftn(grid: Grid, coef):
    return np.fft.irfftn(coef, s=grid.shape, axes=tuple(range(-grid.dim, 0)), norm="forward")


def _rfftn(grid: Grid, values):
    return np.fft.rfftn(values, axes=tuple(range(-grid.dim, 0)), norm="forward")


def _dealias(a, mask):
    """``a`` on the kept modes, +0 on the masked ones: the plan reads and
    writes only the band, so its masked zeros carry no sign of a product."""
    return np.where(mask, a, 0.0)


def reference_tendency(plan, sig, u, linear_only):
    """The tendency kernel, without the stiff term, with out-of-place
    temporaries and n-d transforms, on the grid's half-spectrum symbols."""
    p, grid = plan.params, plan.grid
    dim, mask, ixi, lam_alpha = grid.dim, kept_modes(grid), grid.ixi(), grid.lambda_symbol(p.alpha)
    sig, u = _dealias(sig, mask), _dealias(u, mask)
    grad_sig = ixi * sig
    dsig = -p.lam * np.sum(ixi * u, axis=0, keepdims=True)
    du = -p.lam * grad_sig
    if linear_only:
        return _dealias(dsig, mask), _dealias(du, mask)
    grad_u = (ixi[:, np.newaxis] * u).reshape((dim * dim,) + u.shape[1:])
    phys = _irfftn(grid, np.concatenate([sig, u, grad_sig, grad_u]))
    sv, uv = phys[0], phys[1 : 1 + dim]
    gs, gu = phys[1 + dim : 1 + 2 * dim], phys[1 + 2 * dim :].reshape((dim, dim) + sv.shape)
    div_u = sum(gu[i, i] for i in range(dim))  # gu[a, i] = d_a u_i
    g_hat = _dealias(_rfftn(grid, h_of_sigma(sv, p)), mask)
    gv, lam_g = _irfftn(grid, np.stack([g_hat, lam_alpha * g_hat]))
    n_sig = -np.sum(uv * gs, axis=0) - (p.gamma - 1.0) * sv * div_u
    n_u = -np.sum(uv[:, np.newaxis] * gu, axis=0) + p.mu * uv * lam_g
    prods = _rfftn(grid, np.concatenate([n_sig[np.newaxis], n_u, gv * uv]))
    dsig = dsig + prods[:1]
    du = du + prods[1 : 1 + dim] - p.mu * lam_alpha * prods[1 + dim :]
    return _dealias(dsig, mask), _dealias(du, mask)


def reference_step(state: State, params: ModelParams, dt: float, linear_only: bool) -> State:
    """The IF-RK4 step with out-of-place stage sums, on ``reference_tendency``."""
    grid = state.grid
    plan = plan_for(grid, params)
    e_half, e_full = (grid.unband(e) for e in plan.semigroup(dt))  # the memo holds the band

    def tend(s, u):
        return reference_tendency(plan, s, u, linear_only)

    s0, u0 = state.scalar.coef, state.u.coef
    k1s, k1u = tend(s0, u0)
    k2s, k2u = tend(s0 + 0.5 * dt * k1s, (u0 + 0.5 * dt * k1u) * e_half)
    k3s, k3u = tend(s0 + 0.5 * dt * k2s, u0 * e_half + 0.5 * dt * k2u)
    k4s, k4u = tend(s0 + dt * k3s, u0 * e_full + dt * e_half * k3u)
    s_new = s0 + dt / 6.0 * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
    u_new = u0 * e_full + dt / 6.0 * (e_full * k1u + 2.0 * e_half * (k2u + k3u) + k4u)
    mask = kept_modes(grid)
    s_new, u_new = _dealias(s_new, mask), _dealias(u_new, mask)
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
def test_fused_rhs_matches_composable_reference(dim, n, seed, gamma):
    st = random_state(dim, n, seed)
    p = ModelParams(alpha=1.5, kappa=1.0, gamma=gamma, dim=dim)
    dsig, du = rhs(st, p)
    ref_sig, ref_u = reference_rhs(st, p)
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
    v = plan._parts[0]  # the band operands of the phases
    arrays = [v.ixi_col, v.lam_alpha, v.mu_lam_alpha, v.source, *plan.semigroup(0.1)]
    arrays += [v.e_half, v.e_full, v.dt_e_half, v.two_e_half]
    arrays += [*grid.wavenumbers(), grid.xi_norm(), *grid.xi_tilde()]
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
    arrays = list(lp.block_table()[:2])
    for j in range(lp.j_min - 1, lp.j_max + 2):
        arrays += [lp.block_multiplier(j), lp.lowpass_multiplier(j)]
        assert twin.block_multiplier(j) is lp.block_multiplier(j)
        assert twin.lowpass_multiplier(j) is lp.lowpass_multiplier(j)
    assert twin.block_table() is lp.block_table()
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
    idx, w2, blocks = lp.block_table()
    for j, b in zip(lp.j_range, blocks):
        full = (lp.block_multiplier(j) ** 2 * w).ravel()
        keep = np.flatnonzero(full)
        assert _same_bits(idx[b], keep) and _same_bits(w2[b], full[keep])
        underflows += np.count_nonzero(lp.block_multiplier(j)) - keep.size
    assert (underflows > 0) == (n == 256 and dim == 2)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    # stricter than np.array_equal: the sign of a zero counts too
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dim, n", [(1, 64), (1, 256), (2, 32), (2, 64), (2, 256)])
@pytest.mark.parametrize("gamma", [1.0, 1.4])
@pytest.mark.parametrize("linear_only", [False, True])
def test_kernel_is_bit_identical_to_the_reference(
    dim, n, gamma, linear_only, two_cpus, monkeypatch
):
    st = ref = st0 = random_state(dim, n, seed=21)
    p = ModelParams(alpha=1.5, kappa=1.0, gamma=gamma, dim=dim)
    plan = plan_for(st.grid, p)
    got = plan.tendency(st.scalar.coef, st.u.coef)
    want_s, want_u = reference_tendency(plan, st.scalar.coef, st.u.coef, False)
    # the tendency includes the stiff term, which the reference leaves to the step
    want_u = want_u - p.mu * st.grid.lambda_symbol(p.alpha) * dealias(st.u).coef
    assert _same_bits(got[0], want_s) and _same_bits(got[1], want_u)
    # below 2**16 state coefficients the phases multiply by complex copies of
    # the symbols' bands, from 2D n=256 on by the real bands: both sides are
    # pinned.  On the band the mask is all ones, so the phases have none
    plan.semigroup(1e-3)
    names = ("lam_alpha", "mu_lam_alpha", "e_half", "e_full")
    symbols = [getattr(plan._parts[0], k) for k in names]
    large = grid_module.is_large((1 + dim) * np.prod(st.grid.spectral_shape))
    assert large == ((dim, n) == (2, 256))
    assert [a.dtype.kind for a in symbols] == (["f"] * 4 if large else ["c"] * 4)
    assert all(a.shape == st.grid.band_shape for a in symbols)
    records = [0, 2] if large else [0, 1, 3, 4, 9, 20]
    singles = [st]
    for _ in range(records[-1]):
        singles.append(step(singles[-1], p, 1e-3, linear_only))
        ref = reference_step(ref, p, 1e-3, linear_only)
    st = singles[-1]
    assert _same_bits(st.scalar.coef, ref.scalar.coef) and _same_bits(st.u.coef, ref.u.coef)
    # one call of m steps, which keeps the state on the band between them, has
    # the bits of m single steps, with its phases split (2D n=256) and whole;
    # the driver yields its input at k = 0, and at each later record k, at
    # t = t0 + k dt, the bits of k single steps from one call of the steps
    # since the last record
    m, start = records[-1], State(st0.scalar, st0.u, 0.25)
    for cpus in (grid_module._CPUS, 1):
        monkeypatch.setattr(grid_module, "_CPUS", cpus)
        multi = step(st0, p, 1e-3, linear_only, steps=m)
        assert _same_bits(multi.scalar.coef, st.scalar.coef) and _same_bits(multi.u.coef, st.u.coef)
        assert multi.t == m * 1e-3
        got = list(trajectory(start, p, 1e-3, records, linear_only))
        assert got[0] is start and [s.t for s in got] == [0.25 + k * 1e-3 for k in records]
        for k, s in zip(records, got):
            assert _same_bits(s.scalar.coef, singles[k].scalar.coef)
            assert _same_bits(s.u.coef, singles[k].u.coef)


@pytest.mark.parametrize("dim, n", [(1, 256), (2, 64), (2, 256)])
def test_the_stages_live_on_the_band(dim, n):
    # the stage input, its gradients, the tendencies, the RK4 sum and the
    # step's input hold the (2K+1, K+1) band in 2D and k = 0..K in 1D
    grid = Grid(dim, n, 2 * np.pi)
    K = grid.dealias_cutoff
    assert grid.band_shape == ((2 * K + 1, K + 1) if dim == 2 else (K + 1,))
    ws = plan_for(grid, ModelParams(alpha=1.5, kappa=1.0, gamma=1.4, dim=dim)).workspace
    band = (1 + dim,) + grid.band_shape
    for name in ("x", "x0", "acc", "ka", "kb"):
        assert getattr(ws, name).shape == band, name
    assert ws.grad.shape == (dim,) + band and ws.k.shape == (4,) + band
    assert ws.prods_hat.shape == (1 + 2 * dim,) + grid.band_shape
    # no slot keeps a half spectrum of the state: the forward outputs, 1 + 2N
    # fields, are the one full-layout buffer; in 1D its lines hold the batch
    full = {k for k, a in vars(ws).items() if isinstance(a, np.ndarray) and a.shape[-1] == n // 2 + 1}
    assert full == ({"spec"} if dim == 2 else {"spec", "cols"})
    assert ws.spec.shape[0] == 1 + 2 * dim
    assert np.shares_memory(ws.batch, ws.spec) == (dim == 1)
    # every operand of the phases, the symbols' bands included, is on the band,
    # but for the transform buffers and the real samples (and the samples'
    # source factors, which broadcast over them)
    plan = plan_for(grid, ModelParams(alpha=1.5, kappa=1.0, gamma=1.4, dim=dim))
    plan.semigroup(1e-3)
    for name, a in vars(plan._parts[0]).items():
        if isinstance(a, np.ndarray) and name not in ("spec", "cols", "source"):
            samples = a.dtype.kind == "f" and a.shape[a.ndim - dim :] == grid.shape
            assert samples or a.shape[a.ndim - dim :] == grid.band_shape, name


@pytest.mark.parametrize("dim, n", [(1, 256), (2, 64), (2, 256)])
@pytest.mark.parametrize("linear_only", [False, True])
def test_masked_modes_of_a_step_are_zero(dim, n, linear_only):
    # the step writes its band into zeros: every masked mode of its result is
    # +0, also where the input's masked modes were not 0
    st = random_state(dim, n, seed=61)
    p = ModelParams(alpha=1.5, kappa=1.0, gamma=1.4, dim=dim)
    masked = ~kept_modes(st.grid)
    assert np.all(st.scalar.coef[..., masked] != 0)
    out = step(st, p, 1e-3, linear_only)
    tend = plan_for(st.grid, p).tendency(st.scalar.coef, st.u.coef)
    for coef in (out.scalar.coef, out.u.coef, *tend):
        zeros = coef[..., masked]
        assert zeros.tobytes() == np.zeros_like(zeros).tobytes()


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 32)])
def test_results_own_their_memory(dim, n):
    # step accumulates into the stage tendencies in place, so they must not
    # alias one another, the inputs, the plan or a transform batch
    a, b = random_state(dim, n, seed=31), random_state(dim, n, seed=32)
    p = ModelParams(alpha=1.5, kappa=1.0, gamma=1.4, dim=dim)
    plan = plan_for(a.grid, p)
    v = plan._parts[0]  # the band operands of the phases
    shared = [a.grid.ixi(), a.grid.lambda_symbol(p.alpha), *plan.semigroup(1e-3)]
    shared += [v.ixi_col, v.lam_alpha, v.mu_lam_alpha, v.e_half, v.e_full]
    inputs = [a.scalar.coef, a.u.coef, b.scalar.coef, b.u.coef]
    first = rhs(a, p)
    kept = [f.coef.copy() for f in first]
    outs = [f.coef for f in first + rhs(b, p)]
    assert all(np.array_equal(f.coef, k) for f, k in zip(first, kept))
    for arr in plan.tendency(a.scalar.coef, a.u.coef):
        assert arr.base is None  # not a view of a batch that it would keep alive
        outs.append(arr)
    for i, arr in enumerate(outs):
        for other in outs[i + 1 :] + shared + inputs:
            assert not np.shares_memory(arr, other)
    assert not any(arr.flags.writeable for arr in shared)


@pytest.mark.parametrize("dim, n", [(1, 256), (2, 64)])
@pytest.mark.parametrize("gamma", [1.0, 1.4])
def test_step_allocates_only_its_result(dim, n, gamma, monkeypatch):
    # after a warm-up step has built the workspace and the semigroup, the
    # batches, stages and guard reuse it: the peak is about the new state,
    # also for a call of 5 steps, which scatters one result pair, not 5
    p = ModelParams(alpha=1.5, kappa=1.0, gamma=gamma, dim=dim)
    st = step(random_state(dim, n, seed=41), p, 1e-3)
    for steps in (1, 5):
        tracemalloc.start()
        try:
            st = step(st, p, 1e-3, steps=steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * (st.scalar.coef.nbytes + st.u.coef.nbytes)
    scattered = []
    unband = Grid.unband
    monkeypatch.setattr(Grid, "unband", lambda g, band: scattered.append(band) or unband(g, band))
    step(st, p, 1e-3, steps=5)
    assert len(scattered) == 2


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


@pytest.mark.parametrize(
    "dim, n, cpus, per_step", [(1, 64, 1, 16), (2, 32, 1, 32), (2, 256, 1, 32), (2, 256, 2, 56)]
)
def test_transform_counts(dim, n, cpus, per_step, monkeypatch):
    # 4 batches per tendency and 16 per step, also in each step of a call of
    # several: a step checks the density on the samples of its first stage,
    # with no batch of its own.  A 2D batch is one gufunc call per axis, and
    # a pass split in two halves is two: on two CPUs, 24 of a 2D n=256
    # step's 32 passes split (all but h(sigma)'s), 56 calls in all.  A linear
    # step makes none.
    monkeypatch.setattr(grid_module, "_CPUS", cpus)
    st = random_state(dim, n, seed=51)
    p = ModelParams(alpha=1.5, kappa=1.0, gamma=1.4, dim=dim)
    plan = plan_for(st.grid, p)
    step(st, p, 1e-3)  # builds the workspace and the semigroup
    calls = _count_transforms(monkeypatch)
    plan.tendency(st.scalar.coef, st.u.coef)
    assert len(calls) == per_step // 4
    calls.clear()
    step(st, p, 1e-3)
    assert len(calls) == per_step
    calls.clear()
    step(st, p, 1e-3, steps=3)
    assert len(calls) == 3 * per_step
    calls.clear()
    step(st, p, 1e-3, linear_only=True)
    assert calls == []


def _count_halves(monkeypatch) -> list:
    """Record every ``two_halves`` call that the plan makes from here on."""
    calls = []

    def count(f, _two_halves=grid_module.two_halves):
        calls.append(f)
        return _two_halves(f)

    monkeypatch.setattr(model_module, "two_halves", count)
    return calls


@pytest.mark.parametrize("gamma", [1.0, 1.4])
@pytest.mark.parametrize("dim, n, dt", [(2, 256, 1e-3), (1, 65536, 1e-5)], ids=["2d", "1d"])
def test_a_split_step_has_the_bits_of_one_cpu(dim, n, dt, gamma, two_cpus, monkeypatch):
    # a plan whose state splits (2D n=256, 1D n=65536) runs its pointwise
    # phases on two halves where two CPUs are usable, and once on the whole
    # with one: each element meets the same operations either way.  Each dt
    # lies below its grid's acoustic CFL limit
    st = random_state(dim, n, seed=71)
    p = ModelParams(alpha=1.5, kappa=1.0, gamma=gamma, dim=dim)
    plan = plan_for(st.grid, p)
    sig, u = st.scalar.coef, st.u.coef
    calls = _count_halves(monkeypatch)
    outs = []
    for cpus in (grid_module._CPUS, 1):
        monkeypatch.setattr(grid_module, "_CPUS", cpus)
        got = [*plan.step(sig, u, dt), *plan.step(sig, u, dt, linear_only=True)]
        got += plan.tendency(sig, u)
        outs.append([a.tobytes() for a in got])
        if cpus > 1:
            # 17 phases a step, the RK4 sums joined to the stages' ends and
            # starts, 1 a linear_only step and 5 a tendency
            assert len(calls) == 17 + 1 + 5
            calls.clear()
    assert calls == []
    assert outs[0] == outs[1]


@pytest.mark.parametrize("dim, n", [(1, 256), (2, 64)])
def test_an_unsplit_step_runs_each_phase_once(dim, n, two_cpus, monkeypatch):
    # the twin of the count above: a plan whose state never splits runs the
    # whole workspace's program with no two_halves call, each phase once: 17
    # a step, 1 a linear_only step and 5 a tendency, with the same bits
    st = random_state(dim, n, seed=75)
    p = ModelParams(alpha=1.5, kappa=1.0, gamma=1.4, dim=dim)
    plan = plan_for(st.grid, p)
    assert not grid_module.is_large((1 + dim) * np.prod(st.grid.spectral_shape))
    sig, u = st.scalar.coef, st.u.coef
    runs = [
        lambda: plan.step(sig, u, 1e-3),
        lambda: plan.step(sig, u, 1e-3, linear_only=True),
        lambda: plan.tendency(sig, u),
    ]
    want = [[a.tobytes() for a in run()] for run in runs]  # builds the programs
    ran = []

    def counted(phase):
        return lambda: ran.append(phase) or phase()

    programs = {
        key: tuple(tuple((counted(phase), transform) for phase, transform in program) for program in parts)
        for key, parts in plan._programs.items()
    }
    monkeypatch.setattr(plan, "_programs", programs)
    halves = _count_halves(monkeypatch)
    counts = []
    for run, bits in zip(runs, want):
        ran.clear()
        assert [a.tobytes() for a in run()] == bits
        counts.append(len(ran))
        assert len(set(map(id, ran))) == len(ran)  # each phase once
    assert counts == [17, 1, 5]
    assert halves == []


@pytest.mark.parametrize("dim, n", [(1, 256), (2, 64)])
def test_a_warm_plan_builds_nothing(dim, n, monkeypatch):
    # the programs read the step's dt symbols from their part at each call: a
    # step at another dt reuses the warm plan's program objects, and each step
    # keeps the bits of the reference
    st = random_state(dim, n, seed=77)
    p = ModelParams(alpha=1.5, kappa=1.0, gamma=1.4, dim=dim)
    plan = plan_for(st.grid, p)
    step(st, p, 1e-3)  # builds the workspace, the semigroup and the step's programs
    built = dict(plan._programs)
    monkeypatch.setattr(model_module.SpectralPlan, "_program", lambda *args: pytest.fail("built a program"))
    for dt in (1e-3, 2e-3, 1e-3):
        got, want = step(st, p, dt), reference_step(st, p, dt, False)
        assert _same_bits(got.scalar.coef, want.scalar.coef) and _same_bits(got.u.coef, want.u.coef)
    assert plan._programs.keys() == built.keys()
    assert all(plan._programs[key] is programs for key, programs in built.items())


def _dipped_state(depths, spread: float = 0.0) -> State:
    """2D n=256 sigma with Gaussian dips of the given depths, centred in the
    caller's half of the rows (x < L/2) and in the helper's (x >= L/2), and
    a velocity that spreads out of each dip at the rate ``spread``."""
    grid = Grid(2, 256, 2 * np.pi)
    x, y = grid.points()
    sig, u = 0.0, 0.0
    for depth, cx in zip(depths, (0.5 * np.pi, 1.5 * np.pi)):
        dip = np.exp(-((x - cx) ** 2 + (y - np.pi) ** 2) / 0.09)
        sig = sig - depth * dip
        u = u + spread * np.stack([(x - cx) * dip, (y - np.pi) * dip])
    return State(SpectralField.from_physical(grid, sig), SpectralField.from_physical(grid, u))


@pytest.mark.parametrize(
    "gamma, depths, call",
    [
        (1.0, (0.0, 20.0), "step"),
        (1.0, (16.0, 20.0), "step"),
        (1.4, (0.0, 6.0), "step"),
        (1.4, (4.0, 6.0), "step"),
        (1.4, (0.0, 6.0), "tendency"),
        (1.4, (4.0, 6.0), "tendency"),
        (1.4, (0.0, 2.8), "steps"),
        (1.4, (2.5, 2.8), "steps"),
    ],
    ids=[
        "gamma1-helper",
        "gamma1-both",
        "gamma1.4-helper",
        "gamma1.4-both",
        "gamma1.4-helper-tendency",
        "gamma1.4-both-tendency",
        "gamma1.4-helper-second-step",
        "gamma1.4-both-second-step",
    ],
)
def test_a_split_step_names_the_min_rho_of_one_cpu(gamma, depths, call, two_cpus, monkeypatch):
    # the deeper vacuum lies in the helper's rows.  At gamma = 1 the guard
    # combines the halves' minima; at gamma > 1 h(sigma) raises inside a
    # half, which knows only its own minimum, and the rerun on the whole
    # workspace must start again from the input, which the halves' first
    # transform has overwritten in the batch.  With "steps" a velocity
    # spreads the dips: one step on the state is sound, but the second step
    # of a call of two meets vacuum, so its rerun must start from that
    # step's input and name the min rho of the second of two single steps
    p = ModelParams(alpha=1.5, kappa=1.0, gamma=gamma, dim=2)
    if call == "steps":
        st = step(_dipped_state(depths, spread=600.0), p, 1e-3)
        sound = step(st, p, 1e-3)
    else:
        st = _dipped_state(depths)
    runs = {
        "step": [lambda: step(st, p, 1e-3)],
        "tendency": [lambda: plan_for(st.grid, p).tendency(st.scalar.coef, st.u.coef)],
        "steps": [lambda: step(st, p, 1e-3, steps=2), lambda: step(sound, p, 1e-3)],
    }[call]
    found = []
    for cpus in (grid_module._CPUS, 1):
        monkeypatch.setattr(grid_module, "_CPUS", cpus)
        for run in runs:
            with pytest.raises(VacuumError) as err:
                run()
            found.append(err.value.min_rho)
    assert len(set(found)) == 1


def test_an_error_in_the_helpers_half_reaches_the_caller(two_cpus, monkeypatch):
    # an inf in a kept coefficient of the helper's band rows (k_1 = -56, band
    # row 115 of 171) is a NaN in the gradient: inf * 0 is invalid.  A masked
    # coefficient would not do: the plan reads only the band
    st = random_state(2, 256, seed=73)
    sig = st.scalar.coef.copy()
    sig[0, 200, 3] = np.inf
    plan = plan_for(st.grid, ModelParams(alpha=1.5, kappa=1.0, gamma=1.0, dim=2))
    messages = []
    for cpus in (grid_module._CPUS, 1):
        monkeypatch.setattr(grid_module, "_CPUS", cpus)
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError) as err:
            plan.step(sig, st.u.coef, 1e-3)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
