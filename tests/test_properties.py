"""Identities of the discretisation checked over random low-mode fields.

Hypothesis draws the fields; ``derandomize=True`` makes every run draw the
same examples, so the suite stays reproducible.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from euleralign.grid import Grid, SpectralField
from euleralign.lp import LPDecomp
from euleralign.model import (
    ModelParams,
    State,
    alignment_commutator,
    rhs,
)
from euleralign.operators import dealias, leray_project
from euleralign.simulation import step
from euleralign.snapshot import read_snapshot, write_snapshot
from oracles import rhs_conservative, sigma_from_rho

K = 3  # the highest mode on each axis, well inside the 2/3 rule at n = 32
N = 32

properties = settings(derandomize=True, deadline=None, max_examples=30)


@st.composite
def low_mode_fields(draw):
    """Dealiased (rho, u, params): rho = 1 + f_0 and u = (f_1, ..., f_dim), each
    f_i a random combination of the modes |k_a| <= K with max |f_i| = amplitude."""
    dim = draw(st.sampled_from([1, 2]))
    gamma = draw(st.sampled_from([1.0, 1.4, 2.0]))
    amplitude = draw(st.floats(0.01, 0.2))
    grid = Grid(dim, N, 2 * np.pi)
    low = np.logical_and.reduce([np.abs(k) <= K for k in grid.wavenumbers()])
    parts = draw(
        hnp.arrays(np.float64, (2, 1 + dim, int(np.count_nonzero(low))), elements=st.floats(-1, 1))
    )
    coef = np.zeros((1 + dim,) + grid.spectral_shape, dtype=np.complex128)
    coef[:, low] = parts[0] + 1j * parts[1]
    vals = grid.physical(coef)
    peak = np.max(np.abs(vals.reshape(1 + dim, -1)), axis=1)
    vals *= (amplitude / np.maximum(peak, 1e-300)).reshape((1 + dim,) + (1,) * dim)
    rho = dealias(SpectralField.from_physical(grid, 1.0 + vals[0]))
    u = dealias(SpectralField.from_physical(grid, vals[1:]))
    return rho, u, ModelParams(alpha=1.5, kappa=1.0, gamma=gamma, dim=dim, mu=1.0)


@properties
@given(low_mode_fields())
def test_conservative_rhs_conserves_mass_and_momentum(fields):
    rho, u, p = fields
    drho, du = rhs_conservative(rho, u, p)
    cell = rho.grid.cell_volume()
    assert abs(np.sum(drho.to_physical()) * cell) <= 1e-12
    # d(rho u)/dt = rho du + u drho
    rv, uv = rho.to_physical()[0], u.to_physical()
    dmom = rv * du.to_physical() + uv * drho.to_physical()[0]
    axes = tuple(range(1, rho.grid.dim + 1))
    assert np.max(np.abs(np.sum(dmom, axis=axes) * cell)) <= 1e-10


@properties
@given(low_mode_fields())
def test_alignment_commutator_cancels_in_momentum(fields):
    # int rho (Lambda^alpha(rho u) - u Lambda^alpha rho) = 0: Lambda^alpha is
    # self-adjoint, and a dealiased rho sees only the kept modes of each product
    rho, u, p = fields
    force = alignment_commutator(u, rho, p.alpha).to_physical()
    axes = tuple(range(1, rho.grid.dim + 1))
    momentum = np.sum(rho.to_physical()[0] * force, axis=axes) * rho.grid.cell_volume()
    assert np.max(np.abs(momentum)) <= 1e-12


@properties
@given(low_mode_fields())
def test_dyadic_blocks_telescope_to_the_mean_free_field(fields):
    rho, u, _ = fields
    lp = LPDecomp.for_grid(rho.grid)
    for f in (rho, u):
        total = sum(lp.dyadic_block(f, j).coef for j in lp.j_range)
        mean_free = f.mean_free().coef
        assert np.max(np.abs(total - mean_free)) <= 1e-10 * np.max(np.abs(mean_free))


@properties
@given(low_mode_fields())
def test_rhs_and_step_output_are_real_fields(fields):
    # a real field's half spectrum survives the round trip through its samples
    rho, u, p = fields
    grid = rho.grid
    sigma = SpectralField.from_physical(grid, sigma_from_rho(rho.to_physical()[0], p))
    state = State(dealias(sigma), u)
    out = step(state, p, 1e-2)
    for f in (*rhs(state, p), out.scalar, out.u):
        back = grid.spectral(grid.physical(f.coef))
        np.testing.assert_allclose(back, f.coef, rtol=0, atol=1e-14 * np.max(np.abs(f.coef)))


@st.composite
def real_fields(draw, dims=(1, 2), vector=False):
    """(grid, samples): a random real field on a 1D or 2D grid of random length,
    with one component, or dim of them if ``vector``.  The samples are rounded
    to 1e-6, so no square underflows."""
    dim = draw(st.sampled_from(dims))
    n = draw(st.sampled_from([8, 16, 64] if dim == 1 else [8, 16]))
    grid = Grid(dim, n, draw(st.floats(0.1, 100.0)))
    element = st.floats(-1, 1).map(lambda v: round(v, 6))
    shape = ((dim,) if vector else ()) + grid.shape
    return grid, draw(hnp.arrays(np.float64, shape, elements=element))


@properties
@given(real_fields())
def test_plancherel_with_half_spectrum_weights(fields):
    grid, values = fields
    direct = float(np.sum(values**2) * grid.cell_volume())
    spectral = SpectralField.from_physical(grid, values).l2() ** 2
    assert spectral == pytest.approx(direct, rel=1e-12, abs=0)


@properties
@given(real_fields())
def test_transform_round_trip(fields):
    grid, values = fields
    back = grid.physical(grid.spectral(values))
    np.testing.assert_allclose(back, values, rtol=0, atol=1e-14)


@properties
@given(real_fields(dims=(2,), vector=True))
def test_leray_projection_is_idempotent(fields):
    grid, values = fields
    u = SpectralField.from_physical(grid, values)
    pu = leray_project(u)
    scale = max(float(np.max(np.abs(u.coef))), 1e-300)
    np.testing.assert_allclose(leray_project(pu).coef, pu.coef, rtol=0, atol=1e-14 * scale)


@properties
@given(real_fields(dims=(2,), vector=True))
def test_leray_projection_is_orthogonal(fields):
    # (Pu | u - Pu) = 0: P is an orthogonal projector in L2
    grid, values = fields
    u = SpectralField.from_physical(grid, values)
    pu = leray_project(u)
    assert abs(pu.inner(u - pu)) <= 1e-13 * max(u.l2() ** 2, 1e-300)


@properties
@given(real_fields(), st.data())
def test_snapshot_rewrite_is_byte_identical(fields, data):
    grid, sig = fields
    uv = data.draw(hnp.arrays(np.float64, (grid.dim,) + grid.shape, elements=st.floats(-1, 1)))
    t = data.draw(st.floats(0.0, 1e3))
    state = State(
        SpectralField.from_physical(grid, sig), SpectralField.from_physical(grid, uv), t
    )
    params = ModelParams(alpha=1.5, kappa=1.0, gamma=1.4, dim=grid.dim, mu=1.0)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.snap"), os.path.join(tmp, "b.snap")
        write_snapshot(first, state, params)
        write_snapshot(second, *read_snapshot(first))
        with open(first, "rb") as fa, open(second, "rb") as fb:
            assert fa.read() == fb.read()
