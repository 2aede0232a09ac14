"""The three benchmark workloads: inputs from a seed, the timed job, its checks.

run_1d    the acceptance criterion-06 problem (1D, n=256, gaussian_bump,
          amplitude 1e-2, t_end=40, default dt) through ``cli.main(["run"])``.
run_2d    2D, n=256, random_smooth seeded from the workload seed, amplitude
          1e-2, 20 steps at the default dt, a record every 10 steps, also
          through ``cli.main(["run"])``.
analysis  no time stepping: exact linear flow, block energies, Besov and
          Chemin-Lerner norms, fractional-heat decay fits, the Bony
          decomposition, one quadrature-oracle call, and a snapshot round
          trip followed by ``cli analyze``.

Importing this module imports euleralign, so a worker imports it inside its
timed set-up.
"""

from __future__ import annotations

import csv
import filecmp
import hashlib
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from euleralign import cli
from euleralign.besov import NormSpec, besov_norm, bony_decompose, chemin_lerner
from euleralign.config import parse_config_file
from euleralign.grid import Grid, SpectralField
from euleralign.linear import LinearEnergyParams, energy_Yj, propagate_pair_field
from euleralign.lp import LPDecomp
from euleralign.model import ModelParams, State, alignment_direct
from euleralign.operators import dealias, fractional_laplacian, lambda_inv_div, physical_product
from euleralign.simulation import (
    SimConfig,
    decay_fit,
    default_dt,
    fractional_heat_trace,
    initial_state,
    linear_exact_flow,
)
from euleralign.snapshot import read_snapshot, write_snapshot

ALPHAS = (1.2, 1.5, 1.8)
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# run_2d's initial state depends on the seed; its fine-dt reference exists
# for this seed only, so the accuracy probe of run_2d always uses it
REFERENCE_SEED = 0


@dataclass(frozen=True)
class Size:
    """Problem sizes; FULL is the benchmark, TINY keeps the smoke test fast."""

    n_1d: int = 256
    t_end_1d: float = 40.0
    n_2d: int = 256
    t_end_2d: float = 0.19  # 20 steps at the default dt (about 0.00972)
    cadence_2d: int = 10
    n_analysis: int = 128
    analysis_times: int = 11
    analysis_t_end: float = 4.0
    # twice criterion 05's box: at alpha = 1.2 the surviving frequencies
    # come closer to the lowest box mode within the window
    heat_n: int = 16384
    heat_L: float = 1024.0 * np.pi
    heat_samples: int = 100
    oracle_n: int = 256


FULL = Size()
TINY = Size(
    n_1d=32, t_end_1d=0.2, n_2d=16, t_end_2d=0.1, n_analysis=16, analysis_times=4,
    heat_n=1024, heat_L=64.0 * np.pi, heat_samples=20, oracle_n=16,
)


@dataclass
class Check:
    """One correctness check; a job fails when any of its checks fails."""

    name: str
    value: float
    limit: float
    ok: bool

    @classmethod
    def at_most(cls, name, value, limit):
        value = float(value)
        return cls(name, value, float(limit), bool(value <= limit))

    @classmethod
    def at_least(cls, name, value, limit):
        value = float(value)
        return cls(name, value, float(limit), bool(value >= limit))


@dataclass
class Setup:
    """Everything built before the timed work of a workload."""

    workload: str
    seed: int
    size: Size
    workdir: Path
    ini: Path
    config: SimConfig
    grid: Grid
    params: ModelParams
    state: State
    dt: float


def ini_text(workload: str, seed: int, workdir: Path, size: Size = FULL) -> str:
    """The run configuration of a workload, as an INI file."""
    if workload == "run_1d":
        grid = f"dim = 1\nn = {size.n_1d}"
        time_ = f"t_end = {size.t_end_1d!r}"
        ic = "preset = gaussian_bump"
    elif workload == "run_2d":
        grid = f"dim = 2\nn = {size.n_2d}"
        time_ = f"t_end = {size.t_end_2d!r}\ncadence = {size.cadence_2d}"
        ic = "preset = random_smooth"
    elif workload == "analysis":
        grid = f"dim = 2\nn = {size.n_analysis}"
        time_ = f"t_end = {size.analysis_t_end!r}"
        ic = "preset = random_smooth"
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return (
        f"[grid]\n{grid}\n\n[time]\n{time_}\n\n"
        f"[ic]\n{ic}\namplitude = 0.01\nseed = {seed}\n\n"
        f"[output]\nsnapshot = {workdir / 'final.snap'}\n"
    )


def setup(workload: str, seed: int, workdir: Path, size: Size = FULL) -> Setup:
    """Write and parse the config, build the grid and initial state, and take
    the first default dt."""
    workdir = Path(workdir)
    ini = workdir / f"{workload}.ini"
    ini.write_text(ini_text(workload, seed, workdir, size))
    config = parse_config_file(str(ini))
    grid = config.grid()
    params = config.model_params()
    state = initial_state(config)
    dt = default_dt(config, state, params)
    return Setup(workload, seed, size, workdir, ini, config, grid, params, state, dt)


# -- the timed jobs -----------------------------------------------------------


def job(s: Setup):
    """Run the workload's work once: (wall seconds, outputs for the checks)."""
    if s.workload == "analysis":
        return _analysis_job(s)
    return _run_job(s)


def _run_job(s: Setup):
    out_csv = s.workdir / "trace.csv"
    snap = s.workdir / "final.snap"
    for path in (out_csv, snap):
        path.unlink(missing_ok=True)
    t0 = time.perf_counter()
    code = cli.main(["run", "--config", str(s.ini), "--output", str(out_csv)])
    wall = time.perf_counter() - t0
    return wall, {"code": code, "csv": out_csv, "snap": snap}


def oracle_fields(seed: int, n: int):
    """Seeded low-mode density and velocity for the quadrature oracle."""
    g = Grid(1, n, 2.0 * np.pi)
    x = g.axis_points()
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.05, 0.15, size=2)
    ph = rng.uniform(0.0, 2.0 * np.pi, size=4)
    rho = 1.0 + a[0] * np.cos(x + ph[0]) + a[1] * np.cos(2 * x + ph[1])
    u = 0.3 * np.sin(x + ph[2]) + 0.1 * np.cos(2 * x + ph[3])
    return dealias(SpectralField.from_physical(g, rho)), dealias(SpectralField.from_physical(g, u))


def _analysis_job(s: Setup):
    size = s.size
    state, grid = s.state, s.grid
    lp = LPDecomp.for_grid(grid)
    js = np.array(lp.j_range)
    times = np.linspace(0.0, size.analysis_t_end, size.analysis_times)
    heat_grid = Grid(1, size.heat_n, size.heat_L)
    heat_times = np.linspace(20.0, 200.0, size.heat_samples)
    rho_o, u_o = oracle_fields(s.seed, size.oracle_n)
    snap_a, snap_b = s.workdir / "analysis_a.snap", s.workdir / "analysis_b.snap"
    out_csv = s.workdir / "analyze.csv"

    t0 = time.perf_counter()
    d0 = lambda_inv_div(state.u)
    per_alpha = []
    for alpha in ALPHAS:
        params = ModelParams(alpha=alpha, kappa=s.params.kappa, gamma=s.params.gamma, dim=grid.dim)
        ep = LinearEnergyParams.from_model(params)
        spec = NormSpec.hybrid(grid.dim / 2.0 + 1.0 - alpha, grid.dim / 2.0, ep.j0)
        blocks, energies, besov, pair_gap = [], [], [], 0.0
        for t in times:
            st = linear_exact_flow(state, params, t)
            sig_t, d_t = propagate_pair_field(state.scalar, d0, t, ep)
            pair_gap = max(pair_gap, float(np.max(np.abs(sig_t.coef - st.scalar.coef))))
            energies.append(
                [energy_Yj(lp.dyadic_block(sig_t, j), lp.dyadic_block(d_t, j), j, ep) for j in js]
            )
            blocks.append(lp.block_norms(st.scalar.mean_free()))
            besov.append(besov_norm(st.scalar.mean_free(), spec, lp))
        cl_int = chemin_lerner(times, blocks, js, 1, spec)
        cl_sup = chemin_lerner(times, blocks, js, np.inf, spec)
        heat = fractional_heat_trace(heat_grid, alpha, 0.25, "gaussian", heat_times, width=1.0)
        slope, _ = decay_fit(heat.t, heat.column("l2"), (20.0, 200.0), kind="power")
        per_alpha.append(
            {
                "alpha": alpha, "slope": slope, "pair_gap": pair_gap,
                "energies": np.array(energies), "besov": besov,
                "cl_int": cl_int, "cl_sup": cl_sup,
            }
        )
    t_fg, t_gf, rem = bony_decompose(state.scalar, SpectralField(grid, state.u.coef[:1]), lp)
    partition = lp.partition_defect()
    direct = alignment_direct(rho_o, u_o, 1.5, refine=8)
    final = linear_exact_flow(state, s.params, times[-1])
    write_snapshot(str(snap_a), final, s.params)
    back, back_params = read_snapshot(str(snap_a))
    write_snapshot(str(snap_b), back, back_params)
    code = cli.main(["analyze", str(snap_a), "--output", str(out_csv)])
    wall = time.perf_counter() - t0

    return wall, {
        "per_alpha": per_alpha, "bony": (t_fg, t_gf, rem),
        "partition": partition, "oracle": (rho_o, u_o, direct), "final": final,
        "snaps": (snap_a, snap_b), "code": code, "csv": out_csv,
    }


# -- the checks -----------------------------------------------------------------


def read_trace(path: Path) -> dict:
    """Columns of a trace CSV as float arrays."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: np.array([float(r[i]) for r in body]) for i, name in enumerate(header)}


def checks(s: Setup, out: dict) -> list:
    """The workload's correctness gate on one job's outputs."""
    if s.workload == "analysis":
        return _analysis_checks(s, out)
    result = [Check.at_most("exit_code", out["code"], 0)]
    cols = read_trace(out["csv"])
    mass = cols["mass"]
    result.append(Check.at_most("mass_drift", np.max(np.abs(mass - mass[0])), 1e-8))
    for i in range(s.grid.dim):
        mom = cols[f"mom_{i + 1}"]
        result.append(Check.at_most(f"mom_{i + 1}_drift", np.max(np.abs(mom - mom[0])), 1e-8))
    if s.workload == "run_1d":
        result.append(Check.at_least("min_rho", np.min(cols["min_rho"]), 0.9))
        result.append(
            Check.at_most("terminal_l2_sigma", cols["l2_sigma"][-1] / cols["l2_sigma"][0], 0.1)
        )
        result.append(Check.at_most("terminal_l2_u", cols["l2_u"][-1] / cols["l2_u"][0], 0.1))
    return result


def _analysis_checks(s: Setup, out: dict) -> list:
    result = [
        Check.at_most("analyze_exit_code", out["code"], 0),
        Check.at_most("partition_defect", out["partition"], 1e-10),
    ]
    for row in out["per_alpha"]:
        target = -1.0 / (2.0 * row["alpha"])  # L2 decay of a 1D Gaussian: t^{-N/(2 alpha)}
        err = abs(row["slope"] - target) / abs(target)
        result.append(Check.at_most(f"heat_exponent_err_a{row['alpha']}", err, 0.05))
        scale = float(np.max(np.abs(s.state.scalar.coef)))
        result.append(Check.at_most(f"flow_pair_gap_a{row['alpha']}", row["pair_gap"], 1e-12 * scale))
        norms = [row["energies"].ravel(), row["besov"], [row["cl_int"], row["cl_sup"]]]
        finite = all(np.all(np.isfinite(v)) for v in norms)
        result.append(Check.at_least(f"finite_norms_a{row['alpha']}", float(finite), 1.0))

    t_fg, t_gf, rem = out["bony"]
    state = s.state
    prod = physical_product(
        dealias(state.scalar.mean_free()),
        dealias(SpectralField(s.grid, state.u.coef[:1]).mean_free()),
    )
    result.append(Check.at_most("bony_defect", (t_fg + t_gf + rem - prod).l2() / prod.l2(), 1e-9))

    rho, u, direct = out["oracle"]
    result.append(Check.at_most("oracle_residual", oracle_residual(rho, u, direct, 1.5), 1e-3))

    snap_a, snap_b = out["snaps"]
    result.append(Check.at_least("snapshot_round_trip", float(filecmp.cmp(snap_a, snap_b, shallow=False)), 1.0))
    cols = read_trace(out["csv"])
    l2 = out["final"].scalar.mean_free().l2()
    result.append(Check.at_most("analyze_l2_sigma_rel", abs(cols["l2_sigma"][0] - l2) / l2, 1e-12))
    return result


def oracle_residual(rho: SpectralField, u: SpectralField, direct: SpectralField, alpha: float) -> float:
    """Max deviation of the quadrature oracle from the commutator force, after
    fitting the constant, relative to the force (acceptance criterion 02)."""
    p = ModelParams(alpha=alpha, kappa=1.0, gamma=1.4)
    rv = rho.to_physical()[0]
    q = SpectralField.from_physical(rho.grid, rv * u.to_physical())
    lam_q = fractional_laplacian(q, alpha).to_physical()
    lam_r = fractional_laplacian(rho, alpha).to_physical()[0]
    force = (-p.mu * (rv * lam_q - q.to_physical() * lam_r)).ravel()
    d = direct.to_physical().ravel()
    fitted = float(np.dot(d, force) / np.dot(d, d))
    return float(np.max(np.abs(fitted * d - force)) / max(np.max(np.abs(force)), 1e-30))


# -- accuracy against the stored fine-dt reference --------------------------------


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.npz"


def relative_error(state: State, reference: dict) -> float:
    """||(sigma, u) - reference|| / ||reference|| over the physical samples."""
    sig = state.scalar.to_physical()
    u = state.u.to_physical()
    num = np.sum((sig - reference["sigma"]) ** 2) + np.sum((u - reference["u"]) ** 2)
    den = np.sum(reference["sigma"] ** 2) + np.sum(reference["u"] ** 2)
    return float(np.sqrt(num / den))


def final_state(out: dict) -> State:
    """The final state a run job wrote to its snapshot."""
    state, _ = read_snapshot(str(out["snap"]))
    return state


def initial_digest(state: State) -> str:
    """Digest of a state's physical samples, to tell whether two runs start
    from the same input."""
    h = hashlib.sha256(np.ascontiguousarray(state.scalar.to_physical()).tobytes())
    h.update(np.ascontiguousarray(state.u.to_physical()).tobytes())
    return h.hexdigest()


def accuracy(s: Setup, out: dict) -> float:
    """Relative error of a run workload's final state against its stored
    fine-dt reference.  ``out`` is a finished job of ``s``; when ``s`` starts
    from another input than the reference, a job at the reference seed is run
    first (untimed)."""
    with np.load(reference_path(s.workload)) as ref:
        reference = {k: ref[k] for k in ("sigma", "u", "initial_digest")}
    if initial_digest(s.state) != str(reference["initial_digest"]):
        s = setup(s.workload, REFERENCE_SEED, s.workdir, s.size)
        _, out = job(s)
    return relative_error(final_state(out), reference)
