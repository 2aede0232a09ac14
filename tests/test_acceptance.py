"""Acceptance gate: seventeen end-to-end checks, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the summary lines.
"""

import csv
import dataclasses
import filecmp
from pathlib import Path

import numpy as np
import pytest

from euleralign.besov import NormSpec, besov_norm, bony_decompose
from euleralign.cli import main
from euleralign.grid import Grid, SpectralField
from euleralign.linear import (
    DELTA,
    LinearEnergyParams,
    energy_Yj,
    mode_eigenvalues,
    propagate_pair_field,
    rate_floor,
    regime_classify,
)
from euleralign.lp import LPDecomp
from euleralign.model import ModelParams, State, alignment_direct, rho_from_sigma
from euleralign.operators import (
    dealias,
    fractional_laplacian,
    lambda_inv_div,
    leray_project,
    physical_product,
    spectral_derivative,
)
from euleralign.simulation import (
    Recorder,
    SimConfig,
    decay_fit,
    fractional_heat_trace,
    initial_state,
    linear_exact_flow,
    run,
    step,
    trajectory,
    z_norms,
)
from euleralign.snapshot import read_snapshot, write_snapshot
from oracles import kernel_bound_check, sigma_from_rho


def _slashed(values) -> str:
    """The values to 5 decimals, joined by '/' (one per amplitude or norm)."""
    return "/".join(f"{v:.5f}" for v in values)


def _report(number: int, name: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {name}: {status} ({detail})")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_01_harmonic_analysis_suite():
    g = Grid(1, 256, 2.0 * np.pi)
    lp = LPDecomp.for_grid(g)
    part = lp.partition_defect()

    rng = np.random.default_rng(1)
    vals = rng.standard_normal(g.shape)
    f = SpectralField.from_physical(g, vals)
    parseval = abs(
        f.l2() ** 2 - np.sum(vals**2) * g.cell_volume()
    ) / (np.sum(vals**2) * g.cell_volume())

    h = SpectralField.from_physical(g, rng.standard_normal(g.shape))
    t_fh, t_hf, rem = bony_decompose(f, h)
    prod = physical_product(dealias(f.mean_free()), dealias(h.mean_free()))
    bony = (t_fh + t_hf + rem - prod).l2() / prod.l2()

    x = g.axis_points()
    eig = 0.0
    for alpha in (1.2, 1.5, 1.8):
        for k in (1, 7, 40):
            mode = SpectralField.from_physical(g, np.cos(k * x))
            out = fractional_laplacian(mode, alpha)
            target = float(k) ** alpha
            eig = max(
                eig,
                np.max(np.abs(out.to_physical()[0] - target * np.cos(k * x))) / target,
            )

    ok = part <= 1e-10 and parseval <= 1e-10 and bony <= 1e-9 and eig <= 1e-10
    _report(
        1,
        "harmonic-analysis suite",
        ok,
        f"partition={part:.2e} parseval={parseval:.2e} bony={bony:.2e} eig={eig:.2e}",
    )


def test_criterion_02_alignment_force_cross_validation():
    g = Grid(1, 256, 2.0 * np.pi)
    x = g.axis_points()
    worst_resid = 0.0
    worst_const = 0.0
    worst_mom = 0.0
    for alpha in (1.2, 1.5, 1.8):
        p = ModelParams(alpha=alpha, kappa=1.0, gamma=1.4)
        rho = dealias(SpectralField.from_physical(g, 1.0 + 0.2 * np.cos(x)))
        u = dealias(
            SpectralField.from_physical(g, 0.3 * np.sin(x) + 0.1 * np.cos(2 * x))
        )
        direct = alignment_direct(rho, u, alpha, refine=8)

        rv = rho.to_physical()[0]
        q = SpectralField.from_physical(g, rv * u.to_physical())
        lam_q = fractional_laplacian(q, alpha).to_physical()
        lam_r = fractional_laplacian(rho, alpha).to_physical()[0]
        force = -p.mu * (rv * lam_q - q.to_physical() * lam_r)

        d = direct.to_physical().ravel()
        f = force.ravel()
        fitted = float(np.dot(d, f) / np.dot(d, d))  # force = fitted * direct
        resid = np.max(np.abs(fitted * d - f)) / max(np.max(np.abs(f)), 1e-30)
        worst_resid = max(worst_resid, resid)
        worst_const = max(worst_const, abs(fitted - p.mu) / p.mu)
        worst_mom = max(worst_mom, abs(np.sum(d) * g.cell_volume()))
    ok = worst_resid <= 1e-3 and worst_const <= 1e-3 and worst_mom <= 1e-10
    _report(
        2,
        "alignment-force cross-validation",
        ok,
        f"resid={worst_resid:.2e} const_err={worst_const:.2e} momentum={worst_mom:.2e}",
    )


def test_criterion_03_linear_spectral_theory():
    ep = LinearEnergyParams(alpha=1.5, lam=1.0, mu=1.0)
    boundary_ok = (
        abs(ep.xi_threshold - 16.0) < 1e-12
        and regime_classify(16.0, ep) == "low"
        and regime_classify(16.0 + 1e-9, ep) == "high"
    )

    floor_margin = np.inf
    for xi in np.logspace(np.log10(2.0**-6), np.log10(2.0**10), 200):
        _, slow = mode_eigenvalues(xi, ep)
        floor_margin = min(floor_margin, -slow.real - rate_floor(xi, ep))
    floor_ok = floor_margin >= -1e-12

    g = Grid(1, 256, 2.0 * np.pi)
    lp = LPDecomp.for_grid(g)
    rng = np.random.default_rng(7)
    low_dev = 0.0
    high_ok = True
    pairs = 0
    while pairs < 100:
        j = int(rng.integers(0, 7))
        s = lp.dyadic_block(
            SpectralField.from_physical(g, rng.standard_normal(g.shape)), j
        )
        d = lp.dyadic_block(
            SpectralField.from_physical(g, rng.standard_normal(g.shape)), j
        )
        base = s.l2() ** 2 + d.l2() ** 2
        if base == 0:
            continue
        pairs += 1
        y = energy_Yj(s, d, j, ep)
        if j <= ep.j0:
            low_dev = max(low_dev, abs(y**2 / base - 1.0))
        else:
            lam_s = fractional_laplacian(s, ep.alpha - 1.0)
            floor = (1.0 / 3.0) * lam_s.l2() ** 2 + 0.5 * (
                ep.lam / ep.mu
            ) ** 2 * d.l2() ** 2
            high_ok = high_ok and (y**2 >= floor - 1e-12 * max(floor, 1.0))
    low_ok = low_dev <= 2.0 * DELTA
    ok = boundary_ok and floor_ok and low_ok and high_ok
    _report(
        3,
        "linear spectral theory",
        ok,
        f"boundary16={boundary_ok} floor_margin={floor_margin:.2e} "
        f"low_dev={low_dev:.2e}<= {2 * DELTA:.2e} high_bound={high_ok}",
    )


def test_criterion_04_linear_block_energy_decay():
    ep = LinearEnergyParams(alpha=1.5, lam=1.0, mu=1.0)
    g = Grid(1, 1024, 2.0 * np.pi)
    lp = LPDecomp.for_grid(g)
    rng = np.random.default_rng(42)
    worst = 0.0
    for j in range(ep.j0 - 3, ep.j0 + 4):
        s = lp.dyadic_block(
            SpectralField.from_physical(g, rng.standard_normal(g.shape)), j
        )
        d = lp.dyadic_block(
            SpectralField.from_physical(g, rng.standard_normal(g.shape)), j
        )
        y0 = energy_Yj(s, d, j, ep)
        assert y0 > 0
        for t in np.linspace(0.0, 20.0, 41)[1:]:
            st, dt_ = propagate_pair_field(s, d, t, ep)
            y = energy_Yj(st, dt_, j, ep)
            if j <= ep.j0:
                bound = y0 * np.exp(-(ep.mu_bar / 2.0) * 2.0 ** (j * ep.alpha) * t)
            else:
                bound = y0 * np.exp(
                    -(ep.nu_bar / 2.0) * 2.0 ** (j * (2.0 - ep.alpha)) * t
                )
            worst = max(worst, y / bound)
    ok = worst <= 1.0
    _report(4, "linear block-energy decay", ok, f"worst Y_j(t)/bound={worst:.3f}")


def test_criterion_05_fractional_heat_decay_laws():
    # L2 of a physical Gaussian: the flat spectrum near 0 drives t^{-N/(2 alpha)};
    # mu = 1/4 keeps the surviving frequencies well inside the box spectrum
    # over the whole window (at mu = 1 the lattice coarseness skews the fit)
    g = Grid(1, 8192, 512.0 * np.pi)
    times = np.linspace(20.0, 200.0, 100)
    tr = fractional_heat_trace(g, 1.5, 0.25, "gaussian", times, width=1.0)
    slope_l2, _ = decay_fit(tr.t, tr.column("l2"), (20.0, 200.0), kind="power")
    err_l2 = abs(slope_l2 + 1.0 / 3.0) / (1.0 / 3.0)

    # spectral envelope |xi|^{s0 - N/2}: block-restricted s1-norm follows
    # t^{-(s1+s0)/alpha}; the box must keep (s0/(alpha t))^{1/alpha} above
    # its lowest mode throughout the window, hence the larger domain
    g2 = Grid(1, 65536, 8192.0 * np.pi)
    times2 = np.logspace(np.log10(20.0), np.log10(2000.0), 60)
    s0 = 0.25
    tr2 = fractional_heat_trace(g2, 1.5, 1.0, "power", times2, s0=s0, s1=0.0)
    slope_b, _ = decay_fit(tr2.t, tr2.column("b_s1"), (20.0, 2000.0), kind="power")
    err_b = abs(slope_b + s0 / 1.5) / (s0 / 1.5)

    ok = err_l2 <= 0.05 and err_b <= 0.10
    _report(
        5,
        "fractional-heat decay laws",
        ok,
        f"l2 slope={slope_l2:.4f} (err {100 * err_l2:.1f}% <= 5%), "
        f"b_s1 slope={slope_b:.4f} (err {100 * err_b:.1f}% <= 10%)",
    )


def test_criterion_06_nonlinear_small_data_global():
    c = SimConfig(n=256, t_end=40.0, amplitude=1e-2, ic="gaussian_bump")
    trace, _ = run(c)
    completed = trace.status == "ok"
    min_rho = float(trace.column("min_rho").min())
    mass = trace.column("mass")
    mom = trace.column("mom_1")
    mass_drift = float(np.max(np.abs(mass - mass[0])))
    mom_drift = float(np.max(np.abs(mom - mom[0])))
    x0 = trace.column("X1_sigma_sup")[0] + trace.column("X2_u_sup")[0]
    xT = sum(
        trace.column(k)[-1]
        for k in ("X1_sigma_sup", "X2_u_sup", "X3_sigma_int", "X4_u_int")
    )
    amplification = xT / x0
    term_sigma = trace.column("l2_sigma")[-1] / trace.column("l2_sigma")[0]
    term_u = trace.column("l2_u")[-1] / trace.column("l2_u")[0]
    ok = (
        completed
        and min_rho >= 0.9
        and mass_drift <= 1e-8
        and mom_drift <= 1e-8
        and amplification <= 10.0
        and term_sigma <= 0.1
        and term_u <= 0.1
    )
    _report(
        6,
        "nonlinear small-data global behavior",
        ok,
        f"status={trace.status} min_rho={min_rho:.4f} mass_drift={mass_drift:.1e} "
        f"mom_drift={mom_drift:.1e} amplification={amplification:.2f} "
        f"terminal sigma={term_sigma:.1e} u={term_u:.1e}",
    )


def test_criterion_07_nonlinear_asymptotic_rate():
    # at |xi| = 1 with lam = mu = 1 the slow linear eigenvalue is -1/2
    c = SimConfig(n=64, t_end=30.0, amplitude=1e-4, ic="single_mode", mu=1.0)
    trace, _ = run(c)
    v = np.sqrt(trace.column("l2_sigma") ** 2 + trace.column("l2_u") ** 2)
    slope, r2 = decay_fit(trace.t, v, (10.0, 30.0), kind="exp")
    err = abs(slope + 0.5) / 0.5
    ok = err <= 0.10
    _report(
        7,
        "nonlinear-vs-linear asymptotic rate",
        ok,
        f"rate={slope:.5f} vs -0.5 (err {100 * err:.2f}% <= 10%), r2={r2:.4f}",
    )


def test_criterion_08_stepper_order():
    c = SimConfig(n=64, ic="gaussian_bump", amplitude=0.05)
    st0 = initial_state(c)
    p = ModelParams(alpha=1.5, kappa=1.0, gamma=1.0, mu=1.0)
    T = 0.5

    sols = {m: step(st0, p, T / m, steps=m) for m in (80, 160, 320)}  # dt = 1/160, 1/320, 1/640

    def diff(a, b):
        return np.sqrt((a.scalar - b.scalar).l2() ** 2 + (a.u - b.u).l2() ** 2)

    e1 = diff(sols[80], sols[160])
    e2 = diff(sols[160], sols[320])
    order = float(np.log2(e1 / e2))
    ok = order >= 3.8
    _report(8, "stepper self-convergence order", ok, f"order={order:.2f} >= 3.8")


def test_criterion_09_kernel_bound_constants():
    t_grid = np.logspace(-2, np.log10(600.0), 50)
    values = []
    for s in (0.0, 0.3, 0.6):
        per_j = [kernel_bound_check(1.5, 1.0, j, s, t_grid) for j in range(-4, 9)]
        values.append((s, min(per_j), max(per_j)))
    finite = all(np.isfinite(hi) for _, _, hi in values)
    spread = max(hi / lo for _, lo, hi in values)
    ok = finite and spread < 2.0
    detail = " ".join(f"s={s}:[{lo:.3f},{hi:.3f}]" for s, lo, hi in values)
    _report(9, "kernel-bound constants", ok, f"max spread={spread:.3f} < 2; {detail}")


def test_criterion_10_reproducibility(tmp_path):
    cfg = tmp_path / "run.ini"
    snap_a, snap_b = str(tmp_path / "a.snap"), str(tmp_path / "b.snap")
    base = """
[grid]
n = 64

[time]
t_end = 0.5
dt = 0.015625

[ic]
preset = random_smooth
amplitude = 0.01
seed = 123

[output]
snapshot = {snap}
"""
    out_a, out_b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    cfg.write_text(base.format(snap=snap_a))
    assert main(["run", "--config", str(cfg), "--output", out_a]) == 0
    cfg.write_text(base.format(snap=snap_b))
    assert main(["run", "--config", str(cfg), "--output", out_b]) == 0
    csv_identical = Path(out_a).read_bytes() == Path(out_b).read_bytes()
    snaps_identical = filecmp.cmp(snap_a, snap_b, shallow=False)

    state, params = read_snapshot(snap_a)
    snap_c = str(tmp_path / "c.snap")
    write_snapshot(snap_c, state, params)
    round_trip = filecmp.cmp(snap_a, snap_c, shallow=False)

    ok = csv_identical and snaps_identical and round_trip
    _report(
        10,
        "reproducibility",
        ok,
        f"csv_identical={csv_identical} snapshots_identical={snaps_identical} "
        f"round_trip_bit_exact={round_trip}",
    )


def test_criterion_11_nonlinear_optimal_decay():
    # the abstract's optimal decay law for the nonlinear system: small L1 data
    # decay in L2 like t^{-N/(2 alpha)}, the rate of the linear heat flow that
    # criterion 05 fits, on its box and at its mu.  The time-weighted norm
    # z_norms(s=1, s_bar=-1/2, j0=0) stays bounded: its low part
    # t^s ||.||_{B^{s_bar + s alpha}} levels off (t^{-(s0 + s_bar)/alpha} = t^0
    # for these L1 data, s0 = N/2), and its high part decays to round-off
    g = Grid(1, 2048, 512.0 * np.pi)
    p = ModelParams(alpha=1.5, kappa=1.0, gamma=1.0, mu=0.25)
    (x,) = g.points()
    bump = dealias(SpectralField.from_physical(g, 1e-3 * np.exp(-((x - g.L / 2) ** 2) / 2)))
    steps, T = 638, 200.0
    times, values, z = [], [], []
    for k, st in enumerate(trajectory(State(bump, bump.copy()), p, T / steps, range(steps + 1))):
        times.append(st.t)
        values.append(np.hypot(st.scalar.mean_free().l2(), st.u.mean_free().l2()))
        if k and k % 22 == 0:  # 638 = 29 * 22: the last one is at T
            z.append((st.t, *z_norms(st, st.t, 1.0, -0.5, 1.5, 0)))
    # the window ends at the last record, whose t = 638 * (T / 638) rounds above T
    slope, r2 = decay_fit(times, values, (20.0, times[-1]), kind="power")
    err = abs(slope + 1.0 / 3.0) / (1.0 / 3.0)
    zt, z_low, z_high = np.array(z).T
    mid = int(np.searchsorted(zt, T / 2))  # the first at t >= T/2
    drift = abs(z_low[-1] / z_low[mid] - 1.0)
    ok = err <= 0.01 and drift <= 0.02 and z_low[-1] < 1e-2 and z_high[-1] < 1e-15
    _report(
        11,
        "nonlinear optimal decay",
        ok,
        f"l2 slope={slope:.5f} vs -1/3 (err {100 * err:.2f}% <= 1%), r2={r2:.5f}; "
        f"z low {z_low[mid]:.4e} at t={zt[mid]:.1f}, {z_low[-1]:.4e} at T "
        f"(drift {100 * drift:.2f}% <= 2%, < 1e-2), z high {z_high[-1]:.2e} at T (< 1e-15)",
    )


def _decay_2d(eps: float):
    """Criterion 12's run at amplitude eps.  Returns the record times and,
    for the stepped solution U and for the exact linear flow of its data, the
    L2 norms of mean-free (sigma, u), of the compressible pair (sigma, d) with
    d = Lambda^{-1} div u, and of the Leray part Pu (rows: norm).  U starts
    from sigma0 = u10 = u20 = eps e^{-|x - c|^2/8}, c the box centre; each
    record is 3 steps of ``trajectory``, 40 records to T = 50."""
    g = Grid(2, 128, 64.0 * np.pi)
    p = ModelParams(alpha=1.5, kappa=1.0, gamma=1.0, dim=2, mu=1.0)
    x, y = g.points()
    bump = eps * np.exp(-((x - g.L / 2) ** 2 + (y - g.L / 2) ** 2) / 8)
    s0 = State(*(dealias(SpectralField.from_physical(g, v)) for v in (bump, [bump, bump])))

    def norms(state):
        sigma, u = state.scalar.mean_free().l2(), state.u.mean_free().l2()
        d, pu = lambda_inv_div(state.u).l2(), leray_project(state.u).mean_free().l2()
        return np.hypot(sigma, u), np.hypot(sigma, d), pu

    rows = [(st.t, norms(st), norms(linear_exact_flow(s0, p, st.t)))
            for st in trajectory(s0, p, 50.0 / 120, range(0, 121, 3))]
    times, values, linear = zip(*rows)
    return np.array(times), np.array(values).T, np.array(linear).T


def test_criterion_12_decay_in_2d():
    # the optimal decay law in dimension N = 2: small L1 data decay in L2
    # like t^{-N/(2 alpha)} = t^{-2/3} at alpha = 1.5.  At low frequency the
    # compressible pair (sigma, d) is a damped wave with Re z = -mu|xi|^alpha/2
    # and the Leray part Pu a fractional heat flow at rate mu; at lam = mu = 1
    # every band mode (|xi| <= 1.33) lies in the damped-wave regime (|xi| <=
    # 16).  The nonlinear slopes sit on the exact linear flow's to O(eps), and
    # U/U_lin - 1 at T scales with eps.  The box bends the slopes: Pu, which
    # diffuses twice as fast as the pair, reaches its lowest modes first
    runs = {eps: _decay_2d(eps) for eps in (1e-3, 1e-2)}

    def slopes(t, rows):
        return np.array([decay_fit(t, v, (20.0, 50.0), kind="power")[0] for v in rows])

    fits = {eps: (slopes(t, nl), slopes(t, lin)) for eps, (t, nl, lin) in runs.items()}
    gap = {eps: np.max(np.abs(nl - lin)) for eps, (nl, lin) in fits.items()}
    excess = {eps: (nl[0, -1] / lin[0, -1] - 1.0) / eps for eps, (_, nl, lin) in runs.items()}
    spread = abs(excess[1e-2] / excess[1e-3] - 1.0)
    target = -2 / (2 * 1.5)  # -N/(2 alpha)
    err = np.max([np.abs(nl[:2] / target - 1.0) for nl, _ in fits.values()], axis=0)
    ok = all(gap[eps] <= eps / 10 for eps in gap) and spread <= 0.02
    ok = ok and err[0] <= 0.03 and err[1] <= 0.02

    scan = "; ".join(
        f"eps {eps:g}: l2/pair/Pu slope {_slashed(nl)}, linear {_slashed(lin)} "
        f"(gap {gap[eps]:.1e} <= {eps / 10:g})"
        for eps, (nl, lin) in fits.items()
    )
    _report(
        12,
        "decay law in 2D",
        ok,
        f"{scan}; vs -2/3: l2 err {100 * err[0]:.2f}% <= 3%, pair {100 * err[1]:.2f}% <= 2%; "
        f"(|U|/|U_lin| - 1)/eps at T {excess[1e-3]:.5f}/{excess[1e-2]:.5f} "
        f"(spread {100 * spread:.2f}% <= 2%)",
    )


def _x_ratio(trace) -> float:
    """R = X(T)/X(0), X = X1 + X2 + X3 + X4 of a trace (X3 = X4 = 0 at t = 0)."""
    x = sum(trace.column(k) for k in ("X1_sigma_sup", "X2_u_sup", "X3_sigma_int", "X4_u_int"))
    return float(x[-1] / x[0])


def test_criterion_13_small_data_constant():
    # the paper's small-data bound X(t) <= C X(0) on the composite norm X:
    # R(eps) = X(T)/X(0) of a run of amplitude eps tends to the linear
    # constant R_lin at first order, R(eps) = R_lin + c1 eps + O(eps^2).  A
    # dt of about dx/4, below every run's CFL limit, keeps the stepper's
    # error on R_lin (against the exact flow on the same records) small.
    # Only run sets a trace status; outside it a vacuum raises, from step or
    # Recorder.record, and fails the test
    nsteps, cadence = 1632, 4
    base = SimConfig(n=128, t_end=20.0, dt=20.0 / nsteps, cadence=cadence, ic="gaussian_bump")
    params, s0 = base.model_params(), initial_state(base)
    stepped, exact = Recorder(s0.grid, params), Recorder(s0.grid, params)
    for st in trajectory(s0, params, base.dt, range(0, nsteps + 1, cadence), linear_only=True):
        stepped.record(st)
        exact.record(linear_exact_flow(s0, params, st.t))
    r_lin = _x_ratio(stepped.trace)
    gap = abs(r_lin - _x_ratio(exact.trace))
    statuses, c1 = [], {}
    for eps in (1e-3, 1e-2, 0.1, 1.0):
        trace, _ = run(dataclasses.replace(base, amplitude=eps))
        assert len(trace.t) == nsteps // cadence + 1
        statuses.append(trace.status)
        c1[eps] = (_x_ratio(trace) - r_lin) / eps
    spread = abs(c1[1e-2] - c1[1e-3]) / c1[1e-3]
    ok = gap < 1e-4 and spread <= 0.01 and statuses == ["ok"] * 4
    scan = ", ".join(f"{c:.5f} at {eps:g}" for eps, c in c1.items())
    _report(
        13,
        "small-data constant",
        ok,
        f"R_lin={r_lin:.7f} (exact-flow gap {gap:.1e} < 1e-4); (R-R_lin)/eps = {scan} "
        f"(c1 spread {100 * spread:.2f}% <= 1%); statuses {set(statuses)}",
    )


def _difference_ratio(config: SimConfig, a: State, b: State, linear_only: bool = False):
    """D = X(delta)(T)/X(delta)(0) of delta = B - A, with A and B stepped by
    ``trajectory`` at ``config.dt`` with a record every ``config.cadence``
    steps, and delta recorded through one ``Recorder``.  A vacuum raises, from
    ``step`` or ``Recorder.record``."""
    params = config.model_params()
    records = range(0, round(config.t_end / config.dt) + 1, config.cadence)
    recorder = Recorder(a.grid, params)
    for a, b in zip(*(trajectory(s, params, config.dt, records, linear_only) for s in (a, b))):
        recorder.record(State(b.scalar - a.scalar, b.u - a.u, b.t))
    return _x_ratio(recorder.trace)


def test_criterion_14_continuous_dependence():
    # the uniqueness half of well-posedness, in its quantitative form: the
    # difference delta of two solutions obeys X(delta)(t) <= C X(delta)(0).
    # D does not depend on the perturbation's size eta, so D(eps) is the
    # tangent flow's constant, R_lin + c1' eps + O(eps^2) about the same
    # stepper's linear constant R_lin of the perturbation; criterion 13's
    # set-up and records
    nsteps = 1632
    base = SimConfig(n=128, t_end=20.0, dt=20.0 / nsteps, cadence=4, ic="gaussian_bump")
    noise = initial_state(dataclasses.replace(base, ic="random_smooth", seed=1, amplitude=1.0))
    zero = State(SpectralField.zeros(noise.grid), SpectralField.zeros(noise.grid, base.dim))

    def perturbed(a: State, eta: float) -> State:
        return State(a.scalar + eta * noise.scalar, a.u + eta * noise.u)

    r_lin = _difference_ratio(base, zero, perturbed(zero, 1e-7), linear_only=True)
    d = {}
    for eps in (1e-3, 1e-2):
        a = initial_state(dataclasses.replace(base, amplitude=eps))
        for eta in (1e-7, 1e-5):
            d[eps, eta] = _difference_ratio(base, a, perturbed(a, eta))
    eta_gap = max(abs(d[eps, 1e-5] - d[eps, 1e-7]) / d[eps, 1e-7] for eps in (1e-3, 1e-2))
    c1 = {eps: (d[eps, 1e-7] - r_lin) / eps for eps in (1e-3, 1e-2)}
    spread = abs(c1[1e-2] - c1[1e-3]) / c1[1e-3]
    ok = eta_gap <= 1e-5 and spread <= 0.02
    scan = ", ".join(f"{c:.5f} at {eps:g}" for eps, c in c1.items())
    _report(
        14,
        "continuous dependence",
        ok,
        f"R_lin={r_lin:.7f}; D={d[1e-3, 1e-7]:.7f} at eps 1e-3, {d[1e-2, 1e-7]:.7f} at 1e-2 "
        f"(eta gap {eta_gap:.1e} <= 1e-5); (D-R_lin)/eps = {scan} "
        f"(c1' spread {100 * spread:.2f}% <= 2%)",
    )


def _profile_gap(eps: float):
    """Criterion 15's run pair at amplitude eps.  Returns the mass defects
    (dM_sigma, dM_u) of the data, the record times, and R(t) = |U - U~| / |U|
    in L2 on mean-free (sigma, u).  U is stepped from sigma0 = u0 = eps
    e^{-(x - L/2)^2/2}; U~ is stepped ``linear_only`` from the data plus
    (dM_sigma, dM_u) times the unit-mass Gaussian.  Each record is 11 steps
    of ``trajectory``, 58 records to T = 200."""
    g = Grid(1, 2048, 512.0 * np.pi)
    p = ModelParams(alpha=1.2, kappa=1.0, gamma=1.0, mu=0.25)
    (x,) = g.points()
    gauss = np.exp(-((x - g.L / 2) ** 2) / 2)
    bump = dealias(SpectralField.from_physical(g, eps * gauss))
    phi = dealias(SpectralField.from_physical(g, gauss / np.sqrt(2.0 * np.pi)))
    b = bump.to_physical()[0]  # the samples of sigma0 and of u0
    rho = rho_from_sigma(b, p)
    dm = np.array([np.sum(rho - 1.0) - np.sum(b), np.sum(rho * b) - np.sum(b)]) * g.dx
    records, dt = range(0, 639, 11), 200.0 / 638
    runs = (trajectory(State(bump, bump.copy()), p, dt, records),
            trajectory(State(bump + dm[0] * phi, bump + dm[1] * phi), p, dt, records, True))

    def l2(sigma, u):
        return np.hypot(sigma.mean_free().l2(), u.mean_free().l2())

    times, gap = np.array([(st.t, l2(st.scalar - lin.scalar, st.u - lin.u) / l2(st.scalar, st.u))
                           for st, lin in zip(*runs)]).T
    return dm, times, gap


def test_criterion_15_large_time_profile():
    # the abstract's large-time asymptotic behavior, sharper than criterion
    # 11's rate: a small solution approaches the linear flow of data that
    # carry its conserved masses M_rho = int(rho - 1) and M_m = int rho u
    # (diffusion waves; Liu & Zeng, Mem. AMS 125, 1997).  Neither int sigma
    # nor int u is conserved; for this Gaussian at gamma = 1 the data's
    # defects are dM_sigma = eps^2 sqrt(pi)/2 and dM_u = eps^2 sqrt(pi).  R/eps
    # does not depend on eps (a tangent-flow quantity), and a Duhamel
    # estimate of the quadratic terms bounds its decay by t^{1 - 2/alpha}.
    # Criterion 11's grid and box, at alpha = 1.2
    runs = {eps: _profile_gap(eps) for eps in (1e-3, 1e-2)}
    t = runs[1e-3][1]
    closed = np.array([np.sqrt(np.pi) / 2.0, np.sqrt(np.pi)])
    mass = {eps: dm / eps**2 for eps, (dm, _, _) in runs.items()}
    mass_err = max(np.max(np.abs(m / closed - 1.0)) for m in mass.values())
    r = {eps: gap / eps for eps, (_, _, gap) in runs.items()}
    spread = np.max(np.abs(r[1e-2] / r[1e-3] - 1.0))
    i20 = int(np.searchsorted(t, 20.0))  # the first record at t >= 20
    fall = max(ri[-1] / ri[i20] for ri in r.values())
    # the window ends at the last record, whose t = 638 * (200 / 638) rounds above 200
    slopes = [decay_fit(t, ri, (50.0, t[-1]), kind="power")[0] for ri in r.values()]
    floor = 1.0 - 2.0 / 1.2
    ok = mass_err <= 0.01 and spread <= 0.01 and fall <= 0.45
    ok = ok and all(floor <= slope <= -0.40 for slope in slopes)

    _report(
        15,
        "large-time profile",
        ok,
        f"at eps 1e-3/1e-2: dM_sigma/eps^2={_slashed(m[0] for m in mass.values())} vs "
        f"sqrt(pi)/2, dM_u/eps^2={_slashed(m[1] for m in mass.values())} vs sqrt(pi) "
        f"(err {100 * mass_err:.2f}% <= 1%); R/eps={_slashed(ri[i20] for ri in r.values())} "
        f"at t={t[i20]:.2f}, {_slashed(ri[-1] for ri in r.values())} at T "
        f"(fall {fall:.3f} <= 0.45, eps spread {100 * spread:.2f}% <= 1%); "
        f"slope on [50, 200] {_slashed(slopes)} in [{floor:.3f}, -0.40]",
    )


def _pressureless_drift(kappa: float):
    """The largest relative drift of I2 = int G^2/rho and I4 = int G^4/rho^3,
    G = d_x u - mu Lambda^alpha rho, over 40 records of 1D data rho = 1 + 0.9
    sin x, u = 3 cos x at gamma = 1, n=128, dt=5e-4, T=2, 100 steps of
    ``trajectory`` per record; and the minimum density of the records."""
    g, dt, per_record = Grid(1, 128, 2.0 * np.pi), 5e-4, 100
    p = ModelParams(alpha=1.5, kappa=kappa, gamma=1.0)
    x = g.axis_points()
    sigma = SpectralField.from_physical(g, sigma_from_rho(1.0 + 0.9 * np.sin(x), p))
    st = State(dealias(sigma), dealias(SpectralField.from_physical(g, 3.0 * np.cos(x))))

    def invariants(state):
        rho = rho_from_sigma(state.scalar.to_physical()[0], p)
        lam_rho = fractional_laplacian(SpectralField.from_physical(g, rho), p.alpha)
        G = spectral_derivative(state.u).to_physical()[0] - p.mu * lam_rho.to_physical()[0]
        return np.sum(G**2 / rho) * g.dx, np.sum(G**4 / rho**3) * g.dx, rho.min()

    rows = np.array([invariants(s) for s in trajectory(st, p, dt, range(0, 4001, per_record))])
    return np.max(np.abs(rows[:, :2] / rows[0, :2] - 1.0), axis=0), rows[:, 2].min()


def test_criterion_16_pressureless_invariant():
    # in 1D at kappa -> 0, G = d_x u - mu Lambda^alpha rho obeys d_t G +
    # d_x(u G) = 0, so q = G/rho is transported and every int rho F(q) is
    # conserved: a check of the nonlinear terms at large amplitude (min rho
    # near 0.02) against an exact answer.  Pressure breaks it at O(kappa)
    drift, min_rho = _pressureless_drift(1e-12)
    kappas = (1e-6, 1e-5, 1e-4)
    per_kappa = np.array([_pressureless_drift(k)[0] / k for k in kappas])  # rows: kappa
    spread = per_kappa.max(axis=0) / per_kappa.min(axis=0) - 1.0
    ok = bool(np.all(drift <= 1e-8) and np.all(spread <= 0.05))
    scan = ", ".join(f"{a:.3f}/{b:.3f} at {k:g}" for k, (a, b) in zip(kappas, per_kappa))
    _report(
        16,
        "pressureless invariant",
        ok,
        f"I2 drift={drift[0]:.2e} I4 drift={drift[1]:.2e} (<= 1e-8) min_rho={min_rho:.4f}; "
        f"drift/kappa I2/I4 = {scan} (spread {100 * spread[0]:.2f}%/{100 * spread[1]:.2f}% <= 5%)",
    )


_PHASES = np.random.default_rng(5).random((2, 341))  # of sigma and u on k = 1..1024//3


def _critical_data(n: int, eps: float) -> State:
    """Criterion 17's 1D data at n: on k = 1..n//3, sigma and u carry the
    coefficients (eps/2) k^{-s} (1 + log2 k)^{-2} e^{2 pi i phase} at s = 1 and
    1/2, the phases ``_PHASES`` cut at n//3, so the data at n are a prefix of
    those at 2n.  Each dyadic block j then carries about j^{-2} of the critical
    norm, while u is unbounded in the limit n -> inf."""
    g = Grid(1, n, 2.0 * np.pi)
    k = np.arange(1, n // 3 + 1)
    coef = np.zeros((2,) + g.spectral_shape, dtype=complex)
    coef[:, 1 : n // 3 + 1] = (eps / 2) * k ** -np.array([[1.0], [0.5]]) * (1 + np.log2(k)) ** -2
    coef[:, 1 : n // 3 + 1] *= np.exp(2j * np.pi * _PHASES[:, : n // 3])
    return State(SpectralField(g, coef[:1]), SpectralField(g, coef[1:]))


def _critical_ratios(n: int, p: ModelParams):
    """R = X(T)/X(0) at T = 5 of the exact linear flow and of the ``linear_only``
    run of the eps = 1 data, then of the runs at eps = 1e-3 and 1e-2; a vacuum
    raises, from ``step`` or ``Recorder.record``.  dt = T/N is about dx/4 over 1 + max|u0| of the eps =
    1e-2 data, and the records are log-spaced: step 0 and the step counts
    unique(round(geomspace(1, N, 160)))."""
    s1, T = _critical_data(n, 1.0), 5.0
    umax = np.max(np.abs(_critical_data(n, 1e-2).u.to_physical()))
    steps = int(np.ceil(T / (0.25 * s1.grid.dx / (1.0 + umax))))
    dt, records = T / steps, [0, *np.unique(np.round(np.geomspace(1, steps, 160)).astype(int))]
    exact, *runs = (Recorder(s1.grid, p) for _ in range(4))
    for st in trajectory(s1, p, dt, records, linear_only=True):
        exact.record(linear_exact_flow(s1, p, st.t))
        runs[0].record(st)
    for recorder, eps in zip(runs[1:], (1e-3, 1e-2)):
        for st in trajectory(_critical_data(n, eps), p, dt, records):
            recorder.record(st)
    return [_x_ratio(r.trace) for r in (exact, *runs)]


def test_criterion_17_critical_regularity_data():
    # the theorem needs small data in the critical hybrid norm alone, and no
    # higher norm.  These data have a critical norm X(0) that converges as n
    # grows, while u is unbounded in the limit (1D, alpha = 1.5: u's critical
    # index N/2 + 1 - alpha is 0).  So the first-order constant c1 = (R -
    # R_lin)/eps of criterion 13 must not depend on n.  On uniform records the
    # X3/X4 sums overweight the top blocks' initial values, which decay inside
    # the first interval; log-spaced records resolve that early decay
    p = ModelParams(alpha=1.5, kappa=1.0, gamma=1.0)
    rows = [Recorder(Grid(1, n, 2.0 * np.pi), p).row(_critical_data(n, 1.0))[0]
            for n in (256, 512, 1024)]
    x0 = [row["sigma_hybrid"] + row["u_crit"] for row in rows]  # X(0) = X1 + X2
    rise = np.diff(x0)
    runs = {n: _critical_ratios(n, p) for n in (512, 1024)}
    c1 = {n: [(r - ratios[1]) / eps for r, eps in zip(ratios[2:], (1e-3, 1e-2))]
          for n, ratios in runs.items()}
    spread = abs(c1[1024][0] / c1[512][0] - 1.0)
    gap = max(abs(ratios[1] / ratios[0] - 1.0) for ratios in runs.values())
    ok = 0 < rise[1] < rise[0] and spread <= 0.02 and gap <= 0.01
    scan = "; ".join(
        f"n={n}: R exact/IF-RK4 {_slashed(ratios[:2])}, c1 at eps 1e-3/1e-2 {_slashed(c1[n])}"
        for n, ratios in runs.items()
    )
    _report(
        17,
        "critical-regularity data",
        ok,
        f"X(0)/eps at n=256/512/1024 {_slashed(x0)} (increments {rise[0]:.5f} > {rise[1]:.5f} "
        f"> 0); {scan}; c1 spread {100 * spread:.2f}% <= 2%, R_lin gap {100 * gap:.2f}% <= 1%",
    )
