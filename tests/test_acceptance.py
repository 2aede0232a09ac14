"""Acceptance gate: thirteen end-to-end checks, one pass/fail line each.

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
    LinearEnergyParams,
    energy_Yj,
    kernel_bound_check,
    mode_eigenvalues,
    propagate_pair_field,
    rate_floor,
    regime_classify,
)
from euleralign.lp import LPDecomp
from euleralign.model import ModelParams, State, alignment_direct
from euleralign.operators import (
    dealias,
    fractional_laplacian,
    lambda_power,
    physical_product,
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
)
from euleralign.snapshot import read_snapshot, write_snapshot


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
            lam_s = lambda_power(s, ep.alpha - 1.0)
            floor = (1.0 / 3.0) * lam_s.l2() ** 2 + 0.5 * (
                ep.lam / ep.mu
            ) ** 2 * d.l2() ** 2
            high_ok = high_ok and (y**2 >= floor - 1e-12 * max(floor, 1.0))
    low_ok = low_dev <= 2.0 * ep.delta
    ok = boundary_ok and floor_ok and low_ok and high_ok
    _report(
        3,
        "linear spectral theory",
        ok,
        f"boundary16={boundary_ok} floor_margin={floor_margin:.2e} "
        f"low_dev={low_dev:.2e}<= {2 * ep.delta:.2e} high_bound={high_ok}",
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

    def advance(m):
        st = st0
        dt = T / m
        for _ in range(m):
            st = step(st, p, dt)
        return st

    sols = {m: advance(m) for m in (80, 160, 320)}  # dt = 1/160, 1/320, 1/640

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
    # criterion 05 fits, on its box and at its mu
    g = Grid(1, 2048, 512.0 * np.pi)
    p = ModelParams(alpha=1.5, kappa=1.0, gamma=1.0, mu=0.25)
    (x,) = g.points()
    bump = dealias(SpectralField.from_physical(g, 1e-3 * np.exp(-((x - g.L / 2) ** 2) / 2)))
    st = State(bump, bump.copy())
    steps, T = 638, 200.0
    times = np.linspace(0.0, T, steps + 1)

    def l2(state):
        return np.hypot(state.scalar.mean_free().l2(), state.u.mean_free().l2())

    values = [l2(st)]
    for _ in range(steps):
        st = step(st, p, T / steps)
        values.append(l2(st))
    slope, r2 = decay_fit(times, values, (20.0, 200.0), kind="power")
    err = abs(slope + 1.0 / 3.0) / (1.0 / 3.0)
    ok = err <= 0.01
    _report(
        11,
        "nonlinear optimal decay",
        ok,
        f"l2 slope={slope:.5f} vs -1/3 (err {100 * err:.2f}% <= 1%), r2={r2:.5f}",
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
    # error on R_lin (against the exact flow on the same records) small
    nsteps, cadence = 1632, 4
    base = SimConfig(n=128, t_end=20.0, dt=20.0 / nsteps, cadence=cadence, ic="gaussian_bump")
    params, s0 = base.model_params(), initial_state(base)
    stepped, exact = Recorder(s0.grid, params), Recorder(s0.grid, params)
    stepped.record(s0)
    exact.record(s0)
    st = s0
    for istep in range(1, nsteps + 1):
        st = step(st, params, base.dt, linear_only=True)
        if istep % cadence == 0:
            st.t = istep * base.dt
            stepped.record(st)
            exact.record(linear_exact_flow(s0, params, st.t))
    r_lin = _x_ratio(stepped.trace)
    gap = abs(r_lin - _x_ratio(exact.trace))
    statuses, c1 = [stepped.trace.status, exact.trace.status], {}
    for eps in (1e-3, 1e-2, 0.1, 1.0):
        trace, _ = run(dataclasses.replace(base, amplitude=eps))
        assert len(trace.t) == nsteps // cadence + 1
        statuses.append(trace.status)
        c1[eps] = (_x_ratio(trace) - r_lin) / eps
    spread = abs(c1[1e-2] - c1[1e-3]) / c1[1e-3]
    ok = gap < 1e-4 and spread <= 0.01 and statuses == ["ok"] * 6
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
    ``step`` at ``config.dt`` and delta recorded every ``config.cadence``
    steps through one ``Recorder``; and the recorder's trace status."""
    params = config.model_params()
    recorder = Recorder(a.grid, params)
    nsteps = round(config.t_end / config.dt)
    for istep in range(nsteps + 1):
        if istep:
            a, b = (step(s, params, config.dt, linear_only) for s in (a, b))
        if istep % config.cadence == 0:
            recorder.record(State(b.scalar - a.scalar, b.u - a.u, istep * config.dt))
    return _x_ratio(recorder.trace), recorder.trace.status


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

    r_lin, status = _difference_ratio(base, zero, perturbed(zero, 1e-7), linear_only=True)
    statuses, d = [status], {}
    for eps in (1e-3, 1e-2):
        a = initial_state(dataclasses.replace(base, amplitude=eps))
        for eta in (1e-7, 1e-5):
            d[eps, eta], status = _difference_ratio(base, a, perturbed(a, eta))
            statuses.append(status)
    eta_gap = max(abs(d[eps, 1e-5] - d[eps, 1e-7]) / d[eps, 1e-7] for eps in (1e-3, 1e-2))
    c1 = {eps: (d[eps, 1e-7] - r_lin) / eps for eps in (1e-3, 1e-2)}
    spread = abs(c1[1e-2] - c1[1e-3]) / c1[1e-3]
    ok = eta_gap <= 1e-5 and spread <= 0.02 and statuses == ["ok"] * 5
    scan = ", ".join(f"{c:.5f} at {eps:g}" for eps, c in c1.items())
    _report(
        14,
        "continuous dependence",
        ok,
        f"R_lin={r_lin:.7f}; D={d[1e-3, 1e-7]:.7f} at eps 1e-3, {d[1e-2, 1e-7]:.7f} at 1e-2 "
        f"(eta gap {eta_gap:.1e} <= 1e-5); (D-R_lin)/eps = {scan} "
        f"(c1' spread {100 * spread:.2f}% <= 2%); statuses {set(statuses)}",
    )
