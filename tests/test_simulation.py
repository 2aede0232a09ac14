"""Time stepping, run orchestration, heat-flow traces, and decay fitting."""

import csv

import numpy as np
import pytest

from euleralign.besov import NormSpec
from euleralign.cli import main
from euleralign.grid import Grid, SpectralField
from euleralign.lp import LPDecomp
from euleralign.model import VACUUM_THRESHOLD, ModelParams, State, VacuumError
from euleralign.operators import ParameterError, heat_semigroup
from euleralign.simulation import (
    Recorder,
    SimConfig,
    decay_fit,
    default_dt,
    fractional_heat_trace,
    initial_state,
    linear_exact_flow,
    run,
    step,
    trajectory,
    z_norms,
)
from euleralign.snapshot import write_snapshot


class TestSimConfig:
    def test_defaults(self):
        c = SimConfig()
        assert c.grid().n == 256
        p = c.model_params()
        assert p.lam == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            SimConfig(t_end=0.0)
        with pytest.raises(ParameterError):
            SimConfig(amplitude=0.0)
        with pytest.raises(ParameterError):
            SimConfig(ic="bogus")
        for value in (np.inf, np.nan):
            with pytest.raises(ParameterError, match="t_end"):
                SimConfig(t_end=value)
            with pytest.raises(ParameterError, match="amplitude"):
                SimConfig(amplitude=value)
        # integer fields take ints, NumPy's too, but no float or bool:
        # ic_mode = 1.5 would start from a sine that is not periodic on the box
        for name in ("seed", "ic_mode", "cadence"):
            for value in (1.5, 2.0, True):
                with pytest.raises(ParameterError, match=f"{name} must be an int"):
                    SimConfig(**{name: value})
        cfg = SimConfig(seed=np.int64(3), ic_mode=np.int32(2), cadence=np.int64(4))
        assert (cfg.seed, cfg.ic_mode, cfg.cadence) == (3, 2, 4)

    @pytest.mark.parametrize("name, value", [("alpha", 2.5), ("kappa", -1.0), ("gamma", 0.5), ("mu", -1.0)])
    def test_model_parameters_are_checked_at_construction(self, name, value):
        # not first inside run, and the message names the parameter
        with pytest.raises(ParameterError, match=f"^{name} must"):
            SimConfig(**{name: value})

    @pytest.mark.parametrize("dt", [0.0, -1.0, np.nan, np.inf])
    def test_dt_must_be_finite_and_positive(self, dt):
        with pytest.raises(ParameterError, match="dt must be finite and > 0"):
            SimConfig(dt=dt)

    @pytest.mark.parametrize("cfl", [0.0, -1.0, np.nan, np.inf])
    def test_cfl_must_be_finite_and_positive(self, cfl):
        # an infinite cfl made the CFL limit infinite, so no strike ever fired
        with pytest.raises(ParameterError, match="cfl must be finite and > 0"):
            SimConfig(cfl=cfl)


class TestInitialState:
    @pytest.mark.parametrize("ic", ["gaussian_bump", "single_mode", "random_smooth"])
    def test_presets_deterministic(self, ic):
        c = SimConfig(ic=ic, n=64, seed=4)
        a = initial_state(c)
        b = initial_state(c)
        assert np.array_equal(a.scalar.coef, b.scalar.coef)
        assert np.array_equal(a.u.coef, b.u.coef)
        assert np.max(np.abs(a.scalar.to_physical())) <= c.amplitude * (1 + 1e-12)

    def test_gaussian_velocity_mean_free(self):
        st = initial_state(SimConfig(ic="gaussian_bump", n=64))
        assert abs(st.u.mean()[0]) < 1e-16

    def test_random_smooth_seed_changes_field(self):
        a = initial_state(SimConfig(ic="random_smooth", n=64, seed=1))
        b = initial_state(SimConfig(ic="random_smooth", n=64, seed=2))
        assert not np.array_equal(a.scalar.coef, b.scalar.coef)

    def test_2d_presets(self):
        st = initial_state(SimConfig(dim=2, n=32, ic="gaussian_bump"))
        assert st.grid.dim == 2 and st.u.components == 2


class TestStep:
    def _params(self, mu=1.0, dim=1):
        return ModelParams(alpha=1.5, kappa=1.0, gamma=1.0, dim=dim, mu=mu)

    def test_equilibrium_fixed_point(self):
        g = Grid(1, 64, 2 * np.pi)
        p = self._params()
        st = State(SpectralField.zeros(g), SpectralField.zeros(g, 1))
        out = step(st, p, 0.1)
        assert out.scalar.l2() == 0.0 and out.u.l2() == 0.0
        assert out.t == pytest.approx(0.1)

    @pytest.mark.parametrize("dim,n,tol", [(1, 64, 1e-10), (2, 32, 1e-10)])
    def test_linear_step_matches_exact_flow(self, dim, n, tol):
        c = SimConfig(dim=dim, n=n, ic="single_mode", amplitude=1e-3)
        st = initial_state(c)
        p = self._params(dim=dim)
        dt = 0.01
        num = step(st, p, dt, linear_only=True)
        ex = linear_exact_flow(st, p, dt)
        err = np.sqrt(
            (num.scalar - ex.scalar).l2() ** 2 + (num.u - ex.u).l2() ** 2
        )
        assert err < tol

    def test_order_of_accuracy(self):
        # halving dt from 1/160 improves the error by at least 2^3.8
        c = SimConfig(n=64, ic="gaussian_bump", amplitude=0.05)
        st0 = initial_state(c)
        p = self._params()
        T = 1.0 / 16.0

        ref = step(st0, p, T / 80, steps=80)

        def err(m):
            st = step(st0, p, T / m, steps=m)
            return np.sqrt(
                (st.scalar - ref.scalar).l2() ** 2 + (st.u - ref.u).l2() ** 2
            )

        e1, e2 = err(10), err(20)
        order = np.log2(e1 / e2)
        assert order >= 3.8

    def test_vacuum_guard(self):
        g = Grid(1, 64, 2 * np.pi)
        p = self._params()
        # sigma = -1 pushes rho = e^sigma toward zero but stays positive;
        # force near-vacuum data directly instead
        sig = SpectralField.from_physical(
            g, np.log(1e-7) * np.ones(g.shape)
        )
        st = State(sig, SpectralField.zeros(g, 1))
        with pytest.raises(VacuumError):
            step(st, p, 0.01)

    def test_linear_step_checks_nothing(self):
        # a linear_only step makes no transform, so it has no samples to check
        g = Grid(1, 64, 2 * np.pi)
        sig = SpectralField.from_physical(g, np.log(1e-7) * np.ones(g.shape))
        st = step(State(sig, SpectralField.zeros(g, 1)), self._params(), 0.01, linear_only=True)
        assert np.all(np.isfinite(st.scalar.coef))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_step_guards_its_input_not_its_output(self):
        # sigma = 800 at the bump's peak overflows h(sigma) = e^sigma - 1: the
        # first step starts from a sound density and returns NaN, the second
        # refuses that NaN input
        c = SimConfig(n=32, dt=1e-3, amplitude=800.0)
        st = step(initial_state(c), c.model_params(), c.dt)
        assert np.isnan(st.scalar.coef).any()
        with pytest.raises(VacuumError, match="nan"):
            step(st, c.model_params(), c.dt)

    @pytest.mark.parametrize("dt", [0.0, -1.0, np.nan, np.inf])
    def test_bad_dt(self, dt):
        # a NaN dt once ran four stages and was reported as a vacuum
        st = initial_state(SimConfig(n=64))
        with pytest.raises(ParameterError, match="dt must be finite and > 0"):
            step(st, self._params(), dt)

    @pytest.mark.parametrize("steps", [0, -1, 1.5, True])
    def test_bad_steps(self, steps):
        st = initial_state(SimConfig(n=64))
        with pytest.raises(ParameterError, match="steps must be an int >= 1"):
            step(st, self._params(), 0.01, steps=steps)

    @pytest.mark.parametrize("records", [[0, 3, 3], [0, 5, 2], [0, 3, 0], [0, 0], [0, 1.5]])
    def test_trajectory_needs_ascending_int_records(self, records):
        # a repeated, falling or non-int record hands step a count it rejects
        with pytest.raises(ParameterError, match="steps must be an int >= 1"):
            list(trajectory(initial_state(SimConfig(n=64)), self._params(), 0.01, records))


class TestLinearExactFlow:
    def test_mean_velocity_preserved(self):
        g = Grid(1, 64, 2 * np.pi)
        p = ModelParams(alpha=1.5, kappa=1.0, gamma=1.0, mu=1.0)
        uv = 0.3 + 0.1 * np.sin(g.axis_points())
        st = State(
            SpectralField.from_physical(g, 0.01 * np.cos(g.axis_points())),
            SpectralField.from_physical(g, uv),
        )
        out = linear_exact_flow(st, p, 5.0)
        assert out.u.mean()[0] == pytest.approx(0.3, abs=1e-14)

    def test_incompressible_part_heat_decay_2d(self):
        g = Grid(2, 32, 2 * np.pi)
        p = ModelParams(alpha=1.5, kappa=1.0, gamma=1.0, dim=2, mu=1.0)
        xs = g.points()
        # divergence-free field (stream-function curl)
        uv = np.stack([np.sin(xs[1]), np.sin(xs[0])])
        st = State(
            SpectralField.zeros(g),
            SpectralField.from_physical(g, uv),
        )
        t = 0.7
        out = linear_exact_flow(st, p, t)
        expect = heat_semigroup(st.u, p.alpha, p.mu, t)
        assert (out.u - expect).l2() < 1e-13
        assert out.scalar.l2() < 1e-13

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_time_rejected(self, t):
        c = SimConfig(n=32)
        with pytest.raises(ParameterError, match="t must be finite"):
            linear_exact_flow(initial_state(c), c.model_params(), t)


def _x_growth(trace):
    """X(T)/X(0) of a trace: X = X1 + X2 + X3 + X4, and X3 = X4 = 0 at t = 0."""
    xt = sum(trace.column(k)[-1] for k in ("X1_sigma_sup", "X2_u_sup", "X3_sigma_int", "X4_u_int"))
    return xt / (trace.column("X1_sigma_sup")[0] + trace.column("X2_u_sup")[0])


class TestRecorder:
    def test_traces_any_state_sequence(self):
        # the exact linear flow and a linear_only IF-RK4 run, traced on the
        # same record times, give the same growth of the composite norm X
        c = SimConfig(n=128, t_end=20.0, ic="gaussian_bump")
        params, s0 = c.model_params(), initial_state(c)
        # dt <= dx/4, with the step count rounded up to a multiple of cadence, as run does
        cadence, nsteps = 4, 4 * int(np.ceil(c.t_end / c.grid().dx))
        dt = c.t_end / nsteps
        exact, stepped = Recorder(s0.grid, params), Recorder(s0.grid, params)
        for state in trajectory(s0, params, dt, range(0, nsteps + 1, cadence), linear_only=True):
            stepped.record(state)
            exact.record(linear_exact_flow(s0, params, state.t))
        assert np.array_equal(exact.trace.t, stepped.trace.t)
        assert _x_growth(stepped.trace) == pytest.approx(_x_growth(exact.trace), rel=1e-4)
        assert _x_growth(exact.trace) == pytest.approx(2.80330, abs=1e-5)


class TestRun:
    def test_short_run_columns_and_conservation(self, tmp_path):
        c = SimConfig(
            n=64, t_end=0.5, dt=1.0 / 64.0, ic="gaussian_bump", amplitude=0.01
        )
        trace, states = run(c)
        base = ["t", "min_rho", "mass", "mom_1", "l2_sigma", "l2_u"]
        extras = [
            "sigma_hybrid",
            "u_crit",
            "X1_sigma_sup",
            "X2_u_sup",
            "X3_sigma_int",
            "X4_u_int",
        ]
        assert trace.columns == base + extras
        # a 2D run with one custom norm column: Recorder.columns alone fixes
        # the header, and analyze writes the same one up to u_crit (the small
        # dt keeps RK4's O(dt^4) momentum drift in 2D below 1e-10)
        crit = ("crit", "u", NormSpec.homogeneous(0.5, 1))
        c2 = SimConfig(dim=2, n=32, t_end=0.25, dt=1.0 / 256.0, amplitude=0.01, norms=[crit])
        for cfg, (trace, states) in [(c, (trace, states)), (c2, run(c2))]:
            names = [name for name, _, _ in cfg.norms]
            assert trace.columns == list(Recorder.columns(cfg.dim, names))
            assert trace.status == "ok"
            mass = trace.column("mass")
            assert np.max(np.abs(mass - mass[0])) < 1e-12 * abs(mass[0])
            for i in range(cfg.dim):
                mom = trace.column(f"mom_{i + 1}")
                assert np.max(np.abs(mom - mom[0])) < 1e-10
            assert np.all(trace.column("min_rho") > 0.9)
            # sup-type accumulators are nondecreasing; integral accumulators too
            for col in ("X1_sigma_sup", "X2_u_sup", "X3_sigma_int", "X4_u_int"):
                assert np.all(np.diff(trace.column(col)) >= -1e-15)
            snap, out = tmp_path / f"{cfg.dim}d.snap", tmp_path / f"{cfg.dim}d.csv"
            write_snapshot(str(snap), states[-1], cfg.model_params())
            assert main(["analyze", str(snap), "--output", str(out)]) == 0
            with open(out, newline="") as fh:
                header = next(csv.reader(fh))
            assert header == trace.columns[: trace.columns.index("u_crit") + 1]

    def test_deterministic(self):
        c = SimConfig(n=64, t_end=0.25, dt=1.0 / 64.0, ic="random_smooth", seed=9)
        t1, _ = run(c)
        t2, _ = run(c)
        for col in t1.columns:
            assert np.array_equal(t1.column(col), t2.column(col))

    def test_record_cadence_keeps_the_bits_of_single_steps(self):
        # a record at every step and one per 3 steps make the same 3 steps at
        # the same dt: one step call per record interval keeps their bits
        a, b = (run(SimConfig(n=32, t_end=0.2, cadence=c))[1][-1] for c in (1, 3))
        assert a.t == b.t and a.scalar.coef.tobytes() == b.scalar.coef.tobytes()
        assert a.u.coef.tobytes() == b.u.coef.tobytes()

    def test_run_keeps_only_the_last_state(self):
        c = SimConfig(n=64, t_end=0.25, dt=1.0 / 64.0, ic="single_mode")
        trace, states = run(c)
        assert len(states) == 1
        assert states[0].t == c.t_end == trace.t[-1]

    def test_store_states_includes_final(self):
        c = SimConfig(n=64, t_end=0.25, dt=1.0 / 64.0, ic="single_mode")
        trace, states = run(c, store_states=True)
        assert states
        assert states[-1].t == pytest.approx(0.25)
        # the stored state is the recorded one
        assert states[-1].scalar.mean_free().l2() == trace.column("l2_sigma")[-1]

    def test_custom_norm_column(self):
        spec = NormSpec.homogeneous(0.5, 1)
        c = SimConfig(
            n=64,
            t_end=0.125,
            dt=1.0 / 64.0,
            ic="single_mode",
            norms=[("extra", "sigma", spec)],
        )
        trace, _ = run(c)
        assert "extra" in trace.columns
        assert np.all(trace.column("extra") >= 0)

    def test_a_record_inverts_u_once(self, monkeypatch):
        # the CFL check reads max|u| from the samples the record made: one
        # sigma and one u inverse transform per record, none in the steps
        shapes = []
        physical = Grid.physical

        def counting(grid, coef):
            shapes.append(coef.shape)
            return physical(grid, coef)

        monkeypatch.setattr(Grid, "physical", counting)
        trace, _ = run(SimConfig(dim=2, n=32, t_end=0.05, dt=0.01, cadence=1))
        assert len(trace.t) == 6
        assert shapes == [(1, 32, 17), (2, 32, 17)] * 6

    def test_cfl_violation_escalates(self):
        # huge dt against the acoustic speed: three warned strikes, then a
        # "cfl" stop that keeps the t=0 record and the three strike records
        c = SimConfig(
            n=64, t_end=10.0, dt=1.0, cadence=1, ic="single_mode", amplitude=1e-3
        )
        with pytest.warns(RuntimeWarning, match="CFL violation"):
            trace, states = run(c, store_states=True)
        assert trace.status == "cfl"
        assert trace.t.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert [st.t for st in states] == trace.t.tolist()

    def test_cfl_strike_at_the_final_record_ends_cfl(self):
        # strikes at t = 1 and 2 only: too few for three in a row, but the
        # second is the final record, and the run must not end "ok" past it
        c = SimConfig(n=64, t_end=2.0, dt=1.0, cadence=1, ic="single_mode", amplitude=1e-3)
        with pytest.warns(RuntimeWarning, match="CFL violation"):
            trace, states = run(c, store_states=True)
        assert trace.status == "cfl"
        assert trace.t.tolist() == [0.0, 1.0, 2.0]
        assert [st.t for st in states] == trace.t.tolist()

    def test_user_dt_above_the_cap_does_not_strike(self, recwarn):
        # the dx/2 cap bounds only the default dt, not the strike check
        c = SimConfig(n=64, t_end=0.5, dt=0.05, cfl=1e9, cadence=1, ic="single_mode")
        assert c.dt > 0.5 * c.grid().dx
        trace, _ = run(c)
        assert trace.status == "ok"
        assert not [w for w in recwarn if "CFL" in str(w.message)]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_vacuum_sets_status(self):
        # sigma = 30 cos(x) at gamma=1 means rho = e^sigma ~ e^{-30} in the
        # troughs: the guard trips on the first step
        c = SimConfig(
            n=64,
            t_end=5.0,
            dt=0.05,
            cadence=1,
            ic="single_mode",
            amplitude=30.0,
            cfl=1e9,
        )
        trace, _ = run(c)
        assert trace.status == "vacuum"
        assert len(trace.t) >= 1

    def test_initial_data_without_density_is_a_vacuum(self):
        # at gamma = 2, rho = 1 + sigma / lam: random_smooth of amplitude 2 has
        # rho < 0 somewhere, so the first record stops the run, which keeps its
        # columns and no row
        c = SimConfig(n=64, t_end=0.1, gamma=2.0, ic="random_smooth", amplitude=2.0)
        trace, states = run(c)
        assert trace.status == "vacuum" and trace.rows == []
        assert trace.columns == list(Recorder.columns(1))
        assert len(states) == 1 and states[0].t == 0.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("cadence, rows", [(5, 6), (1, 29)])
    def test_density_collapse_between_records_is_a_vacuum(self, cadence, rows):
        # min rho jumps from 0.52 to 0 at step 29: with a record every fifth
        # step, step 30 refuses its input; with a record every step, the
        # record of step 29 refuses its row
        c = SimConfig(
            n=64, t_end=5.0, dt=0.02, cadence=cadence, ic="single_mode", amplitude=1.2, cfl=1e9
        )
        trace, states = run(c)
        assert trace.status == "vacuum" and len(trace.t) == rows
        assert states[-1].t == trace.t[-1]
        assert np.all(trace.column("min_rho") >= VACUUM_THRESHOLD)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("cadence", [1, 2])
    def test_nan_sigma_is_a_vacuum(self, cadence):
        # step 1 turns sigma NaN (see test_step_guards_its_input_not_its_output):
        # the record of step 1, or else step 2, stops the run
        c = SimConfig(n=32, t_end=0.01, dt=1e-3, cadence=cadence, amplitude=800.0, cfl=1e9)
        trace, states = run(c)
        assert trace.status == "vacuum" and trace.t.tolist() == [0.0]
        assert np.all(trace.column("min_rho") >= VACUUM_THRESHOLD)

    def test_default_dt_resolves_acoustics(self):
        c = SimConfig(n=256)
        st = initial_state(c)
        p = c.model_params()
        dt = default_dt(c, st, p)
        assert 0 < dt <= 0.5 * c.grid().dx

    def test_default_dt_of_the_criterion_06_run(self):
        # the default dt stored with the criterion-06 benchmark reference
        c = SimConfig(n=256, t_end=40.0, amplitude=1e-2)
        st = initial_state(c)
        assert default_dt(c, st, c.model_params()) == 0.009735375145143516


class TestFractionalHeatTrace:
    def test_l2_gaussian_free_space_law(self):
        # flat spectrum near xi=0: ||u(t)||_2 ~ t^{-N/(2 alpha)} at late times
        g = Grid(1, 2048, 256.0 * np.pi)
        times = np.linspace(5.0, 60.0, 40)
        tr = fractional_heat_trace(g, 1.5, 1.0, "gaussian", times, width=1.0)
        slope, r2 = decay_fit(tr.t, tr.column("l2"), (5.0, 60.0), kind="power")
        assert slope == pytest.approx(-1.0 / 3.0, abs=0.04)
        assert r2 > 0.999

    def test_power_profile_slope(self):
        # envelope |xi|^{s0-N/2}: sup-block s1-norm decays like t^{-(s0+s1)/alpha}.
        # The box must keep the slowest surviving frequency (s0/(alpha t))^{1/alpha}
        # well above its smallest mode over the whole fit window.
        g = Grid(1, 65536, 8192.0 * np.pi)
        times = np.logspace(np.log10(20.0), np.log10(2000.0), 60)
        s0 = 0.25
        tr = fractional_heat_trace(g, 1.5, 1.0, "power", times, s0=s0, s1=0.0)
        slope, _ = decay_fit(tr.t, tr.column("b_s1"), (20.0, 2000.0), kind="power")
        assert slope == pytest.approx(-s0 / 1.5, rel=0.05)

    def test_unknown_profile(self):
        g = Grid(1, 64, 2 * np.pi)
        with pytest.raises(ParameterError):
            fractional_heat_trace(g, 1.5, 1.0, "bogus", [1.0])


class TestZNorms:
    def _state(self, n=128):
        g = Grid(1, n, 2 * np.pi)
        x = g.axis_points()
        sig = SpectralField.from_physical(g, 0.1 * np.cos(4 * x))
        u = SpectralField.from_physical(g, 0.1 * np.sin(32 * x))
        return State(sig, u)

    def test_zero_at_t0_for_positive_weight(self):
        st = self._state()
        zl, zh = z_norms(st, 0.0, 0.5, 0.25, 1.5, j0=4)
        assert zl == 0.0 and zh == 0.0

    def test_equilibrium_gives_zero(self):
        g = Grid(1, 64, 2 * np.pi)
        st = State(SpectralField.zeros(g), SpectralField.zeros(g, 1))
        zl, zh = z_norms(st, 3.0, 0.5, 0.25, 1.5, j0=4)
        assert zl == 0.0 and zh == 0.0

    def test_band_separation(self):
        # sigma at 2^2, u at 2^5 with j0 = 4: sigma feeds the low part, u the high
        st = self._state()
        zl, zh = z_norms(st, 1.0, 0.0, 0.25, 1.5, j0=4)
        lp = LPDecomp.for_grid(st.grid)
        js = np.array(lp.j_range)
        bn_sig = lp.block_norms(st.scalar.mean_free())
        bn_u = lp.block_norms(st.u.mean_free())
        low = js <= 4
        zl_ref = float(np.sum(2.0 ** (js[low] * 0.25) * np.sqrt(bn_sig**2 + bn_u**2)[low]))
        zh_ref = float(
            np.sum(2.0 ** (js[~low] * 0.5) * bn_sig[~low])
            + np.sum(2.0 ** (js[~low] * 0.0) * bn_u[~low])
        )
        assert zl == pytest.approx(zl_ref, rel=1e-12)
        assert zh == pytest.approx(zh_ref, rel=1e-12)

    def test_heat_evolved_consistency(self):
        # under the pure heat flow both parts shrink monotonically (no coupling)
        p = ModelParams(alpha=1.5, kappa=1.0, gamma=1.0, mu=1.0)
        st = self._state()
        prev = None
        for t in (0.1, 0.5, 1.0, 2.0):
            stt = State(
                heat_semigroup(st.scalar, 1.5, 1.0, t),
                heat_semigroup(st.u, 1.5, 1.0, t),
            )
            zl, zh = z_norms(stt, 1.0, 0.0, 0.25, 1.5, j0=4)
            if prev is not None:
                assert zl <= prev[0] + 1e-14 and zh <= prev[1] + 1e-14
            prev = (zl, zh)


class TestDecayFit:
    def test_recovers_power_law(self):
        t = np.linspace(0.0, 100.0, 400)
        v = (1.0 + t) ** -0.5
        slope, r2 = decay_fit(t, v, (10.0, 100.0), kind="power")
        assert slope == pytest.approx(-0.5, abs=1e-6)
        assert r2 > 1.0 - 1e-12

    def test_recovers_exponential_rate(self):
        t = np.linspace(0.0, 10.0, 200)
        v = 3.0 * np.exp(-1.25 * t)
        slope, r2 = decay_fit(t, v, (1.0, 9.0), kind="exp")
        assert slope == pytest.approx(-1.25, abs=1e-10)

    def test_unknown_kind(self):
        # a misspelt kind is refused, not read as "exp"
        t = np.linspace(0.0, 100.0, 400)
        with pytest.raises(ValueError, match="power or exp, got 'pow'"):
            decay_fit(t, (1.0 + t) ** -0.5, (10.0, 100.0), kind="pow")

    @pytest.mark.parametrize("window", [(20.0, 20.0), (30.0, 10.0)])
    def test_a_window_without_length(self, window):
        # a line through one point: the parent returned slope 0.063, r2 = 2e-16
        v = np.exp(-np.linspace(0.0, 1.0, 12))
        with pytest.raises(ValueError, match="t_a < t_b"):
            decay_fit(np.full(12, 20.0), v, window)

    def test_a_window_with_one_distinct_time(self):
        times = np.concatenate([np.full(12, 15.0), [30.0]])
        with pytest.raises(ValueError, match="two distinct times"):
            decay_fit(times, np.exp(-0.1 * times), (10.0, 20.0))

    def test_too_few_samples(self):
        t = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            decay_fit(t, np.exp(-t), (0.0, 1.0))

    def test_nonpositive_values(self):
        t = np.linspace(0.0, 10.0, 50)
        v = np.ones_like(t)
        v[20] = 0.0
        with pytest.raises(ValueError):
            decay_fit(t, v, (0.0, 10.0))
