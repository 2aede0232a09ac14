"""Time integration and decay diagnostics for the nonlinear system.

The stepper is an integrating-factor RK4: the stiff dissipation mu*Lambda^alpha
acting on u is integrated exactly through the fractional heat semigroup, and
everything else (acoustic coupling and nonlinearities) is advanced explicitly
at fourth order.  sigma carries no stiff term, so only the velocity is
transformed.  ``step`` runs ``model.SpectralPlan.step`` of the state's
(grid, params) on its half-spectrum coefficients, one or more steps a call.
``trajectory`` steps a state through a schedule of record step counts with
one call per record interval, so between records the state stays on the
plan's 2/3-rule band; ``run`` records what it yields.  Like the plan,
``step`` is not re-entrant: two threads must not step states of one (grid,
params) at once.
``linear_exact_flow`` splits u once and hands the compressible pair to
``linear.propagate_pair_field``, which owns its wave coupling.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .besov import NormSpec, NormTrace, besov_norm, norm_on_blocks
from .grid import Grid, SpectralField
from .linear import LinearEnergyParams, propagate_pair_field
from .lp import LPDecomp
from .model import VACUUM_THRESHOLD, ModelParams, State, VacuumError, plan_for, rho_from_sigma
from .operators import ParameterError, dealias, grad_lambda_inv, heat_semigroup, lambda_inv_div


@dataclass
class SimConfig:
    """Full description of one simulation run."""

    dim: int = 1
    n: int = 256
    L: float = 2.0 * np.pi
    alpha: float = 1.5
    kappa: float = 1.0
    gamma: float = 1.0
    mu: Optional[float] = None
    t_end: float = 10.0
    dt: Optional[float] = None
    cfl: float = 0.4
    ic: str = "gaussian_bump"
    amplitude: float = 0.01
    seed: int = 0
    ic_mode: int = 1
    cadence: Optional[int] = None
    norms: list = field(default_factory=list)  # (name, 'sigma'|'u', NormSpec)
    decay_window: Optional[tuple] = None
    decay_column: str = "l2_sigma"
    decay_kind: str = "power"
    snapshot_path: Optional[str] = None

    def __post_init__(self):
        if not 0 < self.t_end < np.inf:
            raise ParameterError(f"t_end must be finite and > 0, got {self.t_end}")
        if not 0 < self.amplitude < np.inf:
            raise ParameterError(f"amplitude must be finite and > 0, got {self.amplitude}")
        if self.dt is not None and not 0 < self.dt < np.inf:
            raise ParameterError(f"dt must be finite and > 0, got {self.dt}")
        if not 0 < self.cfl < np.inf:
            raise ParameterError(f"cfl must be finite and > 0, got {self.cfl}")
        for name in ("seed", "ic_mode") + (() if self.cadence is None else ("cadence",)):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ParameterError(f"{name} must be an int, got {v!r}")
        if self.cadence is not None and self.cadence < 1:
            raise ParameterError(f"cadence must be >= 1, got {self.cadence}")
        if self.ic not in ("gaussian_bump", "random_smooth", "single_mode"):
            raise ParameterError(f"unknown ic preset {self.ic!r}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        # a mode above the 2/3 rule's cutoff aliases or is zeroed
        kmax = self.grid().dealias_cutoff
        if not 1 <= self.ic_mode <= kmax:
            raise ParameterError(f"ic_mode must lie in [1, {kmax}], got {self.ic_mode}")
        if self.decay_window is not None and not 0 <= self.decay_window[0] < self.decay_window[1]:
            raise ParameterError(f"decay window needs 0 <= t_a < t_b, got {self.decay_window}")
        if self.decay_kind not in ("power", "exp"):
            raise ParameterError(f"decay kind must be power or exp, got {self.decay_kind!r}")
        names = [name for name, _, _ in self.norms]
        columns = Recorder.columns(self.dim, names)
        for name in names:
            if columns.count(name) > 1:
                raise ParameterError(f"norm column {name!r} repeats another trace column")
        if self.decay_column not in columns:
            raise ParameterError(
                f"decay.column: {self.decay_column!r} is not a trace column "
                f"(columns: {', '.join(columns)})"
            )
        self.model_params()  # ModelParams checks the model's parameters

    def grid(self) -> Grid:
        return Grid(self.dim, self.n, self.L)

    def model_params(self) -> ModelParams:
        return ModelParams(
            alpha=self.alpha, kappa=self.kappa, gamma=self.gamma, dim=self.dim, mu=self.mu
        )


# -- initial conditions -----------------------------------------------------


def _gaussian(grid: Grid, width: float) -> np.ndarray:
    pts = grid.points()
    c = grid.L / 2.0
    r2 = sum((p - c) ** 2 for p in pts)
    return np.exp(-r2 / (2.0 * width**2))


def initial_state(config: SimConfig) -> State:
    """Build the preset initial condition."""
    grid = config.grid()
    amp = config.amplitude
    if config.ic == "gaussian_bump":
        width = grid.L / 16.0
        bump = _gaussian(grid, width)
        sig = amp * bump
        uv = np.stack([amp * bump for _ in range(grid.dim)])
        uv -= uv.mean(axis=tuple(range(1, grid.dim + 1)), keepdims=True)
    elif config.ic == "single_mode":
        pts = grid.points()
        k = 2.0 * np.pi * config.ic_mode / grid.L
        sig = amp * np.cos(k * pts[0])
        uv = np.stack([amp * np.sin(k * pts[0]) for _ in range(grid.dim)])
    else:  # random_smooth
        rng = np.random.default_rng(config.seed)
        xi = grid.xi_norm()
        envelope = np.where(xi > 0, (1.0 + xi) ** -(grid.dim / 2.0 + 2.0), 0.0)

        def draw():
            noise = rng.standard_normal(grid.shape)
            f = SpectralField.from_physical(grid, noise)
            f = SpectralField(grid, f.coef * envelope[np.newaxis])
            vals = dealias(f).to_physical()[0]
            peak = np.max(np.abs(vals))
            return amp * vals / peak if peak > 0 else vals

        sig = draw()
        uv = np.stack([draw() for _ in range(grid.dim)])
    sigma = dealias(SpectralField.from_physical(grid, sig))
    u = dealias(SpectralField.from_physical(grid, uv))
    return State(sigma, u, 0.0)


# -- stepper ----------------------------------------------------------------


def step(
    state: State,
    params: ModelParams,
    dt: float,
    linear_only: bool = False,
    steps: int = 1,
) -> State:
    """``steps`` integrating-factor RK4 steps of size dt in one call:
    ``SpectralPlan.step`` of ``plan_for(grid, params)`` on the state's
    coefficients, which keeps the state on the 2/3-rule band between the
    steps.  The new state is at t + steps * dt, and its coefficients have
    the bits of ``steps`` calls of one step each.

    Each step guards its input, not its output: its first stage raises
    ``VacuumError`` when that input's density is below ``VACUUM_THRESHOLD``
    or NaN, from samples the stage makes anyway.  A ``linear_only`` step
    makes no transform and checks nothing.
    """
    if not 0 < dt < np.inf:
        raise ParameterError(f"dt must be finite and > 0, got {dt}")
    if isinstance(steps, bool) or not (isinstance(steps, (int, np.integer)) and steps >= 1):
        raise ParameterError(f"steps must be an int >= 1, got {steps!r}")
    grid = state.grid
    sig, u = plan_for(grid, params).step(state.scalar.coef, state.u.coef, dt, linear_only, steps)
    return State(SpectralField(grid, sig), SpectralField(grid, u), state.t + steps * dt)


def trajectory(state: State, params: ModelParams, dt: float, record_steps,
               linear_only: bool = False):
    """Yield the state at each step count k of the ascending ``record_steps``.

    Between records it makes one ``step`` call of the steps since the last
    one and sets t = state.t + k * dt, so each yielded state has the bits of
    k single steps; a first k = 0 yields ``state`` itself.  A repeated,
    falling or non-int k is a ``ParameterError`` from ``step``.
    """
    t0, done = state.t, 0
    for i, k in enumerate(record_steps):
        if i or k:
            state = step(state, params, dt, linear_only, k - done)
            state.t, done = t0 + k * dt, k
        yield state


def linear_exact_flow(state: State, params: ModelParams, t: float) -> State:
    """Exact solution of the linearized (constant-coefficient) system.

    The velocity splits once through d = Lambda^{-1} Div u: the compressible
    pair (sigma, d) is propagated by ``propagate_pair_field``, which couples
    through |xi_tilde| and rejects a negative or non-finite t, and the
    incompressible part Pu = u - (-R d) decays under the fractional heat
    semigroup.  The Riesz symbol R is 0 on the mean mode and the heat flow
    leaves that mode alone, so Pu carries the conserved mean velocity.
    """
    ep = LinearEnergyParams.from_model(params)
    d = lambda_inv_div(state.u)
    pu = state.u - grad_lambda_inv(d)
    sig_t, d_t = propagate_pair_field(state.scalar, d, t, ep)
    u_t = grad_lambda_inv(d_t) + heat_semigroup(pu, params.alpha, params.mu, t)
    return State(sig_t, u_t, state.t + t)


# -- run orchestration ------------------------------------------------------


def cfl_limit(config: SimConfig, uv: np.ndarray, params: ModelParams) -> float:
    """Acoustic CFL limit cfl * dx / (max|u| + lam) of the velocity samples uv."""
    umax = float(np.max(np.abs(uv)))
    return config.cfl * config.grid().dx / (umax + params.lam)


def default_dt(config: SimConfig, state: State, params: ModelParams) -> float:
    """The CFL limit of the initial state, capped at dx/2."""
    return min(cfl_limit(config, state.u.to_physical(), params), 0.5 * config.grid().dx)


class Recorder:
    """Traces a sequence of states: one row per ``record``, in the one column
    layout ``Recorder.columns``, kept in ``trace``.

    A row holds t, min rho, mass, momentum and the L2 norms of the mean-free
    sigma and u, then the built-in norms sigma_hybrid = hybrid(N/2+1-alpha,
    N/2) and u_crit = homogeneous(N/2+1-alpha), split at the j0 of
    ``params``, then one column per ``norms`` entry (name, 'sigma'|'u',
    NormSpec), then the constituents of the composite norm X.  X1/X2 are the
    built-in norms of the per-block sup over the records so far.  X3/X4 are
    trapezoid sums over the record times of sigma's hybrid(N/2+1,
    N/2+2-alpha) norm and u's homogeneous (N/2+1) norm, so the record grid is
    part of the measurement: at n=128, T=20 the exact linear flow gives
    X(T)/X(0) = 2.80188 on the records of the default dt and 2.80330 on those
    of dt = dx/4.  Any state sequence can be traced: a run, the exact linear
    flow, a ``linear_only`` run.
    """

    def __init__(self, grid: Grid, params: ModelParams, norms=()):
        self.trace = NormTrace(list(self.columns(grid.dim, [name for name, _, _ in norms])))
        self._params = params
        self._lp = LPDecomp.for_grid(grid)
        js = np.array(self._lp.j_range)
        j0 = LinearEnergyParams.from_model(params).j0
        half_n = grid.dim / 2.0
        s_crit = half_n + 1.0 - params.alpha
        specs = [("sigma", NormSpec.hybrid(s_crit, half_n, j0)), ("u", NormSpec.homogeneous(s_crit))]
        specs += [(target, spec) for _, target, spec in norms]
        # each norm as a function of the block norms, its weights made once
        self._norms = [(target, norm_on_blocks(js, spec)) for target, spec in specs]
        self._int_norms = [norm_on_blocks(js, spec) for spec in (  # of the X3/X4 integrands
            NormSpec.hybrid(half_n + 1.0, half_n + 2.0 - params.alpha, j0),
            NormSpec.homogeneous(half_n + 1.0))]
        self._sups = np.zeros((2, len(js)))  # X1/X2: sigma and u per-block sups
        self._ints = [0.0, 0.0]  # X3/X4: trapezoid sums
        self._last = None  # (t, X3/X4 integrands) of the last record

    @classmethod
    def columns(cls, dim: int, names=()) -> tuple:
        """The trace's columns, with the custom norm columns ``names``."""
        return (
            "t", "min_rho", "mass", *(f"mom_{i + 1}" for i in range(dim)), "l2_sigma", "l2_u",
            "sigma_hybrid", "u_crit", *names,
            "X1_sigma_sup", "X2_u_sup", "X3_sigma_int", "X4_u_int",
        )

    def row(self, st: State):
        """A state's row without X1-X4, its sigma and u block norms, and its velocity samples."""
        sig_mf, u_mf = st.scalar.mean_free(), st.u.mean_free()
        bn_sig, bn_u = self._lp.block_norms(sig_mf), self._lp.block_norms(u_mf)
        rho = rho_from_sigma(st.scalar.to_physical()[0], self._params)
        uv = st.u.to_physical()
        cell = st.grid.cell_volume()
        moms = [float(np.sum(rho * uv[i]) * cell) for i in range(st.grid.dim)]
        values = (st.t, float(np.min(rho)), float(np.sum(rho) * cell), *moms, sig_mf.l2(), u_mf.l2())
        values += tuple(norm(bn_u if target == "u" else bn_sig) for target, norm in self._norms)
        return dict(zip(self.trace.columns, values)), (bn_sig, bn_u), uv

    def record(self, st: State) -> np.ndarray:
        """Append the row of ``st`` at ``st.t``; return its velocity samples.  A
        record after the first raises ``VacuumError`` before keeping a row whose
        ``min_rho`` is below ``VACUUM_THRESHOLD`` or NaN."""
        row, blocks, uv = self.row(st)
        if self._last is not None and not row["min_rho"] >= VACUUM_THRESHOLD:
            raise VacuumError(row["min_rho"])
        self._sups = np.maximum(self._sups, blocks)
        inst = [norm(bn) for bn, norm in zip(blocks, self._int_norms)]
        if self._last is not None:
            t0, prev = self._last
            self._ints = [acc + 0.5 * (a + b) * (st.t - t0)
                          for acc, a, b in zip(self._ints, prev, inst)]
        self._last = (st.t, inst)
        sups = [norm(sup) for sup, (_, norm) in zip(self._sups, self._norms)]
        row.update(zip(self.trace.columns[-4:], (*sups, *self._ints)))
        self.trace.append(row)
        return uv


def run(config: SimConfig, store_states: bool = False):
    """Advance the system to t_end, tracing every record through a ``Recorder``.

    The records come from ``trajectory`` on the uniform schedule of every
    ``cadence`` steps: one ``step`` call per record interval, and each
    record's t is its step count times dt.
    Returns (trace, states) where ``states`` holds every recorded state when
    ``store_states`` is set, and otherwise only the last recorded one; the
    final state of a completed run is always recorded.  A run that stops
    early keeps the records so far and sets ``trace.status``: "vacuum" when
    the density guard trips (initial data with rho <= 0 somewhere stop it at
    its first record, with no row), "cfl" after three consecutive records
    whose dt exceeds ``cfl_limit``, or at once when the final record's dt
    exceeds it.  Each ``step`` guards the state it is given, and each
    record after the first checks the ``min_rho`` of its row before keeping
    it, so no kept state past the initial data has a density below
    ``VACUUM_THRESHOLD`` or NaN, and the final state is checked too.
    """
    params = config.model_params()
    state = initial_state(config)
    dt = config.dt if config.dt is not None else default_dt(config, state, params)
    nsteps = max(int(np.ceil(config.t_end / dt)), 1)
    cadence = config.cadence or max(nsteps // 400, 1)
    nsteps = ((nsteps + cadence - 1) // cadence) * cadence
    dt = config.t_end / nsteps

    recorder = Recorder(state.grid, params, config.norms)
    states = [state]
    cfl_strikes = 0
    try:
        recorder.record(state)  # the initial data as given: step 1 guards it
        records = range(cadence, nsteps + 1, cadence)
        for istep, state in zip(records, trajectory(state, params, dt, records)):
            limit = cfl_limit(config, recorder.record(state), params)
            if not store_states:
                states.clear()
            states.append(state)
            if dt > limit:
                cfl_strikes += 1
                warnings.warn(
                    f"CFL violation at t={state.t:.4g}: dt={dt:.3e} > {limit:.3e}",
                    RuntimeWarning,
                )
                # a strike at the last record has no later record to clear it
                if cfl_strikes >= 3 or istep == nsteps:
                    recorder.trace.status = "cfl"
                    break
            else:
                cfl_strikes = 0
    except VacuumError:
        recorder.trace.status = "vacuum"
    return recorder.trace, states


# -- fractional heat flow (linear decay experiments) ------------------------


def fractional_heat_trace(
    grid: Grid,
    alpha: float,
    mu: float,
    profile: str,
    times,
    s0: float = 0.25,
    s1: float = 0.0,
    width: float = 1.0,
) -> NormTrace:
    """Norm history of e^{-mu t Lambda^alpha} u0 for a synthetic profile.

    profile 'gaussian': physical Gaussian of the given width (flat spectrum
    near 0); profile 'power': spectral envelope |xi|^{s0 - N/2} with a smooth
    high-frequency cutoff.  Columns: t, l2, b_s1 (homogeneous s1-norm).

    The b_s1 column is the sup over dyadic blocks (r = inf): the block sum
    (r = 1) converges slowly in the box size at low frequencies, while the
    sup is insensitive to the infrared cutoff.
    """
    if profile == "gaussian":
        if not 0 < width < np.inf:
            raise ParameterError(f"width must be finite and > 0, got {width}")
        u0 = SpectralField.from_physical(grid, _gaussian(grid, width))
    elif profile == "power":
        envelope = grid.lambda_symbol(s0 - grid.dim / 2.0)
        coef = envelope * np.exp(-(grid.xi_norm() ** 2))
        u0 = SpectralField(grid, coef[np.newaxis])
    else:
        raise ParameterError(f"unknown profile {profile!r}")
    u0 = u0.mean_free()

    spec = NormSpec.homogeneous(s1, np.inf)
    trace = NormTrace(["t", "l2", "b_s1"])
    for t in np.asarray(times, dtype=float):
        ut = heat_semigroup(u0, alpha, mu, t)
        trace.append({"t": t, "l2": ut.l2(), "b_s1": besov_norm(ut, spec)})
    return trace


# -- decay diagnostics ------------------------------------------------------


def z_norms(state: State, t: float, s: float, s_bar: float, alpha: float, j0: int):
    """Time-weighted low/high frequency norms at time t.

    Low part:  t^s sum_{j <= j0} 2^{j(s_bar + s*alpha)} ||(D_j sigma, D_j u)||
    High part: t^s sum_{j > j0} [2^{jN/2} ||D_j sigma||
                                 + 2^{j(N/2+1-alpha)} ||D_j u||]
    """
    lp = LPDecomp.for_grid(state.grid)
    js = np.array(lp.j_range)
    bn_sig = lp.block_norms(state.scalar.mean_free())
    bn_u = lp.block_norms(state.u.mean_free())
    bn_pair = np.sqrt(bn_sig**2 + bn_u**2)
    half_n = state.grid.dim / 2.0
    low = NormSpec.restricted(s_bar + s * alpha, "low", j0)
    zl = t**s * norm_on_blocks(js, low)(bn_pair)
    zh = t**s * (
        norm_on_blocks(js, NormSpec.restricted(half_n, "high", j0))(bn_sig)
        + norm_on_blocks(js, NormSpec.restricted(half_n + 1.0 - alpha, "high", j0))(bn_u)
    )
    return zl, zh


def decay_fit(times, values, window, kind: str = "power"):
    """Least-squares decay exponent over a time window.

    kind='power' fits log(v) against log(1+t) (algebraic decay); kind='exp'
    fits log(v) against t (exponential rate).  The window needs t_a < t_b
    and at least 10 samples in it, at two distinct times or more; otherwise,
    or with a value in it that is not positive and finite, ``ValueError``.
    Returns (exponent, r2).
    """
    if kind not in ("power", "exp"):
        raise ValueError(f"decay_fit kind must be power or exp, got {kind!r}")
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    t_a, t_b = window
    if not t_a < t_b:
        raise ValueError(f"decay_fit needs a window with t_a < t_b, got ({t_a}, {t_b})")
    sel = (times >= t_a) & (times <= t_b)
    if np.count_nonzero(sel) < 10:
        raise ValueError("decay_fit needs at least 10 samples in the window")
    if np.unique(times[sel]).size < 2:
        raise ValueError("decay_fit needs at least two distinct times in the window")
    v = values[sel]
    if np.any(v <= 0) or not np.all(np.isfinite(v)):
        raise ValueError("decay_fit needs positive finite values in the window")
    x = np.log1p(times[sel]) if kind == "power" else times[sel]
    y = np.log(v)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), r2
