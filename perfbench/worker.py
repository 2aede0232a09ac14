"""One benchmark process: set up one workload, then time it or trace it.

    python3 perfbench/worker.py --workload run_1d --seed 1 --mode run \
        --seconds 50 --workdir DIR --out result.json

Modes:
  setup  set up and stop (a set-up time sample);
  run    set up, then run checked jobs back to back for --seconds (at least
         one job), tracing off;
  trace  set up, run one job with every public call of the package traced,
         then take the per-layer micro-timings and counts on the workload's
         own state.

The clock starts before NumPy, SciPy or euleralign are imported, so the
set-up time of a fresh process covers those imports.  The result, with each
job's checks, goes to --out as JSON.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def run_checked(wl, s):
    """One job and its correctness gate; an exception fails the job."""
    t0 = time.perf_counter()
    try:
        wall, out = wl.job(s)
        checks = wl.checks(s, out)
    except Exception:
        return {"wall_s": time.perf_counter() - t0, "ok": False, "error": traceback.format_exc()}, None
    ok = all(c.ok for c in checks)
    return {"wall_s": wall, "ok": ok, "checks": [asdict(c) for c in checks]}, out


def timed_jobs(wl, s, seconds):
    """Jobs back to back until the next one would end after ``seconds``."""
    jobs = []
    start = time.perf_counter()
    while True:
        rec, _ = run_checked(wl, s)
        jobs.append(rec)
        if time.perf_counter() - start + rec["wall_s"] > seconds:
            return jobs


def sample_us(fn, budget=0.5, min_samples=5, max_samples=200):
    """Per-call times of ``fn`` in microseconds, after one warm-up call."""
    fn()
    samples = []
    stop = time.perf_counter() + budget
    while len(samples) < max_samples and (len(samples) < min_samples or time.perf_counter() < stop):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1e6)
    return samples


def micro(wl, s, state):
    """Layer micro-timings and structural counts on ``state``, tracing off."""
    import numpy as np
    from euleralign.config import parse_config
    from euleralign.grid import SpectralField
    from euleralign.linear import LinearEnergyParams, energy_Yj, propagate_pair_field
    from euleralign.lp import LPDecomp
    from euleralign.model import alignment_direct, rhs
    from euleralign.operators import dealias, fractional_laplacian, lambda_inv_div, physical_product
    from euleralign.simulation import linear_exact_flow, step
    from euleralign.snapshot import read_snapshot, write_snapshot
    from tracer import Counters, load_layers

    med = lambda fn, **kw: float(np.median(sample_us(fn, **kw)))  # noqa: E731
    grid, params = state.grid, s.params
    lp = LPDecomp.for_grid(grid)
    ep = LinearEnergyParams.from_model(params)
    d = lambda_inv_div(state.u)
    j = min(max(ep.j0, lp.j_min), lp.j_max)
    sig_j, d_j = lp.dyadic_block(state.scalar, j), lp.dyadic_block(d, j)
    phys = state.scalar.to_physical()
    snap = s.workdir / "micro.snap"
    ini = s.ini.read_text()
    m = {}

    layers = load_layers()
    with Counters(layers) as per_rhs:
        rhs(state, params)
    with Counters(layers) as per_step:
        step(state, params, s.dt)
    m["grid.fft_per_rhs"] = per_rhs.fft
    m["grid.fft_per_step"] = per_step.fft
    m["grid.field_allocs_per_step"] = per_step.fields
    m["grid.wavenumber_calls_per_step"] = per_step.wavenumbers

    m["grid.fft_pair_us"] = med(
        lambda: SpectralField(grid, SpectralField.from_physical(grid, phys).coef).to_physical()
    )
    m["operators.dealias_us"] = med(lambda: dealias(state.u))
    m["operators.fractional_laplacian_us"] = med(lambda: fractional_laplacian(state.u, params.alpha))
    m["operators.physical_product_us"] = med(lambda: physical_product(state.scalar, state.u))
    m["lp.block_norms_us"] = med(lambda: lp.block_norms(state.scalar))
    m["model.rhs_us"] = med(lambda: rhs(state, params))
    rho_o, u_o = wl.oracle_fields(s.seed, s.size.oracle_n)
    m["model.alignment_direct_s"] = med(
        lambda: alignment_direct(rho_o, u_o, 1.5, refine=8), budget=0.0, min_samples=1
    ) * 1e-6
    m["linear.propagate_pair_field_us"] = med(lambda: propagate_pair_field(state.scalar, d, 1.0, ep))
    m["linear.energy_Yj_us"] = med(lambda: energy_Yj(sig_j, d_j, j, ep))
    m["simulation.linear_exact_flow_us"] = med(lambda: linear_exact_flow(state, params, 1.0))

    current = [state]

    def advance():
        current[0] = step(current[0], params, s.dt)

    steps = sample_us(advance, budget=2.0)
    m["simulation.step_us"] = float(np.median(steps))
    m["simulation.step_us_p90"] = float(np.percentile(steps, 90))
    m["simulation.step_samples"] = len(steps)

    m["snapshot.write_us"] = med(lambda: write_snapshot(str(snap), state, params))
    m["snapshot.read_us"] = med(lambda: read_snapshot(str(snap)))
    m["config.parse_us"] = med(lambda: parse_config(ini))
    return m


def traced_job(wl, s, spans_path):
    """One job with every public call traced; per-layer metrics from the spans."""
    import numpy as np
    from tracer import LAYERS, Tracer, load_layers

    tracer = Tracer(load_layers())
    with tracer:
        rec, out = run_checked(wl, s)
    tracer.save(spans_path)
    wall = rec["wall_s"]
    m = {}
    self_s = tracer.layer_self()
    calls = tracer.layer_calls()
    for layer in LAYERS:
        if layer != "cli":
            m[f"{layer}.self_s"] = self_s[layer]
        m[f"{layer}.calls"] = calls[layer]
    # writing the CSV is the only sizeable work cli does itself
    m["cli.csv_write_s"] = self_s["cli"]
    m["lp.block_norms_calls"] = tracer.count("lp.LPDecomp.block_norms")
    m["model.rhs_calls"] = tracer.count("model.rhs")
    steps = tracer.count("simulation.step")
    m["simulation.steps"] = steps
    m["simulation.dt"] = s.config.t_end / steps if steps else s.dt
    records = tracer.count("besov.NormTrace.append", "simulation.run")
    m["simulation.record_calls"] = records
    outside_steps = float(np.sum(tracer.durations("simulation.run"))) - tracer.children_time(
        "simulation.run", ("simulation.step", "simulation.initial_state", "simulation.default_dt")
    )
    m["simulation.record_us"] = outside_steps / records * 1e6 if records else 0.0
    m["trace.wall_s"] = wall
    m["trace.self_sum_s"] = float(sum(self_s.values()))
    m["trace.harness_s"] = wall - tracer.root_time()
    m["trace.spans"] = len(tracer.spans[0])
    return rec, out, m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", help="where the trace mode writes its spans (.npz)")
    args = parser.parse_args(argv)

    import euleralign

    if not Path(euleralign.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"euleralign imported from {euleralign.__file__}, not from {SRC}")
    import workloads as wl

    s = wl.setup(args.workload, args.seed, Path(args.workdir))
    result = {"setup_s": time.perf_counter() - _T0}

    if args.mode == "run":
        result["jobs"] = timed_jobs(wl, s, args.seconds)
    elif args.mode == "trace":
        rec, out, m = traced_job(wl, s, args.spans)
        result["jobs"] = [rec]
        if rec["ok"]:
            state = s.state if args.workload == "analysis" else wl.final_state(out)
            m.update(micro(wl, s, state))
            m["simulation.rel_err"] = 0.0 if args.workload == "analysis" else wl.accuracy(s, out)
        result["per_layer"] = m
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.out).write_text(json.dumps(result))


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    main()
