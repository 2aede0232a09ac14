"""Smoke test of the benchmark harness at a tiny size.

    python3 -m pytest -q perfbench/test_harness.py

It lives beside the benchmark, outside the package's test paths, so the
package's own test run does not collect it.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import worker  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Counters, Tracer, load_layers  # noqa: E402

from euleralign import model, operators  # noqa: E402
from euleralign.simulation import SimConfig, initial_state, step  # noqa: E402


@pytest.mark.parametrize("dim, ic, per_rhs", [(1, "gaussian_bump", 17), (2, "random_smooth", 29)])
def test_counters_count_exactly_and_restore(dim, ic, per_rhs):
    import numpy.fft

    fftn = numpy.fft.fftn
    config = SimConfig(dim=dim, n=16, ic=ic)
    state, params = initial_state(config), config.model_params()
    counts = []
    for _ in range(2):
        with Counters(load_layers()) as c:
            model.rhs(state, params)
        with Counters(load_layers()) as s:
            step(state, params, 1e-3)
        counts.append((c.fft, c.fields, c.wavenumbers, s.fft, s.fields, s.wavenumbers))
    assert counts[0] == counts[1]
    assert counts[0][0] == per_rhs
    assert counts[0][3] > 4 * per_rhs
    assert numpy.fft.fftn is fftn


def test_self_times_subtract_children():
    tracer = Tracer({})
    tracer.names, tracer.name_layer = ["model.a", "grid.b", "operators.c", "grid.d"], [4, 0, 1, 0]
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7]
    tracer.spans = (
        np.array([0, 1, 2, 3]), np.array([-1, 0, 0, 2]),
        np.array([0.0, 1.0, 5.0, 6.0]), np.array([10.0, 4.0, 9.0, 7.0]),
    )
    assert tracer.self_times().tolist() == [3.0, 3.0, 3.0, 1.0]
    per = tracer.layer_self()
    assert (per["model"], per["grid"], per["operators"]) == (3.0, 4.0, 3.0)
    assert tracer.layer_calls()["grid"] == 2
    assert tracer.root_time() == 10.0
    assert tracer.count("grid.d", "operators.c") == 1
    assert tracer.children_time("model.a", ("grid.b", "operators.c")) == 7.0


def test_traced_job_spans_nest_and_account_for_the_wall(tmp_path):
    s = wl.setup("run_2d", 1, tmp_path, wl.TINY)
    rec, out, m = worker.traced_job(wl, s, tmp_path / "spans.npz")
    assert rec["ok"], rec
    assert not hasattr(operators.dealias, "__wrapped__")
    assert model.dealias is operators.dealias
    saved = np.load(tmp_path / "spans.npz")
    parent, start, end = saved["parent"], saved["start"], saved["end"]
    child = parent >= 0
    assert np.all(start[child] >= start[parent[child]])
    assert np.all(end[child] <= end[parent[child]])
    assert m["trace.spans"] == len(parent)
    assert m["simulation.steps"] > 0
    assert m["model.rhs_calls"] == 4 * m["simulation.steps"]
    assert m["simulation.record_calls"] == m["simulation.steps"] // s.size.cadence_2d + 1
    assert m["trace.self_sum_s"] <= m["trace.wall_s"]
    assert m["trace.self_sum_s"] == pytest.approx(m["trace.wall_s"], rel=0.05)


def test_micro_timings_cover_the_layers(tmp_path):
    s = wl.setup("run_1d", 1, tmp_path, wl.TINY)
    m = worker.micro(wl, s, s.state)
    assert m["grid.fft_per_rhs"] == 17
    assert all(v > 0 for k, v in m.items()), m


def test_run_gate_passes_and_catches_drift(tmp_path):
    s = wl.setup("run_2d", 1, tmp_path, wl.TINY)
    rec, out = worker.run_checked(wl, s)
    assert rec["ok"], rec
    names = {c["name"] for c in rec["checks"]}
    assert {"exit_code", "mass_drift", "mom_1_drift", "mom_2_drift"} <= names

    lines = out["csv"].read_text().splitlines()
    header = lines[0].split(",")
    last = lines[-1].split(",")
    i = header.index("mass")
    last[i] = repr(float(last[i]) + 1e-6)
    out["csv"].write_text("\r\n".join(lines[:-1] + [",".join(last)]) + "\r\n")
    failed = [c.name for c in wl.checks(s, out) if not c.ok]
    assert failed == ["mass_drift"]


def test_failed_check_or_exception_fails_the_job(tmp_path, monkeypatch):
    s = wl.setup("run_2d", 1, tmp_path, wl.TINY)
    monkeypatch.setattr(wl, "checks", lambda s, out: [wl.Check.at_most("x", 2.0, 1.0)])
    rec, _ = worker.run_checked(wl, s)
    assert not rec["ok"]

    def broken(s):
        raise RuntimeError("boom")

    monkeypatch.setattr(wl, "job", broken)
    rec, _ = worker.run_checked(wl, s)
    assert not rec["ok"] and "boom" in rec["error"]


def test_analysis_gate_at_tiny_size(tmp_path):
    s = wl.setup("analysis", 1, tmp_path, wl.TINY)
    wall, out = wl.job(s)
    checks = {c.name: c for c in wl.checks(s, out)}
    for name in ("analyze_exit_code", "partition_defect", "bony_defect", "oracle_residual",
                 "snapshot_round_trip", "analyze_l2_sigma_rel"):
        assert checks[name].ok, checks[name]
    assert sum(name.startswith("heat_exponent_err") for name in checks) == len(wl.ALPHAS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__", "reference"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "run_1d", "--seed", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
