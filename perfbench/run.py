"""Benchmark entry point: one workload, one seed, one line of JSON results.

    python3 perfbench/run.py --workload run_1d --seed 1 --seconds 50 --trace 0

Run it from the root of a checkout that holds ``src/euleralign``.  Each
workload runs in fresh worker processes (``worker.py``) with BLAS/OpenMP
threads capped at the number of usable CPUs:

--trace 0  one process that runs checked jobs back to back for --seconds,
           with set-up-only processes before and after it.  Prints the end-to-end metrics:
           wall_s (median job time), setup_s (median set-up time) and
           peak_rss_mb (of the job process).
--trace 1  one untraced job, then one traced job followed by the per-layer
           micro-timings and counts.  Prints the per-layer metrics.

The last line of standard output is {"correct", "attempted", "failed",
"metrics"}; the line before it holds the environment.  A job is one
operation; a job that raises or fails a check counts as failed.  The full
result, with every job's checks, is written under .perfbench/results/, and
the traced run's spans under .perfbench/spans/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 4  # set-up-only processes, besides the set-up of the job process
DEADLINE_S = 175.0
# runnable by name, but not in BENCHMARK.json: its wall time swung by up to
# half between the machine's slow and fast spells, beyond the largest bound
EXTRA_WORKLOADS = ("analysis",)
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def declared(kind: str) -> dict:
    """{name: entry} of the workloads, end_to_end or per_layer list in
    BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {d["name"]: d for d in spec[kind]}


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(usable_cpus())
    return env


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def environment() -> dict:
    cpuinfo = _read("/proc/cpuinfo")
    model = next(
        (line.split(":", 1)[1].strip() for line in cpuinfo.splitlines() if line.startswith("model name")),
        platform.processor(),
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        caches[f"L{level}_{kind}"] = _read(index / "size")
    env = worker_env()
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": usable_cpus(),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "thread_limits": {var: env[var] for var in THREAD_VARS},
        "note": "no CPU pinning and no frequency control; the machine may be shared",
    }


class WorkerError(RuntimeError):
    pass


def call_worker(workload, seed, mode, workdir, deadline, seconds=0.0, spans=None) -> dict:
    out = Path(workdir) / f"{mode}-{time.monotonic_ns()}.json"
    cmd = [
        sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
        "--mode", mode, "--seconds", str(seconds), "--workdir", str(workdir), "--out", str(out),
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(
            cmd, env=worker_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker did not finish in time") from exc
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(out.read_text())


def timed(args, workdir, deadline) -> tuple:
    def probe():
        return call_worker(args.workload, args.seed, "setup", workdir, deadline)["setup_s"]

    # half the set-up samples before the job process and half after it, so
    # that they span the same stretch of time as the jobs
    setups = [probe() for _ in range(SETUP_PROBES // 2)]
    main = call_worker(args.workload, args.seed, "run", workdir, deadline, seconds=args.seconds)
    setups += [main["setup_s"]] + [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    jobs = main["jobs"]
    metrics = {
        "wall_s": statistics.median(j["wall_s"] for j in jobs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    detail = {"setup_samples_s": setups, "jobs": jobs}
    return jobs, with_units(metrics, declared("end_to_end")), detail


def traced(args, workdir, deadline) -> tuple:
    OUT.joinpath("spans").mkdir(parents=True, exist_ok=True)
    spans = OUT / "spans" / f"{args.workload}-seed{args.seed}.npz"
    plain = call_worker(args.workload, args.seed, "run", workdir, deadline)
    trace = call_worker(args.workload, args.seed, "trace", workdir, deadline, spans=spans)
    jobs = plain["jobs"] + trace["jobs"]
    m = trace["per_layer"]
    untraced = plain["jobs"][0]["wall_s"]
    m["trace.untraced_wall_s"] = untraced
    m["trace.overhead_frac"] = m["trace.wall_s"] / untraced - 1.0
    detail = {"jobs": jobs, "spans_file": str(spans.relative_to(ROOT))}
    return jobs, with_units(m, declared("per_layer")), detail


def with_units(values: dict, declared_metrics: dict) -> dict:
    """The declared metrics, in declared order, that were measured."""
    return {
        name: {"value": values[name], "unit": d["unit"]}
        for name, d in declared_metrics.items()
        if name in values
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="euleralign benchmark: one workload, one seed")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "euleralign" / "__init__.py").is_file():
        print(f"error: no euleralign sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in (*declared("workloads"), *EXTRA_WORKLOADS):
        parser.error(f"unknown workload {args.workload!r}")
    deadline = time.monotonic() + DEADLINE_S
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as workdir:
        try:
            jobs, metrics, detail = (traced if args.trace else timed)(args, workdir, deadline)
        except WorkerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    failed = sum(not j["ok"] for j in jobs)
    for j in jobs:
        if "error" in j:
            print(j["error"], file=sys.stderr)
    env = environment()
    summary = {"correct": failed == 0, "attempted": len(jobs), "failed": failed, "metrics": metrics}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    OUT.joinpath("results", name).write_text(
        json.dumps({"environment": env, "args": vars(args), **summary, **detail}, indent=1)
    )
    print(json.dumps({"environment": env}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
