"""Run the benchmark over several seeds and report medians and spreads.

    python3 perfbench/spread.py --seeds 1-10 [--workloads run_1d run_2d]
        [--traced] [--out perfbench/BENCH_baseline.json]

For each workload, runs ``run.py --trace 0`` once per seed and prints every
end-to-end metric with its unit, median, quartiles (statistics.quantiles,
n=4) and spread, i.e. (q3 - q1) / median, against the metric's bound from
BENCHMARK.json.  With --traced it also makes one ``--trace 1`` run per
workload, on the first seed, and prints every per-layer metric.  --out
writes all of it, with the environment, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload: str, seed: int, trace: int) -> tuple:
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["environment"], json.loads(lines[-1])


def summarize(values: list, bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {
        "values": values, "median": median, "q1": q1, "q3": q3,
        "spread": spread, "bound": bound, "within_third_of_bound": spread < bound / 3,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    report = {"environment": None, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            env, result = bench(workload, seed, 0)
            report["environment"] = env
            runs.append(result)
            print(f"{workload} seed={seed} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
            ) + f" correct={result['correct']}", flush=True)
        entry = {
            "seeds": args.seeds,
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {},
        }
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            entry["end_to_end"][name] = {"unit": metric["unit"], **summarize(values, metric["bound"])}
        if args.traced:
            _, result = bench(workload, args.seeds[0], 1)
            entry["traced_seed"] = args.seeds[0]
            entry["traced_correct"] = result["correct"]
            entry["per_layer"] = result["metrics"]
        report["workloads"][workload] = entry

    print(f"{'workload':10} {'metric':36} {'unit':8} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for workload, entry in report["workloads"].items():
        for name, s in entry["end_to_end"].items():
            print(
                f"{workload:10} {name:36} {s['unit']:8} {s['median']:12.6g} {s['q1']:12.6g} "
                f"{s['q3']:12.6g} {s['spread']:8.4f} {s['bound']:6.3g}"
            )
        for name, m in entry.get("per_layer", {}).items():
            print(f"{workload:10} {name:36} {m['unit']:8} {m['value']:12.6g}")
        print(f"{workload:10} correct={entry['correct']} attempted={entry['attempted']} failed={entry['failed']}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
