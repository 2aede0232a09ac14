"""Regenerate the fine-dt reference solutions of the run workloads.

    python3 perfbench/make_reference.py [run_1d] [run_2d]

Each reference is the final state of the workload's run (at seed
``workloads.REFERENCE_SEED``) with the seed stepper at 1/REFINE of the
workload's default dt, saved as perfbench/reference/<workload>.npz with the
physical sigma and u samples, a digest of the initial state, and a JSON
``meta`` string saying how it was made (its ``dt`` is the dt passed to
``run``, which rounds the step count up to a multiple of the record
cadence).  ``simulation.rel_err`` compares a
run's final state against it, so steppers are compared at equal error, not
at equal step count.  The script also reports the error of the run at the
default dt and of a run at 1/(REFINE/2) of it, to show that the reference
error is far below the error being measured.
"""

from __future__ import annotations

import json
import platform
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402
from euleralign.simulation import run  # noqa: E402

REFINE = {"run_1d": 8, "run_2d": 16}


def final_state(s, refine):
    """Final sigma_u state of the workload's run at default dt / refine."""
    dt = s.dt / refine if refine > 1 else None
    config = replace(s.config, dt=dt, snapshot_path=None)
    trace, states = run(config, store_states=True)
    if trace.status != "ok":
        raise RuntimeError(f"{s.workload}: reference run ended with status {trace.status}")
    return states[-1], len(trace.rows)


def main(argv):
    names = argv or sorted(REFINE)
    for name in names:
        with tempfile.TemporaryDirectory() as tmp:
            s = wl.setup(name, wl.REFERENCE_SEED, Path(tmp))
        refine = REFINE[name]
        ref, _ = final_state(s, refine)
        sigma, u = ref.scalar.to_physical(), ref.u.to_physical()
        reference = {"sigma": sigma, "u": u}
        half, _ = final_state(s, refine // 2)
        default, _ = final_state(s, 1)
        meta = {
            "workload": name,
            "seed": wl.REFERENCE_SEED,
            "config": wl.ini_text(name, wl.REFERENCE_SEED, Path("WORKDIR")),
            "stepper": "euleralign.simulation.run (integrating-factor RK4) with dt set",
            "dt": s.dt / refine,
            "default_dt": s.dt,
            "refine": refine,
            "t_end": s.config.t_end,
            "rel_err_default_dt": wl.relative_error(default, reference),
            "rel_err_half_refine": wl.relative_error(half, reference),
            "python": platform.python_version(),
            "numpy": np.__version__,
        }
        out = wl.reference_path(name)
        out.parent.mkdir(exist_ok=True)
        np.savez_compressed(
            out, sigma=sigma, u=u, initial_digest=wl.initial_digest(s.state), meta=json.dumps(meta)
        )
        print(json.dumps(meta))


if __name__ == "__main__":
    main(sys.argv[1:])
