"""The run path loads NumPy only: SciPy is imported by the two functions that
need it (``model.alignment_direct``, ``linear.kernel_bound_check``)."""

import os
import subprocess
import sys
from pathlib import Path

import euleralign

SRC = str(Path(euleralign.__file__).resolve().parents[1])

SCRIPT = """
import sys
import euleralign
from euleralign import cli
rc = cli.main(["run", "--config", sys.argv[1], "--output", sys.argv[2]])
print(rc)
print(",".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_import_and_run_load_no_scipy(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[grid]\nn = 32\n\n[time]\nt_end = 0.1\ndt = 0.025\n")
    out = tmp_path / "trace.csv"
    path = [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(cfg), str(out)],
        env=env, capture_output=True, text=True, check=True,
    )
    rc, scipy_modules = proc.stdout.splitlines()[-2:]
    assert rc == "0"
    assert scipy_modules == ""
    assert out.exists()
