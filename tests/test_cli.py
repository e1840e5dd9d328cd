"""Command-line parser defaults and the DPSR_THREADS cap."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dpsr
from dpsr.cli import build_parser
from dpsr.stream import PRISMA_LINE_MS

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Records OPENBLAS_NUM_THREADS at the moment NumPy is first imported, which
# is when OpenBLAS reads it.
_PROBE = """
import os, sys
seen = []

class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        return None

sys.meta_path.insert(0, Probe())
import dpsr.cli
print(seen)
"""


@pytest.mark.parametrize("argv", [
    ["sr-stream", "--model", "m.dpsrw", "--in", "lr.hsc", "--out", "sr.hsc"],
    ["simulate", "--model", "m.dpsrw", "--in", "lr.hsc"],
])
def test_budget_defaults_to_the_prisma_line_period(argv):
    args = build_parser().parse_args(argv)
    assert args.budget_ms == PRISMA_LINE_MS
    assert build_parser().parse_args(argv + ["--budget-ms", "2.5"]).budget_ms == 2.5


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_dpsr_threads_is_set_before_numpy_loads(preset, expected):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["DPSR_THREADS"] = "1"
    env["PYTHONPATH"] = str(Path(dpsr.__file__).resolve().parents[1])
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    run = subprocess.run([sys.executable, "-c", _PROBE], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert run.stdout.strip() == repr([expected])
