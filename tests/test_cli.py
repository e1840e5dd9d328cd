"""Command-line parser defaults, exit codes and the DPSR_THREADS cap."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dpsr
from dpsr.cli import EXIT_CONTRACT, build_parser, main
from dpsr.dataio import HsiCube, write_cube
from dpsr.model import DpsrConfig, DpsrParams, save_params
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


@pytest.fixture
def files(tmp_path):
    """A small model and a 6-line cube whose line 3 holds `bad` (if given)."""
    model = tmp_path / "m.dpsrw"
    cfg = DpsrConfig(bands=4, features=8, up_features=4, state_size=4)
    save_params(DpsrParams.init(cfg, seed=0), model)

    def make(bad=None):
        data = np.random.default_rng(0).random((6, 5, 4)).astype(np.float32)
        if bad is not None:
            data[3, 1, 2] = bad
        cube = tmp_path / "lr.hsc"
        write_cube(HsiCube(data=data), cube)
        return ["--model", str(model), "--in", str(cube)]
    return make


def test_simulate_reports_the_cadence_timeline(files, capsys):
    assert main(["simulate", *files(), "--cadence-ms", "1000"]) == 0
    assert "cadence 1000.000 ms: 0 lines finished after the next acquisition" in \
        capsys.readouterr().out


@pytest.mark.parametrize("extra", [
    ["--cadence-ms", "0"], ["--cadence-ms", "-1"], ["--cadence-ms", "nan"],
    ["--budget-ms", "nan"], ["--budget-ms", "0"],
])
def test_simulate_rejects_non_positive_budget_and_cadence(files, extra):
    assert main(["simulate", *files(), *extra]) == EXIT_CONTRACT


@pytest.mark.parametrize("cadence", ["0", "nan"])
def test_simulate_rejects_the_cadence_before_reading_any_file(tmp_path, cadence):
    # neither file exists, so a check made after loading would exit with an I/O error
    argv = ["simulate", "--model", str(tmp_path / "none.dpsrw"),
            "--in", str(tmp_path / "none.hsc"), "--cadence-ms", cadence]
    assert main(argv) == EXIT_CONTRACT


@pytest.mark.parametrize("budget", ["nan", "-inf", "0"])
def test_sr_stream_rejects_non_positive_budget(files, tmp_path, budget):
    argv = ["sr-stream", *files(), "--out", str(tmp_path / "sr.hsc"), f"--budget-ms={budget}"]
    assert main(argv) == EXIT_CONTRACT


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sr_stream_rejects_a_non_finite_line(files, tmp_path, capsys, bad):
    assert main(["sr-stream", *files(bad), "--out", str(tmp_path / "sr.hsc")]) == EXIT_CONTRACT
    assert "non-finite input at line 3" in capsys.readouterr().err
