"""Command-line parser defaults, exit codes and the DPSR_THREADS cap."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dpsr
from dpsr.cli import EXIT_CONFIG, EXIT_CONTRACT, EXIT_IO, EXIT_NUMERIC, build_parser, main
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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sr_stream_rejects_a_non_finite_weight(files, tmp_path, capsys, bad):
    argv = ["sr-stream", *files(), "--out", str(tmp_path / "sr.hsc")]
    params = DpsrParams.init(DpsrConfig(bands=4, features=8, up_features=4, state_size=4))
    params.clff[1][1].a_log.data[2, 1] = bad
    save_params(params, tmp_path / "m.dpsrw")    # over the fixture's model
    assert main(argv) == EXIT_CONTRACT
    assert "clff1.mem.a_log: non-finite weight" in capsys.readouterr().err


# the overflow warnings are the failure under test; the CLI must turn it into exit 1
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sr_stream_exits_numeric_when_finite_weights_overflow_the_latent(files, tmp_path, capsys):
    argv = ["sr-stream", *files(), "--out", str(tmp_path / "sr.hsc")]
    params = DpsrParams.init(DpsrConfig(bands=4, features=8, up_features=4, state_size=4))
    params.clff[0][1].b_w.data[:] = 1e30
    assert np.isfinite(params.clff[0][1].b_w.data).all()
    save_params(params, tmp_path / "m.dpsrw")    # over the fixture's model
    assert main(argv) == EXIT_NUMERIC
    assert "non-finite SSM latent" in capsys.readouterr().err
    assert not (tmp_path / "sr.hsc").exists()


@pytest.mark.parametrize("which, corrupt", [
    ("m.dpsrw", lambda b: b[:12] + struct.pack("<I", 0xFFFFFFFE) + b[16:]),   # features
    ("lr.hsc", lambda b: b[:6] + struct.pack("<3I", 0xFFFFFFFF, 0xFFFFFFFF, 3) + b[18:]),
], ids=["model-features", "cube-extents"])
def test_sr_stream_rejects_a_corrupt_size_header(files, tmp_path, capsys, which, corrupt):
    argv = ["sr-stream", *files(), "--out", str(tmp_path / "sr.hsc")]
    path = tmp_path / which
    path.write_bytes(corrupt(path.read_bytes()))
    assert main(argv) == EXIT_CONTRACT
    assert "truncated file" in capsys.readouterr().err


MODEL_FILE = """# model
bands = 4
features = 6          # overridden by --features
state_size = 4
up_features = 4
memory_kind = causalconv
"""
TRAIN_FILE = """batch_size = 1
max_steps = 50        # overridden by --steps
eval_every = 1
patience = 3
alpha_s = 0.2
"""


@pytest.fixture
def synth(tmp_path):
    """Two 32x32x4 synthetic cubes in tmp_path/data, plus the key=value files."""
    data = tmp_path / "data"
    assert main(["make-synth", "--out-dir", str(data), "--count", "2", "--seed", "5",
                 "--height", "32", "--width", "32", "--bands", "4"]) == 0
    (tmp_path / "model.cfg").write_text(MODEL_FILE)
    (tmp_path / "train.cfg").write_text(TRAIN_FILE)
    return tmp_path


def train_argv(root, *extra):
    return ["train", "--config", str(root / "model.cfg"),
            "--train-config", str(root / "train.cfg"),
            "--data-dir", str(root / "data"), "--val-dir", str(root / "data"),
            "--out", str(root / "out" / "m.dpsrw"), *extra]


def test_pipeline_end_to_end(synth, capsys):
    hr, lr, sr = synth / "data" / "synth_00005.hsc", synth / "lr" / "lr.hsc", synth / "sr.hsc"
    (synth / "lr").mkdir()
    (synth / "out").mkdir()
    assert main(["degrade", "--in", str(hr), "--out", str(lr), "--factor", "4"]) == 0
    assert main(train_argv(synth, "--steps", "2", "--seed", "7", "--lr", "1e-3",
                           "--patch", "16", "--features", "8", "--memory-kind", "mamba")) == 0
    manifest = json.loads((synth / "out" / "train.manifest.json").read_text())
    assert manifest["resolved_config"] == {
        "bands": 4, "features": 8, "expand": 1, "state_size": 4, "kernel_lines": 4,
        "up_features": 4, "scale": 4, "n_clff": 2, "memory_kind": "mamba",
        "ca_reduction": 16, "lr": 1e-3, "alpha_s": 0.2, "alpha_g": 0.1,
        "batch_size": 1, "max_steps": 2, "patch": 16, "seed": 7, "eval_every": 1,
        "patience": 3,
    }
    assert len((synth / "out" / "m.dpsrw.log.csv").read_text().splitlines()) == 1 + 2
    model = str(synth / "out" / "m.dpsrw")
    assert main(["sr-stream", "--model", model, "--in", str(lr), "--out", str(sr),
                 "--report", str(synth / "lines.csv")]) == 0
    assert len((synth / "lines.csv").read_text().splitlines()) == 1 + 8
    assert main(["eval", "--pred", str(sr), "--ref", str(hr), "--factor", "4",
                 "--csv", str(synth / "eval.csv")]) == 0
    assert len((synth / "eval.csv").read_text().splitlines()) == 2
    capsys.readouterr()
    assert main(["profile", "--config", str(synth / "model.cfg"), "--features", "8"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("8,4,4,causalconv,")


@pytest.mark.parametrize("which", ["model.cfg", "train.cfg"])
def test_unknown_config_key_exits_config(synth, capsys, which):
    with open(synth / which, "a", encoding="utf-8") as fh:
        fh.write("bogus = 1\n")
    assert main(train_argv(synth, "--steps", "1")) == EXIT_CONFIG
    assert "unknown key 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize("factor", ["0", "-2"])
def test_degrade_rejects_a_non_positive_factor(synth, factor):
    argv = ["degrade", "--in", str(synth / "data" / "synth_00005.hsc"),
            "--out", str(synth / "lr.hsc"), f"--factor={factor}"]
    assert main(argv) == EXIT_CONTRACT


@pytest.mark.parametrize("key, value", [
    *(pytest.param(key, "0", id=key)
      for key in ("batch_size", "max_steps", "patch", "eval_every", "patience")),
    ("lr", "nan"), ("lr", "inf"), ("lr", "-1e-3"), ("alpha_s", "nan"), ("alpha_g", "inf"),
])
def test_train_rejects_a_non_positive_size(synth, capsys, key, value):
    # nan < 0 is false, so a `value < 0` check alone lets NaN through
    with open(synth / "train.cfg", "a", encoding="utf-8") as fh:
        fh.write(f"{key} = {value}\n")
    (synth / "out").mkdir()
    assert main(train_argv(synth)) == EXIT_CONTRACT
    assert key in capsys.readouterr().err
    assert not (synth / "out" / "m.dpsrw").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_exits_numeric_when_it_diverges(synth, capsys):
    (synth / "out").mkdir()
    assert main(train_argv(synth, "--steps", "3", "--patch", "16", "--lr", "1e30")) == EXIT_NUMERIC
    assert "error: non-finite" in capsys.readouterr().err
    assert not (synth / "out" / "m.dpsrw").exists()


def test_make_synth_exits_io_under_a_regular_file(tmp_path, capsys):
    # a path through a file cannot be created whoever runs it, unlike a read-only directory
    (tmp_path / "plain").write_text("not a directory")
    assert main(["make-synth", "--out-dir", str(tmp_path / "plain" / "d")]) == EXIT_IO
    assert "plain" in capsys.readouterr().err
    assert (tmp_path / "plain").read_text() == "not a directory"


@pytest.mark.parametrize("argv", [
    ["degrade", "--in", "{gone}.hsc", "--out", "{out}.hsc", "--factor", "4"],
    ["eval", "--pred", "{gone}.hsc", "--ref", "{gone}.hsc", "--factor", "4"],
    ["train", "--bands", "4", "--data-dir", "{gone}", "--out", "{out}.dpsrw"],
    ["sr-stream", "--model", "{gone}.dpsrw", "--in", "{gone}.hsc", "--out", "{out}.hsc"],
], ids=lambda argv: argv[0])
def test_a_missing_input_exits_io(tmp_path, capsys, argv):
    argv = [a.format(gone=tmp_path / "missing", out=tmp_path / "out") for a in argv]
    assert main(argv) == EXIT_IO
    assert "missing" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_eval_rejects_a_zero_factor(synth):
    hr = str(synth / "data" / "synth_00005.hsc")
    assert main(["eval", "--pred", hr, "--ref", hr, "--factor", "0"]) == EXIT_CONTRACT


@pytest.mark.parametrize("flag", ["--count", "--height", "--width", "--bands"])
def test_make_synth_rejects_a_non_positive_size(tmp_path, flag):
    assert main(["make-synth", "--out-dir", str(tmp_path / "d"), f"{flag}=0"]) == EXIT_CONTRACT
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("width", ["0", "-3"])
def test_profile_rejects_a_non_positive_width(width):
    assert main(["profile", "--bands", "4", f"--width={width}"]) == EXIT_CONTRACT
