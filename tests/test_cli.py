"""Command-line parser defaults, exit codes, manifests and the package import."""

import inspect
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
from dpsr.dataio import HsiCube, make_synthetic, read_cube, write_cube
from dpsr.model import MEMORY_KINDS, DpsrConfig, DpsrParams, dpsr_step, load_params, save_params
from dpsr.profiler import profile
from dpsr.stream import PRISMA_LINE_MS

# Prints the environment before and after `import dpsr`, and the warnings the
# import raised.
_IMPORT = """
import json, os, warnings
before = dict(os.environ)
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    import dpsr
print(json.dumps([before, dict(os.environ), [str(w.message) for w in caught]]))
"""


def test_importing_dpsr_leaves_the_environment_alone():
    # the BLAS library's own variables are the one thread setting: the import
    # sets none of them, whatever else (DPSR_THREADS here) the environment holds
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas}
    env["DPSR_THREADS"] = "2"
    env["PYTHONPATH"] = str(Path(dpsr.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", _IMPORT], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    before, after, caught = json.loads(run.stdout)
    assert after == before and caught == []


@pytest.mark.parametrize("argv", [
    ["sr-stream", "--model", "m.dpsrw", "--in", "lr.hsc", "--out", "sr.hsc"],
    ["sr-stream", "--model", "m.dpsrw", "--in", "lr.hsc"],
])
def test_budget_defaults_to_the_prisma_line_period(argv):
    args = build_parser().parse_args(argv)
    assert args.budget_ms == PRISMA_LINE_MS
    assert build_parser().parse_args(argv + ["--budget-ms", "2.5"]).budget_ms == 2.5


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


def test_simulate_is_not_a_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["simulate", "--model", "m.dpsrw", "--in", "lr.hsc"])


def test_sr_stream_takes_one_line_period(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["sr-stream", "--model", "m.dpsrw", "--in", "lr.hsc",
                                   "--cadence-ms", "1000"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["sr-stream", "--help"])
    assert "cadence" not in capsys.readouterr().out


# the replay: sr-stream without --out, which writes no cube and no manifest
def test_sr_stream_replay_reports_the_late_lines(files, tmp_path, capsys):
    argv = ["sr-stream", *files(), "--budget-ms", "1000", "--report", str(tmp_path / "l.csv")]
    before = set(tmp_path.iterdir())
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split("  ")[0] for line in out] == [
        "lines processed", "budget", "first line (priming)", "mean latency", "p95 latency",
        "max latency", "late lines", "state memory"]
    assert out[6].split() == ["late", "lines", "0"]
    assert set(tmp_path.iterdir()) - before == {tmp_path / "l.csv"}
    assert len((tmp_path / "l.csv").read_text().splitlines()) == 1 + 6


@pytest.mark.parametrize("budget", ["0", "nan"])
def test_sr_stream_rejects_the_budget_before_reading_any_file(tmp_path, budget):
    # neither file exists, so a check made after loading would exit with an I/O error
    argv = ["sr-stream", "--model", str(tmp_path / "none.dpsrw"),
            "--in", str(tmp_path / "none.hsc"), "--budget-ms", budget]
    assert main(argv) == EXIT_CONTRACT


@pytest.mark.parametrize("budget", ["nan", "-inf", "0"])
def test_sr_stream_rejects_non_positive_budget(files, tmp_path, budget):
    argv = ["sr-stream", *files(), "--out", str(tmp_path / "sr.hsc"), f"--budget-ms={budget}"]
    assert main(argv) == EXIT_CONTRACT


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sr_stream_rejects_a_non_finite_line(files, tmp_path, capsys, bad):
    assert main(["sr-stream", *files(bad), "--out", str(tmp_path / "sr.hsc")]) == EXIT_CONTRACT
    assert "non-finite input at line 3" in capsys.readouterr().err
    # lines 1 and 2 were written before line 3 failed; the partial cube is gone
    assert not (tmp_path / "sr.hsc").exists()


def test_sr_stream_rejects_a_truncated_cube_before_the_first_line(files, tmp_path, capsys,
                                                                  monkeypatch):
    import dpsr.stream
    steps = []
    monkeypatch.setattr(dpsr.stream, "dpsr_step", lambda *a: steps.append(a))
    argv = ["sr-stream", *files(), "--out", str(tmp_path / "sr.hsc")]
    path = tmp_path / "lr.hsc"
    path.write_bytes(path.read_bytes()[:-7])        # cut inside the last record
    assert main(argv) == EXIT_CONTRACT
    assert "truncated file" in capsys.readouterr().err
    assert steps == [] and not (tmp_path / "sr.hsc").exists()


@pytest.mark.parametrize("kind", MEMORY_KINDS)
def test_sr_stream_out_equals_the_stacked_steps(tmp_path, kind):
    cfg = DpsrConfig(bands=4, features=8, up_features=4, state_size=4, memory_kind=kind)
    save_params(DpsrParams.init(cfg, seed=0), tmp_path / "m.dpsrw")
    data = np.random.default_rng(2).random((6, 5, 4)).astype(np.float32)
    valid = [True, False, True, True]
    write_cube(HsiCube(data=data, band_valid=valid), tmp_path / "lr.hsc")
    assert main(["sr-stream", "--model", str(tmp_path / "m.dpsrw"), "--in",
                 str(tmp_path / "lr.hsc"), "--out", str(tmp_path / "sr.hsc")]) == 0
    params, state, blocks = load_params(tmp_path / "m.dpsrw"), None, []
    for line in data:
        sr, state = dpsr_step(line, params, state)
        blocks += [] if sr is None else [sr]
    write_cube(HsiCube(data=np.concatenate(blocks), band_valid=valid), tmp_path / "ref.hsc")
    assert (tmp_path / "sr.hsc").read_bytes() == (tmp_path / "ref.hsc").read_bytes()


# A child runs sr-stream through the CLI and prints its own peak RSS in kB:
# VmHWM, the peak of its own address space. Its ru_maxrss would not do, since
# Linux carries the parent's peak over through fork and exec.
_PEAK_RSS = """
import sys
from dpsr.cli import main
assert main(sys.argv[1:]) == 0
with open("/proc/self/status", encoding="ascii") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")

def test_sr_stream_memory_is_flat_in_the_height(tmp_path):
    # W = 250 and 66 bands, as the full-size sensor: each LR line makes 1.06 MB
    # of HR output, so a stream that held its output cube would peak about
    # 127 MB higher at 160 lines than at 40; an F = 8 model keeps the lines cheap
    cfg = DpsrConfig(bands=66, features=8, up_features=4, state_size=4)
    save_params(DpsrParams.init(cfg, seed=0), tmp_path / "m.dpsrw")
    env = dict(os.environ, PYTHONPATH=str(Path(dpsr.__file__).resolve().parents[1]))
    peaks = {}
    for lines in (40, 160):
        lr = tmp_path / f"lr{lines}.hsc"
        write_cube(make_synthetic(lines, lines, 250, 66), lr)
        for out in ([], ["--out", str(tmp_path / "sr.hsc")]):
            argv = ["sr-stream", "--model", str(tmp_path / "m.dpsrw"), "--in", str(lr), *out]
            run = subprocess.run([sys.executable, "-c", _PEAK_RSS, *argv], env=env,
                                 capture_output=True, text=True, timeout=300, check=True)
            peaks[lines, bool(out)] = int(run.stdout.split()[-1]) / 1024
            (tmp_path / "sr.hsc").unlink(missing_ok=True)
    for out in (False, True):
        assert abs(peaks[160, out] - peaks[40, out]) <= 10, peaks


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sr_stream_rejects_a_non_finite_weight(files, tmp_path, capsys, bad):
    argv = ["sr-stream", *files(), "--out", str(tmp_path / "sr.hsc")]
    params = DpsrParams.init(DpsrConfig(bands=4, features=8, up_features=4, state_size=4))
    params.clff[1][1].a_log.data[2, 1] = bad
    save_params(params, tmp_path / "m.dpsrw")    # over the fixture's model
    assert main(argv) == EXIT_CONTRACT
    assert "clff1.mem.a_log: non-finite weight" in capsys.readouterr().err


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


def manifest(path):
    """The manifest at `path` without its timestamp, the one field that varies by run."""
    fields = json.loads(path.read_text())
    assert fields.pop("timestamp").endswith("Z")
    return fields


def test_pipeline_end_to_end(synth, capsys):
    hr, lr, sr = synth / "data" / "synth_00005.hsc", synth / "lr" / "lr.hsc", synth / "sr.hsc"
    (synth / "lr").mkdir()
    (synth / "out").mkdir()
    assert manifest(synth / "data" / "make_synth.manifest.json") == {
        "command": "make-synth", "config_file": "", "seed": 5, "inputs": [],
        "outputs": ["synth_00005.hsc", "synth_00006.hsc"],
        "resolved_config": {"count": 2, "height": 32, "width": 32, "bands": 4,
                            "smoothness": 3.0, "seed": 5},
    }
    assert main(["degrade", "--in", str(hr), "--out", str(lr), "--factor", "4"]) == 0
    assert manifest(synth / "lr" / "degrade.manifest.json") == {
        "command": "degrade", "config_file": "", "seed": None, "inputs": [str(hr)],
        "outputs": [str(lr)], "resolved_config": {"factor": 4},
    }
    assert main(train_argv(synth, "--steps", "2", "--seed", "7", "--lr", "1e-3",
                           "--patch", "16", "--features", "8", "--memory-kind", "mamba")) == 0
    model = str(synth / "out" / "m.dpsrw")
    assert manifest(synth / "out" / "train.manifest.json") == {
        "command": "train", "config_file": str(synth / "model.cfg"), "seed": 7,
        "inputs": [str(synth / "data")] * 2 + [str(synth / "train.cfg")],
        "outputs": [model, model + ".log.csv"],
        "resolved_config": {
            "bands": 4, "features": 8, "expand": 1, "state_size": 4, "kernel_lines": 4,
            "up_features": 4, "scale": 4, "n_clff": 2, "memory_kind": "mamba",
            "ca_reduction": 16, "lr": 1e-3, "alpha_s": 0.2, "alpha_g": 0.1,
            "batch_size": 1, "max_steps": 2, "patch": 16, "seed": 7, "eval_every": 1,
            "patience": 3,
        },
    }
    assert len((synth / "out" / "m.dpsrw.log.csv").read_text().splitlines()) == 1 + 2
    assert main(["sr-stream", "--model", model, "--in", str(lr), "--out", str(sr),
                 "--report", str(synth / "lines.csv")]) == 0
    assert manifest(synth / "sr_stream.manifest.json") == {
        "command": "sr-stream", "config_file": "", "seed": None, "inputs": [model, str(lr)],
        "outputs": [str(sr), str(synth / "lines.csv")],
        "resolved_config": {"budget_ms": PRISMA_LINE_MS},
    }
    assert len((synth / "lines.csv").read_text().splitlines()) == 1 + 8
    assert main(["eval", "--pred", str(sr), "--ref", str(hr), "--factor", "4",
                 "--csv", str(synth / "eval.csv")]) == 0
    assert len((synth / "eval.csv").read_text().splitlines()) == 2
    # a second run appends its row, labelled, under the one header
    assert main(["eval", "--pred", str(sr), "--ref", str(hr), "--factor", "4",
                 "--csv", str(synth / "eval.csv"), "--dataset", "synth",
                 "--config-name", "small"]) == 0
    rows = (synth / "eval.csv").read_text().splitlines()
    assert len(rows) == 3 and rows[-1].startswith("synth,small,4,")
    capsys.readouterr()
    assert main(["profile", "--config", str(synth / "model.cfg"), "--features", "8"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("8,4,4,causalconv,")


@pytest.mark.parametrize("which", ["model.cfg", "train.cfg"])
def test_unknown_config_key_exits_config(synth, capsys, which):
    with open(synth / which, "a", encoding="utf-8") as fh:
        fh.write("bogus = 1\n")
    assert main(train_argv(synth, "--steps", "1")) == EXIT_CONFIG
    assert "unknown key 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize("text, match", [
    ("bands = 4\nfeatures 8\n", r"model.cfg:2: expected key=value, got 'features 8'"),
    ("bands = 4\nfeatures = eight\n", r"model.cfg:2: bad value for 'features': 'eight'"),
    ("features = 8\n", r"model config needs at least 'bands'"),
], ids=["no-equals", "bad-value", "no-bands"])
def test_a_model_config_that_does_not_parse_exits_config(tmp_path, capsys, text, match):
    (tmp_path / "model.cfg").write_text(text, encoding="utf-8")
    assert main(["profile", "--config", str(tmp_path / "model.cfg")]) == EXIT_CONFIG
    assert match in capsys.readouterr().err


def test_train_on_a_data_dir_without_cubes_exits_contract(synth, capsys):
    (synth / "empty").mkdir()
    argv = train_argv(synth, "--data-dir", str(synth / "empty"))
    assert main(argv) == EXIT_CONTRACT
    assert f"no .hsc cubes in {str(synth / 'empty')!r}" in capsys.readouterr().err


@pytest.mark.parametrize("factor", ["0", "-2"])
def test_degrade_rejects_a_non_positive_factor(synth, factor):
    argv = ["degrade", "--in", str(synth / "data" / "synth_00005.hsc"),
            "--out", str(synth / "lr.hsc"), f"--factor={factor}"]
    assert main(argv) == EXIT_CONTRACT


@pytest.mark.parametrize("key, value", [
    *(pytest.param(key, "0", id=key)
      for key in ("batch_size", "max_steps", "patch", "eval_every", "patience")),
    ("lr", "nan"), ("lr", "inf"), ("lr", "-1e-3"), ("alpha_s", "nan"), ("alpha_g", "inf"),
    ("seed", "-3"),   # default_rng would raise ValueError: a traceback, not exit 3
])
def test_train_rejects_a_non_positive_size(synth, capsys, key, value):
    # nan < 0 is false, so a `value < 0` check alone lets NaN through
    with open(synth / "train.cfg", "a", encoding="utf-8") as fh:
        fh.write(f"{key} = {value}\n")
    (synth / "out").mkdir()
    assert main(train_argv(synth)) == EXIT_CONTRACT
    assert key in capsys.readouterr().err
    assert not (synth / "out" / "m.dpsrw").exists()


def test_train_exits_numeric_when_it_diverges(synth, capsys):
    (synth / "out").mkdir()
    assert main(train_argv(synth, "--steps", "3", "--patch", "16", "--lr", "1e30")) == EXIT_NUMERIC
    assert "error: non-finite" in capsys.readouterr().err
    assert not (synth / "out" / "m.dpsrw").exists()


def test_train_exits_numeric_when_an_update_overflows(synth, capsys):
    # finite gradients, but lr * step exceeds float32: nothing non-finite is saved
    (synth / "out").mkdir()
    assert main(train_argv(synth, "--steps", "1", "--patch", "16", "--lr", "1e39")) == EXIT_NUMERIC
    assert "non-finite update for parameter" in capsys.readouterr().err
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


def test_eval_rejects_a_prediction_holding_a_nan(synth, capsys):
    # it printed MPSNR 100.00 dB, MSSIM 1.0000 and SAM 0.0000 deg, and exited 0
    ref = synth / "data" / "synth_00005.hsc"
    pred = read_cube(ref).data[:-4].copy()
    pred[3, 5, 1] = np.nan
    write_cube(HsiCube(data=pred), synth / "pred.hsc")
    argv = ["eval", "--pred", str(synth / "pred.hsc"), "--ref", str(ref), "--factor", "4"]
    assert main(argv) == EXIT_CONTRACT
    assert "non-finite value in the prediction at line 3" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--count", "--height", "--width", "--bands"])
def test_make_synth_rejects_a_non_positive_size(tmp_path, flag):
    assert main(["make-synth", "--out-dir", str(tmp_path / "d"), f"{flag}=0"]) == EXIT_CONTRACT
    assert not (tmp_path / "d").exists()


def test_make_synth_rejects_a_negative_seed(tmp_path, capsys):
    assert main(["make-synth", "--out-dir", str(tmp_path / "d"), "--seed=-1"]) == EXIT_CONTRACT
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("smoothness", ["nan", "inf", "-1"])
def test_make_synth_rejects_a_bad_smoothness(tmp_path, capsys, smoothness):
    # a NaN smoothness made an all-NaN cube
    argv = ["make-synth", "--out-dir", str(tmp_path / "d"), f"--smoothness={smoothness}"]
    assert main(argv) == EXIT_CONTRACT
    assert "smoothness" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("command", ["make-synth", "degrade", "train", "sr-stream", "eval",
                                     "profile"])
def test_every_subcommand_prints_its_help(capsys, command):
    with pytest.raises(SystemExit) as done:
        main([command, "--help"])
    assert done.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: dpsr {command} ")


def test_make_synth_and_profile_defaults_are_the_library_defaults():
    assert build_parser().parse_args(["make-synth", "--out-dir", "d"]).smoothness == \
        inspect.signature(make_synthetic).parameters["smoothness"].default
    assert build_parser().parse_args(["profile", "--bands", "4"]).width == \
        inspect.signature(profile).parameters["width"].default


@pytest.mark.parametrize("width", ["0", "-3"])
def test_profile_rejects_a_non_positive_width(width):
    assert main(["profile", "--bands", "4", f"--width={width}"]) == EXIT_CONTRACT
