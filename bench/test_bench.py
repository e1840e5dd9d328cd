"""Self-tests of the benchmark: run with `python3 -m pytest bench`."""

import dataclasses

import numpy as np
import pytest

import stats
import workloads
from dpsr import model, profiler
from spans import NAME, PARENT, Tracer, self_times

TINY_STREAM = workloads.StreamSpec(memory_kind="mamba", bands=4, features=8, width=8,
                                   strip_lines=12, prefix_lines=8, tail_q=50,
                                   min_strips=1)


def span(name, t0, t1, parent=-1):
    return [name, t0, t1, parent, "op", 0]


def test_self_time_subtracts_direct_children():
    spans = [span("root", 0.0, 10.0),
             span("a", 1.0, 4.0, 0),
             span("a.inner", 2.0, 3.0, 1),
             span("b", 5.0, 6.0, 0)]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_self_time_counts_overlap_and_overhang_once():
    spans = [span("root", 0.0, 10.0),
             span("a", 1.0, 5.0, 0),
             span("b", 4.0, 6.0, 0),      # overlaps a by one second
             span("c", 9.0, 12.0, 0)]     # runs past its parent's end
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_percentile_support_rule():
    assert stats.min_samples(95) == 200
    assert stats.min_samples(90) == 100
    assert stats.min_samples(50) == 20
    assert stats.samples_beyond(200, 95) == 10
    assert stats.samples_beyond(199, 95) == 9
    with pytest.raises(ValueError):
        stats.percentile(list(range(199)), 95)
    assert stats.percentile(list(range(200)), 95) == pytest.approx(np.percentile(range(200), 95))


def test_quartile_spread_matches_definition():
    assert stats.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)


@pytest.mark.parametrize("kind", model.MEMORY_KINDS)
def test_layer_flops_sum_to_profile(kind):
    cfg = model.DpsrConfig(bands=66, memory_kind=kind)
    groups = workloads.flops_by_layer(cfg, 250)
    assert sum(groups.values()) == profiler.profile(cfg, 250).flops_per_line
    assert all(v > 0 for v in groups.values())


def test_tracer_spans_account_for_step_and_uninstall_cleanly():
    params = model.DpsrParams.init(TINY_STREAM.config(), seed=0)
    lines = np.random.default_rng(0).random((2, 8, 4)).astype(np.float32)
    original = model.dpsr_step
    tracer = Tracer()
    state = model.init_stream(params, 8)
    tracer.install()
    _, state = model.dpsr_step(lines[0], params, state)
    tracer.uninstall()
    assert model.dpsr_step is original
    names = [rec[NAME] for rec in tracer.spans]
    assert names[0] == "model.step"
    assert names.count("ssm.step") == 2 and names.count("blocks.naf") == 2
    assert all(rec[PARENT] == 0 for rec in tracer.spans[1:])
    root = tracer.spans[0]
    assert sum(self_times(tracer.spans)) == pytest.approx(root[2] - root[1])


def test_stream_workload_clean_run_has_no_failures(tmp_path):
    res = workloads.run_stream(TINY_STREAM, seed=3, seconds=0.0, workdir=tmp_path)
    assert res.outcome.failed == 0
    assert res.metrics["ok_frac"] == 1.0
    assert res.metrics["state_bytes"] > 0


@pytest.mark.parametrize("bad_strip, bad_line, corrupt, failed", [
    (0, 2, lambda sr: sr + 1e-3, 2),                   # vs the image path; strip 1 then
    (1, 2, lambda sr: sr + 1e-3, 1),                   # differs from strip 0 as well
    (1, 9, lambda sr: np.full_like(sr, np.nan), 1),    # after the prefix: finiteness
])
def test_stream_workload_counts_corrupted_lines(tmp_path, monkeypatch, bad_strip, bad_line,
                                                corrupt, failed):
    real_step = model.dpsr_step
    primed = []

    def corrupting_step(line, params, state):
        sr, state = real_step(line, params, state)
        if state.lines_consumed == 1:
            primed.append(True)
        strip = len(primed) - workloads.SETUP_REPS - 1     # set-up primes first
        if strip == bad_strip and state.lines_consumed == bad_line + 1:
            sr = corrupt(sr)
        return sr, state

    monkeypatch.setattr(model, "dpsr_step", corrupting_step)
    spec = dataclasses.replace(TINY_STREAM, min_strips=2)
    res = workloads.run_stream(spec, seed=3, seconds=0.0, workdir=tmp_path)
    assert res.outcome.failed == failed
    assert res.metrics["ok_frac"] < 1.0


def test_stream_workload_counts_raised_errors(tmp_path, monkeypatch):
    real_step = model.dpsr_step
    raised = []

    def failing_step(line, params, state):
        if state.lines_consumed == 5 and not raised:
            raised.append(True)
            raise model.NumericError("injected")
        return real_step(line, params, state)

    monkeypatch.setattr(model, "dpsr_step", failing_step)
    res = workloads.run_stream(TINY_STREAM, seed=3, seconds=0.0, workdir=tmp_path)
    assert res.outcome.failed == 1
    assert res.metrics["ok_frac"] < 1.0


def test_golden_first_step_loss_still_matches():
    spec = workloads.WORKLOADS["train_mamba_h32"]
    assert workloads.golden_first_loss(spec) == pytest.approx(spec.golden_loss,
                                                             rel=workloads.GOLDEN_RTOL)


def run_traced(runner, spec, tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        return runner(spec, seed=3, seconds=0.0, workdir=tmp_path, tracer=tracer)
    finally:
        tracer.uninstall()


def test_traced_stream_layers_add_up_to_the_step(tmp_path):
    m = run_traced(workloads.run_stream, TINY_STREAM, tmp_path).metrics
    parts = sum(m[f"{name}_ms"] for name in ("blocks.sfe", "blocks.naf", "blocks.upsample",
                                             "blocks.bilinear", "ssm.step"))
    assert parts + m["model.step_self_ms"] == pytest.approx(m["model.step_ms"], rel=1e-9)
    assert m["model.load_ms"] > 0 and m["dataio.read_cube_ms"] > 0
    assert m["ssm.step_gflops"] > 0 and m["ssm.scan_ms"] == 0


TINY_TRAIN = workloads.TrainSpec(bands=4, features=8, patch=16, train_extent=16,
                                 val_extent=16, steps_per_fit=6, eval_every=3, tail_q=50)


def test_train_workload_tiny_run(tmp_path):
    res = workloads.run_train(TINY_TRAIN, seed=2, seconds=0.0, workdir=tmp_path)
    assert res.outcome.failed == 0
    assert res.figures["timed_steps"][0] >= stats.min_samples(50)


def test_traced_train_reports_every_training_layer(tmp_path):
    res = run_traced(workloads.run_train, TINY_TRAIN, tmp_path)
    m = res.metrics
    assert res.outcome.failed == 0
    for name in ("ssm.scan_ms", "model.forward_image_ms", "train.loss_ms",
                 "tensor.backward_ms", "train.adam_ms", "dataio.bicubic_ms",
                 "metrics.evaluate_ms", "dataio.read_cube_ms", "tensor.tape_nodes"):
        assert m[name] > 0, name
    assert m["ssm.step_ms"] == 0 and m["model.step_ms"] == 0
