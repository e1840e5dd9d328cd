"""The benchmark's workloads: two closed-loop pushbroom streams and a training job.

Each workload makes its inputs from the seed, writes them in the repo's own
formats (HSC1 cubes, DPSRW001 model), reads them back through the public
API as a user would, runs until the time is up and the tail percentile is
supported, and checks every output it produced. One operation ("op") is
one streamed line on the stream workloads and one training step on the
train workload; one job is one strip of a scene streamed from a fresh
state, or one `train.fit` call.
"""

import resource
import statistics
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from dpsr import dataio, model, profiler, train

import stats
from spans import PHASE, UNIT, self_times, sum_by_name

SETUP_REPS = 5          # set-up is repeated and its median reported
HARD_CAP_S = 120.0      # measuring stops here even if a percentile lacks support
PREFIX_ATOL = 1e-5      # streamed vs whole-image outputs, float32
GOLDEN_RTOL = 1e-4      # first-step loss vs the value recorded below, float32
UNIT_STRIDE = 100_000   # span unit id = job index * stride + op index


@dataclass(frozen=True)
class StreamSpec:
    memory_kind: str
    bands: int = 66
    features: int = 280
    width: int = 250               # LR swath; the SR swath is scale * width
    strip_lines: int = 96          # LR lines per strip: 1 priming + 95 timed
    prefix_lines: int = 8          # leading lines checked against the image path
    tail_q: int = 95
    min_strips: int = 3

    def config(self):
        return model.DpsrConfig(bands=self.bands, features=self.features,
                                memory_kind=self.memory_kind)


@dataclass(frozen=True)
class TrainSpec:
    bands: int = 16
    features: int = 32
    patch: int = 128               # HR patch; LR sequences are patch / scale lines
    train_extent: int = 256        # square HR training scene: 4 patches x 8 augments
    val_extent: int = 128
    steps_per_fit: int = 40
    eval_every: int = 20
    batch_size: int = 1
    tail_q: int = 90
    golden_loss: float | None = None

    def config(self):
        return model.DpsrConfig(bands=self.bands, features=self.features)

    def train_config(self, seed):
        return train.TrainConfig(batch_size=self.batch_size, max_steps=self.steps_per_fit,
                                 patch=self.patch, eval_every=self.eval_every, seed=seed)


# First-step loss (forward only) of TrainSpec's model at seed 0 on the seed-0
# synthetic patch, recorded at the commit that introduced this benchmark.
GOLDEN_SEED = 0
GOLDEN_FIRST_LOSS = 0.08471126109361649

WORKLOADS = {
    "stream_mamba_w250": StreamSpec(memory_kind="mamba"),
    "stream_causalconv_w250": StreamSpec(memory_kind="causalconv"),
    "train_mamba_h32": TrainSpec(golden_loss=GOLDEN_FIRST_LOSS),
}

OP_LAYERS = ["blocks.sfe", "blocks.naf", "blocks.upsample", "blocks.bilinear",
             "ssm.step", "ssm.scan", "train.loss", "tensor.backward", "train.adam"]
INCLUSIVE_OP_LAYERS = ["model.step", "model.forward_image"]
SETUP_LAYERS = ["model.load", "dataio.read_cube"]
JOB_LAYERS = ["dataio.bicubic", "metrics.evaluate"]
GFLOPS_LAYERS = ["blocks.sfe", "blocks.naf", "blocks.upsample", "ssm.step"]


@dataclass
class Outcome:
    """Ops attempted and the distinct ops that raised or failed a check."""

    attempted: int = 0
    failed_ops: set = field(default_factory=set)
    errors: list = field(default_factory=list)

    def fail(self, key, message):
        self.failed_ops.add(key)
        if len(self.errors) < 5:
            self.errors.append(message)

    @property
    def failed(self):
        return len(self.failed_ops)


@dataclass
class Result:
    outcome: Outcome
    metrics: dict        # end-to-end when untraced, per-layer when traced
    figures: dict        # the same numbers under the names used in the README
    config: dict


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def flops_by_layer(cfg, width):
    """profiler.profile() FLOPs per line, grouped by traced span name."""
    groups = dict.fromkeys(GFLOPS_LAYERS, 0)
    for item in profiler.profile(cfg, width).items:
        head, _, rest = item.name.partition(".")
        if head == "sfe":
            key = "blocks.sfe"
        elif head == "up":
            key = "blocks.upsample"
        elif head.startswith("clff") and rest.startswith("naf."):
            key = "blocks.naf"
        elif head.startswith("clff") and rest.startswith("mem."):
            key = "ssm.step"
        else:
            raise ValueError(f"profiler item {item.name!r} belongs to no layer")
        groups[key] += item.flops
    return groups


def layer_metrics(tracer, units, n_jobs, flops_per_op, traced_ms, untraced_ms):
    """Per-layer metrics from the spans of the traced ops in `units`."""
    spans = tracer.spans
    selves = self_times(spans)
    in_op = lambda r: r[PHASE] == "op" and r[UNIT] in units
    own = sum_by_name(spans, selves, in_op)
    whole = sum_by_name(spans, selves, in_op, inclusive=True)
    setup = sum_by_name(spans, selves, lambda r: r[PHASE] == "setup")
    job = sum_by_name(spans, selves, lambda r: r[PHASE] == "op")
    n = len(units)
    out = {f"{name}_ms": own[name] / n * 1e3 for name in OP_LAYERS}
    out["model.step_self_ms"] = own["model.step"] / n * 1e3
    for name in INCLUSIVE_OP_LAYERS:
        out[f"{name}_ms"] = whole[name] / n * 1e3
    for name in SETUP_LAYERS:
        out[f"{name}_ms"] = setup[name] / SETUP_REPS * 1e3
    for name in JOB_LAYERS:
        out[f"{name}_ms"] = job[name] / n_jobs * 1e3
    for name in GFLOPS_LAYERS:
        seconds = own[name] / n
        out[f"{name}_gflops"] = flops_per_op[name] / seconds / 1e9 if seconds > 0 else 0.0
    out["tensor.tape_nodes"] = int(statistics.median(tracer.tape_nodes)) if tracer.tape_nodes else 0
    out["trace.overhead_ms"] = statistics.median(traced_ms) - statistics.median(untraced_ms)
    return out


def trace(tracer, enabled, phase, unit):
    """Point the tracer, if any, at the next call's phase and unit."""
    if tracer is not None:
        tracer.enabled, tracer.phase, tracer.unit = enabled, phase, unit


# ---------------------------------------------------------------------------
# streaming


def check_line(sr, expected_shape):
    """None when a streamed output line is well formed, else the reason."""
    if sr is None:
        return "no output"
    if sr.shape != expected_shape:
        return f"shape {sr.shape} != {expected_shape}"
    if not np.all(np.isfinite(sr)):
        return "non-finite output"
    return None


def check_prefix(prefix, reference, scale):
    """Failed line indices of the first strip's leading outputs vs the image path."""
    bad = []
    for y, sr in prefix.items():
        ref = reference[(y - 1) * scale: y * scale]
        if float(np.max(np.abs(sr - ref))) > PREFIX_ATOL:
            bad.append(y)
    return bad


def run_stream(spec, seed, seconds, workdir, tracer=None, import_s=0.0):
    """Stream strips of a seeded scene line by line through `model.dpsr_step`.

    With a tracer, every other timed line is traced; the rest give the
    untraced reference for the tracing overhead.
    """
    cfg = spec.config()
    scene_path, model_path = workdir / "scene.hsc", workdir / "model.dpsrw"
    dataio.write_cube(dataio.make_synthetic(seed, spec.strip_lines, spec.width,
                                            spec.bands), scene_path)
    model.save_params(model.DpsrParams.init(cfg, seed=seed), model_path)

    setup_s = []
    for rep in range(SETUP_REPS):
        trace(tracer, True, "setup", rep)
        t0 = time.perf_counter()
        params = model.load_params(model_path)
        cube = dataio.read_cube(scene_path)
        state = model.init_stream(params, cube.width)
        _, state = model.dpsr_step(cube.line(0), params, state)
        setup_s.append(time.perf_counter() - t0)
    state_bytes = state.nbytes()

    r = cfg.scale
    shape = (r, r * cube.width, cfg.bands)
    outcome = Outcome()
    line_ms, traced_ms, untraced_ms, strip_s, units = [], [], [], [], set()
    # the first strip's leading outputs are kept for the image-path check at
    # the end; later strips must match them, so memory stays flat
    first_prefix = {}
    strips = 0
    min_lines = stats.min_samples(spec.tail_q)
    t_begin = time.perf_counter()

    def enough():
        return (time.perf_counter() - t_begin >= seconds and len(line_ms) >= min_lines
                and len(strip_s) >= spec.min_strips)

    op = 0
    while not enough() and time.perf_counter() - t_begin < HARD_CAP_S:
        strip, strips = strips, strips + 1
        t_strip = time.perf_counter()
        state = model.init_stream(params, cube.width)
        complete = True
        for y in range(cube.height):
            op += 1
            key = strip * UNIT_STRIDE + y
            traced = tracer is not None and y > 0 and op % 2 == 1
            trace(tracer, traced, "op", key)
            outcome.attempted += 1
            try:
                t0 = time.perf_counter()
                sr, state = model.dpsr_step(cube.line(y), params, state)
                ms = (time.perf_counter() - t0) * 1e3
            except Exception as e:  # a failed line is counted, the stream restarts
                outcome.fail(key, f"strip {strip} line {y}: {e!r}")
                complete = False
                break
            if y == 0:
                if sr is not None:
                    outcome.fail(key, f"strip {strip}: priming line produced output")
                continue
            reason = check_line(sr, shape)
            if reason:
                outcome.fail(key, f"strip {strip} line {y}: {reason}")
            elif y < spec.prefix_lines:
                if strip == 0:
                    first_prefix[y] = sr.copy()
                elif y in first_prefix and np.max(np.abs(sr - first_prefix[y])) > PREFIX_ATOL:
                    outcome.fail(key, f"strip {strip} line {y}: differs from strip 0")
            line_ms.append(ms)
            if tracer is not None:
                (traced_ms if traced else untraced_ms).append(ms)
                if traced:
                    units.add(key)
            if enough():
                complete = y == cube.height - 1
                break
        if complete:
            strip_s.append(time.perf_counter() - t_strip)
    rss = peak_rss_mb()
    trace(tracer, False, "check", -1)

    # the reference runs after the peak-RSS reading so it does not inflate it
    reference = model.dpsr_forward_image(cube.data[:spec.prefix_lines], params).data
    for y in check_prefix(first_prefix, reference, r):
        outcome.fail(y, f"strip 0 line {y}: differs from dpsr_forward_image")

    p50 = statistics.median(line_ms)
    tail = stats.percentile(line_ms, spec.tail_q)
    figures = {
        "line_ms_p50": (p50, "ms"), f"line_ms_p{spec.tail_q}": (tail, "ms"),
        "line_ms_mean": (statistics.fmean(line_ms), "ms"),
        "lines_per_s": (1e3 / statistics.fmean(line_ms), "1/s"),
        "strip_s": (statistics.fmean(strip_s), "s"),
        "state_bytes": (state_bytes, "B"), "timed_lines": (len(line_ms), "count"),
        "strips": (len(strip_s), "count"), "import_s": (import_s, "s"),
    }
    if tracer is None:
        metrics = {
            "op_ms_mean": statistics.fmean(line_ms), "op_ms_tail": tail,
            "job_s": statistics.fmean(strip_s),
            "state_bytes": state_bytes, "peak_rss_mb": rss,
            "ok_frac": 1.0 - outcome.failed / outcome.attempted,
            "setup_s": import_s + statistics.median(setup_s),
        }
    else:
        metrics = layer_metrics(tracer, units, strips,
                                flops_by_layer(cfg, spec.width), traced_ms, untraced_ms)
    return Result(outcome, metrics, figures, {"model": asdict(cfg), "width": spec.width,
                                              "strip_lines": spec.strip_lines})


# ---------------------------------------------------------------------------
# training


def prepare_pairs(cube, scale, patch):
    """(LR, HR) arrays of every 8-fold augmented patch, as `train.fit` makes them."""
    return [(dataio.bicubic_downsample(aug, scale).data, aug.data)
            for base in dataio.extract_patches(cube, patch)
            for aug in dataio.augment8(base)]


def first_step_loss(pairs, cfg, seed, tc):
    """Forward-only loss of freshly initialised params on the first pair."""
    lr, hr = pairs[0]
    params = model.DpsrParams.init(cfg, seed=seed)
    pred = model.dpsr_forward_image(lr, params)
    return train.loss(pred, hr[:pred.shape[0]], tc.alpha_s, tc.alpha_g).item(), params


def golden_first_loss(spec):
    cube = dataio.make_synthetic(GOLDEN_SEED, spec.patch, spec.patch, spec.bands)
    pairs = prepare_pairs(cube, spec.config().scale, spec.patch)
    return first_step_loss(pairs, spec.config(), GOLDEN_SEED,
                           spec.train_config(GOLDEN_SEED))[0]


def traced_interval(u, eval_every):
    """Odd step intervals are traced and even ones not; intervals that run a
    validation are traced too, so every `evaluate` call is seen, and are
    left out of the step timings."""
    return u % 2 == 1 or u % eval_every == 0


class StepProbe:
    """Times `train.adam_step` entries. Entry u opens step interval u, which
    runs until entry u + 1; the tracer's unit follows the interval."""

    def __init__(self, tracer, base, eval_every):
        self.entries = []
        self._tracer, self._base, self._eval_every = tracer, base, eval_every

    def __enter__(self):
        inner = self._inner = train.adam_step

        def probe(*args, **kwargs):
            self.entries.append(time.perf_counter())
            u = len(self.entries)
            trace(self._tracer, traced_interval(u, self._eval_every), "op", self._base + u)
            return inner(*args, **kwargs)

        train.adam_step = probe
        return self

    def __exit__(self, *exc):
        train.adam_step = self._inner
        return False


def run_train(spec, seed, seconds, workdir, tracer=None, import_s=0.0):
    """Repeated `train.fit` jobs on seeded synthetic cubes.

    With a tracer, odd step intervals are traced and even ones give the
    untraced reference for the tracing overhead.
    """
    cfg = spec.config()
    tc = spec.train_config(seed)
    train_path, val_path = workdir / "train.hsc", workdir / "val.hsc"
    dataio.write_cube(dataio.make_synthetic(seed, spec.train_extent, spec.train_extent,
                                            spec.bands), train_path)
    dataio.write_cube(dataio.make_synthetic(seed + 1, spec.val_extent, spec.val_extent,
                                            spec.bands), val_path)

    setup_s = []
    for rep in range(SETUP_REPS):
        trace(tracer, True, "setup", rep)
        t0 = time.perf_counter()
        train_cubes = [dataio.read_cube(train_path)]
        val_cubes = [dataio.read_cube(val_path)]
        pairs = prepare_pairs(train_cubes[0], cfg.scale, spec.patch)
        first_loss, params = first_step_loss(pairs, cfg, seed, tc)
        setup_s.append(time.perf_counter() - t0)
    trace(tracer, False, "check", -1)

    outcome = Outcome()
    if spec.golden_loss is not None:
        outcome.attempted += 1
        golden = golden_first_loss(spec)
        if not np.isclose(golden, spec.golden_loss, rtol=GOLDEN_RTOL, atol=0.0):
            outcome.fail("golden", f"golden first-step loss {golden!r} != "
                                   f"recorded {spec.golden_loss!r}")
    state = model.init_stream(params, pairs[0][0].shape[1])
    _, state = model.dpsr_step(pairs[0][0][0], params, state)
    state_bytes = state.nbytes()

    step_ms, traced_ms, untraced_ms, fit_s, units = [], [], [], [], set()
    steps_done, first_losses, fits = 0, None, 0
    min_steps = stats.min_samples(spec.tail_q)
    t_begin = time.perf_counter()
    # another fit starts while the tail lacks support or it should end in time
    while fits == 0 or len(step_ms) < min_steps or (
            fit_s and time.perf_counter() - t_begin + statistics.median(fit_s) <= seconds):
        if time.perf_counter() - t_begin >= HARD_CAP_S:
            break
        k, fits = fits, fits + 1
        base = k * UNIT_STRIDE
        trace(tracer, True, "op", base)
        probe = StepProbe(tracer, base, spec.eval_every)
        t0 = time.perf_counter()
        try:
            with probe:
                _, log = train.fit(train_cubes, val_cubes, cfg, tc)
        except Exception as e:  # the step that raised is counted, the next fit runs
            outcome.attempted += len(probe.entries) + 1
            outcome.fail(base + len(probe.entries) + 1, f"fit {k}: {e!r}")
            continue
        finally:
            trace(tracer, False, "check", -1)
        fit_s.append(time.perf_counter() - t0)
        outcome.attempted += len(log)
        steps_done += len(log)

        losses = np.array([row.loss for row in log])
        for row in log:
            if not np.isfinite(row.loss):
                outcome.fail(base + row.step, f"fit {k} step {row.step}: loss {row.loss}")
            if row.val_mpsnr is not None and not np.isfinite(row.val_mpsnr):
                outcome.fail(base + row.step, f"fit {k} step {row.step}: val {row.val_mpsnr}")
        if first_losses is None:
            first_losses = losses
        elif losses.shape != first_losses.shape or not np.allclose(losses, first_losses,
                                                                    rtol=1e-5, atol=0.0):
            outcome.fail(base, f"fit {k}: losses differ from fit 0 with the same seed")

        e = probe.entries
        for u in range(1, len(e)):
            if u % spec.eval_every == 0:
                continue     # this interval also ran a validation
            ms = (e[u] - e[u - 1]) * 1e3
            step_ms.append(ms)
            if tracer is not None:
                traced = traced_interval(u, spec.eval_every)
                (traced_ms if traced else untraced_ms).append(ms)
                if traced:
                    units.add(base + u)
    rss = peak_rss_mb()

    p50 = statistics.median(step_ms)
    tail = stats.percentile(step_ms, spec.tail_q)
    figures = {
        "step_ms_p50": (p50, "ms"), f"step_ms_p{spec.tail_q}": (tail, "ms"),
        "step_ms_mean": (statistics.fmean(step_ms), "ms"),
        "fit_s": (statistics.fmean(fit_s), "s"),
        "steps_per_s": (steps_done / sum(fit_s), "1/s"),
        "first_step_loss": (first_loss, "1"), "timed_steps": (len(step_ms), "count"),
        "fits": (len(fit_s), "count"), "import_s": (import_s, "s"),
    }
    if tracer is None:
        metrics = {
            "op_ms_mean": statistics.fmean(step_ms), "op_ms_tail": tail,
            "job_s": statistics.fmean(fit_s),
            "state_bytes": state_bytes, "peak_rss_mb": rss,
            "ok_frac": 1.0 - outcome.failed / outcome.attempted,
            "setup_s": import_s + statistics.median(setup_s),
        }
    else:
        lines = spec.patch // cfg.scale * spec.batch_size
        flops = {k: v * lines for k, v in flops_by_layer(cfg, spec.patch // cfg.scale).items()}
        metrics = layer_metrics(tracer, units, fits, flops, traced_ms, untraced_ms)
    return Result(outcome, metrics, figures,
                  {"model": asdict(cfg), "train": asdict(tc)})


def run(name, seed, seconds, workdir, tracer=None, import_s=0.0):
    spec = WORKLOADS[name]
    runner = run_stream if isinstance(spec, StreamSpec) else run_train
    return runner(spec, seed, seconds, workdir, tracer=tracer, import_s=import_s)
