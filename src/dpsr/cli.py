"""Command-line front end for the whole pipeline.

Subcommands: make-synth, degrade, train, sr-stream, eval, profile.
`make-synth`, `degrade`, `train` and `sr-stream --out` drop a manifest next
to their outputs with the resolved configuration, so results can be
reproduced from the artifacts alone. `sr-stream --out` writes the SR cube
line by line as the stream runs, and removes it if the run fails; so
neither form holds a cube in memory. `sr-stream` without `--out` is the
onboard replay: it prints the timing and the lines that finish after the
next acquisition at one line per `--budget-ms`, but writes no cube and no
manifest.

The model flags (`--state-size` etc.) and the keys of the model and
training key=value files come from the fields of `DpsrConfig` and
`TrainConfig`, so each field is declared once.

Exit codes: 0 ok, 1 numeric failure, 2 I/O failure, 3 contract violation
(including a size, count or factor that is not an integer > 0, a budget
that is not > 0, a seed that is not an integer >= 0, or a negative or
non-finite smoothness; `make-synth` then creates no `--out-dir`), 4 config
parse failure. The library checks each of these arguments; the CLI
restates none of its rules.
"""

import argparse
import contextlib
import dataclasses
import json
import os
import sys
import time

from .dataio import (SYNTH_SMOOTHNESS, CubeReader, CubeWriter, bicubic_downsample,
                     make_synthetic, read_cube, write_cube)
from .errors import ConfigError, ContractError, NumericError, check_positive
from .metrics import EvalReport, evaluate
from .model import MEMORY_KINDS, DpsrConfig, load_params, save_params
from .profiler import PROFILE_WIDTH, profile
from .stream import PRISMA_LINE_MS, run_stream
from .train import TrainConfig, fit, write_log

EXIT_NUMERIC = 1
EXIT_IO = 2
EXIT_CONTRACT = 3
EXIT_CONFIG = 4

MODEL_KEYS = {f.name: f.type for f in dataclasses.fields(DpsrConfig)}
TRAIN_KEYS = {f.name: f.type for f in dataclasses.fields(TrainConfig)}


def parse_config_file(path, schema):
    """Strict key=value parser; unknown keys are rejected by name and line."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in schema:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = schema[key](val)
        except ValueError as e:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {val!r}") from e
    return values


def write_manifest(out_dir, command, resolved, seed=None, inputs=(), outputs=(),
                   config_path=None):
    manifest = {
        "command": command,
        "config_file": config_path or "",
        "seed": seed,
        "inputs": inputs,
        "outputs": outputs,
        "resolved_config": resolved,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    path = os.path.join(out_dir, f"{command.replace('-', '_')}.manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _merged(args, path, schema):
    """The key=value file at `path` (if given), overridden by every flag of
    `schema` that was given."""
    merged = parse_config_file(path, schema) if path else {}
    for key in schema:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    return merged


def _model_config(args):
    merged = _merged(args, args.config, MODEL_KEYS)
    if "bands" not in merged:
        raise ConfigError("model config needs at least 'bands'")
    return DpsrConfig(**merged)


def _add_model_flags(sub):
    sub.add_argument("--config", help="key=value model config file")
    for key, kind in MODEL_KEYS.items():
        sub.add_argument("--" + key.replace("_", "-"), dest=key, type=kind,
                         choices=MEMORY_KINDS if key == "memory_kind" else None)


def cmd_make_synth(args):
    check_positive("count", args.count)
    names = []
    for i in range(args.count):
        cube = make_synthetic(args.seed + i, args.height, args.width,
                              args.bands, smoothness=args.smoothness)
        os.makedirs(args.out_dir, exist_ok=True)    # once the arguments are accepted
        name = f"synth_{args.seed + i:05d}.hsc"
        write_cube(cube, os.path.join(args.out_dir, name))
        names.append(name)
    resolved = {
        "count": args.count, "height": args.height, "width": args.width,
        "bands": args.bands, "smoothness": args.smoothness, "seed": args.seed,
    }
    write_manifest(args.out_dir, "make-synth", resolved, seed=args.seed, outputs=names)
    print(f"wrote {args.count} cubes to {args.out_dir}")
    return 0


def cmd_degrade(args):
    cube = read_cube(args.input)
    lr = bicubic_downsample(cube, args.factor)
    write_cube(lr, args.output)
    write_manifest(os.path.dirname(os.path.abspath(args.output)), "degrade",
                   {"factor": args.factor}, inputs=[args.input], outputs=[args.output])
    print(f"{cube.height}x{cube.width}x{cube.bands} -> "
          f"{lr.height}x{lr.width}x{lr.bands}")
    return 0


def _load_cubes(directory):
    names = sorted(n for n in os.listdir(directory) if n.endswith(".hsc"))
    if not names:
        raise ContractError(f"no .hsc cubes in {directory!r}")
    return [read_cube(os.path.join(directory, n)) for n in names]


def cmd_train(args):
    mcfg = _model_config(args)
    tcfg = TrainConfig(**_merged(args, args.train_config, TRAIN_KEYS))

    train_cubes = _load_cubes(args.data_dir)
    val_cubes = _load_cubes(args.val_dir) if args.val_dir else []
    params, log = fit(train_cubes, val_cubes, mcfg, tcfg)
    save_params(params, args.out)
    log_path = args.out + ".log.csv"
    write_log(log, log_path)

    write_manifest(os.path.dirname(os.path.abspath(args.out)), "train",
                   {**dataclasses.asdict(mcfg), **dataclasses.asdict(tcfg)}, seed=tcfg.seed,
                   inputs=[args.data_dir, args.val_dir or "", args.train_config or ""],
                   outputs=[args.out, log_path], config_path=args.config)
    best = max((r.val_mpsnr for r in log if r.val_mpsnr is not None),
               default=float("nan"))
    print(f"trained {len(log)} steps; best val MPSNR {best:.2f} dB; saved {args.out}")
    return 0


def cmd_sr_stream(args):
    check_positive("budget_ms", args.budget_ms)
    params = load_params(args.model)
    with contextlib.ExitStack() as stack:
        lr = stack.enter_context(CubeReader(args.input))    # a truncated file fails here
        sink = None
        if args.output:     # the cube is written line by line, and removed if the run fails
            r = params.config.scale
            sink = stack.enter_context(CubeWriter(
                args.output, ((lr.height - 1) * r, lr.width * r, lr.bands), lr.band_valid)).write
        report = run_stream(lr, params, sink=sink, budget_ms=args.budget_ms)
    if args.report:
        report.write_csv(args.report)
    if args.output:
        write_manifest(os.path.dirname(os.path.abspath(args.output)), "sr-stream",
                       {"budget_ms": args.budget_ms},
                       inputs=[args.model, args.input],
                       outputs=[args.output] + ([args.report] if args.report else []))
    print(report.table())
    return 0


def cmd_eval(args):
    pred = read_cube(args.pred)
    ref = read_cube(args.ref)
    report = evaluate(pred, ref, args.factor)
    print(report)
    row = report.row(dataset=args.dataset, config=args.config_name,
                     scale=args.factor)
    if args.csv:
        new = not os.path.exists(args.csv)
        with open(args.csv, "a", encoding="utf-8") as fh:
            if new:
                fh.write(EvalReport.header() + "\n")
            fh.write(row + "\n")
    else:
        print(EvalReport.header())
        print(row)
    return 0


def cmd_profile(args):
    report = profile(_model_config(args), width=args.width)
    print(report.table())
    print()
    print(report.row_header())
    print(report.row())
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="dpsr",
        description="Line-by-line streaming super-resolution for pushbroom sensors")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("make-synth", help="generate synthetic hyperspectral cubes")
    s.add_argument("--out-dir", required=True)
    s.add_argument("--count", type=int, default=1)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--height", type=int, default=64)
    s.add_argument("--width", type=int, default=64)
    s.add_argument("--bands", type=int, default=8)
    s.add_argument("--smoothness", type=float, default=SYNTH_SMOOTHNESS)
    s.set_defaults(func=cmd_make_synth)

    s = sub.add_parser("degrade", help="bicubic-downsample a cube")
    s.add_argument("--in", dest="input", required=True)
    s.add_argument("--out", dest="output", required=True)
    s.add_argument("--factor", type=int, required=True)
    s.set_defaults(func=cmd_degrade)

    s = sub.add_parser("train", help="train a model on cube files")
    _add_model_flags(s)
    s.add_argument("--train-config", help="key=value training config file")
    s.add_argument("--data-dir", required=True)
    s.add_argument("--val-dir")
    s.add_argument("--out", required=True, help="output model container")
    s.add_argument("--seed", type=int)
    s.add_argument("--steps", dest="max_steps", type=int, metavar="STEPS")
    s.add_argument("--lr", type=float)
    s.add_argument("--patch", type=int)
    s.set_defaults(func=cmd_train)

    s = sub.add_parser(
        "sr-stream", help="stream a cube through a trained model, timing each line",
        description="Stream a cube line by line through a trained model; print per-line "
                    "timing and the lines that end after the next acquisition, one line per "
                    "--budget-ms. Without --out (the replay) no cube or manifest is written.")
    s.add_argument("--model", required=True)
    s.add_argument("--in", dest="input", required=True)
    s.add_argument("--out", dest="output",
                   help="write the SR cube here, and a manifest next to it")
    s.add_argument("--budget-ms", dest="budget_ms", type=float, default=PRISMA_LINE_MS,
                   help="line acquisition period in ms (default: PRISMA's %(default)s)")
    s.add_argument("--report", help="write per-line latency CSV here")
    s.set_defaults(func=cmd_sr_stream)

    s = sub.add_parser("eval", help="score a prediction against ground truth")
    s.add_argument("--pred", required=True)
    s.add_argument("--ref", required=True)
    s.add_argument("--factor", type=int, required=True)
    s.add_argument("--csv", help="append the result row to this file")
    s.add_argument("--dataset", default="")
    s.add_argument("--config-name", dest="config_name", default="")
    s.set_defaults(func=cmd_eval)

    s = sub.add_parser("profile", help="parameter/FLOPs/state accounting")
    _add_model_flags(s)
    s.add_argument("--width", type=int, default=PROFILE_WIDTH,
                   help="count one streamed line this many px wide; the count runs the "
                        "line (about 60 KB per px at full size, 149 MB at W = 2000)")
    s.set_defaults(func=cmd_profile)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except ContractError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONTRACT
    except NumericError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
