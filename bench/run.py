"""Run one benchmark workload and print its metrics (see bench/README.md).

    python3 bench/run.py --workload stream_mamba_w250 --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from the repository root. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics. `--workload all` runs every workload, untraced and
traced, each in a fresh process.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

# Pinned before NumPy loads, so every run measures the same BLAS setup.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
CHILD_TIMEOUT_S = 300
IMPORT_REPS = 5
# direction of the printed figures, by unit; counts and the loss are context
FIGURE_BETTER = {"ms": "lower is better", "s": "lower is better",
                 "B": "lower is better", "1/s": "higher is better"}


def spec_file():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def import_program():
    """Import dpsr from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import dpsr
    if not Path(dpsr.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"dpsr imported from {dpsr.__file__}, not from {src}")
    import workloads
    return workloads


def import_seconds():
    """Median time a fresh interpreter takes to import NumPy and dpsr."""
    code = ("import time; t = time.perf_counter(); import dpsr.train, dpsr.profiler; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                             capture_output=True, text=True, timeout=60).stdout)
        for _ in range(IMPORT_REPS))


def git_commit():
    """HEAD of the checkout from .git files, or None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest():
    """sha256 over src/, which identifies the measured code without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(args, config):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "commit": git_commit(), "src_sha256": source_digest(),
        "config": config,
    }


def run_one(args, spec):
    workloads = import_program()
    import_s = import_seconds()
    names = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if tracer is not None:
            tracer.install()
        res = workloads.run(args.workload, args.seed, args.seconds, work,
                            tracer=tracer, import_s=import_s)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    missing = set(names) - set(res.metrics)
    if missing:
        raise SystemExit(f"workload did not produce {sorted(missing)}")
    env = environment(args, res.config)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write_jsonl(OUT / f"{tag}.spans.jsonl")
    result = {
        "correct": res.outcome.failed == 0,
        "attempted": res.outcome.attempted,
        "failed": res.outcome.failed,
        "metrics": {n: {"value": res.metrics[n], "unit": u} for n, u in names.items()},
    }
    with open(OUT / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "figures": res.figures,
                   "errors": res.outcome.errors, **result}, fh, indent=1)

    print("# environment " + json.dumps(env, sort_keys=True))
    for msg in res.outcome.errors:
        print(f"# failure: {msg}")
    print(f"# failed_frac {res.outcome.failed / res.outcome.attempted:.6g} "
          f"({res.outcome.failed} of {res.outcome.attempted} ops)")
    for n, (v, u) in res.figures.items():
        print(f"  {n:<24} {v:>16.6g} {u:<8} {FIGURE_BETTER.get(u, '')}")
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    for n, u in names.items():
        print(f"{n:<24} {res.metrics[n]:>16.6g} {u:<8} {better[n]} is better")
    print(json.dumps(result))
    return 0


def run_all(args, spec):
    """Every workload, untraced then traced, each in a fresh process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            print(f"## {name} trace={trace}", flush=True)
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{name} trace={trace} exited with {proc.returncode}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            merged["correct"] &= res["correct"]
            merged["attempted"] += res["attempted"]
            merged["failed"] += res["failed"]
            for n, m in res["metrics"].items():
                merged["metrics"][f"{name}.{n}"] = m
    print(json.dumps(merged))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = spec_file()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    known = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in known:
        ap.error(f"unknown workload {args.workload!r}; choose from {known} or all")
    return (run_all if args.workload == "all" else run_one)(args, spec)


if __name__ == "__main__":
    sys.exit(main())
