"""Run workloads over several seeds and report each end-to-end metric's spread.

    python3 bench/spread.py --seeds 1-10 --tag A
    python3 bench/spread.py --seeds 101 --repeat 5 --tag heldout --against bench/out/spread-A.json

Each run is a fresh `bench/run.py` process. For every workload and metric
the table shows the median, the quartile spread (q3 - q1) / median, and
the metric's bound from BENCHMARK.json; "steady" means the spread is below
a third of the bound. With --against, each median is also compared with
the median of an earlier set; then a median worse than the bound fails the
set, and the spread, which a few runs on one seed cannot estimate, does not.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def collect(workloads, seeds, repeat, seconds):
    values = {w: {} for w in workloads}
    for w in workloads:
        for seed in seeds:
            for _ in range(repeat):
                cmd = [sys.executable, str(BENCH / "run.py"), "--workload", w,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                      timeout=300)
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr)
                    raise SystemExit(f"{w} seed {seed} exited with {proc.returncode}")
                res = json.loads(proc.stdout.strip().splitlines()[-1])
                if not res["correct"]:
                    print(f"!! {w} seed {seed}: {res['failed']} of {res['attempted']} failed")
                for name, m in res["metrics"].items():
                    values[w].setdefault(name, []).append(m["value"])
                print(f"{w} seed {seed}: " + " ".join(
                    f"{n}={m['value']:.6g}" for n, m in res["metrics"].items()), flush=True)
    return values


def report(values, metrics, against=None):
    ok = True
    for w, per_metric in values.items():
        print(f"\n{w}")
        print(f"  {'metric':<14} {'median':>12} {'spread':>8} {'bound':>6}  verdict")
        for m in metrics:
            vals = per_metric[m["name"]]
            med = statistics.median(vals)
            spread = quartile_spread(vals) if len(vals) >= 2 and med else 0.0
            verdict = ("steady" if spread < m["bound"] / 3 else
                       "within bound" if spread <= m["bound"] else "TOO WIDE")
            if against is None and m["name"] != "setup_s" and spread > m["bound"]:
                ok = False
            line = f"  {m['name']:<14} {med:>12.6g} {spread:>8.4f} {m['bound']:>6}  {verdict}"
            if against is not None:
                base = statistics.median(against[w][m["name"]])
                worse = (med - base) / base if m["better"] == "lower" else (base - med) / base
                shift_ok = worse <= m["bound"]
                ok &= shift_ok
                line += f"  vs {base:.6g}: {worse:+.4f} {'ok' if shift_ok else 'WORSE'}"
            print(line)
    return ok


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    ap.add_argument("--repeat", type=int, default=1, help="runs per seed")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--tag", default="last")
    ap.add_argument("--against", help="an earlier spread-<tag>.json to compare medians with")
    args = ap.parse_args(argv)

    values = collect(args.workloads.split(","), parse_seeds(args.seeds), args.repeat,
                     args.seconds)
    out = BENCH / "out" / f"spread-{args.tag}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(values, indent=1))
    against = json.loads(Path(args.against).read_text()) if args.against else None
    ok = report(values, spec["end_to_end"], against)
    print(f"\nsaved {out.relative_to(ROOT)}; {'all within bounds' if ok else 'OUT OF BOUNDS'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
