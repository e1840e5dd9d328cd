"""In-memory span tracing of dpsr's public functions, installed from outside.

A traced function is replaced, in every ``dpsr`` module namespace that
binds it, by a wrapper that records one span per call: name, start, end,
parent span and the phase and unit (line or step id) the caller set. Only
the names in TRACED are wrapped; tensor ops are left alone, so a block's
self time is the NumPy work it does and not the glue around ops.
"""

import json
import sys
import time
from collections import defaultdict

# (module, attribute path, span name). A span name shared by two functions
# (the two memory kinds) sums them.
TRACED = [
    ("dpsr.blocks", "sfe_forward", "blocks.sfe"),
    ("dpsr.blocks", "naf_forward", "blocks.naf"),
    ("dpsr.blocks", "upsample_line", "blocks.upsample"),
    ("dpsr.blocks", "bilinear_two_line", "blocks.bilinear"),
    ("dpsr.ssm", "mamba_step", "ssm.step"),
    ("dpsr.ssm", "causalconv_step", "ssm.step"),
    ("dpsr.ssm", "mamba_scan", "ssm.scan"),
    ("dpsr.ssm", "causalconv_scan", "ssm.scan"),
    ("dpsr.model", "dpsr_step", "model.step"),
    ("dpsr.model", "dpsr_forward_image", "model.forward_image"),
    ("dpsr.model", "load_params", "model.load"),
    ("dpsr.dataio", "read_cube", "dataio.read_cube"),
    ("dpsr.dataio", "bicubic_downsample", "dataio.bicubic"),
    ("dpsr.metrics", "evaluate", "metrics.evaluate"),
    ("dpsr.train", "loss_terms", "train.loss"),
    ("dpsr.train", "adam_step", "train.adam"),
    ("dpsr.tensor", "Tape.gradients", "tensor.backward"),
]

# span record layout
NAME, START, END, PARENT, PHASE, UNIT = range(6)


def _resolve(modname, path):
    owner = sys.modules[modname]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _bindings(original, attr, owner):
    """Every (namespace, name) that binds `original`: its defining class or
    module plus each dpsr module that imported it by name."""
    if isinstance(owner, type):
        return [(owner, attr)]
    found = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "dpsr" or modname.startswith("dpsr.")):
            continue
        for name, value in vars(mod).items():
            if value is original:
                found.append((mod, name))
    return found


class Tracer:
    """Records spans while installed and enabled.

    The caller sets `phase` and `unit` and switches `enabled`; a disabled
    wrapper only calls through, so ops can alternate traced and untraced.
    """

    def __init__(self):
        self.spans = []
        self.tape_nodes = []       # len(tape.nodes) at each Tape.gradients call
        self.phase = "setup"
        self.unit = -1
        self.enabled = True
        self._stack = []
        self._patches = []
        for modname, path, span_name in TRACED:
            owner, attr = _resolve(modname, path)
            original = getattr(owner, attr)
            wrapper = self._wrap(span_name, original, count_tape=path == "Tape.gradients")
            for ns, name in _bindings(original, attr, owner):
                self._patches.append((ns, name, original, wrapper))

    def _wrap(self, span_name, fn, count_tape=False):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if count_tape:
                self.tape_nodes.append(len(args[0].nodes))
            rec = [span_name, 0.0, 0.0, stack[-1] if stack else -1, self.phase, self.unit]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span_name)
        return wrapper

    def install(self):
        for ns, name, _, wrapper in self._patches:
            setattr(ns, name, wrapper)

    def uninstall(self):
        for ns, name, original, _ in reversed(self._patches):
            setattr(ns, name, original)

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, phase, unit) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "phase": phase,
                                     "unit": unit}) + "\n")


def self_times(spans):
    """Per-span self time in seconds: its duration minus the union of its
    direct children's intervals, clipped to its own interval."""
    children = defaultdict(list)
    for i, rec in enumerate(spans):
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append(i)
    out = []
    for i, rec in enumerate(spans):
        t0, t1 = rec[START], rec[END]
        covered, reach = 0.0, t0
        for c in sorted(children.get(i, ()), key=lambda j: spans[j][START]):
            lo = max(spans[c][START], reach)
            hi = min(spans[c][END], t1)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((t1 - t0) - covered)
    return out


def sum_by_name(spans, selves, keep, inclusive=False):
    """Seconds per span name over the spans `keep(record)` accepts."""
    totals = defaultdict(float)
    for rec, own in zip(spans, selves):
        if keep(rec):
            totals[rec[NAME]] += (rec[END] - rec[START]) if inclusive else own
    return totals
