"""Parameter / FLOPs / state-memory accounting for one streamed line.

FLOPs are counted, not restated: `profile` runs one `dpsr_step` of a
(W, C) line of zero parameters under one `tensor.counting()`, on a stream
primed by construction (a zero previous line, so no priming line runs).
`model._forward`, the one place that states the block order, runs each
block inside `tensor.named(<block>)` with its `DpsrParams.named_tensors()`
prefix, so every op is reported as `<block>.<op>` in the order the blocks
ran. The counting conventions live in the ops (see `tensor.counting`). A
profiled line is one streamed line, so it includes work paid once per
call, such as the composed upsampler's weight build; the bilinear base
and the residual add over it are not tensor ops and are not counted.
Both FLOP densities are reported: "per input pixel" divides one line's
cost by W, "per input sample" by W*C as well, because published
complexity tables rarely say which denominator they use.

Parameter counts are the sizes of `DpsrParams.named_tensors()`, grouped
by block (a tensor name up to its last dot). The streaming state is
measured, not restated: one row per array `StreamState.arrays()` lists on
the primed stream the line ran from, with its bytes, which sum to what
`StreamState.nbytes()` reports for a running stream.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .errors import positive_int
from .model import DpsrParams, dpsr_step, init_stream


@dataclass
class CostItem:
    name: str        # <block>.<op>
    flops: int       # per input line


@dataclass
class CostReport:
    config: "DpsrConfig"
    width: int
    items: list
    params: list     # (block, parameter count) per block
    state: list      # (label, bytes) per streaming-state array

    @property
    def state_bytes(self):
        return sum(nbytes for _, nbytes in self.state)

    @property
    def param_count(self):
        return sum(n for _, n in self.params)

    @property
    def flops_per_line(self):
        return sum(i.flops for i in self.items)

    @property
    def flops_per_input_pixel(self):
        return self.flops_per_line / self.width

    @property
    def flops_per_input_sample(self):
        return self.flops_per_line / (self.width * self.config.bands)

    def table(self):
        lines = [f"{'block.op':<30} {'flops/line':>14}"]
        lines += [f"{i.name:<30} {i.flops:>14,}" for i in self.items]
        lines.append(f"{'total':<30} {self.flops_per_line:>14,}")
        lines.append("")
        lines.append(f"FLOPs per input pixel  (/W):   {self.flops_per_input_pixel:,.0f}")
        lines.append(f"FLOPs per input sample (/W/C): {self.flops_per_input_sample:,.0f}")
        lines.append("")
        lines.append("parameters:")
        lines += [f"  {block:<28} {n:>12,}" for block, n in self.params]
        lines.append(f"  {'total':<28} {self.param_count:>12,}")
        lines.append("")
        lines.append("streaming state:")
        lines += [f"  {label:<28} {nbytes:>12,} B" for label, nbytes in self.state]
        lines.append(f"  {'total':<28} {self.state_bytes:>12,} B")
        return "\n".join(lines)

    def row(self):
        return (f"{self.config.features},{self.config.bands},{self.config.scale},"
                f"{self.config.memory_kind},{self.param_count},"
                f"{self.flops_per_input_pixel:.1f},{self.flops_per_input_sample:.1f},"
                f"{self.state_bytes}")

    @staticmethod
    def row_header():
        return ("features,bands,scale,memory,params,"
                "flops_per_px,flops_per_sample,state_bytes")


PROFILE_WIDTH = 32     # px of the line `profile` counts by default


def profile(config, width=PROFILE_WIDTH):
    """Count one streamed line of `width` px: one `dpsr_step` of a primed stream.

    The count runs that line, so it costs what one line at that width does:
    about 60 KB per px at full size, 149 MB at W = 2000.
    """
    width = positive_int("width", width)
    params = DpsrParams.zeros(config)
    line = np.zeros((width, config.bands), dtype=np.float32)
    primed = replace(init_stream(params, width), prev_line=line, lines_consumed=1)
    with T.counting() as tally:
        dpsr_step(line, params, primed)
    sizes = {}
    for name, t in params.named_tensors():
        block = name.rpartition(".")[0]
        sizes[block] = sizes.get(block, 0) + t.size
    return CostReport(config=config, width=width,
                      items=[CostItem(name, flops) for name, flops in tally.items()],
                      params=list(sizes.items()),
                      state=[(label, a.nbytes) for label, a in primed.arrays()])
