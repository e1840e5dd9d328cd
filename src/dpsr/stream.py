"""Pushbroom streaming harness: feed lines, time each step, audit state.

A stream holds its recurrent state plus the line in flight: `run_stream`
takes lines from any iterable (a `dataio.CubeReader` reads them from a
file one record at a time) and hands each line's high-res output to a
sink as it comes, so its memory does not grow with the image height.

The report keeps one (latency, state bytes) row per line, priming line
first; everything it prints and writes is read from those rows.

Memory is audited as the bytes of the recurrent state's arrays after each
line (`StreamState.nbytes()`), not by OS measurement; the constant-in-H
property is about state size, and allocator overhead would only blur it.
Those arrays are the ones `StreamState.arrays()` lists, which `dpsr
profile` measures one by one on the primed stream it counts. Latency is
wall-clock per line and is reported, never asserted: whether a machine
keeps up is a property of the machine, counted by `StreamReport.late_lines`.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, check_positive
from .model import dpsr_step

PRISMA_LINE_MS = 4.32          # VNIR line acquisition period


@dataclass
class StreamReport:
    budget_ms: float
    rows: list = field(default_factory=list)   # (latency_ms, state_bytes) per line, from 0

    def __post_init__(self):
        check_positive("budget_ms", self.budget_ms)

    @property
    def lines_processed(self):
        return len(self.rows)

    @property
    def first_line_ms(self):
        return self.rows[0][0] if self.rows else 0.0

    @property
    def latencies_ms(self):
        return [ms for ms, _ in self.rows[1:]]     # lines 1..H-1, which emit output

    @property
    def mean_ms(self):
        return float(np.mean(self.latencies_ms)) if self.latencies_ms else 0.0

    @property
    def p95_ms(self):
        return float(np.percentile(self.latencies_ms, 95)) if self.latencies_ms else 0.0

    @property
    def max_ms(self):
        return float(np.max(self.latencies_ms)) if self.latencies_ms else 0.0

    @property
    def state_bytes(self):
        return self.rows[-1][1] if self.rows else 0

    @property
    def late_lines(self):
        """Lines finished after the next acquisition, one line per budget.

        Line y is acquired at y * budget_ms and starts once it is acquired
        and line y-1 is done; it is late if it finishes after line y+1 is
        acquired. So a backlog makes fast lines late too, and a line slower
        than the budget is always late. The priming line is never counted.
        """
        done, late = self.first_line_ms, 0
        for y, ms in enumerate(self.latencies_ms, start=1):
            acquired = y * self.budget_ms
            done = max(done, acquired) + ms
            late += done > acquired + self.budget_ms
        return late

    def table(self):
        items = [
            ("lines processed", f"{self.lines_processed}"),
            ("budget", f"{self.budget_ms:.3f} ms/line"),
            ("first line (priming)", f"{self.first_line_ms:.3f} ms"),
            ("mean latency", f"{self.mean_ms:.3f} ms"),
            ("p95 latency", f"{self.p95_ms:.3f} ms"),
            ("max latency", f"{self.max_ms:.3f} ms"),
            ("late lines", f"{self.late_lines}"),
            ("state memory", f"{self.state_bytes:,} B"),
        ]
        width = max(len(k) for k, _ in items)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in items)

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("line_index,latency_ms,state_bytes\n")
            for i, (ms, nbytes) in enumerate(self.rows):
                fh.write(f"{i},{ms:.6f},{nbytes}\n")


def run_stream(lines, params, sink=None, budget_ms=PRISMA_LINE_MS):
    """Super-resolve an iterable of (W, C) low-res lines, one at a time.

    Each line's r high-res lines go to `sink(block)` as they come, if a sink
    is given, and are dropped otherwise; the stream holds its state and the
    line in flight, never the input or the output cube. Returns the report.
    """
    report = StreamReport(budget_ms=budget_ms)
    state = None
    for line in lines:
        t0 = time.perf_counter()
        sr, state = dpsr_step(line, params, state)
        report.rows.append(((time.perf_counter() - t0) * 1e3, state.nbytes()))
        if sr is not None and sink is not None:
            sink(sr)
    if report.lines_processed < 2:
        raise ContractError("streaming needs at least 2 lines")
    return report
