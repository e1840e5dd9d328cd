"""Command-line parser defaults."""

import pytest

from dpsr.cli import build_parser
from dpsr.stream import PRISMA_LINE_MS


@pytest.mark.parametrize("argv", [
    ["sr-stream", "--model", "m.dpsrw", "--in", "lr.hsc", "--out", "sr.hsc"],
    ["simulate", "--model", "m.dpsrw", "--in", "lr.hsc"],
])
def test_budget_defaults_to_the_prisma_line_period(argv):
    args = build_parser().parse_args(argv)
    assert args.budget_ms == PRISMA_LINE_MS
    assert build_parser().parse_args(argv + ["--budget-ms", "2.5"]).budget_ms == 2.5
