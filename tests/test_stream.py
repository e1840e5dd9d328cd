"""Streaming state accounting, the stream report and its late-line count."""

import types

import numpy as np
import pytest

from dpsr import stream
from dpsr.dataio import HsiCube
from dpsr.errors import ContractError
from dpsr.model import MEMORY_KINDS, DpsrConfig, DpsrParams, dpsr_step
from dpsr.profiler import profile
from dpsr.stream import StreamReport, run_stream


# kernel_lines 1 has an empty conv tail: a 0 B row in the accounting
@pytest.mark.parametrize("kernel_lines", [3, 1])
@pytest.mark.parametrize("kind", MEMORY_KINDS)
def test_state_accounting_matches_real_state_and_is_constant(kind, kernel_lines):
    cfg = DpsrConfig(bands=4, features=8, up_features=4, state_size=4,
                     kernel_lines=kernel_lines, memory_kind=kind)
    params = DpsrParams.init(cfg, seed=0)
    width = 6
    expected = profile(cfg, width).state_bytes
    cube = np.random.default_rng(0).random((20, width, 4)).astype(np.float32)
    state, sizes = None, {}
    for y, line in enumerate(cube, start=1):
        _, state = dpsr_step(line, params, state)
        sizes[y] = state.nbytes()
    assert sizes[2] == sizes[20] == expected
    # (K-1) conv tail lines per block, plus the latent when selective
    per_block = (cfg.kernel_lines - 1) * width * cfg.expand * cfg.features * 4
    if kind == "mamba":
        per_block += width * cfg.expand * cfg.features * cfg.state_size * 4
    assert expected == cfg.n_clff * per_block + width * cfg.bands * 4


def report(first_ms, latencies_ms, budget_ms=2.0):
    return StreamReport(budget_ms=budget_ms, rows=[(ms, 0) for ms in [first_ms, *latencies_ms]])


def test_backlog_makes_fast_lines_late():
    # budget 2: line y is acquired at 2y and due by 2y + 2
    #   line 1: starts 2, done 7 > 4 late
    #   line 2: 1 ms, but starts 7, done 8 > 6 late
    #   line 3: starts 8, done 9 > 8 late
    #   line 4: starts 9, done 10, on time (not after 10)
    assert report(1.0, [5.0, 1.0, 1.0, 1.0]).late_lines == 3


def test_no_line_late_when_each_fits_its_period():
    # each line finishes exactly as the next one is acquired
    assert report(0.5, [2.0, 2.0, 2.0]).late_lines == 0
    assert report(0.5, [1.5, 0.1, 1.9]).late_lines == 0


def test_a_line_slower_than_the_budget_is_always_late():
    latencies = np.random.default_rng(0).exponential(2.0, size=(200, 12))
    for first, *rest in latencies:
        rep = report(first, rest)
        assert rep.late_lines >= sum(ms > rep.budget_ms for ms in rest)


@pytest.mark.parametrize("budget", [0.0, -1.0, float("nan"), True])
def test_budget_must_be_positive(budget):
    with pytest.raises(ContractError):
        report(0.5, [1.0], budget)


# wall-clock ms of lines 0..6 under the fake clock below; at a 4 ms budget
# three are slower than the budget, and the 10 ms priming line's backlog
# makes all six late
LINE_MS = [10.0, 1.0, 5.0, 2.0, 6.0, 3.0, 7.0]


@pytest.fixture
def timed_stream(monkeypatch):
    """run_stream over 7 lines whose step latencies read LINE_MS."""
    stamps = []
    for y, ms in enumerate(LINE_MS):
        stamps += [100.0 * y, 100.0 * y + ms / 1e3]
    clock = iter(stamps)
    monkeypatch.setattr(stream, "time", types.SimpleNamespace(perf_counter=lambda: next(clock)))
    cfg = DpsrConfig(bands=4, features=8, up_features=4, state_size=4)
    cube = HsiCube(data=np.random.default_rng(1).random((len(LINE_MS), 5, 4)))
    blocks = []
    rep = run_stream(cube.data, DpsrParams.init(cfg, seed=0), sink=blocks.append, budget_ms=4.0)
    return cfg, (np.concatenate(blocks), rep)


def test_stream_report_counts_lines_and_late_lines(timed_stream):
    cfg, (sr, rep) = timed_stream
    assert sr.shape == ((len(LINE_MS) - 1) * cfg.scale, 5 * cfg.scale, 4)
    assert rep.lines_processed == len(LINE_MS)
    assert rep.first_line_ms == pytest.approx(LINE_MS[0])
    assert rep.latencies_ms == pytest.approx(LINE_MS[1:])
    assert rep.late_lines == 6
    assert "\nlate lines            6\n" in rep.table()


def test_stream_report_csv_has_one_row_per_line_and_constant_state(timed_stream, tmp_path):
    cfg, (_, rep) = timed_stream
    path = tmp_path / "lines.csv"
    rep.write_csv(path)
    header, *rows = path.read_text().splitlines()
    assert header == "line_index,latency_ms,state_bytes"
    assert len(rows) == len(LINE_MS)
    cells = [row.split(",") for row in rows]
    assert [int(c[0]) for c in cells] == list(range(len(LINE_MS)))
    assert [float(c[1]) for c in cells] == pytest.approx(LINE_MS)
    assert {int(c[2]) for c in cells} == {profile(cfg, 5).state_bytes}


def test_a_hand_built_report_writes_one_csv_row_per_line(tmp_path):
    # with the priming line and the state kept apart, this wrote 1 row or raised IndexError
    rep = StreamReport(budget_ms=1.0, rows=[(0.5, 5), (1.0, 5), (2.0, 5)])
    assert "lines processed       3\n" in rep.table()
    rep.write_csv(tmp_path / "lines.csv")
    assert (tmp_path / "lines.csv").read_text().splitlines() == [
        "line_index,latency_ms,state_bytes", "0,0.500000,5", "1,1.000000,5", "2,2.000000,5"]


def test_a_stream_of_one_line_is_rejected():
    params = DpsrParams.init(DpsrConfig(bands=4, features=8, up_features=4, state_size=4),
                             seed=0)
    with pytest.raises(ContractError, match="streaming needs at least 2 lines"):
        run_stream(np.zeros((1, 5, 4), np.float32), params)
