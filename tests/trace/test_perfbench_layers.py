"""The benchmark's per-layer fold (``perfbench/layers.py``) on synthetic lanes.

Each instant of a traced request goes to the deepest span kind open in
any lane; kinds of equal depth split it evenly. These tests pin that
rule on hand-built spans whose edges are exact binary fractions, so
"sums to the window" is checked with ``==``, not a tolerance.
"""

import sys
from pathlib import Path
from typing import NamedTuple

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "perfbench"))

from layers import Kind, attribute, classify  # noqa: E402

HARNESS = Kind(0, "harness", "harness")


class Span(NamedTuple):
    """The four fields ``attribute`` reads from a trace event, plus its phase."""

    category: str
    name: str
    start: float
    duration: float
    phase: str = "X"


def request(start, end):
    return Span("bench.request", "request", start, end - start)


def test_kinds_sum_exactly_to_the_window():
    events = [
        request(0.0, 8.0),
        Span("bench.call", "align/openmp", 0.5, 7.0),
        Span("align", "align.score", 1.0, 5.0),        # lane 1
        Span("runtime", "spmd", 2.0, 4.0),             # lane 2, overlaps lane 1
        Span("mpi.p2p", "send", 2.5, 0.25),
        Span("mpi.p2p", "recv", 2.625, 0.5),           # another rank, overlapping
        Span("executor", "map", 7.0, 3.0),             # runs past the window
        Span("align", "align.diagonal", 3.0, 0.0, phase="i"),  # instants carry no time
    ]
    seconds = attribute(events, 0.0, 8.0)
    assert sum(seconds.values()) == 8.0
    # Two overlapping lanes of one kind count its wall time once.
    assert seconds[Kind(6, "mpi", "transport")] == 0.625  # [2.5, 3.125], not 0.25 + 0.5
    # Clipped to the window: only [7, 8] of the executor map counts.
    assert seconds[Kind(4, "executor", "transport")] == 1.0


def test_a_deeper_kind_hides_a_shallower_one():
    call = Span("bench.call", "kmeans/openmp", 0.0, 4.0)
    task = Span("spark", "task", 1.0, 2.0)
    seconds = attribute([request(0.0, 4.0), call, task], 0.0, 4.0)
    assert classify(call.category, call.name) == Kind(1, "kmeans", "kernel")
    assert seconds == {Kind(1, "kmeans", "kernel"): 2.0, Kind(5, "spark", "kernel"): 2.0}
    assert HARNESS not in seconds  # the call covers the whole request


def test_equal_depth_kinds_split_time_evenly():
    align = Span("align", "align.score", 0.0, 4.0)
    task = Span("spark", "task", 2.0, 4.0)
    assert classify(align.category, align.name).depth == classify(task.category, task.name).depth
    seconds = attribute([request(0.0, 8.0), align, task], 0.0, 8.0)
    # [2, 4] is shared: one second each on top of each span's own two.
    assert seconds == {
        Kind(5, "align", "kernel"): 3.0,
        Kind(5, "spark", "kernel"): 3.0,
        HARNESS: 2.0,
    }
