"""Deterministic race detection + schedule exploration for the shared-memory layers.

The k-means assignment (paper §3) teaches the race → critical → atomic
→ reduction repair ladder, but a race that only *sometimes* corrupts a
counter is a miserable teaching (and production) artifact. This package
turns "the GIL happened to interleave badly" into a tool with two
halves, the same shape as TSan over a deterministic-replay harness:

- :mod:`repro.sanitizer.hb` — a vector-clock **happens-before
  detector**: per-thread clocks, release/acquire edges fed by the
  instrumented ``Lock``/``Atomic``/``barrier``/``critical`` wrappers in
  :mod:`repro.openmp` and the ``thread`` executor backend, and per-cell
  shadow state that reports any conflicting, unordered access pair as a
  :class:`RaceReport` — whether or not this run corrupted anything.
- :mod:`repro.sanitizer.schedule` — a **cooperative schedule
  explorer**: instrumented teams are serialized onto interleavings
  chosen by seeded ``repro.rng.lcg`` streams (plus a bounded DFS mode),
  so :func:`explore` certifies a body over N schedules and any finding
  replays **bit-identically** from its ``(seed, schedule_id)``.

Everything is off by default: :func:`get_sanitizer` returns ``None`` on
the hot path (overhead gated <5% by the ``sanitizer_overhead`` gate in
``benchmarks/gates.py``), and races surface through
:mod:`repro.trace` instants plus the plain-text reports in
:mod:`repro.sanitizer.report`. See docs/sanitizer.md for the model, the
replay workflow, and how to read a report.
"""

from repro.sanitizer.hb import (
    HBDetector,
    MemoryAccess,
    RaceError,
    RaceReport,
    VectorClock,
)
from repro.sanitizer.report import (
    emit_trace_instants,
    format_outcome,
    format_race,
    format_result,
    write_report,
)
from repro.sanitizer.runtime import (
    GuardedSection,
    Sanitizer,
    annotate_read,
    annotate_write,
    get_sanitizer,
    preemption_point,
    set_sanitizer,
    use_sanitizer,
)
from repro.sanitizer.schedule import (
    CooperativeScheduler,
    ExplorationResult,
    PrefixChooser,
    RandomChooser,
    ScheduleDeadlockError,
    ScheduleOutcome,
    explore,
    explore_dfs,
    run_schedule,
    schedule_stream,
)

__all__ = [
    # detector
    "VectorClock",
    "MemoryAccess",
    "RaceReport",
    "RaceError",
    "HBDetector",
    # runtime gate + hooks
    "Sanitizer",
    "GuardedSection",
    "get_sanitizer",
    "set_sanitizer",
    "use_sanitizer",
    "annotate_read",
    "annotate_write",
    "preemption_point",
    # schedule exploration
    "CooperativeScheduler",
    "RandomChooser",
    "PrefixChooser",
    "ScheduleDeadlockError",
    "ScheduleOutcome",
    "ExplorationResult",
    "schedule_stream",
    "run_schedule",
    "explore",
    "explore_dfs",
    # reporting
    "format_race",
    "format_outcome",
    "format_result",
    "write_report",
    "emit_trace_instants",
]
