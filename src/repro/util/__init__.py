"""Shared utilities used by every substrate and assignment package.

The helpers here are deliberately small and dependency-free:

- :mod:`repro.util.partition` — block/cyclic index partitioning and the
  uneven task-to-node maps taught by the hyper-parameter-optimization
  assignment (paper §7).
- :mod:`repro.util.timing` — wall-clock timers and scaling-study records
  used by the benchmark harness.
- :mod:`repro.util.validation` — argument-checking helpers shared by the
  public APIs.
- :mod:`repro.util.backoff` — the shared deterministic retry-delay
  schedule (exponential envelope + seeded jitter) used by ``run_spmd``
  respawn, the Spark task-retry path, and the serve tier.
- :mod:`repro.util.team` — warm thread teams: the parked helper
  threads every OpenMP region, thread-executor map, SPMD run and
  Chapel task team runs on, and the lock-gate team barrier.
- :mod:`repro.util.tabular` — minimal CSV handling for point/label data
  (the kNN assignment's "early programming course" variant parses its
  database and queries from CSV, paper §2).
"""

from repro.util.backoff import BackoffPolicy
from repro.util.profiling import ProfileReport, profile_call
from repro.util.partition import (
    block_bounds,
    block_partition,
    block_size,
    cyclic_partition,
    distribute_tasks,
    owner_of,
)
from repro.util.timing import ScalingStudy, Timer, time_call
from repro.util.validation import (
    require_in_range,
    require_nonnegative_int,
    require_positive_int,
    require_probability,
)

__all__ = [
    "BackoffPolicy",
    "block_bounds",
    "block_partition",
    "block_size",
    "cyclic_partition",
    "distribute_tasks",
    "owner_of",
    "ProfileReport",
    "profile_call",
    "ScalingStudy",
    "Timer",
    "time_call",
    "require_in_range",
    "require_nonnegative_int",
    "require_positive_int",
    "require_probability",
]
