"""Wall-clock timing and scaling-study bookkeeping.

Per the optimization workflow in the course material this reproduction
follows ("no optimization without measuring"), every performance claim
in the benchmark harness is backed by a measured wall-clock time. The
:class:`ScalingStudy` record mirrors what the assignments ask students
to produce: times per worker count, plus derived speedup and efficiency
columns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

__all__ = ["Timer", "time_call", "interleaved_min", "ScalingStudy"]


class Timer:
    """Context-manager stopwatch measuring wall-clock seconds.

    One instance is safely reusable (sequential ``with`` blocks) and
    nestable (re-entering while already running): starts are kept on a
    stack, and ``elapsed`` always reports the most recently *completed*
    interval. Exiting a timer that was never entered raises
    ``RuntimeError`` instead of dying on an assert.

    >>> with Timer() as t:
    ...     _ = sum(range(1000))
    >>> t.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self._starts: list[float] = []
        self.elapsed: float = 0.0

    def __enter__(self) -> "Timer":
        self._starts.append(time.perf_counter())
        return self

    def __exit__(self, *exc: object) -> None:
        if not self._starts:
            raise RuntimeError("Timer.__exit__ without a matching __enter__")
        self.elapsed = time.perf_counter() - self._starts.pop()


def time_call(fn: Callable[..., Any], *args: Any, repeats: int = 1, **kwargs: Any) -> tuple[float, Any]:
    """Run ``fn`` ``repeats`` times; return (best wall-clock seconds, last result).

    Taking the best of several repeats filters scheduler noise, the same
    reason ``timeit`` reports a minimum.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    best = float("inf")
    result: Any = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - start)
    return best, result


def interleaved_min(
    runs: Mapping[str, Callable[[], Any]], *, repeats: int, inner: int = 1
) -> tuple[dict[str, float], dict[str, Any]]:
    """Time labelled runs round-robin; return (best seconds, last result) per label.

    Each of the ``repeats`` rounds times every run once, in the
    mapping's order, each timing being :func:`time_call` over ``inner``
    back-to-back calls. A transient machine slowdown then lands on every
    run alike, and the minimum across rounds is the least-noise estimator
    for a deterministic workload on a shared machine.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    best = dict.fromkeys(runs, float("inf"))
    last: dict[str, Any] = {}
    for _ in range(repeats):
        for label, run in runs.items():
            seconds, last[label] = time_call(run, repeats=inner)
            best[label] = min(best[label], seconds)
    return best, last


@dataclass
class ScalingStudy:
    """Accumulates (workers, seconds) measurements for a strong-scaling study.

    Speedup is computed against the 1-worker time when present, else
    against the smallest measured worker count.
    """

    name: str
    measurements: dict[int, float] = field(default_factory=dict)

    def record(self, workers: int, seconds: float) -> None:
        """Store the time for a worker count (keeps the minimum of repeats)."""
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        prev = self.measurements.get(workers)
        self.measurements[workers] = seconds if prev is None else min(prev, seconds)

    @property
    def baseline_workers(self) -> int:
        """Worker count used as the speedup baseline."""
        if not self.measurements:
            raise ValueError("no measurements recorded")
        return 1 if 1 in self.measurements else min(self.measurements)

    def speedup(self, workers: int) -> float:
        """Baseline time divided by the time at ``workers``."""
        base = self.measurements[self.baseline_workers]
        t = self.measurements.get(workers)
        if t is None:
            raise ValueError(
                f"no measurement recorded for {workers} workers "
                f"(recorded: {sorted(self.measurements)})"
            )
        return float("inf") if t == 0 else base / t

    def efficiency(self, workers: int) -> float:
        """Speedup divided by the worker-count ratio to baseline."""
        return self.speedup(workers) / (workers / self.baseline_workers)

    def rows(self) -> list[tuple[int, float, float, float]]:
        """Sorted (workers, seconds, speedup, efficiency) rows."""
        return [
            (w, self.measurements[w], self.speedup(w), self.efficiency(w))
            for w in sorted(self.measurements)
        ]

    def format_table(self) -> str:
        """Human-readable scaling table, as the assignments ask students to report."""
        lines = [f"{self.name}", f"{'workers':>8} {'seconds':>10} {'speedup':>8} {'eff':>6}"]
        for w, secs, sp, eff in self.rows():
            lines.append(f"{w:>8d} {secs:>10.4f} {sp:>8.2f} {eff:>6.2f}")
        return "\n".join(lines)

    def to_json(self) -> dict[str, Any]:
        """JSON-ready dict: name, baseline, and the full scaling rows.

        The machine-readable counterpart of :meth:`format_table`, used by
        the benchmark harness's ``BENCH_<name>.json`` reports.
        """
        return {
            "name": self.name,
            "baseline_workers": self.baseline_workers,
            "rows": [
                {"workers": w, "seconds": secs, "speedup": sp, "efficiency": eff}
                for w, secs, sp, eff in self.rows()
            ],
        }
