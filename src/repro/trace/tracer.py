"""The tracer: structured span/instant events with a deterministic logical clock.

Observability for parallel programs has two halves the repo previously
kept apart: *what happened* (message counts, shuffle volumes) and *when*
(wall-clock timelines showing imbalance and waiting). A
:class:`Tracer` records both at once. Every event carries

- a wall-clock ``start``/``duration`` (``time.perf_counter`` seconds),
  for timelines and Chrome trace viewing, and
- a **logical clock**: a per-scope sequence number assigned in program
  order. Wall-clock times differ run to run; the logical sequence of a
  deterministic program does not. :meth:`Tracer.logical_sequence`
  returns the canonical ``(scope, seq, name, category, phase)`` tuple —
  bit-identical across runs at a fixed seed/size, the same discipline as
  the repo's reproducible PRNG streams and seeded fault plans.

A *scope* is one deterministic lane of execution — an SPMD rank
(``rank3``), a Spark partition (``spark.p2``), or the driver thread
(``main``). Scopes are thread-local and inherited: :func:`run_spmd`
enters ``tracer.scope("rank<r>")`` around each rank function, so any
instrumented workload code running on that rank lands in the rank's
lane without plumbing a tracer through every call.

The default tracer is **disabled** (:data:`get_tracer` returns a
module-level no-op). Instrumentation sites are gated on
``tracer.enabled`` or use :meth:`Tracer.span`, whose disabled path
returns one shared no-op context manager — the overhead budget is held
under 5% by the ``trace_overhead`` gate in ``benchmarks/gates.py``,
exactly like the fault layer's hot-path gate.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.trace.metrics import MetricsRegistry

__all__ = [
    "TraceEvent",
    "Tracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "use_tracer",
]

#: Default scope for events recorded outside any ``tracer.scope(...)``.
DEFAULT_SCOPE = "main"


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event: a completed span (``phase="X"``) or an instant (``"i"``).

    ``start`` is in ``time.perf_counter`` seconds (monotonic, arbitrary
    origin); ``seq`` is the event's position on its scope's logical
    clock, assigned at span *entry* so nesting preserves program order.
    ``args`` is a sorted tuple of (key, value) pairs, hashable whenever
    the values are.
    """

    name: str
    category: str
    scope: str
    phase: str
    start: float
    duration: float
    seq: int
    args: tuple[tuple[str, Any], ...] = ()

    @property
    def end(self) -> float:
        """Wall-clock end of the event (== start for instants)."""
        return self.start + self.duration


class _NoopSpan:
    """Shared do-nothing span for disabled tracers (reusable, stateless)."""

    __slots__ = ()
    duration = 0.0
    start = 0.0

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


class _Span:
    """An open span: seq taken at entry, event recorded at exit.

    The event is recorded even when the body raises — the exception type
    is appended to ``args`` as ``error`` so a crash is visible on the
    timeline at the operation where it fired.
    """

    __slots__ = ("_tracer", "_name", "_category", "_scope", "_args", "_seq", "start", "duration")

    def __init__(self, tracer: "Tracer", name: str, category: str, scope: str, args: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._category = category
        self._scope = scope
        self._args = args
        self.start = 0.0
        self.duration = 0.0

    def __enter__(self) -> "_Span":
        self._seq = self._tracer._next_seq(self._scope)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type: type | None, *exc: object) -> None:
        self.duration = time.perf_counter() - self.start
        args = dict(self._args)
        if exc_type is not None:
            args["error"] = exc_type.__name__
        self._tracer._append(
            TraceEvent(
                name=self._name,
                category=self._category,
                scope=self._scope,
                phase="X",
                start=self.start,
                duration=self.duration,
                seq=self._seq,
                args=tuple(sorted(args.items())),
            )
        )


class Tracer:
    """Process-wide, thread-safe span/instant recorder plus metrics registry.

    One tracer observes one run: pass it to ``run_spmd(..., tracer=...)``
    or install it as the process default with :func:`use_tracer`. All
    mutators are safe to call from any rank/worker thread.
    """

    def __init__(self, *, enabled: bool = True) -> None:
        self._enabled = enabled
        self._lock = threading.Lock()
        self._events: list[TraceEvent] = []
        self._seqs: dict[str, int] = {}
        self._local = threading.local()
        #: Counters/gauges/histograms recorded alongside the events.
        self.metrics = MetricsRegistry()

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """False for the no-op default; instrumentation gates on this."""
        return self._enabled

    def clear(self) -> None:
        """Drop all events, logical clocks, and metrics (between runs)."""
        with self._lock:
            self._events.clear()
            self._seqs.clear()
        self.metrics.clear()

    # ------------------------------------------------------------------
    # scopes (thread-local lanes)
    # ------------------------------------------------------------------
    @property
    def current_scope(self) -> str:
        """The calling thread's scope (``"main"`` outside any ``scope()``)."""
        return getattr(self._local, "scope", None) or DEFAULT_SCOPE

    @contextmanager
    def scope(self, name: str) -> Iterator[None]:
        """Route this thread's events to lane ``name`` for the block."""
        prev = getattr(self._local, "scope", None)
        self._local.scope = name
        try:
            yield
        finally:
            self._local.scope = prev

    def _next_seq(self, scope: str) -> int:
        with self._lock:
            seq = self._seqs.get(scope, 0)
            self._seqs[scope] = seq + 1
            return seq

    def _append(self, event: TraceEvent) -> None:
        with self._lock:
            self._events.append(event)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def span(self, name: str, *, category: str = "app", scope: str | None = None, **args: Any):
        """A context manager timing one operation as a complete event.

        Disabled tracers return a shared no-op, so unconditional
        ``with tracer.span(...):`` at a call site costs one method call
        on the hot path.
        """
        if not self._enabled:
            return _NOOP_SPAN
        return _Span(self, name, category, scope or self.current_scope, args)

    def instant(self, name: str, *, category: str = "app", scope: str | None = None, **args: Any) -> None:
        """Record a zero-duration event (a message post, a fault firing)."""
        if not self._enabled:
            return
        scope = scope or self.current_scope
        self._append(
            TraceEvent(
                name=name,
                category=category,
                scope=scope,
                phase="i",
                start=time.perf_counter(),
                duration=0.0,
                seq=self._next_seq(scope),
                args=tuple(sorted(args.items())),
            )
        )

    def complete(
        self,
        name: str,
        start: float,
        duration: float,
        *,
        category: str = "app",
        scope: str | None = None,
        **args: Any,
    ) -> None:
        """Record an already-measured span (for pre-timed operations)."""
        if not self._enabled:
            return
        scope = scope or self.current_scope
        self._append(
            TraceEvent(
                name=name,
                category=category,
                scope=scope,
                phase="X",
                start=start,
                duration=duration,
                seq=self._next_seq(scope),
                args=tuple(sorted(args.items())),
            )
        )

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def events(self) -> list[TraceEvent]:
        """A snapshot copy of all recorded events (append order)."""
        with self._lock:
            return list(self._events)

    def logical_sequence(self) -> tuple[tuple[str, int, str, str, str], ...]:
        """The canonical event order: ``(scope, seq, name, category, phase)``.

        Sorted by (scope, seq) — each scope's logical clock is assigned
        in that lane's program order, so for a deterministic workload
        this tuple is **bit-identical across runs** regardless of how
        the OS interleaved the threads. Wall-clock fields and args are
        deliberately excluded.
        """
        with self._lock:
            rows = [(e.scope, e.seq, e.name, e.category, e.phase) for e in self._events]
        return tuple(sorted(rows))

    def scopes(self) -> list[str]:
        """All scopes that recorded at least one event, sorted."""
        with self._lock:
            return sorted({e.scope for e in self._events})

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def __repr__(self) -> str:
        state = "enabled" if self._enabled else "disabled"
        return f"Tracer({state}, {len(self)} events)"


#: The module-level default: a disabled tracer whose every hook is a no-op.
NULL_TRACER = Tracer(enabled=False)

_active = NULL_TRACER
_active_lock = threading.Lock()


def get_tracer() -> Tracer:
    """The process-wide active tracer (the disabled :data:`NULL_TRACER` by default)."""
    return _active


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the process default; returns the previous one."""
    global _active
    with _active_lock:
        previous = _active
        _active = tracer
        return previous


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Scoped :func:`set_tracer`: install for the block, restore after.

    >>> from repro.trace import Tracer, use_tracer
    >>> with use_tracer(Tracer()) as t:
    ...     pass  # instrumented code here records into t
    """
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
