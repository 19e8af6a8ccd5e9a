"""The sanitizer gate and the hook surface the instrumented layers call.

Everything in this module is built around one invariant: **the disabled
path must stay free**. :func:`get_sanitizer` returns ``None`` unless a
:class:`Sanitizer` has been installed (normally by
:func:`repro.sanitizer.schedule.explore` or :func:`use_sanitizer`), so
every instrumentation site in :mod:`repro.openmp`,
:mod:`repro.core.executor`, and the workloads is one module-global read
plus a ``None`` test — the same discipline as the disabled tracer and
the no-op fault plans, gated under 5% by the ``sanitizer_overhead``
gate in ``benchmarks/gates.py``.

A :class:`Sanitizer` bundles the two halves of the tool:

- the :class:`~repro.sanitizer.hb.HBDetector` (always on), and
- an optional :class:`~repro.sanitizer.schedule.CooperativeScheduler`.

With a scheduler (**explore** mode) instrumented thread teams are
serialized onto the chooser's deterministic interleaving; without one
(**observe** mode) threads run free on the OS schedule and only the
happens-before bookkeeping runs — cheap enough to leave on while
benchmarking, and still able to flag races the interleaving never
expressed.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from typing import Any, Callable, Hashable, Iterator

from repro.sanitizer.hb import MAIN_THREAD, HBDetector, RaceReport
from repro.sanitizer.schedule import CooperativeScheduler

__all__ = [
    "Sanitizer",
    "GuardedSection",
    "get_sanitizer",
    "set_sanitizer",
    "use_sanitizer",
    "annotate_read",
    "annotate_write",
    "preemption_point",
]


class _SanTeam:
    """Bookkeeping for one instrumented thread team (region or executor map)."""

    __slots__ = ("name", "tids", "parent", "scheduled", "barrier_state")

    def __init__(self, name: str, tids: list[str], parent: str, scheduled: bool) -> None:
        self.name = name
        self.tids = tids
        self.parent = parent
        self.scheduled = scheduled
        #: Cooperative-barrier generation/arrival tracking (explore mode).
        self.barrier_state: dict[str, Any] = {"gen": 0, "arrived": set()}


class GuardedSection:
    """An instrumented critical section (what ``ctx.critical`` returns when active).

    In explore mode the underlying OS lock is never touched: mutual
    exclusion is enforced by the cooperative scheduler (the acquiring
    thread blocks until the section is free), so a thread preempted
    *inside* the section can never wedge the real lock against the one
    thread allowed to run. In observe mode the real lock is taken and
    only the release/acquire clock edges are added.
    """

    __slots__ = ("_sanitizer", "_key", "_real")

    def __init__(self, sanitizer: "Sanitizer", key: Hashable, real_lock: Any) -> None:
        self._sanitizer = sanitizer
        self._key = key
        self._real = real_lock

    def __enter__(self) -> "GuardedSection":
        self._sanitizer.lock_acquire(self._key, self._real)
        return self

    def __exit__(self, *exc: Any) -> None:
        self._sanitizer.lock_release(self._key, self._real)


class Sanitizer:
    """One race-detection run: detector + (optionally) the schedule driver.

    Install with :func:`use_sanitizer`; the instrumented layers find it
    through :func:`get_sanitizer`. One sanitizer observes one body
    execution — create a fresh one per explored schedule (which
    :func:`repro.sanitizer.schedule.explore` does for you).
    """

    def __init__(self, *, chooser: Callable[[int, int], int] | None = None) -> None:
        self.detector = HBDetector()
        self.scheduler = CooperativeScheduler(chooser) if chooser is not None else None
        self._local = threading.local()
        self._team_counter = itertools.count()
        self._registry_guard = threading.Lock()
        self._cell_names: dict[int, str] = {}
        self._cell_refs: list[Any] = []
        self._hint_counts: dict[str, int] = {}
        self._lock_owners: dict[Hashable, list] = {}

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    @property
    def exploring(self) -> bool:
        """True when a cooperative scheduler drives the interleaving."""
        return self.scheduler is not None

    @property
    def races(self) -> tuple[RaceReport, ...]:
        return self.detector.races

    @property
    def scheduler_trace(self) -> tuple[tuple[int, int], ...]:
        """The ``(num_enabled, choice)`` decision trace (explore mode)."""
        return tuple(self.scheduler.trace) if self.scheduler is not None else ()

    def current_thread(self) -> str:
        """The calling thread's logical name (``"main"`` if unregistered)."""
        return getattr(self._local, "tid", None) or MAIN_THREAD

    def _is_scheduled(self) -> bool:
        return getattr(self._local, "scheduled", False)

    def cell_name(self, obj: Any, hint: str) -> str:
        """A stable cell name for ``obj`` within this sanitizer's run.

        Names are assigned in first-sighting order (``hint#0``,
        ``hint#1``, …) and the object is pinned for the sanitizer's
        lifetime so a recycled ``id()`` can never alias two cells.
        """
        with self._registry_guard:
            key = id(obj)
            name = self._cell_names.get(key)
            if name is None:
                count = self._hint_counts.get(hint, 0)
                self._hint_counts[hint] = count + 1
                name = f"{hint}#{count}"
                self._cell_names[key] = name
                self._cell_refs.append(obj)
            return name

    # ------------------------------------------------------------------
    # team lifecycle (called by parallel_region / ThreadExecutor)
    # ------------------------------------------------------------------
    def team_begin(self, num_threads: int, kind: str = "omp") -> _SanTeam:
        """Fork a logical team; returns the token the other hooks take.

        Teams forked from the driver thread in explore mode are
        cooperatively scheduled; teams forked from inside another team
        (nested regions) get happens-before edges only.
        """
        index = next(self._team_counter)
        name = f"{kind}{index}"
        parent = self.current_thread()
        tids = [f"{name}:t{i}" for i in range(num_threads)]
        scheduled = self.scheduler is not None and not self._is_scheduled() and parent == MAIN_THREAD
        for tid in tids:
            self.detector.fork(parent, tid)
        team = _SanTeam(name, tids, parent, scheduled)
        if scheduled:
            self.scheduler.add_team(tids)
        return team

    def thread_begin(self, team: _SanTeam, index: int) -> None:
        tid = team.tids[index]
        self._local.tid = tid
        self._local.scheduled = team.scheduled
        if team.scheduled:
            self.scheduler.thread_begin(tid)

    def thread_end(self, team: _SanTeam, index: int) -> None:
        try:
            if team.scheduled:
                self.scheduler.thread_end(team.tids[index])
        finally:
            self._local.tid = None
            self._local.scheduled = False

    def team_end(self, team: _SanTeam) -> None:
        """Join the team back into its parent (call after the real joins)."""
        for tid in team.tids:
            self.detector.join(team.parent, tid)
        if team.scheduled:
            self.scheduler.remove_team(team.tids)

    # ------------------------------------------------------------------
    # preemption + memory hooks
    # ------------------------------------------------------------------
    def yield_point(self) -> None:
        """Offer the scheduler a preemption opportunity (no-op unscheduled)."""
        if self._is_scheduled():
            self.scheduler.yield_point(self._local.tid)

    def mem_read(self, cell: str, label: str) -> None:
        """Annotated shared read: a preemption point plus an HB check."""
        tid = self.current_thread()
        if self._is_scheduled():
            self.scheduler.yield_point(tid)
        self.detector.read(str(cell), tid, label)

    def mem_write(self, cell: str, label: str) -> None:
        """Annotated shared write: a preemption point plus an HB check."""
        tid = self.current_thread()
        if self._is_scheduled():
            self.scheduler.yield_point(tid)
        self.detector.write(str(cell), tid, label)

    # ------------------------------------------------------------------
    # synchronization hooks
    # ------------------------------------------------------------------
    def guard(self, key: Hashable, real_lock: Any) -> GuardedSection:
        """The instrumented section for one lock identity."""
        return GuardedSection(self, key, real_lock)

    def lock_acquire(self, key: Hashable, real_lock: Any) -> None:
        tid = self.current_thread()
        if self._is_scheduled():
            owners = self._lock_owners

            def section_free() -> bool:
                owner = owners.get(key)
                return owner is None or owner[0] == tid

            self.scheduler.block_until(tid, section_free)
            owner = owners.get(key)
            if owner is not None and owner[0] == tid:
                owner[1] += 1  # reentrant re-acquire
            else:
                owners[key] = [tid, 1]
            self.detector.acquire(key, tid)
        else:
            real_lock.acquire()
            self.detector.acquire(key, tid)

    def lock_release(self, key: Hashable, real_lock: Any) -> None:
        tid = self.current_thread()
        self.detector.release(key, tid)
        if self._is_scheduled():
            owner = self._lock_owners.get(key)
            if owner is not None and owner[0] == tid:
                owner[1] -= 1
                if owner[1] == 0:
                    del self._lock_owners[key]
            self.scheduler.yield_point(tid)
        else:
            real_lock.release()

    def barrier_wait(self, team: _SanTeam, index: int, real_barrier: Any) -> None:
        """Team barrier: full clock sync, cooperative or two-phase real."""
        tid = team.tids[index]
        if team.scheduled:
            state = team.barrier_state
            generation = state["gen"]
            state["arrived"].add(tid)
            if len(state["arrived"]) == len(team.tids):
                self.detector.barrier_sync(team.tids)
                state["arrived"] = set()
                state["gen"] += 1
                self.scheduler.yield_point(tid)
            else:
                self.scheduler.block_until(tid, lambda: state["gen"] > generation)
        else:
            # Phase 1: everyone arrives; one thread merges the clocks;
            # phase 2 keeps anyone from racing ahead of the merge.
            if real_barrier.wait() == 0:
                self.detector.barrier_sync(team.tids)
            real_barrier.wait()


# ----------------------------------------------------------------------
# the gate
# ----------------------------------------------------------------------

_ACTIVE: Sanitizer | None = None


def get_sanitizer() -> Sanitizer | None:
    """The installed sanitizer, or ``None`` (the free hot-path default)."""
    return _ACTIVE


def set_sanitizer(sanitizer: Sanitizer | None) -> Sanitizer | None:
    """Install ``sanitizer`` process-wide; returns the previous one.

    Install/uninstall from the driver thread only, outside any
    instrumented region — flipping the gate mid-region would hand a
    team half-instrumented locks.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = sanitizer
    return previous


@contextmanager
def use_sanitizer(sanitizer: Sanitizer) -> Iterator[Sanitizer]:
    """Scoped :func:`set_sanitizer`: install for the block, restore after.

    >>> from repro.sanitizer import Sanitizer, use_sanitizer
    >>> with use_sanitizer(Sanitizer()) as san:
    ...     pass  # instrumented code here feeds san.detector
    >>> san.races
    ()
    """
    previous = set_sanitizer(sanitizer)
    try:
        yield sanitizer
    finally:
        set_sanitizer(previous)


def annotate_read(cell: str, label: str = "annotated-read") -> None:
    """Declare a shared-memory read at the call site (no-op when disabled)."""
    sanitizer = _ACTIVE
    if sanitizer is not None:
        sanitizer.mem_read(cell, label)


def annotate_write(cell: str, label: str = "annotated-write") -> None:
    """Declare a shared-memory write at the call site (no-op when disabled)."""
    sanitizer = _ACTIVE
    if sanitizer is not None:
        sanitizer.mem_write(cell, label)


def preemption_point() -> None:
    """Offer the schedule explorer a context-switch opportunity (no-op when disabled)."""
    sanitizer = _ACTIVE
    if sanitizer is not None:
        sanitizer.yield_point()
