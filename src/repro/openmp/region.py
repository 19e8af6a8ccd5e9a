"""Thread teams: the ``omp parallel`` construct.

:func:`parallel_region` forks a team, runs ``body(ctx, *args)`` on every
member, joins, and returns per-thread results. As in a real OpenMP
runtime, the team's threads are parked helpers reused from region to
region (:mod:`repro.util.team`), not fresh threads. The
:class:`TeamContext` passed to the body exposes the synchronization
constructs the assignments use; worksharing loops live in
:mod:`repro.openmp.loops` but are also reachable as
:meth:`TeamContext.for_range`.
"""

from __future__ import annotations

import functools
import itertools
import threading
from typing import Any, Callable, Iterator

from repro.sanitizer.runtime import get_sanitizer
from repro.util.partition import block_bounds
from repro.util.team import TeamBarrier, run_team
from repro.util.validation import require_positive_int

__all__ = ["TeamContext", "parallel_region"]


class _Team:
    """State shared by all members of one parallel region."""

    def __init__(self, num_threads: int) -> None:
        self.num_threads = num_threads
        self.barrier = TeamBarrier(num_threads)
        #: Sanitizer bindings: set by parallel_region when a sanitizer is
        #: installed, None on the free hot path.
        self.sanitizer = None
        self.san_team = None
        self._locks: dict[str, threading.RLock] = {}
        self._locks_guard = threading.Lock()
        self._single_counter = itertools.count()
        self._single_claims: dict[int, int] = {}
        self._single_guard = threading.Lock()
        self._dynamic_counters: dict[int, list[int]] = {}
        self._dynamic_guard = threading.Lock()

    def lock_named(self, name: str) -> threading.RLock:
        with self._locks_guard:
            if name not in self._locks:
                self._locks[name] = threading.RLock()
            return self._locks[name]


class TeamContext:
    """Per-thread view of a parallel region (what an OpenMP pragma sees)."""

    def __init__(self, team: _Team, thread_id: int) -> None:
        self._team = team
        self.thread_id = thread_id
        self.num_threads = team.num_threads
        self._single_seq = 0
        self._dynamic_seq = 0

    # -- synchronization ------------------------------------------------
    def barrier(self) -> None:
        """Block until every team member reaches this barrier."""
        team = self._team
        if team.san_team is not None:
            team.sanitizer.barrier_wait(team.san_team, self.thread_id, team.barrier)
        else:
            team.barrier.wait()

    def critical(self, name: str = "default"):
        """Named critical section: ``with ctx.critical("updates"): …``.

        Distinct names are independent locks, exactly like OpenMP's
        ``critical(name)`` — the first rung of the k-means ladder.
        Returns a context manager: the team's RLock, or (under an active
        sanitizer) the instrumented section that feeds release/acquire
        edges to the race detector and preemption points to the
        schedule explorer.
        """
        team = self._team
        real = team.lock_named(f"critical:{name}")
        if team.san_team is not None:
            return team.sanitizer.guard(f"{team.san_team.name}:critical:{name}", real)
        return real

    def master(self) -> bool:
        """True only on thread 0 (the ``omp master`` construct)."""
        return self.thread_id == 0

    def single(self) -> bool:
        """True for exactly one thread per *call site occurrence*.

        Each thread's n-th call to ``single()`` refers to the same
        logical block; the first thread to arrive claims it. Unlike the
        OpenMP construct there is no implied barrier — add
        :meth:`barrier` calls around it if all threads must wait.
        """
        seq = self._single_seq
        self._single_seq += 1
        with self._team._single_guard:
            if seq not in self._team._single_claims:
                self._team._single_claims[seq] = self.thread_id
                return True
            return self._team._single_claims[seq] == self.thread_id

    # -- worksharing ------------------------------------------------------
    def static_bounds(self, n: int) -> tuple[int, int]:
        """This thread's contiguous block of ``range(n)`` (static schedule)."""
        return block_bounds(n, self.num_threads, self.thread_id)

    def for_range(
        self, n: int, schedule: str = "static", chunk: int | None = None
    ) -> Iterator[int]:
        """Iterate this thread's share of ``range(n)`` under a schedule.

        ``static``: contiguous blocks, one per thread (deterministic);
        ``static-cyclic``: round-robin chunks of size ``chunk`` (default 1);
        ``dynamic``: threads grab chunks of ``chunk`` (default 1) from a
        shared counter as they finish — load-balancing, nondeterministic
        assignment;
        ``guided``: like dynamic but chunk sizes decay (remaining / team,
        floored at ``chunk``).

        Every thread of the team must call ``for_range`` the same number
        of times (the calls pair up by sequence, like worksharing
        constructs in OpenMP).
        """
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        if schedule == "static":
            lo, hi = self.static_bounds(n)
            yield from range(lo, hi)
        elif schedule == "static-cyclic":
            step = chunk or 1
            for start in range(self.thread_id * step, n, self.num_threads * step):
                yield from range(start, min(start + step, n))
        elif schedule in ("dynamic", "guided"):
            yield from self._scheduled(n, schedule, chunk or 1)
        else:
            raise ValueError(f"unknown schedule {schedule!r}")

    def _scheduled(self, n: int, schedule: str, min_chunk: int) -> Iterator[int]:
        seq = self._dynamic_seq
        self._dynamic_seq += 1
        team = self._team
        with team._dynamic_guard:
            counter = team._dynamic_counters.setdefault(seq, [0])
        while True:
            with team._dynamic_guard:
                start = counter[0]
                if start >= n:
                    break
                if schedule == "guided":
                    size = max((n - start) // self.num_threads, min_chunk)
                else:
                    size = min_chunk
                end = min(start + size, n)
                counter[0] = end
            yield from range(start, end)


def parallel_region(
    num_threads: int, body: Callable[..., Any], *args: Any, **kwargs: Any
) -> list[Any]:
    """Run ``body(ctx, *args, **kwargs)`` on a team of ``num_threads`` threads.

    Returns per-thread results in thread-id order. If any thread raises,
    the first exception (by thread id) propagates after the team joins.
    The team runs on parked helper threads (:func:`repro.util.team.run_team`),
    as a real OpenMP runtime keeps its threads between regions: a
    repeated region of the same size lands each thread id on the same
    helper, so :class:`~repro.openmp.ThreadPrivate` values persist.

    >>> parallel_region(3, lambda ctx: ctx.thread_id * 2)
    [0, 2, 4]
    """
    require_positive_int("num_threads", num_threads)
    team = _Team(num_threads)
    results: list[Any] = [None] * num_threads

    sanitizer = get_sanitizer()
    san_team = sanitizer.team_begin(num_threads, kind="omp") if sanitizer is not None else None
    team.sanitizer = sanitizer if san_team is not None else None
    team.san_team = san_team

    def member(tid: int) -> None:
        try:
            results[tid] = body(TeamContext(team, tid), *args, **kwargs)
        except BaseException:
            team.barrier.abort()
            raise

    if san_team is None:
        run = run_team(num_threads, member)
    else:
        run = run_team(num_threads, functools.partial(sanitizer.run_member, san_team, member))
        sanitizer.team_end(san_team)
    run.raise_first(ignore=threading.BrokenBarrierError)
    return results
