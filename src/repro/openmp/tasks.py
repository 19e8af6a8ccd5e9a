"""The OpenMP task model: ``task``, ``taskwait``, ``taskloop``.

Irregular parallelism — recursive decompositions, work whose size is
discovered while running — is expressed with *tasks* rather than loop
worksharing. :class:`TaskGroup` provides the teaching subset:

- :meth:`TaskGroup.submit` — ``#pragma omp task``: enqueue a deferred
  unit (including nested submissions from inside a task, the
  recursion case). Submitting only enqueues: OpenMP lets a deferred
  task wait for the next task scheduling point;
- :meth:`TaskGroup.taskwait` — the scheduling point: a team of
  ``num_threads`` members drains the queue, and the call returns once
  every submitted task (and its descendants) has finished; results
  come back in submission order;
- :func:`task_parallel` — run a producer that submits tasks, then
  drain them on the team.

The team is :func:`repro.util.team.run_team`'s parked helper threads,
so a ``taskwait`` starts no thread once the helpers are warm. Members
share one deque and a completion counter (work stealing is implicit,
since every member pops from the same queue) and sleep on a condition
until there is a task to run or nothing is left outstanding.
"""

from __future__ import annotations

import collections
import threading
from typing import Any, Callable

from repro.util.team import run_team
from repro.util.validation import require_positive_int

__all__ = ["TaskGroup", "task_parallel"]


class TaskGroup:
    """A queue of deferred tasks, drained by a thread team at ``taskwait``.

    Create it, submit work (from anywhere, including inside running
    tasks), and ``taskwait()``: ``num_threads`` members of a warm
    :func:`~repro.util.team.run_team` team run the tasks and return
    when none is left. :meth:`shutdown` (or leaving the group's
    ``with`` block) runs tasks still queued and refuses new ones.
    """

    def __init__(self, num_threads: int = 4) -> None:
        require_positive_int("num_threads", num_threads)
        self.num_threads = num_threads
        self._queue: collections.deque[tuple[int, Callable[[], Any]]] = collections.deque()
        self._results: dict[int, Any] = {}
        self._errors: list[BaseException] = []
        self._cond = threading.Condition()
        self._next_id = 0
        self._outstanding = 0
        self._shutdown = False

    # ------------------------------------------------------------------
    def _has_work_or_done(self) -> bool:
        return bool(self._queue) or not self._outstanding

    def _member(self, _index: int) -> None:
        """One team member: run queued tasks until none is outstanding."""
        cond = self._cond
        while True:
            with cond:
                cond.wait_for(self._has_work_or_done)
                if not self._queue:
                    return  # nothing outstanding: every task has finished
                task_id, fn = self._queue.popleft()
            try:
                result = fn()
            except BaseException as exc:  # noqa: BLE001 - surfaced at taskwait
                with cond:
                    self._errors.append(exc)
                    self._task_done()
            else:
                with cond:
                    self._results[task_id] = result
                    self._task_done()

    def _task_done(self) -> None:
        self._outstanding -= 1
        if not self._outstanding:
            self._cond.notify_all()  # idle members may leave

    def _drain(self, timeout: float | None) -> None:
        """Run the team until nothing is outstanding (or ``timeout``)."""
        with self._cond:
            if not self._outstanding:
                return
        if run_team(self.num_threads, self._member, timeout=timeout).running:
            raise TimeoutError(f"tasks still outstanding after {timeout}s")

    # ------------------------------------------------------------------
    def submit(self, fn: Callable[[], Any]) -> int:
        """Enqueue a task; returns its id (its index in taskwait order)."""
        with self._cond:
            if self._shutdown:
                raise RuntimeError("TaskGroup has been shut down")
            task_id = self._next_id
            self._next_id += 1
            self._outstanding += 1
            self._queue.append((task_id, fn))
            self._cond.notify()
        return task_id

    def taskwait(self, timeout: float = 60.0) -> list[Any]:
        """Run every submitted task to completion; results in submit order.

        Raises :class:`TimeoutError` if tasks are still outstanding after
        ``timeout`` seconds (the members running them finish them in the
        background), and otherwise the first task error, if any
        (clearing it, so the group stays usable).
        """
        self._drain(timeout)
        with self._cond:
            if self._errors:
                error = self._errors[0]
                self._errors.clear()
                raise error
            ordered = [self._results[i] for i in sorted(self._results)]
            self._results.clear()
            self._next_id = 0
            return ordered

    def shutdown(self) -> None:
        """Refuse new tasks and run the ones still queued."""
        with self._cond:
            self._shutdown = True
        self._drain(None)

    def __enter__(self) -> "TaskGroup":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()


def task_parallel(
    num_threads: int,
    producer: Callable[[Callable[[Callable[[], Any]], int]], None],
) -> list[Any]:
    """The single-producer pattern: master submits, the team drains.

    ``producer(submit)`` runs once (conceptually inside
    ``#pragma omp single``) and may call ``submit(fn)`` any number of
    times; results return in submission order.

    >>> task_parallel(3, lambda submit: [submit(lambda i=i: i * i) for i in range(4)] and None)
    [0, 1, 4, 9]
    """
    with TaskGroup(num_threads) as group:
        producer(group.submit)
        return group.taskwait()
