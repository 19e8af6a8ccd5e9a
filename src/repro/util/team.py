"""Warm thread teams: parked helper threads and a lock-gate barrier.

Every thread team in the reproduction — an OpenMP parallel region, a
thread-executor map, the ranks of an SPMD run, a Chapel ``forall`` or
``coforall`` — is launched by :func:`run_team`. Real OpenMP runtimes
keep their team threads parked between regions instead of starting and
joining a fresh team each time; this module does the same:

- a helper thread, once started, parks on its own lock between jobs;
- a launch takes idle helpers in a stable order (the last ``n`` that
  went idle, so member ``i`` of a repeated team lands on the same
  helper) and starts new ones only when too few are idle. A nested or
  concurrent team therefore never waits for a busy helper, which keeps
  every launch as deadlock-free as a fresh team was;
- each member's exception, ``BaseException`` included, is caught and
  handed back in :attr:`TeamRun.errors`, so a helper never dies holding
  a job;
- a forked child forgets the parent's helpers (they do not exist in
  the child) and starts its own;
- a helper thread is a *worker* (:func:`in_worker`) for its whole
  life, as is any thread that calls :func:`become_worker` (the job
  service's workers). A thread-executor map issued on a worker runs its
  tasks inline (one level of fan-out, OpenMP's default
  ``max-active-levels``); teams whose members synchronize — regions,
  SPMD ranks, Chapel tasks — still launch from anywhere.

:class:`TeamBarrier` is ``threading.Barrier``'s ``wait``/``abort``
contract on one guard lock plus one gate lock per waiter: the last
arrival opens the gates directly instead of notifying a ``Condition``.

This module imports nothing from ``repro``.
"""

from __future__ import annotations

import itertools
import os
import threading
from typing import Any, Callable

__all__ = ["TeamBarrier", "TeamRun", "become_worker", "in_worker", "run_team"]


#: ``_role.worker`` is True on a worker thread (see :func:`in_worker`).
_role = threading.local()


def become_worker() -> None:
    """Mark the calling thread as a worker for the rest of its life."""
    _role.worker = True


def in_worker() -> bool:
    """True on a worker thread: a team helper or a :func:`become_worker` caller.

    >>> in_worker()
    False
    >>> run_team(1, lambda i: print(in_worker())).errors
    True
    [None]
    """
    return getattr(_role, "worker", False)


class TeamRun:
    """One launch of :func:`run_team`: the members' errors and stragglers.

    ``errors[i]`` is the exception member ``i`` raised, or None.
    ``running`` lists the members still running when the caller last
    stopped waiting (empty unless a ``timeout`` expired).
    """

    def __init__(self, fn: Callable[[int], Any], n: int) -> None:
        self.errors: list[BaseException | None] = [None] * n
        self.running: list[int] = []
        self._fn = fn
        self._active = set(range(n))
        self._lock = threading.Lock()
        self._done = threading.Lock()
        if n:
            self._done.acquire()
        self._abandoned = False

    def _member(self, index: int) -> bool:
        """Run member ``index``; False if the caller has stopped waiting for it."""
        try:
            self._fn(index)
        except BaseException as exc:  # noqa: BLE001 - handed back in errors
            self.errors[index] = exc
        with self._lock:
            self._active.discard(index)
            if not self._active:
                self._done.release()
            return not self._abandoned

    def wait(self, timeout: float | None = None) -> list[int]:
        """Wait up to ``timeout`` seconds (None: forever) for every member.

        Returns (and stores in :attr:`running`) the members still
        running. Their helpers are abandoned: each retires when its
        member returns instead of parking again.
        """
        if self._done.acquire(timeout=-1 if timeout is None else timeout):
            self._done.release()  # a later wait returns at once
            self.running = []
        else:
            with self._lock:
                self._abandoned = True
                self.running = sorted(self._active)
        return self.running

    def raise_first(
        self, ignore: type[BaseException] | tuple[type[BaseException], ...] = ()
    ) -> None:
        """Re-raise the lowest-index member error that is not an ``ignore`` type."""
        for exc in self.errors:
            if exc is not None and not isinstance(exc, ignore):
                raise exc


class _Helper:
    """A daemon thread that runs one team member per release of its gate."""

    __slots__ = ("gate", "job")

    _names = itertools.count()

    def __init__(self) -> None:
        self.job: tuple[TeamRun, int] | None = None
        self.gate = threading.Lock()
        self.gate.acquire()
        threading.Thread(
            target=self._serve, name=f"team-helper-{next(self._names)}", daemon=True
        ).start()

    def _serve(self) -> None:
        become_worker()
        while True:
            self.gate.acquire()
            run, index = self.job
            self.job = None
            if not run._member(index):
                return

    def start(self, run: TeamRun, index: int) -> None:
        self.job = (run, index)
        self.gate.release()


_idle: list[_Helper] = []
_idle_lock = threading.Lock()


def _forget_helpers() -> None:
    """In a forked child: the parent's helpers do not exist here, and the
    child's one thread is not a worker even if it forked from one."""
    global _idle, _idle_lock
    _idle = []
    _idle_lock = threading.Lock()
    _role.worker = False


os.register_at_fork(after_in_child=_forget_helpers)


def run_team(n: int, fn: Callable[[int], Any], *, timeout: float | None = None) -> TeamRun:
    """Run ``fn(i)`` for ``i`` in ``range(n)`` on parked helper threads.

    Blocks until every member has returned, or until ``timeout``
    seconds have passed; the returned :class:`TeamRun` holds each
    member's error and, after a timeout, the members still running.
    The calling thread runs no member itself.

    >>> out = [None] * 3
    >>> run_team(3, lambda i: out.__setitem__(i, i * i)).errors
    [None, None, None]
    >>> out
    [0, 1, 4]
    """
    run = TeamRun(fn, n)
    with _idle_lock:
        reused = _idle[max(0, len(_idle) - n):]
        del _idle[len(_idle) - len(reused):]
    helpers = reused + [_Helper() for _ in range(n - len(reused))]
    for i, helper in enumerate(helpers):
        helper.start(run, i)
    try:
        running = run.wait(timeout)
    except BaseException:  # interrupted (Ctrl-C): stop waiting for good
        running = run.wait(0)
        raise
    finally:
        with _idle_lock:
            _idle.extend(h for i, h in enumerate(helpers) if i not in running)
    return run


class TeamBarrier:
    """A cyclic barrier for ``parties`` threads, on plain locks.

    :meth:`wait` returns a distinct arrival index in ``range(parties)``
    (exactly one ``0`` per generation, as ``threading.Barrier``), and
    :meth:`abort` breaks the barrier for good: current and later waiters
    raise ``threading.BrokenBarrierError``.
    """

    def __init__(self, parties: int) -> None:
        if parties < 1:
            raise ValueError(f"parties must be >= 1, got {parties}")
        self.parties = parties
        self._guard = threading.Lock()
        #: The gates of this generation's waiters, in arrival order.
        self._gates: list[Any] = []
        self._broken = False

    def wait(self) -> int:
        """Block until ``parties`` threads have called ``wait``."""
        with self._guard:
            if self._broken:
                raise threading.BrokenBarrierError
            gates = self._gates
            index = len(gates)
            if index + 1 == self.parties:
                self._gates = []
                for gate in gates:
                    gate.release()
                return index
            gate = threading.Lock()
            gate.acquire()
            gates.append(gate)
        gate.acquire()
        if self._broken and self._gates is gates:
            raise threading.BrokenBarrierError
        return index

    def abort(self) -> None:
        """Break the barrier, releasing every waiter with an error."""
        with self._guard:
            if not self._broken:
                self._broken = True
                for gate in self._gates:
                    gate.release()
