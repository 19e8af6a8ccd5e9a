"""Regression: interrupting a process-backend map leaves no orphans.

A KeyboardInterrupt (or any cancellation unwinding through
``ProcessExecutor.map``) used to fall into the graceful-join path —
up to five seconds *per worker* while a hanging task kept the workers
alive. The interrupt path must instead terminate the pool promptly and
re-raise cleanly.
"""

import _thread
import multiprocessing
import threading
import time

import pytest

from repro.core.executor import ProcessExecutor


def _hang(_i, _x):  # pragma: no cover - runs in worker processes
    time.sleep(60)


def _no_executor_workers(timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        stragglers = [
            p for p in multiprocessing.active_children()
            if p.name.startswith("executor-worker-")
        ]
        if not stragglers:
            return True
        time.sleep(0.05)
    return False


class TestInterruptCleanup:
    @pytest.mark.parametrize("path", ["pool", "fork"])
    def test_keyboard_interrupt_terminates_workers_and_reraises(self, path):
        executor = ProcessExecutor(2, chunks_per_worker=1)
        # A module-level task pickles (pool path); a closure does not
        # (fork path).
        task = _hang if path == "pool" else (lambda i, x: _hang(i, x))
        timer = threading.Timer(0.5, _thread.interrupt_main)
        timer.start()
        start = time.monotonic()
        try:
            with pytest.raises(KeyboardInterrupt):
                executor.map(task, list(range(2)))
        finally:
            timer.cancel()
        elapsed = time.monotonic() - start
        # Prompt unwind: nowhere near the 5s-per-worker graceful joins.
        assert elapsed < 5.0, f"interrupt unwind took {elapsed:.1f}s"
        # And no orphaned pool workers survive the raise.
        assert _no_executor_workers(), "executor workers outlived the interrupt"

    def test_normal_error_path_still_cleans_up(self):
        executor = ProcessExecutor(2, chunks_per_worker=1)

        def boom(i, x):
            raise ValueError(f"task {i} failed")

        with pytest.raises(Exception):
            executor.map(boom, list(range(4)))
        assert _no_executor_workers()

    def test_successful_map_unaffected(self):
        executor = ProcessExecutor(2)
        assert executor.map(lambda i, x: x * 2, [1, 2, 3]) == [2, 4, 6]
        assert _no_executor_workers()
