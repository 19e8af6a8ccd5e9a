"""Tests for the OpenMP task model."""

import threading

import pytest

from repro.openmp.tasks import TaskGroup, task_parallel


class TestTaskGroup:
    def test_results_in_submission_order(self):
        with TaskGroup(3) as group:
            for i in range(10):
                group.submit(lambda i=i: i * 2)
            assert group.taskwait() == [i * 2 for i in range(10)]

    def test_group_reusable_after_taskwait(self):
        with TaskGroup(2) as group:
            group.submit(lambda: "a")
            assert group.taskwait() == ["a"]
            group.submit(lambda: "b")
            assert group.taskwait() == ["b"]

    def test_nested_submission_recursive_fibonacci(self):
        # Tasks submitting tasks: the canonical recursive pattern.
        with TaskGroup(4) as group:
            results = {}
            lock = threading.Lock()

            def fib(n):
                if n < 2:
                    return n
                return fib(n - 1) + fib(n - 2)

            def task_for(n):
                def run():
                    if n >= 2:
                        group.submit(task_for(n - 1))  # nested deferred work
                    value = fib(n)
                    with lock:
                        results[n] = value
                    return value
                return run

            group.submit(task_for(10))
            group.taskwait()
            assert results[10] == 55
            assert results[9] == 34  # the nested task also ran

    def test_tasks_run_concurrently(self):
        first = threading.Event()
        second = threading.Event()

        with TaskGroup(2) as group:
            def a():
                first.set()
                assert second.wait(timeout=10.0)

            def b():
                second.set()
                assert first.wait(timeout=10.0)

            group.submit(a)
            group.submit(b)
            group.taskwait()

    def test_error_surfaces_at_taskwait_and_clears(self):
        with TaskGroup(2) as group:
            group.submit(lambda: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                group.taskwait()
            group.submit(lambda: 42)
            assert group.taskwait() == [42]

    def test_submit_after_shutdown_rejected(self):
        group = TaskGroup(1)
        group.submit(lambda: None)
        group.taskwait()
        group.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            group.submit(lambda: None)

    def test_invalid_thread_count(self):
        with pytest.raises(ValueError):
            TaskGroup(0)


class TestTaskParallel:
    def test_producer_pattern(self):
        out = task_parallel(
            3, lambda submit: [submit(lambda i=i: i + 100) for i in range(6)] and None
        )
        assert out == [100, 101, 102, 103, 104, 105]

    def test_empty_producer(self):
        assert task_parallel(2, lambda submit: None) == []

    def test_warm_groups_start_no_thread(self, monkeypatch):
        def producer(submit):
            for i in range(8):
                submit(lambda i=i: i)

        task_parallel(4, producer)  # warm the team's helpers
        starts = []
        start = threading.Thread.start

        def counting_start(thread):
            starts.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        for _ in range(20):
            assert task_parallel(4, producer) == list(range(8))
        assert starts == []

    def test_taskwait_timeout_then_group_recovers(self):
        release = threading.Event()
        with TaskGroup(2) as group:
            group.submit(lambda: release.wait(10.0))
            with pytest.raises(TimeoutError):
                group.taskwait(timeout=0.05)
            release.set()
            assert group.taskwait() == [True]
