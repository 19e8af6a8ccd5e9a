"""Unit tests for the pluggable executor backends."""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro.core.executor import (
    BACKENDS,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    TaskFailedError,
    ThreadExecutor,
    WorkerCrashError,
    derive_task_seed,
    get_executor,
)

ALL_BACKENDS = list(BACKENDS)


def _executor(backend: str, workers: int = 4, **kwargs) -> Executor:
    return get_executor(backend, workers, **kwargs)


def square(i, x):
    return x * x


def echo_dtype(i, x):
    """The input's dtype as the task saw it, the input, and a fresh 0-d result."""
    return x.dtype.str, x, np.array(i, dtype=">i4")


class TestMapContract:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_results_in_index_order(self, backend):
        got = _executor(backend).map(square, list(range(37)))
        assert got == [x * x for x in range(37)]

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_fn_receives_index_and_item(self, backend):
        got = _executor(backend).map(lambda i, item: (i, item), ["a", "b", "c"])
        assert got == [(0, "a"), (1, "b"), (2, "c")]

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_empty_items(self, backend):
        assert _executor(backend).map(square, []) == []

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_single_item(self, backend):
        assert _executor(backend).map(square, [7]) == [49]

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_more_tasks_than_workers(self, backend):
        n = 23  # not a multiple of workers: uneven chunks
        assert _executor(backend, 4).map(square, list(range(n))) == [x * x for x in range(n)]

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_context_manager(self, backend):
        with _executor(backend) as ex:
            assert ex.map(square, [1, 2]) == [1, 4]

    def test_closures_over_driver_state_fork(self):
        state = {"mult": 3}
        got = _executor("process").map(lambda i, x: x * state["mult"], list(range(10)))
        assert got == [x * 3 for x in range(10)]


class TestSeededMap:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_seeds_pure_function_of_base_and_index(self, backend):
        seeds = _executor(backend).map_seeded(
            lambda i, item, seed: seed, list(range(16)), base_seed=42
        )
        assert seeds == [derive_task_seed(42, i) for i in range(16)]

    def test_identical_across_backends(self):
        runs = {
            b: _executor(b).map_seeded(
                lambda i, item, seed: (item, seed % 1000), list(range(20)), 7
            )
            for b in ALL_BACKENDS
        }
        assert runs["serial"] == runs["thread"] == runs["process"]

    def test_derive_task_seed_mixes(self):
        seeds = [derive_task_seed(0, i) for i in range(100)]
        assert len(set(seeds)) == 100
        assert all(0 <= s < 2**64 for s in seeds)
        assert derive_task_seed(1, 0) != derive_task_seed(0, 1)
        assert derive_task_seed(5, 3) == derive_task_seed(5, 3)


class TestErrors:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_original_exception_propagates(self, backend):
        def boom(i, x):
            if i == 3:
                raise ValueError("boom-3")
            return x

        with pytest.raises(ValueError, match="boom-3"):
            _executor(backend).map(boom, list(range(8)))

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_lowest_failing_index_wins(self, backend):
        def boom(i, x):
            if i in (2, 5):
                raise ValueError(f"boom-{i}")
            return x

        with pytest.raises(ValueError, match="boom-2"):
            _executor(backend, 2).map(boom, list(range(8)))

    def test_unpicklable_exception_becomes_task_failed(self):
        class Unpicklable(Exception):
            def __init__(self):
                super().__init__("nope")
                self.fh = open(os.devnull)  # noqa: SIM115 - deliberately unpicklable

        def boom(i, x):
            if i == 1:
                raise Unpicklable()
            return x

        with pytest.raises(TaskFailedError) as info:
            _executor("process", 2).map(boom, list(range(4)))
        assert info.value.index == 1
        assert "Unpicklable" in str(info.value)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            get_executor("gpu")

    def test_bad_worker_counts_rejected(self):
        with pytest.raises(ValueError):
            ThreadExecutor(0)
        with pytest.raises(ValueError):
            ProcessExecutor(2, chunks_per_worker=0)

    def test_unknown_start_method_rejected(self):
        with pytest.raises(ValueError, match="start_method"):
            ProcessExecutor(2, start_method="teleport")


class TestWorkerCrash:
    def test_crash_surfaces_completed_and_missing(self):
        driver = os.getpid()

        def crash(i, x):
            if i == 5 and os.getpid() != driver:
                os._exit(17)
            return x * 10

        with pytest.raises(WorkerCrashError) as info:
            _executor("process", 2, chunks_per_worker=2).map(crash, list(range(8)))
        err = info.value
        assert err.exitcode == 17
        assert err.missing  # the crashed chunk's results are lost
        assert set(err.completed) | set(err.missing) == set(range(8))
        for i, value in err.completed.items():
            assert value == i * 10


class TestExecutorObjects:
    def test_get_executor_passes_instances_through(self):
        ex = SerialExecutor()
        assert get_executor(ex) is ex

    def test_repr_names_workers(self):
        assert "num_workers=3" in repr(ThreadExecutor(3))

    def test_results_are_plain_data(self):
        # Results cross a pickle boundary on the process backend.
        got = _executor("process", 2).map(lambda i, x: {"i": i, "sq": x * x}, [1, 2, 3])
        assert got == [{"i": 0, "sq": 1}, {"i": 1, "sq": 4}, {"i": 2, "sq": 9}]
        assert pickle.loads(pickle.dumps(got)) == got


class TestByteOrder:
    """A 0-d non-native array keeps its byte order both ways on every path.

    The default pickle protocol 4 turns a 0-d ``>i4`` array into native
    ``int32``; the pool payload and the results cross with the highest
    protocol instead.
    """

    @pytest.mark.parametrize("path", ["serial", "thread", "pool", "fork"])
    def test_zero_d_big_endian_keeps_dtype(self, path):
        items = [np.array(5, dtype=">i4"), np.array(-7, dtype=">i4"), np.array(9, dtype=">i4")]
        backend = "process" if path in ("pool", "fork") else path
        fn = echo_dtype
        if path == "fork":
            fn = lambda i, x: echo_dtype(i, x)  # noqa: E731 - no pickle: the fork path
        with _executor(backend, 2) as ex:
            got = ex.map(fn, items)
        for i, (seen, back, fresh) in enumerate(got):
            assert seen == ">i4"
            assert back.dtype.str == ">i4" and back.shape == () and back == items[i]
            assert fresh.dtype.str == ">i4" and fresh.shape == () and fresh == i
