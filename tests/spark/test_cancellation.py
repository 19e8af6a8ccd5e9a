"""Cooperative SparkContext cancellation: clean unwind, clean state."""

import os
import threading
import time

import pytest

from repro.spark import SparkContext, SparkJobCancelled


class TestCancelToken:
    def test_cancel_before_job_raises(self):
        with SparkContext(2, name="pre") as sc:
            sc.cancel()
            assert sc.cancelled
            with pytest.raises(SparkJobCancelled) as err:
                sc.parallelize(range(8), 4).collect()
            assert err.value.context == "pre"

    def test_external_token_shared(self):
        token = threading.Event()
        with SparkContext(2, cancel_token=token) as sc:
            token.set()
            with pytest.raises(SparkJobCancelled):
                sc.parallelize(range(8), 4).collect()

    def test_cancel_requires_settable_token(self):
        with SparkContext(2, cancel_token=object()) as sc:
            with pytest.raises(TypeError):
                sc.cancel()

    def test_mid_job_cancel_unwinds_at_task_boundary(self):
        with SparkContext(2, name="midjob") as sc:
            def slow_then_check(x):
                time.sleep(0.02)
                return x

            timer = threading.Timer(0.05, sc.cancel)
            timer.start()
            try:
                with pytest.raises(SparkJobCancelled) as err:
                    sc.parallelize(range(64), 32).map(slow_then_check).collect()
            finally:
                timer.cancel()
            assert err.value.job is not None

    def test_process_task_checks_the_token(self):
        driver = os.getpid()

        class SetInWorkers:
            def is_set(self):
                return os.getpid() != driver

        with SparkContext(2, backend="process", cancel_token=SetInWorkers(), name="forked") as sc:
            acc = sc.accumulator(0)
            with pytest.raises(SparkJobCancelled) as err:
                sc.parallelize(range(8), 4).map(lambda x: (acc.add(1), x)[1]).collect()
            assert str(err.value) == "forked was cancelled (job 0, partition 0)"
            assert acc.value == 0

    def test_uncancelled_job_unaffected(self):
        token = threading.Event()
        with SparkContext(2, cancel_token=token) as sc:
            got = sc.parallelize(range(8), 4).map(lambda x: x * 2).collect()
        assert got == [x * 2 for x in range(8)]


class TestCleanUnwind:
    def test_spill_dirs_reclaimed_after_cancel(self, tmp_path):
        sc = SparkContext(
            2, memory_budget=256, spill_dir=str(tmp_path), name="spilly"
        )
        try:
            timer = threading.Timer(0.03, sc.cancel)
            timer.start()
            try:
                with pytest.raises(SparkJobCancelled):
                    (
                        sc.parallelize(range(400), 16)
                        .map(lambda x: (time.sleep(0.005), (x % 7, x))[1])
                        .reduce_by_key(lambda a, b: a + b)
                        .collect()
                    )
            finally:
                timer.cancel()
        finally:
            sc.stop()
        assert list(tmp_path.iterdir()) == []

    def test_accumulators_not_committed_by_cancelled_job(self):
        token = threading.Event()
        with SparkContext(2, cancel_token=token) as sc:
            acc = sc.accumulator(0)
            data = sc.parallelize(range(16), 8)
            data.map(lambda x: (acc.add(1), x)[1]).collect()
            committed = acc.value
            token.set()
            with pytest.raises(SparkJobCancelled):
                data.map(lambda x: (acc.add(1), x)[1]).collect()
            # The cancelled job contributed nothing: no partial commits.
            assert acc.value == committed

    def test_stop_after_cancel_idempotent(self):
        sc = SparkContext(2)
        sc.cancel()
        sc.stop()
        sc.stop()
