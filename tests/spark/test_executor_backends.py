"""The Spark engine on the process backend: lineage, caches, crashes.

``tests/core/test_executor_determinism.py`` holds the cross-backend
seed sweeps; this file exercises the process-specific machinery —
the driver-side stage pass (shuffle map stages run on every backend,
plus persist and checkpoint caches filled before forking; see
``tests/spark/test_stages.py`` for the stage order), worker-crash
recovery feeding the fault report and metrics, and the serial fallback
for jobs launched from inside a forked child.
"""

from __future__ import annotations

import os

import pytest

from repro.spark import SparkContext, SparkFaultPlan


def _pairs(sc: SparkContext):
    return (
        sc.parallelize(range(100), 8)
        .map(lambda x: (x % 7, x))
        .reduce_by_key(lambda a, b: a + b)
        .collect()
    )


@pytest.fixture(scope="module")
def baseline_pairs():
    with SparkContext(4, backend="serial") as sc:
        return _pairs(sc)


class TestProcessBackendLineage:
    def test_shuffle_job(self, baseline_pairs):
        with SparkContext(4, backend="process") as sc:
            assert _pairs(sc) == baseline_pairs
            assert sc.metrics.shuffles >= 1

    def test_persist_cache_filled_on_driver(self):
        with SparkContext(4, backend="process") as sc:
            rdd = sc.parallelize(range(50), 4).map(lambda x: x * 2).persist()
            first = rdd.collect()
            cached_after_first = sc.metrics.partitions_cached
            assert cached_after_first == 4
            assert rdd.collect() == first  # second pass serves from the cache
            assert sc.metrics.partitions_cached == cached_after_first

    def test_checkpoint_truncates_lineage(self):
        with SparkContext(4, backend="process") as sc:
            rdd = sc.parallelize(range(40), 4).map(lambda x: x + 1).checkpoint()
            assert rdd.sum() == sum(range(1, 41))
            assert rdd.deps == []
            assert sc.metrics.extra.get("spark.checkpointed_partitions") == 4

    def test_broadcast_visible_in_workers(self):
        with SparkContext(4, backend="process") as sc:
            table = sc.broadcast({i: i * 10 for i in range(8)})
            got = sc.parallelize(range(8), 4).map(lambda x: table.value[x]).collect()
            assert got == [i * 10 for i in range(8)]

    def test_accumulator_commits_exactly_once(self):
        with SparkContext(4, backend="process") as sc:
            acc = sc.accumulator(0)

            def bump(x):
                acc.add(1)
                return x

            assert sc.parallelize(range(64), 8).map(bump).count() == 64
            assert acc.value == 64

    def test_fault_plan_matches_fault_free(self, baseline_pairs):
        plan = SparkFaultPlan.sample(
            seed=11, jobs=8, partitions=8, task_fail_prob=0.25, straggle_prob=0.1
        )
        with SparkContext(4, backend="process", fault_plan=plan) as sc:
            assert _pairs(sc) == baseline_pairs
            assert sc.fault_report is not None


class TestWorkerCrashRecovery:
    def test_lost_tasks_rerun_on_driver(self, baseline_pairs):
        driver = os.getpid()

        def croak(x):
            # Kill one forked worker mid-job; never the driver itself.
            if x == 50 and os.getpid() != driver:
                os._exit(13)
            return (x % 7, x)

        with SparkContext(4, backend="process") as sc:
            got = (
                sc.parallelize(range(100), 8)
                .map(croak)
                .reduce_by_key(lambda a, b: a + b)
                .collect()
            )
            assert got == baseline_pairs
            assert sc.metrics.extra.get("spark.worker_crashes", 0) >= 1

    def test_crash_recorded_in_fault_report(self):
        driver = os.getpid()
        plan = SparkFaultPlan.sample(seed=3, jobs=4, partitions=4, task_fail_prob=0.2)

        def croak(x):
            if x == 10 and os.getpid() != driver:
                os._exit(5)
            return x * 3

        with SparkContext(2, backend="process", fault_plan=plan) as sc:
            assert sc.parallelize(range(40), 4).map(croak).sum() == 3 * sum(range(40))
            report = sc.fault_report
            assert report.worker_crashes
            worker, lost = report.worker_crashes[0]
            assert lost >= 1
            assert "worker process crash" in report.summary()


class TestNestedAndValidation:
    def test_nested_job_in_worker_falls_back_to_serial(self):
        with SparkContext(2, backend="process") as sc:
            def nested(x):
                # A job launched inside a forked worker must not try to
                # fork again; the context downgrades it to serial.
                return sc.parallelize(range(x + 1), 2).sum()

            got = sc.parallelize(range(6), 2).map(nested).collect()
            assert got == [sum(range(x + 1)) for x in range(6)]

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            SparkContext(2, backend="cluster")

    def test_repr_names_backend(self):
        with SparkContext(2, backend="process") as sc:
            assert "process" in repr(sc)
