"""One fault plan, three backends, one answer.

Every Spark job runs one task path: the driver resolves the fault
schedule in partition order, maps one task body over the backend's
executor, and commits the tasks' accumulator updates in partition
order. So one sampled :class:`SparkFaultPlan` (failed tasks, a
blacklisted worker, stragglers and corrupt shuffle blocks) over a
lineage with a persisted and a checkpointed RDD must give the serial,
thread and process backends the same results, accumulator, fault
report and engine counters.

The accumulator folds lists, so its value also records the order in
which tasks committed. Partition 0's result task is the slowest, so a
backend that committed in completion order would show a different list.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import add
from typing import Any

import pytest

from repro.spark import SparkContext, SparkFaultPlan

PLAN = SparkFaultPlan.sample(
    5, jobs=6, partitions=4, task_fail_prob=0.2, blacklist_prob=0.1,
    straggle_prob=0.2, shuffle_corrupt_prob=0.1, shuffles=1,
)


@dataclass(frozen=True)
class Outcome:
    results: Any
    accumulator: Any
    trace: tuple
    summary: str
    extra: dict[str, int]
    partitions_cached: int


def _run(backend: str) -> Outcome:
    with SparkContext(4, backend=backend, fault_plan=PLAN) as sc:
        log = sc.accumulator([])

        def tag(x: int) -> tuple[int, int]:
            log.add([x])
            return x % 5, x

        def double(i: int, part: list[Any]) -> list[Any]:
            if i == 0:
                time.sleep(0.05)
            log.add([("result", i)])
            return [(k, 2 * v) for k, v in part]

        pairs = sc.parallelize(range(60), 4).map(tag).persist()
        sums = pairs.reduce_by_key(add).checkpoint()
        results = (sums.map_partitions_with_index(double).collect(), pairs.values().sum())
        report = sc.fault_report
        return Outcome(
            results, log.value, report.trace(), report.summary(),
            dict(sc.metrics.extra), sc.metrics.partitions_cached,
        )


@pytest.fixture(scope="module")
def serial() -> Outcome:
    return _run("serial")


def test_plan_and_lineage_exercise_every_recovery(serial):
    assert {e.kind for e in PLAN.events} == {"task", "worker", "straggle", "shuffle"}
    assert serial.extra["spark.task_retries"] > 0
    assert serial.extra["spark.blacklisted_workers"] == 1
    assert serial.extra["spark.speculative_tasks"] > 0
    assert serial.extra["spark.recomputed_partitions"] > 0
    assert serial.extra["spark.checkpointed_partitions"] == 4
    assert serial.partitions_cached == 4
    assert serial.accumulator[-4:] == [("result", i) for i in range(4)]


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_backend_matches_serial(backend, serial):
    got = _run(backend)
    assert got.results == serial.results
    assert got.accumulator == serial.accumulator
    assert got.trace == serial.trace
    assert got.summary == serial.summary
    assert got.extra == serial.extra
    assert got.partitions_cached == serial.partitions_cached


def _calls_through_cache(backend: str) -> int:
    """Updates committed when four tasks read one uncached persisted
    partition at once (a 1 x 4 cartesian product)."""
    with SparkContext(4, backend=backend) as sc:
        calls = sc.accumulator(0)

        def f(x: int) -> int:
            calls.add(1)
            time.sleep(0.01)
            return x

        cached = sc.parallelize(range(4), 1).map(f).persist()
        assert cached.cartesian(sc.parallelize(range(4), 4)).count() == 16
        return calls.value


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_cached_partition_commits_its_updates_once(backend):
    assert _calls_through_cache(backend) == 4


def _broadcast_refetches(backend: str) -> tuple[int, int]:
    """``(fault_report, metrics.extra)`` refetch counts of one corrupt
    broadcast read by both partitions of one map."""
    plan = SparkFaultPlan.sample(
        0, jobs=1, partitions=2, broadcast_corrupt_prob=1.0, broadcasts=1
    )
    with SparkContext(2, backend=backend, fault_plan=plan) as sc:
        table = sc.broadcast({i: i * i for i in range(8)})
        assert sc.parallelize(range(8), 2).map(lambda x: table.value[x]).collect() == [
            i * i for i in range(8)
        ]
        return sc.fault_report.broadcast_refetches, sc.metrics.extra["spark.broadcast_refetches"]


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
def test_corrupt_broadcast_is_refetched_once(backend):
    assert _broadcast_refetches(backend) == (1, 1)
