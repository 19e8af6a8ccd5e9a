"""The driver runs a job's shuffle map stages first, alike on every backend.

Before a job's result tasks run, ``SparkContext`` walks the job's
lineage parents first and runs the map stage of each shuffle that has
not run yet, as its own job. These tests pin that schedule against the
teaching lens in :mod:`repro.spark.dag`, check that fault-plan job
numbers mean the same tasks on serial, thread and process, and that
``take``/``first`` read a shuffle prepared the same way.
"""

from __future__ import annotations

from operator import add

import pytest

from repro.knn.wordcount import tokenize
from repro.pipeline import arrests_per_100k, generate_arrests, generate_ntas
from repro.spark import SparkContext, SparkFaultPlan, execution_stages, lineage
from repro.spark.dag import shuffle_depth
from repro.spark.rdd import ShuffledRDD

BACKENDS = ("serial", "thread", "process")

LINES = [f"line {i} the quick brown fox jumps over the lazy dog {i % 7}" for i in range(60)]


@pytest.fixture
def top_level_jobs(monkeypatch):
    """Record each top-level job's RDD and the map stages run under it."""
    jobs: list[tuple[object, list[ShuffledRDD]]] = []
    depth = 0
    execute = SparkContext._execute_job
    materialize = ShuffledRDD._materialize_shuffle

    def spy_execute(self, rdd, task_fn):
        nonlocal depth
        if depth == 0:
            jobs.append((rdd, []))
        depth += 1
        try:
            return execute(self, rdd, task_fn)
        finally:
            depth -= 1

    def spy_materialize(self):
        jobs[-1][1].append(self)
        return materialize(self)

    monkeypatch.setattr(SparkContext, "_execute_job", spy_execute)
    monkeypatch.setattr(ShuffledRDD, "_materialize_shuffle", spy_materialize)
    return jobs


def _assert_stages_follow_lineage(rdd, ran):
    assert ran == [n for n in lineage(rdd) if isinstance(n, ShuffledRDD)]
    stages = execution_stages(rdd)
    for shuffled in ran:
        assert shuffled in stages[shuffle_depth(shuffled)].rdds


@pytest.mark.parametrize("backend", BACKENDS)
class TestMapStagesFollowLineage:
    def test_word_count(self, backend, top_level_jobs):
        with SparkContext(2, backend=backend) as sc:
            counts = (
                sc.parallelize(LINES, 4)
                .flat_map(tokenize)
                .map(lambda w: (w, 1))
                .reduce_by_key(add, 3)
            )
            counts.collect()
        [(rdd, ran)] = top_level_jobs
        assert rdd is counts
        assert len(ran) == 1
        _assert_stages_follow_lineage(rdd, ran)

    def test_nyc_pipeline(self, backend, top_level_jobs):
        ntas = generate_ntas(2, 3, seed=4)
        datasets = [
            generate_arrests(300, ntas, 2020, 1, dirty_fraction=0.1),
            generate_arrests(200, ntas, 2021, 2, dirty_fraction=0.1),
        ]
        with SparkContext(2, backend=backend) as sc:
            arrests_per_100k(sc, datasets, ntas)
        [(rdd, ran)] = top_level_jobs
        # reduce_by_key, then the join's cogroup over it.
        assert [shuffle_depth(s) for s in ran] == [1, 2]
        _assert_stages_follow_lineage(rdd, ran)

    def test_join_with_the_deeper_branch_on_the_left(self, backend, top_level_jobs):
        pairs = [(i % 11, i) for i in range(80)]
        with SparkContext(2, backend=backend) as sc:
            left = (
                sc.parallelize(pairs, 4)
                .reduce_by_key(add, 3)
                .map(lambda kv: (kv[0] % 5, kv[1]))
                .reduce_by_key(add, 2)
            )
            right = sc.parallelize([(k, -k) for k in range(7)], 3).reduce_by_key(add, 2)
            joined = left.join(right, 3)
            joined.collect()
        [(rdd, ran)] = top_level_jobs
        # Parents first, left branch first: run order is lineage order,
        # not stage order.
        assert [shuffle_depth(s) for s in ran] == [1, 2, 1, 3]
        _assert_stages_follow_lineage(rdd, ran)


def _two_level_fault_summary(backend: str, plan: SparkFaultPlan) -> tuple[list, str]:
    with SparkContext(2, backend=backend, fault_plan=plan, retry_backoff=0.0) as sc:
        result = (
            sc.parallelize([(i % 9, i) for i in range(60)], 3)
            .reduce_by_key(add, 5)
            .map(lambda kv: (kv[0] % 4, kv[1]))
            .reduce_by_key(add, 2)
            .collect()
        )
        return result, sc.fault_report.summary()


@pytest.mark.parametrize("job, fired", [(1, 0), (2, 1)])
def test_fault_plan_names_the_same_task_on_every_backend(job, fired):
    # Job 0 is the collect; jobs 1 and 2 are the map stages of the
    # 3 -> 5 and 5 -> 2 shuffles, numbered parents first everywhere, so
    # only job 2 has a partition 4.
    plan = SparkFaultPlan.fail_task(job, 4)
    runs = {backend: _two_level_fault_summary(backend, plan) for backend in BACKENDS}
    results = {backend: result for backend, (result, _summary) in runs.items()}
    summaries = {backend: summary for backend, (_result, summary) in runs.items()}
    assert results["thread"] == results["serial"] == results["process"]
    assert summaries["thread"] == summaries["serial"] == summaries["process"]
    assert summaries["serial"].startswith(f"SparkFaultReport: {fired} fault(s) fired")


@pytest.mark.parametrize("backend", BACKENDS)
def test_take_and_first_read_the_shuffle_once(backend):
    def lengths(sc):
        return sc.parallelize(LINES, 4).map(lambda s: (len(s), 1)).reduce_by_key(add, 3)

    with SparkContext(2, backend="serial") as sc:
        expected = lengths(sc).collect()
    with SparkContext(2, backend=backend) as sc:
        counts = lengths(sc)
        assert counts.take(1) == expected[:1]
        assert counts.first() == expected[0]
        assert counts.take(len(expected) + 5) == expected
        assert sc.metrics.shuffles == 1


def test_take_fills_the_same_caches_on_every_backend():
    # take reads partitions on the driver until it has enough, so it
    # caches only those; no backend fills the rest ahead of time.
    def cached(backend: str) -> tuple[list, int]:
        with SparkContext(2, backend=backend) as sc:
            rdd = (
                sc.parallelize([(i % 6, i) for i in range(40)], 3)
                .reduce_by_key(add, 4)
                .map_values(lambda v: v * 2)
                .persist()
            )
            return rdd.take(1), sc.metrics.partitions_cached

    runs = {backend: cached(backend) for backend in BACKENDS}
    assert runs["thread"] == runs["serial"] == runs["process"]
    assert 0 < runs["serial"][1] < 4
