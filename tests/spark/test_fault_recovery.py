"""Lineage-based fault tolerance: injection, recovery, bit-identity.

The acceptance invariant mirrors the SPMD fault layer's: for any seed
and any :class:`SparkFaultPlan` the engine survives, every action
returns results — and accumulator diagnostics — bit-identical to the
fault-free run. Unrecoverable plans must fail *structurally* (a
:class:`SparkJobFailedError` carrying the :class:`SparkFaultReport`),
never hang or return wrong data.
"""

import threading

import pytest

from repro.spark import (
    BlacklistedWorker,
    CorruptShuffleBlockError,
    ShuffleBlockStore,
    SparkContext,
    SparkFaultEvent,
    SparkFaultPlan,
    SparkJobFailedError,
    TaskFailure,
    lineage,
    recomputation_frontier,
)


def sum_by_mod7(sc: SparkContext):
    return (
        sc.parallelize(range(200), 8)
        .map(lambda x: (x % 7, x))
        .reduce_by_key(lambda a, b: a + b)
        .collect()
    )


@pytest.fixture(scope="module")
def baseline():
    with SparkContext(4) as sc:
        return sum_by_mod7(sc)


class TestSparkFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            SparkFaultEvent("meteor", 0, 0)

    def test_negative_coordinates_rejected(self):
        with pytest.raises(ValueError):
            SparkFaultEvent("task", -1, 0)
        with pytest.raises(ValueError):
            SparkFaultEvent("task", 0, 0, attempts=0)
        with pytest.raises(ValueError):
            SparkFaultEvent("straggle", 0, 0, seconds=-1.0)

    def test_duplicate_slots_rejected(self):
        with pytest.raises(ValueError, match="multiple task-level events"):
            SparkFaultPlan([SparkFaultEvent("task", 1, 2), SparkFaultEvent("worker", 1, 2)])
        with pytest.raises(ValueError, match="multiple shuffle events"):
            SparkFaultPlan([SparkFaultEvent("shuffle", 0, 3), SparkFaultEvent("shuffle", 0, 3)])
        with pytest.raises(ValueError, match="multiple broadcast events"):
            SparkFaultPlan([SparkFaultEvent("broadcast", 1), SparkFaultEvent("broadcast", 1)])

    def test_lookups(self):
        plan = SparkFaultPlan(
            [
                SparkFaultEvent("task", 2, 1, attempts=2),
                SparkFaultEvent("shuffle", 0, 5),
                SparkFaultEvent("broadcast", 1),
            ]
        )
        assert plan.task_event(2, 1).attempts == 2
        assert plan.task_event(0, 0) is None
        assert [e.unit for e in plan.shuffle_events(0)] == [5]
        assert plan.shuffle_events(3) == []
        assert plan.broadcast_event(1).kind == "broadcast"
        assert plan.broadcast_event(0) is None
        assert len(plan) == 3
        assert "3 events" in repr(plan)

    def test_sample_is_deterministic(self):
        kwargs = dict(
            jobs=6, partitions=8, task_fail_prob=0.1, blacklist_prob=0.05,
            straggle_prob=0.05, shuffle_corrupt_prob=0.2, broadcast_corrupt_prob=0.3,
        )
        a = SparkFaultPlan.sample(42, **kwargs)
        b = SparkFaultPlan.sample(42, **kwargs)
        assert a.trace() == b.trace()
        assert a.seed == 42

    def test_sample_varies_with_seed(self):
        traces = {
            SparkFaultPlan.sample(
                s, jobs=8, partitions=8, task_fail_prob=0.2, shuffle_corrupt_prob=0.2
            ).trace()
            for s in range(10)
        }
        assert len(traces) > 1

    def test_sample_validates_probabilities(self):
        with pytest.raises(ValueError, match="sum to <= 1"):
            SparkFaultPlan.sample(0, jobs=1, partitions=1, task_fail_prob=0.7, blacklist_prob=0.5)
        with pytest.raises(ValueError, match="shuffle_corrupt_prob"):
            SparkFaultPlan.sample(0, jobs=1, partitions=1, shuffle_corrupt_prob=1.5)
        # Rejected whatever the seed draws, even when nothing would fire.
        with pytest.raises(ValueError, match="attempts"):
            SparkFaultPlan.sample(0, 2, 4, attempts=0)
        with pytest.raises(ValueError, match="spill_attempts"):
            SparkFaultPlan.sample(0, 2, 4, spill_attempts=0)
        with pytest.raises(ValueError, match="max_blacklists"):
            SparkFaultPlan.sample(0, 2, 4, max_blacklists=-1)

    def test_sample_caps_blacklists(self):
        plan = SparkFaultPlan.sample(
            3, jobs=20, partitions=8, blacklist_prob=0.9, max_blacklists=2
        )
        assert sum(1 for e in plan.events if e.kind == "worker") <= 2


class TestTaskRetry:
    def test_failed_task_is_retried_bit_identically(self, baseline):
        with SparkContext(4, fault_plan=SparkFaultPlan.fail_task(0, 2)) as sc:
            assert sum_by_mod7(sc) == baseline
            assert sc.metrics.extra["spark.injected_faults"] == 1
            assert sc.metrics.extra["spark.task_retries"] == 1
            assert sc.fault_report.trace() == (("task", 0, 2, 0),)

    def test_multi_attempt_failure_retries_until_success(self, baseline):
        plan = SparkFaultPlan([SparkFaultEvent("task", 0, 1, attempts=3)])
        with SparkContext(4, fault_plan=plan, max_task_retries=3) as sc:
            assert sum_by_mod7(sc) == baseline
            assert sc.metrics.extra["spark.task_retries"] == 3

    def test_exhausted_retries_raise_structured_error(self):
        plan = SparkFaultPlan([SparkFaultEvent("task", 0, 0, attempts=10)])
        with SparkContext(4, fault_plan=plan, max_task_retries=2) as sc:
            with pytest.raises(SparkJobFailedError) as exc_info:
                sc.parallelize(range(10), 4).collect()
        err = exc_info.value
        assert err.partition == 0 and err.failures == 3
        assert err.report is sc.fault_report
        assert err.report.summary().startswith("SparkFaultReport")
        assert isinstance(err.__cause__, TaskFailure)

    def test_real_user_exceptions_fail_fast_not_retried(self):
        # Injected faults are retryable; a deterministic user bug is not —
        # re-running it would just fail again.
        plan = SparkFaultPlan()  # active fault layer, no scheduled events
        with SparkContext(4, fault_plan=plan) as sc:
            rdd = sc.parallelize(range(10), 4).map(lambda x: 1 // (x - 3))
            with pytest.raises(ZeroDivisionError):
                rdd.collect()
            assert "spark.task_retries" not in sc.metrics.extra

    def test_zero_backoff_allowed(self, baseline):
        with SparkContext(
            4, fault_plan=SparkFaultPlan.fail_task(0, 0), retry_backoff=0.0
        ) as sc:
            assert sum_by_mod7(sc) == baseline


class TestWorkerBlacklist:
    def test_blacklisted_worker_retries_elsewhere(self, baseline):
        with SparkContext(4, fault_plan=SparkFaultPlan.blacklist_worker(0, 1)) as sc:
            assert sum_by_mod7(sc) == baseline
            assert sc.metrics.extra["spark.blacklisted_workers"] == 1
            assert len(sc.fault_report.blacklisted) == 1
        assert isinstance(
            BlacklistedWorker(0, 0, 0, 0), RuntimeError
        )  # scheduler-internal, but public for matching

    def test_never_blacklists_last_live_worker(self, baseline):
        # Every job's every first attempt would blacklist its worker; a
        # 2-worker cluster must keep one alive and still finish.
        events = [SparkFaultEvent("worker", j, p) for j in range(6) for p in range(8)]
        with SparkContext(2, fault_plan=SparkFaultPlan(events)) as sc:
            assert sum_by_mod7(sc) == baseline
            assert sc.metrics.extra["spark.blacklisted_workers"] == 1


class TestSpeculativeExecution:
    def test_straggler_loses_to_speculative_copy(self, baseline):
        with SparkContext(4, fault_plan=SparkFaultPlan.straggler(1, 0, 0.001)) as sc:
            assert sum_by_mod7(sc) == baseline
            assert sc.metrics.extra["spark.speculative_tasks"] == 1
            assert sc.metrics.extra["spark.speculative_wins"] == 1
            assert sc.fault_report.speculative == [(1, 0)]

    def test_straggler_starts_no_thread(self, baseline, monkeypatch):
        starts = []
        start = threading.Thread.start

        def counting_start(thread):
            starts.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        plan = SparkFaultPlan.straggler(1, 0, 1.0)
        with SparkContext(4, backend="serial", fault_plan=plan) as sc:
            assert sum_by_mod7(sc) == baseline
            assert sc.metrics.extra["spark.speculative_tasks"] == 1
            assert sc.metrics.extra["spark.speculative_wins"] == 1
            assert sc.fault_report.speculative == [(1, 0)]
        assert starts == []


class TestShuffleCorruption:
    def test_corrupt_block_recomputed_from_lineage(self, baseline):
        with SparkContext(4, fault_plan=SparkFaultPlan.corrupt_shuffle(0, 3)) as sc:
            assert sum_by_mod7(sc) == baseline
            assert sc.metrics.extra["spark.corrupt_blocks_detected"] == 1
            assert sc.metrics.extra["spark.recomputed_partitions"] == 1
            assert len(sc.fault_report.recomputed) == 1

    def test_many_corrupt_blocks_across_shuffles(self):
        with SparkContext(4) as sc:
            base = (
                sc.parallelize(range(300), 8)
                .map(lambda x: (x % 11, x))
                .reduce_by_key(lambda a, b: a + b)
                .sort_by_key()
                .collect()
            )
        events = [SparkFaultEvent("shuffle", s, b) for s in range(3) for b in range(0, 12, 3)]
        with SparkContext(4, fault_plan=SparkFaultPlan(events)) as sc:
            got = (
                sc.parallelize(range(300), 8)
                .map(lambda x: (x % 11, x))
                .reduce_by_key(lambda a, b: a + b)
                .sort_by_key()
                .collect()
            )
            assert got == base
            assert sc.metrics.extra["spark.recomputed_partitions"] >= 1

    def test_cached_parent_is_a_recomputation_barrier(self):
        # With the map-side parent persisted, recovering a corrupt block
        # re-reads the cache instead of re-running user code upstream.
        calls = []

        def run(plan):
            calls.clear()
            with SparkContext(4, fault_plan=plan) as sc:
                source = sc.parallelize(range(100), 4).map(
                    lambda x: (calls.append(x), (x % 5, x))[1]
                )
                cached = source.persist()
                result = cached.reduce_by_key(lambda a, b: a + b).collect()
            return result, len(calls)

        clean_result, clean_calls = run(None)
        fault_result, fault_calls = run(SparkFaultPlan.corrupt_shuffle(0, 2))
        assert fault_result == clean_result
        # Barrier honored: the recomputed map task re-read its cached
        # parent partition, so user code ran no extra times.
        assert fault_calls == clean_calls


class TestCheckpoint:
    def test_checkpoint_truncates_lineage(self):
        with SparkContext(4) as sc:
            a = sc.parallelize(range(40), 4)
            b = a.map(lambda x: x * 2).checkpoint()
            c = b.filter(lambda x: x % 3 == 0)
            assert not b.is_checkpointed
            assert len(lineage(c)) == 3
            assert c.collect() == [x * 2 for x in range(40) if (x * 2) % 3 == 0]
            assert b.is_checkpointed
            assert b.deps == []
            assert len(lineage(c)) == 2  # a no longer reachable
            assert sc.metrics.extra["spark.checkpointed_partitions"] == 4

    def test_checkpoint_serves_stored_partitions(self):
        calls = []
        with SparkContext(4) as sc:
            rdd = sc.parallelize(range(20), 4).map(lambda x: (calls.append(x), x)[1]).checkpoint()
            first = rdd.collect()
            n = len(calls)
            assert rdd.collect() == first
            assert len(calls) == n  # second action served from the checkpoint

    def test_checkpoint_is_recovery_barrier_under_corruption(self):
        calls = []
        with SparkContext(4, fault_plan=SparkFaultPlan.corrupt_shuffle(0, 1)) as sc:
            source = sc.parallelize(range(100), 4).map(
                lambda x: (calls.append(x), (x % 5, x))[1]
            )
            ckpt = source.checkpoint()
            result = ckpt.reduce_by_key(lambda a, b: a + b).collect()
            assert len(calls) == 100  # recovery re-read the checkpoint, not user code
            assert sc.metrics.extra["spark.recomputed_partitions"] == 1
        with SparkContext(4) as sc:
            want = (
                sc.parallelize(range(100), 4)
                .map(lambda x: (x % 5, x))
                .reduce_by_key(lambda a, b: a + b)
                .collect()
            )
        assert result == want

    def test_recomputation_frontier(self):
        with SparkContext(4) as sc:
            a = sc.parallelize(range(10), 2)
            b = a.map(lambda x: x + 1)
            c = b.persist()
            d = c.map(lambda x: x * 2)
            assert recomputation_frontier(d) == [c]
            assert recomputation_frontier(b) == [a]
            assert recomputation_frontier(a) == [a]  # a leaf holds its data


class TestBroadcastCorruption:
    def test_corrupt_broadcast_refetched_from_master(self):
        with SparkContext(4, fault_plan=SparkFaultPlan.corrupt_broadcast(0)) as sc:
            table = sc.broadcast({i: i * i for i in range(50)})
            got = sc.parallelize(range(50), 4).map(lambda x: table.value[x]).collect()
            assert got == [x * x for x in range(50)]
            assert sc.metrics.extra["spark.broadcast_refetches"] == 1
            assert sc.fault_report.broadcast_refetches == 1

    def test_uncorrupted_broadcasts_unaffected(self):
        with SparkContext(4, fault_plan=SparkFaultPlan.corrupt_broadcast(1)) as sc:
            first = sc.broadcast([1, 2, 3])  # index 0: untouched
            assert first.value == [1, 2, 3]
            second = sc.broadcast([4, 5, 6])  # index 1: corrupted then healed
            assert second.value == [4, 5, 6]
            assert sc.metrics.extra["spark.broadcast_refetches"] == 1


class TestAccumulatorExactlyOnce:
    def test_retries_do_not_double_count(self):
        plan = SparkFaultPlan([SparkFaultEvent("task", 0, 1, attempts=2)])
        with SparkContext(4, fault_plan=plan) as sc:
            acc = sc.accumulator(0)
            sc.parallelize(range(100), 8).foreach(lambda _x: acc.add(1))
            assert acc.value == 100

    def test_recomputation_does_not_double_count(self):
        with SparkContext(4, fault_plan=SparkFaultPlan.corrupt_shuffle(0, 0)) as sc:
            acc = sc.accumulator(0)

            def tag(x):
                acc.add(1)
                return (x % 5, x)

            sc.parallelize(range(100), 4).map(tag).reduce_by_key(lambda a, b: a + b).collect()
            assert sc.metrics.extra["spark.recomputed_partitions"] == 1
            assert acc.value == 100  # the recomputed map task's updates were discarded


class TestShuffleBlockStore:
    def test_plain_roundtrip(self):
        store = ShuffleBlockStore(2, 3)
        store.put(0, [[("a", 1)], [], [("b", 2)]])
        assert store.get(0, 0) == [("a", 1)]
        assert store.get(0, 1) == []
        assert not store.has_output(1)
        with pytest.raises(KeyError):
            store.get(1, 0)
        assert store.corrupt(0, 0) is False  # nothing to corrupt in plain mode
        assert store.corrupted_blocks(0) == []

    def test_checksummed_corruption_detected(self):
        store = ShuffleBlockStore(2, 2, checksums=True)
        store.put(0, [[("k", 1)], [("k", 2)]])
        assert store.get(0, 1) == [("k", 2)]
        assert store.corrupt(0, 1) is True
        assert store.corrupted_blocks(0) == [1]
        with pytest.raises(CorruptShuffleBlockError, match="reduce_part=1"):
            store.get(0, 1)
        assert store.get(0, 0) == [("k", 1)]  # sibling block unaffected
        store.put(0, [[("k", 1)], [("k", 2)]])  # re-store heals
        assert store.get(0, 1) == [("k", 2)]

    def test_wrong_bucket_count_rejected(self):
        store = ShuffleBlockStore(1, 3)
        with pytest.raises(ValueError, match="expected 3"):
            store.put(0, [[], []])

    def test_repr(self):
        store = ShuffleBlockStore(2, 2, checksums=True)
        store.put(0, [[], []])
        assert "1/2 map outputs" in repr(store)
        assert "checksummed" in repr(store)


class TestContextLifecycle:
    def test_context_manager_stops_on_exit(self):
        with SparkContext(2, name="lifecycle-test") as sc:
            assert sc.parallelize([1, 2, 3]).collect() == [1, 2, 3]
        with pytest.raises(RuntimeError, match="lifecycle-test has been stopped"):
            sc.parallelize([4])

    def test_stop_is_idempotent(self):
        sc = SparkContext(2)
        sc.stop()
        sc.stop()  # no error
        with pytest.raises(RuntimeError, match="has been stopped"):
            sc.broadcast(1)

    def test_error_names_the_stopped_context(self):
        sc = SparkContext(2, name="etl-context")
        sc.stop()
        with pytest.raises(RuntimeError, match="etl-context has been stopped"):
            sc.accumulator(0)

    def test_default_names_are_distinct(self):
        assert SparkContext(1).name != SparkContext(1).name

    def test_repr_shows_state_and_plan(self):
        sc = SparkContext(2, name="r", fault_plan=SparkFaultPlan())
        assert "alive" in repr(sc) and "SparkFaultPlan" in repr(sc)
        sc.stop()
        assert "stopped" in repr(sc)


class TestBitIdenticalSweep:
    """The tentpole invariant, property-style over a seed sweep."""

    @pytest.mark.parametrize("seed", range(12))
    def test_actions_bit_identical_under_sampled_plans(self, seed, baseline):
        plan = SparkFaultPlan.sample(
            seed,
            jobs=8,
            partitions=8,
            task_fail_prob=0.10,
            blacklist_prob=0.05,
            straggle_prob=0.05,
            shuffle_corrupt_prob=0.20,
            broadcast_corrupt_prob=0.50,
            seconds=0.0005,
        )
        with SparkContext(4) as sc:
            ref_reduce = sc.parallelize(range(200), 8).map(lambda x: x * 3).reduce(
                lambda a, b: a + b
            )
        with SparkContext(4, fault_plan=plan) as sc:
            assert sum_by_mod7(sc) == baseline
            got = sc.parallelize(range(200), 8).map(lambda x: x * 3).reduce(lambda a, b: a + b)
            assert got == ref_reduce

    def test_fired_faults_reproducible_across_runs(self):
        plan_kwargs = dict(
            jobs=6, partitions=8, task_fail_prob=0.15, shuffle_corrupt_prob=0.2
        )

        def run():
            plan = SparkFaultPlan.sample(7, **plan_kwargs)
            with SparkContext(4, fault_plan=plan) as sc:
                sum_by_mod7(sc)
                return sc.fault_report.trace(), dict(sc.metrics.extra)

        assert run() == run()
