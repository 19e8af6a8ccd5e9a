"""Disk faults against spill files: injection, lineage recovery, escalation.

PR 3's contract extended to the disk tier: for any seeded
:class:`SparkFaultPlan` a run *survives*, its results are bit-identical
to the fault-free (and unbounded in-memory) run — now including plans
that delete, truncate, or byte-corrupt the spill runs an out-of-core
shuffle writes. Plans the engine cannot survive (a fault that re-fires
past ``max_task_retries``) must escalate to
:class:`SparkJobFailedError` carrying a report that names the lost
spill files — never hang, never return wrong data.
"""

import pytest

from repro.knn import wordcount_spark
from repro.spark import (
    SPILL_FAULT_KINDS,
    SparkContext,
    SparkFaultPlan,
    SparkJobFailedError,
)

BUDGET = 4_096
WORDS = "how vexingly quick daft zebras jump the five boxing wizards".split()


def lines_for(n: int) -> list[str]:
    return [" ".join(WORDS[(i + j) % len(WORDS)] for j in range(6)) for i in range(n)]


def run_count(fault_plan=None, *, budget=BUDGET, workers=2, retries=3, backend="thread"):
    """One out-of-core wordcount; returns (counts, metrics.extra, report)."""
    with SparkContext(
        workers,
        backend=backend,
        memory_budget=budget,
        fault_plan=fault_plan,
        max_task_retries=retries,
    ) as sc:
        counts = dict(
            sc.parallelize(lines_for(3_000), 8)
            .flat_map(str.split)
            .map(lambda w: (w, 1))
            .reduce_by_key(lambda a, b: a + b)
            .collect()
        )
        return counts, dict(sc.metrics.extra), sc.fault_report


BASELINE = run_count()[0]


class TestSingleSpillFaults:
    @pytest.mark.parametrize("ctor", ["delete_spill", "truncate_spill", "corrupt_spill"])
    def test_recovers_bit_identical_with_evidence(self, ctor):
        plan = getattr(SparkFaultPlan, ctor)(0, file=0)
        counts, extra, report = run_count(plan)
        assert counts == BASELINE
        assert extra["spark.injected_faults"] >= 1
        assert extra["spark.lost_spill_files"] == 1
        assert extra["spark.spill_recoveries"] == 1
        assert extra["spark.recomputed_partitions"] >= 1
        (shuffle, slot, reason, path) = report.lost_spill_files()[0]
        assert (shuffle, slot) == (0, 0)
        assert reason in ("file deleted", "previously detected loss") or any(
            reason.startswith(p) for p in ("truncated", "checksum")
        )
        assert "run-00000.spill" in path
        assert report.spill_recoveries == [(0, 0)]
        assert "spill file(s) lost" in report.summary()

    def test_fault_on_never_written_slot_is_noop(self):
        plan = SparkFaultPlan.delete_spill(0, file=500)
        counts, extra, report = run_count(plan)
        assert counts == BASELINE
        assert extra.get("spark.lost_spill_files", 0) == 0
        assert report.lost_spill_files() == []

    def test_second_spill_file_fault_recovers(self):
        plan = SparkFaultPlan.corrupt_spill(0, file=1)
        counts, extra, _ = run_count(plan)
        assert counts == BASELINE
        assert extra["spark.spill_recoveries"] == 1

    def test_serial_and_thread_agree_under_fault(self):
        # Lost runs are healed on the driver, so a process backend's
        # forked workers never recover (and report) one out of its sight.
        for ctor in ("truncate_spill", "delete_spill"):
            plan = getattr(SparkFaultPlan, ctor)(0, file=0)
            serial, serial_extra, serial_report = run_count(plan, backend="serial")
            assert serial == BASELINE
            assert serial_extra["spark.spill_recoveries"] == 1
            for backend in ("thread", "process"):
                counts, extra, report = run_count(plan, backend=backend)
                assert counts == BASELINE
                assert extra == serial_extra, (ctor, backend)
                assert report.spill_recoveries == serial_report.spill_recoveries == [(0, 0)]


class TestUnrecoverablePlans:
    def test_refiring_fault_escalates_and_names_lost_files(self):
        plan = SparkFaultPlan.delete_spill(0, file=0, attempts=99)
        with pytest.raises(SparkJobFailedError) as err:
            run_count(plan, retries=2, backend="serial")
        lost = err.value.report.lost_spill_files()
        assert lost and lost[0][:2] == (0, 0)
        assert "spill file(s) lost" in str(err.value)

    def test_spill_dir_cleaned_after_failed_job(self):
        plan = SparkFaultPlan.corrupt_spill(0, file=0, attempts=99)
        sc = SparkContext(
            2, backend="serial", memory_budget=BUDGET, fault_plan=plan, max_task_retries=1
        )
        with pytest.raises(SparkJobFailedError):
            with sc:
                sc.parallelize(lines_for(3_000), 8).flat_map(str.split).map(
                    lambda w: (w, 1)
                ).reduce_by_key(lambda a, b: a + b).collect()
        # stop() ran via the with-block despite the failure
        assert sc.spill_directory is None


class TestSeedSweep:
    """Sampled plans across seeds: every survivable plan is bit-identical."""

    def test_sampled_spill_plans_recover(self):
        survived = faulted = 0
        for seed in range(12):
            plan = SparkFaultPlan.sample(
                seed,
                jobs=4,
                partitions=8,
                spill_delete_prob=0.12,
                spill_truncate_prob=0.12,
                spill_corrupt_prob=0.12,
                shuffles=2,
                spill_files=4,
            )
            counts, extra, report = run_count(plan)
            assert counts == BASELINE, f"seed {seed} diverged"
            survived += 1
            if report.lost_spill_files():
                faulted += 1
                assert extra["spark.spill_recoveries"] == len(report.spill_recoveries)
                assert {(s, f) for s, f, _, _ in report.lost_spill_files()} == set(
                    report.spill_recoveries
                )
        assert survived == 12
        assert faulted >= 3  # the sweep actually exercised the recovery path

    def test_sampling_is_deterministic_and_kinds_valid(self):
        kwargs = dict(
            jobs=2,
            partitions=4,
            spill_delete_prob=0.3,
            spill_truncate_prob=0.3,
            spill_corrupt_prob=0.3,
            shuffles=3,
            spill_files=6,
        )
        a = SparkFaultPlan.sample(99, **kwargs)
        b = SparkFaultPlan.sample(99, **kwargs)
        assert a.events == b.events
        spill_events = [e for e in a.events if e.kind in SPILL_FAULT_KINDS]
        assert spill_events  # 0.9 total prob over 18 slots
        assert {e.kind for e in spill_events} <= set(SPILL_FAULT_KINDS)

    def test_spill_region_does_not_shift_existing_draws(self):
        # Adding spill probabilities must not change what the pre-existing
        # regions (task/shuffle/broadcast) draw for the same seed.
        base = SparkFaultPlan.sample(7, jobs=3, partitions=5, task_fail_prob=0.2,
                                     shuffle_corrupt_prob=0.2, broadcast_corrupt_prob=0.2)
        with_spills = SparkFaultPlan.sample(7, jobs=3, partitions=5, task_fail_prob=0.2,
                                            shuffle_corrupt_prob=0.2, broadcast_corrupt_prob=0.2,
                                            spill_delete_prob=0.5)
        old = [e for e in with_spills.events if e.kind not in SPILL_FAULT_KINDS]
        assert tuple(old) == base.events

    def test_combined_task_and_spill_faults(self):
        plan = SparkFaultPlan.sample(
            3,
            jobs=4,
            partitions=8,
            task_fail_prob=0.1,
            straggle_prob=0.05,
            spill_delete_prob=0.2,
            shuffles=2,
            spill_files=4,
        )
        counts, _, _ = run_count(plan)
        assert counts == BASELINE

    def test_wordcount_spark_front_door_with_fault_plan(self):
        plan = SparkFaultPlan.delete_spill(0, file=0)
        lines = lines_for(3_000)
        assert wordcount_spark(
            lines, num_workers=2, memory_budget=BUDGET, fault_plan=plan
        ) == wordcount_spark(lines, num_workers=2)
