"""ServeFaultPlan: reproducible sampling, slot semantics, the report."""

import pytest

from repro.serve.faults import (
    PoisonedJobError,
    ServeFaultEvent,
    ServeFaultPlan,
    ServeFaultReport,
    ServeInjectionRecord,
)


class TestEvents:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ServeFaultEvent("meteor", 0)

    def test_negative_coordinates_rejected(self):
        with pytest.raises(ValueError):
            ServeFaultEvent("poison", -1)
        with pytest.raises(ValueError):
            ServeFaultEvent("queue_stall", 0, seconds=-0.1)

    def test_duplicate_slot_rejected(self):
        with pytest.raises(ValueError):
            ServeFaultPlan([ServeFaultEvent("poison", 3), ServeFaultEvent("poison", 3)])


class TestConstructors:
    def test_poison_job(self):
        plan = ServeFaultPlan.poison_job(5)
        assert plan.poisons(5)
        assert not plan.poisons(4)

    def test_kill_worker(self):
        plan = ServeFaultPlan.kill_worker(2, after_jobs=3)
        assert plan.kills_worker(2, 3)
        assert not plan.kills_worker(2, 2)
        assert not plan.kills_worker(1, 3)

    def test_stall_queue(self):
        plan = ServeFaultPlan.stall_queue(4, seconds=0.007)
        event = plan.stall_event(4)
        assert event is not None and event.seconds == 0.007
        assert plan.stall_event(3) is None


class TestSampling:
    def test_bit_identical_per_seed(self):
        kwargs = dict(
            submissions=64, workers=4,
            poison_prob=0.1, worker_loss_prob=0.05, stall_prob=0.1,
        )
        a = ServeFaultPlan.sample(11, **kwargs)
        b = ServeFaultPlan.sample(11, **kwargs)
        assert a.trace() == b.trace()
        assert a.trace() != ServeFaultPlan.sample(12, **kwargs).trace()

    def test_streams_independent_of_other_families(self):
        # Turning stalls off must not move the poison draws: each
        # family owns a disjoint block of the LCG sequence.
        a = ServeFaultPlan.sample(3, submissions=64, poison_prob=0.2, stall_prob=0.3)
        b = ServeFaultPlan.sample(3, submissions=64, poison_prob=0.2, stall_prob=0.0)
        assert {e.unit for e in a.events if e.kind == "poison"} == {
            e.unit for e in b.events if e.kind == "poison"
        }

    def test_worker_losses_capped(self):
        plan = ServeFaultPlan.sample(
            0, submissions=8, workers=4, worker_loss_prob=1.0
        )
        losses = [e for e in plan.events if e.kind == "worker_loss"]
        # Default budget keeps at least one worker undisturbed...
        assert len(losses) == 3
        # ...and each worker dies at most once.
        assert len({e.worker for e in losses}) == len(losses)

    def test_max_worker_losses_zero_disables(self):
        plan = ServeFaultPlan.sample(
            0, submissions=8, workers=4, worker_loss_prob=1.0, max_worker_losses=0
        )
        assert all(e.kind != "worker_loss" for e in plan.events)

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            ServeFaultPlan.sample(0, submissions=8, poison_prob=1.5)
        with pytest.raises(ValueError):
            ServeFaultPlan.sample(0, submissions=0)
        # Rejected whatever the seed draws, even when nothing would fire.
        with pytest.raises(ValueError, match="stall_seconds"):
            ServeFaultPlan.sample(0, submissions=8, stall_seconds=-1)
        with pytest.raises(ValueError, match="max_worker_losses"):
            ServeFaultPlan.sample(0, submissions=8, max_worker_losses=-1)
        # Each draw family owns a 2**20-draw block; a longer family would
        # reuse the next family's draws.
        with pytest.raises(ValueError, match="block"):
            ServeFaultPlan.sample(0, submissions=2**20 + 1)
        with pytest.raises(ValueError, match="block"):
            ServeFaultPlan.sample(0, submissions=8, jobs_per_worker=2**20 + 1)

    def test_zero_probs_empty_plan(self):
        plan = ServeFaultPlan.sample(0, submissions=16)
        assert len(plan) == 0
        assert plan.trace() == ()


class TestReport:
    def test_thread_safe_accounting_and_summary(self):
        report = ServeFaultReport()
        report.record_injection(ServeInjectionRecord("poison", 2))
        report.record_injection(ServeInjectionRecord("worker_loss", 0, worker=1))
        report.record_requeue()
        report.record_worker_respawn(1)
        assert report.trace() == (("poison", 0, 2), ("worker_loss", 1, 0))
        text = report.summary()
        assert "2 fault(s) fired" in text
        assert "worker 1 respawned 1 time(s)" in text
        assert "1 job(s) requeued" in text

    def test_poisoned_job_error_carries_submission(self):
        err = PoisonedJobError(7)
        assert err.submission == 7
        assert "poisoned" in str(err)
