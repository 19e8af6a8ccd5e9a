"""JobService: lifecycle, deadlines, cancellation, faults, degradation."""

import threading
import time

import pytest

import repro.core.executor as executor_module
from repro.core.executor import ThreadExecutor
from repro.serve import (
    CircuitOpenError,
    DeadlineExpired,
    JobService,
    PoisonedJobError,
    QueueFullError,
    ServeFaultPlan,
    TrafficJob,
    job_body,
    run_solo,
)
from repro.serve.traffic import TRAFFIC_WORKLOADS
from repro.spark.context import SparkJobCancelled
from repro.trace.history import result_digest


class TestBasics:
    def test_submit_wait_result(self):
        with JobService(2) as svc:
            h = svc.submit("t", lambda ctx: 40 + 2, name="add")
            assert h.result(5.0) == 42
            assert h.state == "done"
            assert h.attempts == 1
        assert svc.metrics.completed == 1

    def test_context_manager_shutdown_idempotent(self):
        svc = JobService(1)
        svc.shutdown()
        svc.shutdown()
        with pytest.raises(RuntimeError):
            svc.submit("t", lambda ctx: 1)

    def test_failure_reraised_from_result(self):
        with JobService(1, max_retries=0) as svc:
            h = svc.submit("t", lambda ctx: 1 / 0, name="boom")
            h.wait(5.0)
            assert h.state == "failed"
            with pytest.raises(ZeroDivisionError):
                h.result()

    def test_retries_then_success(self):
        attempts = []

        def flaky(ctx):
            attempts.append(1)
            if len(attempts) < 3:
                raise RuntimeError("transient")
            return "ok"

        with JobService(1, max_retries=3) as svc:
            h = svc.submit("t", flaky)
            assert h.result(5.0) == "ok"
            assert h.attempts == 3
        assert svc.metrics.retries == 2

    def test_drain_waits_for_everything(self):
        with JobService(2) as svc:
            handles = [svc.submit("t", lambda ctx: i, name=f"j{i}") for i in range(8)]
            assert svc.drain(timeout=10.0)
            assert all(h.state == "done" for h in handles)

    def test_job_records_in_submission_order(self):
        with JobService(1) as svc:
            svc.submit("a", lambda ctx: 1)
            svc.submit("b", lambda ctx: 2)
            svc.drain(5.0)
            assert [h.tenant for h in svc.job_records()] == ["a", "b"]


class TestBackpressure:
    def _blocked_service(self, **kwargs):
        svc = JobService(1, **kwargs)
        gate = threading.Event()
        svc.submit("t", lambda ctx: gate.wait(10), name="blocker")
        time.sleep(0.05)  # let the worker pick it up
        return svc, gate

    def test_queue_full_raises_with_hint(self):
        svc, gate = self._blocked_service(capacity=1)
        try:
            svc.submit("t", lambda ctx: 1)
            with pytest.raises(QueueFullError) as err:
                svc.submit("t", lambda ctx: 2)
            assert err.value.retry_after > 0
            assert svc.metrics.rejected_full == 1
        finally:
            gate.set()
            svc.shutdown()

    def test_shed_on_full_displaces_lower_priority(self):
        svc, gate = self._blocked_service(capacity=2, shed_on_full=True)
        try:
            low1 = svc.submit("a", lambda ctx: 1, priority=0, name="low1")
            low2 = svc.submit("b", lambda ctx: 1, priority=0, name="low2")
            vip = svc.submit("c", lambda ctx: "vip", priority=5, name="vip")
            gate.set()
            assert vip.result(5.0) == "vip"
            svc.drain(5.0)
            # The newest equal-priority victim was shed, the other ran.
            assert sorted([low1.state, low2.state]) == ["done", "shed"]
            assert [r.name for r in svc.shed_report.records] == ["low2"]
            assert "overload" in svc.shed_report.records[0].reason
            assert svc.metrics.shed == 1
        finally:
            svc.shutdown()

    def test_shed_on_full_still_rejects_equal_priority(self):
        svc, gate = self._blocked_service(capacity=1, shed_on_full=True)
        try:
            svc.submit("a", lambda ctx: 1, priority=3)
            with pytest.raises(QueueFullError):
                svc.submit("b", lambda ctx: 2, priority=3)  # no one outranked
            assert len(svc.shed_report) == 0
        finally:
            gate.set()
            svc.shutdown()

    def test_explicit_shed_queued(self):
        svc, gate = self._blocked_service(capacity=8)
        try:
            handles = [svc.submit("t", lambda ctx: 1, priority=i, name=f"p{i}") for i in range(3)]
            assert svc.shed_queued(2, reason="maintenance") == 2
            gate.set()
            svc.drain(5.0)
            assert [h.state for h in handles] == ["shed", "shed", "done"]
            assert svc.shed_report.by_tenant() == {"t": 2}
        finally:
            svc.shutdown()


class TestDeadlinesAndCancellation:
    def test_deadline_expires_in_queue(self):
        svc = JobService(1)
        gate = threading.Event()
        try:
            svc.submit("t", lambda ctx: gate.wait(10), name="blocker")
            time.sleep(0.05)
            late = svc.submit("t", lambda ctx: 2, deadline=0.01, name="late")
            time.sleep(0.1)
            gate.set()
            late.wait(5.0)
            assert late.state == "expired"
            with pytest.raises(DeadlineExpired):
                late.result()
            assert svc.metrics.expired == 1
        finally:
            gate.set()
            svc.shutdown()

    def test_wall_timeout_cancels_spark_job_cleanly(self, tmp_path):
        def slow(ctx):
            with ctx.spark_context(2, spill_dir=str(tmp_path)) as sc:
                return (
                    sc.parallelize(range(64), 16)
                    .map(lambda x: (time.sleep(0.05), x)[1])
                    .collect()
                )

        with JobService(1, default_timeout=0.15, watchdog_interval=0.005) as svc:
            h = svc.submit("t", slow, name="slow")
            h.wait(20.0)
            assert h.state == "timeout"
            with pytest.raises(SparkJobCancelled):
                h.result()
            assert svc.metrics.timeouts == 1
        # Engine state left clean: every spill dir reclaimed.
        assert list(tmp_path.iterdir()) == []

    def test_watchdog_scans_only_running_bounded_jobs(self):
        class Watched(dict):
            """``_records``, counting the watchdog thread's scans of it."""

            scans = 0

            def values(self):
                if threading.current_thread().name == "serve-watchdog":
                    Watched.scans += 1
                return super().values()

        seen = []

        def bounded(ctx):
            while True:
                with svc._records_lock:
                    seen.append(len(svc._bounded))
                ctx.check_cancelled()
                time.sleep(0.002)

        with JobService(2, capacity=512, watchdog_interval=0.002) as svc:
            finished = [svc.submit("t", lambda ctx: 1) for _ in range(300)]
            assert svc.drain(10.0)
            with svc._records_lock:
                svc._records = Watched(svc._records)
            assert svc._bounded == {}
            start = time.monotonic()
            h = svc.submit("t", bounded, timeout=0.05, name="bounded")
            assert h.wait(5.0)
            elapsed = time.monotonic() - start
            assert h.state == "timeout"
            assert svc.metrics.timeouts == 1
            assert elapsed < 2.0
            assert set(seen) == {1}
            assert svc._bounded == {}
            assert Watched.scans == 0
            assert len(svc.job_records()) == len(finished) + 1
            assert svc.tenant_completions() == {"t": 300}

    def test_cancel_queued_job(self):
        svc = JobService(1)
        gate = threading.Event()
        try:
            svc.submit("t", lambda ctx: gate.wait(10))
            time.sleep(0.05)
            victim = svc.submit("t", lambda ctx: 3, name="victim")
            victim.cancel()
            gate.set()
            victim.wait(5.0)
            assert victim.state == "cancelled"
            assert svc.metrics.cancelled == 1
        finally:
            gate.set()
            svc.shutdown()

    def test_cancel_running_job_cooperative(self):
        started = threading.Event()

        def cooperative(ctx):
            started.set()
            while True:
                ctx.check_cancelled()
                time.sleep(0.002)

        with JobService(1) as svc:
            h = svc.submit("t", cooperative)
            assert started.wait(5.0)
            h.cancel()
            h.wait(5.0)
            assert h.state == "cancelled"

    def test_shutdown_nodrain_cancels_queued(self):
        svc = JobService(1)
        gate = threading.Event()
        svc.submit("t", lambda ctx: gate.wait(10), name="running")
        time.sleep(0.05)
        queued = svc.submit("t", lambda ctx: 1, name="queued")
        gate.set()
        svc.shutdown(drain=False)
        assert queued.state == "cancelled"


class TestCircuitIntegration:
    def test_breaker_trips_and_recovers(self):
        clock = [0.0]
        with JobService(
            1, max_retries=0, circuit_threshold=2, circuit_recovery=5.0,
            clock=lambda: clock[0],
        ) as svc:
            for _ in range(2):
                h = svc.submit("bad", lambda ctx: 1 / 0)
                h.wait(5.0)
            with pytest.raises(CircuitOpenError) as err:
                svc.submit("bad", lambda ctx: 1)
            assert err.value.retry_after > 0
            assert svc.metrics.rejected_circuit == 1
            # Other tenants are unaffected.
            assert svc.submit("good", lambda ctx: "fine").result(5.0) == "fine"
            # After the cool-down a probe is admitted and closes it.
            clock[0] += 5.0
            assert svc.submit("bad", lambda ctx: "recovered").result(5.0) == "recovered"
            assert svc.breaker("bad").state == "closed"


class TestFaultInjection:
    def test_poisoned_job_fails_every_attempt(self):
        with JobService(
            1, max_retries=2, fault_plan=ServeFaultPlan.poison_job(0),
            circuit_threshold=100,
        ) as svc:
            h = svc.submit("t", lambda ctx: "never", name="poisoned")
            h.wait(5.0)
            assert h.state == "failed"
            assert h.attempts == 3
            with pytest.raises(PoisonedJobError):
                h.result()
            # One injection per attempt — retries burned out for real.
            assert svc.fault_report.trace() == (("poison", 0, 0),) * 3

    def test_worker_loss_requeues_and_respawns(self):
        with JobService(1, fault_plan=ServeFaultPlan.kill_worker(0, after_jobs=0)) as svc:
            h = svc.submit("t", lambda ctx: "alive", name="survivor")
            assert h.result(10.0) == "alive"
            report = svc.fault_report
            assert report.requeued_jobs == 1
            assert report.worker_respawns == {0: 1}
            assert report.trace() == (("worker_loss", 0, 0),)

    def test_queue_stall_delays_but_loses_nothing(self):
        plan = ServeFaultPlan.stall_queue(0, seconds=0.02)
        with JobService(1, fault_plan=plan) as svc:
            h = svc.submit("t", lambda ctx: "ok")
            assert h.result(5.0) == "ok"
            assert svc.fault_report.trace() == (("queue_stall", 0, 0),)

    def test_no_plan_no_report(self):
        with JobService(1) as svc:
            svc.submit("t", lambda ctx: 1).wait(5.0)
            assert svc.fault_report is None


class TestJobsMapOnTheirWorker:
    """A job's thread-executor maps run on the service worker running it."""

    def test_thread_map_and_spark_tasks_run_on_the_worker(self):
        def body(ctx):
            mapped = ThreadExecutor(2).map(lambda i, x: threading.get_ident(), range(4))
            with ctx.spark_context(2) as sc:
                # The shuffle's map stage materializes inside a reduce task.
                grouped = (
                    sc.parallelize(list(range(8)), 4)
                    .map(lambda x: (x % 3, threading.get_ident()))
                    .group_by_key(2)
                    .map(lambda kv: (set(kv[1]), threading.get_ident()))
                    .collect()
                )
            spark = {ident for seen, reducer in grouped for ident in (*seen, reducer)}
            return threading.current_thread().name, threading.get_ident(), set(mapped), spark

        with JobService(2) as svc:
            name, worker, mapped, spark = svc.submit("t", body).result(10.0)
        assert name.startswith("serve-worker-")
        assert mapped == {worker} and spark == {worker}

    def test_traffic_jobs_equal_solo_and_launch_no_team(self, monkeypatch):
        jobs = [
            TrafficJob("t", workload, 0, seed, 0.0, f"{workload}-{seed}")
            for workload in TRAFFIC_WORKLOADS
            for seed in range(6)
        ]
        solo = [result_digest(run_solo(job)) for job in jobs]
        launchers = []
        run_team = executor_module.run_team

        def spy(n, fn, **kwargs):
            launchers.append(threading.current_thread().name)
            return run_team(n, fn, **kwargs)

        monkeypatch.setattr(executor_module, "run_team", spy)
        with JobService(2) as svc:
            handles = [svc.submit(job.tenant, job_body(job), name=job.name) for job in jobs]
            served = [result_digest(h.result(30.0)) for h in handles]
        assert served == solo
        assert launchers == []
