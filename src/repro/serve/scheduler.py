"""The multi-tenant job service: workers, deadlines, shedding, recovery.

:class:`JobService` is the long-lived layer the ROADMAP's north star
asks for: tenants submit jobs (arbitrary callables, typically closures
over the Spark/MapReduce engine entry points) and a fixed worker pool
runs them against shared state, under the full robustness kit:

- admission through a bounded :class:`~repro.serve.admission.FairShareQueue`
  (max-min fair dequeue, explicit :class:`~repro.serve.admission.QueueFullError`
  backpressure with retry-after hints — or, with ``shed_on_full=True``,
  graceful degradation: the lowest-priority queued job is load-shed to
  admit a higher-priority one, every eviction recorded in the
  structured :class:`ShedReport`);
- per-tenant :class:`~repro.serve.circuit.CircuitBreaker`\\ s so a
  poisoned tenant stops consuming capacity on doomed retries;
- per-job **deadlines** (queue residency bound: a job that cannot start
  in time fails fast with :class:`DeadlineExpired`, it never wastes a
  worker) and **wall timeouts** (running bound: a watchdog sets the
  job's cancel token and the engines unwind cooperatively at the next
  task boundary — :class:`~repro.spark.context.SparkJobCancelled` —
  with no partial accumulator commits and spill directories reclaimed);
- bounded retries on the shared deterministic
  :class:`~repro.util.backoff.BackoffPolicy` (jitter stream reseeded
  per submission, so concurrent retriers de-correlate reproducibly);
- a :class:`~repro.serve.faults.ServeFaultPlan` injecting
  scheduler-level faults — poisoned jobs, worker-pool losses (the job
  is requeued, the worker respawns after a backoff), queue stalls —
  with the evidence in a :class:`~repro.serve.faults.ServeFaultReport`.

Observability follows the house pattern: an always-on
:class:`ServeMetrics` counter block plus, when the process tracer is
enabled, one ``serve.j<submission>`` trace lane per job (span ``job``
with tenant/name/priority) and instants for every shed, cancel, and
injected fault (docs/observability.md lists the ``serve.*`` counters).

Determinism contract: the *scheduling* is concurrent (wall-clock
interleaving picks which worker runs which job), but every job's
*result* is a pure function of its own closure — the engines underneath
guarantee bit-identical results regardless of worker, attempt, or
co-tenant load. The soak suite (``repro.serve.traffic``) asserts
exactly that: every non-shed job equals its solo run bit-for-bit.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.serve.admission import FairShareQueue, QueueFullError
from repro.serve.circuit import CircuitBreaker, CircuitOpenError
from repro.serve.faults import (
    PoisonedJobError,
    ServeFaultPlan,
    ServeFaultReport,
    ServeInjectionRecord,
)
from repro.trace.tracer import get_tracer
from repro.util.backoff import BackoffPolicy
from repro.util.validation import require_nonnegative_int, require_positive_int

__all__ = [
    "JOB_STATES",
    "DeadlineExpired",
    "JobCancelled",
    "JobContext",
    "JobHandle",
    "JobService",
    "ServeMetrics",
    "ShedRecord",
    "ShedReport",
]

#: Terminal and transient job states.
JOB_STATES = (
    "queued", "running", "done", "failed", "cancelled", "timeout", "expired", "shed",
)
_TERMINAL_STATES = frozenset(JOB_STATES[2:])


class JobCancelled(RuntimeError):
    """A job observed its cancel token between engine calls and unwound."""

    def __init__(self, job: str) -> None:
        super().__init__(f"job {job} was cancelled")
        self.job = job


class DeadlineExpired(RuntimeError):
    """A job's queue-residency deadline passed before a worker picked it up."""

    def __init__(self, job: str, deadline: float, waited: float) -> None:
        super().__init__(
            f"job {job} missed its {deadline:.3f}s start deadline "
            f"(queued {waited:.3f}s); it was never started"
        )
        self.job = job
        self.deadline = deadline
        self.waited = waited


@dataclass
class ServeMetrics:
    """Always-on service counters (the :class:`~repro.spark.context.JobMetrics` idiom)."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    retries: int = 0
    shed: int = 0
    cancelled: int = 0
    timeouts: int = 0
    expired: int = 0
    rejected_full: int = 0
    rejected_circuit: int = 0
    extra: dict[str, int] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def bump(self, key: str, n: int = 1) -> None:
        """Thread-safely add ``n`` to the ``extra[key]`` counter."""
        with self._lock:
            self.extra[key] = self.extra.get(key, 0) + n


@dataclass(frozen=True)
class ShedRecord:
    """One load-shed job: who lost, what, and why."""

    tenant: str
    name: str
    priority: int
    submission: int
    reason: str


@dataclass
class ShedReport:
    """Structured evidence of every job the service dropped on purpose.

    Load shedding is graceful degradation, not loss: nothing leaves the
    queue silently. Thread-safe mutator; read after ``drain``.
    """

    records: list[ShedRecord] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def record(self, rec: ShedRecord) -> None:
        with self._lock:
            self.records.append(rec)

    def by_tenant(self) -> dict[str, int]:
        """Shed counts per tenant."""
        with self._lock:
            out: dict[str, int] = {}
            for rec in self.records:
                out[rec.tenant] = out.get(rec.tenant, 0) + 1
            return out

    def summary(self) -> str:
        with self._lock:
            lines = [f"ShedReport: {len(self.records)} job(s) shed"]
            for rec in sorted(self.records, key=lambda r: r.submission):
                lines.append(
                    f"  - #{rec.submission} {rec.tenant}/{rec.name} "
                    f"(priority {rec.priority}): {rec.reason}"
                )
        return "\n".join(lines)

    def __len__(self) -> int:
        with self._lock:
            return len(self.records)


class JobContext:
    """What a running job sees: its identity, cancel token, engine factory.

    Job bodies take one argument — this context — and should create
    their engine drivers through it (:meth:`spark_context`) so that
    cancellation and cleanup reach them: the token is wired into every
    context created here, and the worker stops them all (idempotently)
    when the job leaves the worker, however it leaves.

    Long pure-Python sections should call :meth:`check_cancelled` at
    natural boundaries; engine jobs get the check for free at every
    task boundary.
    """

    def __init__(
        self,
        tenant: str,
        name: str,
        submission: int,
        cancel_event: threading.Event,
    ) -> None:
        self.tenant = tenant
        self.name = name
        self.submission = submission
        self.cancel_event = cancel_event
        self._contexts: list[Any] = []
        self._lock = threading.Lock()

    @property
    def cancelled(self) -> bool:
        return self.cancel_event.is_set()

    def check_cancelled(self) -> None:
        """Raise :class:`JobCancelled` if the token is set (cooperative point)."""
        if self.cancel_event.is_set():
            raise JobCancelled(f"{self.tenant}/{self.name}")

    def spark_context(self, num_workers: int = 2, **kwargs: Any) -> Any:
        """A :class:`~repro.spark.SparkContext` wired to this job's token.

        Use as a context manager inside the body; the worker also stops
        it on the way out (``stop`` is idempotent), so spill directories
        never outlive the job even when cancellation unwinds the body
        mid-``with``.
        """
        from repro.spark import SparkContext

        kwargs.setdefault("name", f"serve-{self.tenant}-j{self.submission}")
        sc = SparkContext(num_workers, cancel_token=self.cancel_event, **kwargs)
        with self._lock:
            self._contexts.append(sc)
        return sc

    def _cleanup(self) -> None:
        """Stop every engine context the job created (idempotent)."""
        with self._lock:
            contexts, self._contexts = list(self._contexts), []
        for sc in contexts:
            sc.stop()


class JobHandle:
    """The submitter's view of one job: state, result, cancellation."""

    def __init__(self, service: "JobService", record: "_JobRecord") -> None:
        self._service = service
        self._record = record

    @property
    def tenant(self) -> str:
        return self._record.tenant

    @property
    def name(self) -> str:
        return self._record.name

    @property
    def submission(self) -> int:
        return self._record.submission

    @property
    def state(self) -> str:
        return self._record.state

    @property
    def attempts(self) -> int:
        return self._record.attempts

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job reaches a terminal state; True if it did."""
        return self._record.done.wait(timeout)

    def result(self, timeout: float | None = None) -> Any:
        """The job's return value; re-raises its failure otherwise."""
        if not self.wait(timeout):
            raise TimeoutError(
                f"job {self._record.tenant}/{self._record.name} still "
                f"{self._record.state!r} after {timeout}s"
            )
        if self._record.state == "done":
            return self._record.result
        error = self._record.error
        if error is not None:
            raise error
        raise RuntimeError(
            f"job {self._record.tenant}/{self._record.name} ended "
            f"{self._record.state!r} with no result"
        )

    def cancel(self) -> None:
        """Request cooperative cancellation (queued or running)."""
        self._service._cancel(self._record)

    def __repr__(self) -> str:
        return (
            f"JobHandle(#{self._record.submission} {self._record.tenant}/"
            f"{self._record.name}, {self._record.state})"
        )


class _JobRecord:
    """Scheduler-internal job state (the handle is the public face)."""

    __slots__ = (
        "tenant", "name", "fn", "priority", "submission", "timeout", "deadline",
        "state", "result", "error", "attempts", "worker", "submitted_at",
        "started_at", "finished_at", "cancel_event", "done", "timed_out", "lock",
    )

    def __init__(
        self,
        tenant: str,
        name: str,
        fn: Callable[[JobContext], Any],
        priority: int,
        submission: int,
        timeout: float | None,
        deadline: float | None,
        submitted_at: float,
    ) -> None:
        self.tenant = tenant
        self.name = name
        self.fn = fn
        self.priority = priority
        self.submission = submission
        self.timeout = timeout
        self.deadline = deadline
        self.state = "queued"
        self.result: Any = None
        self.error: BaseException | None = None
        self.attempts = 0
        self.worker: int | None = None
        self.submitted_at = submitted_at
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.cancel_event = threading.Event()
        self.done = threading.Event()
        self.timed_out = False
        self.lock = threading.Lock()


class JobService:
    """A long-lived, fault-hardened job scheduler over shared engines.

    Usable as a context manager; :meth:`shutdown` is idempotent.

    Parameters
    ----------
    num_workers:
        Worker threads executing jobs concurrently.
    capacity / per_tenant_capacity:
        Bounds on the submission queue (see
        :class:`~repro.serve.admission.FairShareQueue`).
    max_retries:
        Re-executions of a failed job body before it is declared failed.
    retry_backoff:
        The :class:`~repro.util.backoff.BackoffPolicy` between attempts
        (reseeded per submission so retriers de-correlate); also the
        respawn delay after an injected worker loss.
    shed_on_full:
        When True, a submission that finds the queue full evicts the
        lowest-priority queued job *if the newcomer outranks it* (the
        eviction lands in :attr:`shed_report`); when it does not
        outrank anything, the submission is rejected with
        :class:`~repro.serve.admission.QueueFullError` as usual.
    circuit_threshold / circuit_recovery:
        Per-tenant breaker tuning (consecutive failures to trip; open
        seconds before a half-open probe).
    default_timeout:
        Wall-timeout applied to jobs submitted without an explicit one
        (None = unbounded).
    fault_plan:
        Optional :class:`~repro.serve.faults.ServeFaultPlan`; inert when
        None (the usual no-plan hot path: one ``is None`` test per seam).
    clock:
        Injectable monotonic clock (tests pin deadlines without sleeping).
    """

    def __init__(
        self,
        num_workers: int = 2,
        *,
        capacity: int = 64,
        per_tenant_capacity: int | None = None,
        max_retries: int = 1,
        retry_backoff: BackoffPolicy | None = None,
        shed_on_full: bool = False,
        circuit_threshold: int = 3,
        circuit_recovery: float = 0.05,
        default_timeout: float | None = None,
        service_time_hint: float = 0.005,
        fault_plan: ServeFaultPlan | None = None,
        watchdog_interval: float = 0.002,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.num_workers = require_positive_int("num_workers", num_workers)
        self.max_retries = require_nonnegative_int("max_retries", max_retries)
        self.retry_backoff = retry_backoff if retry_backoff is not None else BackoffPolicy(0.001)
        self.shed_on_full = shed_on_full
        self.default_timeout = default_timeout
        self._clock = clock
        self._fault_plan = fault_plan
        self.fault_report: ServeFaultReport | None = (
            ServeFaultReport(plan=fault_plan) if fault_plan is not None else None
        )
        self.queue = FairShareQueue(
            capacity,
            per_tenant_capacity=per_tenant_capacity,
            service_time_hint=service_time_hint,
        )
        self.metrics = ServeMetrics()
        self.shed_report = ShedReport()
        self._circuit_threshold = circuit_threshold
        self._circuit_recovery = circuit_recovery
        self._breakers: dict[str, CircuitBreaker] = {}
        self._breaker_lock = threading.Lock()
        self._submissions = itertools.count()
        self._dequeues = itertools.count()
        self._records: dict[int, _JobRecord] = {}
        # Running jobs with a wall timeout: all the watchdog scans.
        self._bounded: dict[int, _JobRecord] = {}
        self._records_lock = threading.Lock()
        self._outstanding = 0
        self._drained = threading.Condition(self._records_lock)
        self._stopping = False
        self._shutdown_done = False
        self._watchdog_interval = watchdog_interval
        self._watchdog_wake = threading.Event()
        self._threads = [
            threading.Thread(target=self._worker_loop, args=(w,),
                             name=f"serve-worker-{w}", daemon=True)
            for w in range(num_workers)
        ]
        self._watchdog = threading.Thread(
            target=self._watchdog_loop, name="serve-watchdog", daemon=True
        )
        for t in self._threads:
            t.start()
        self._watchdog.start()

    # ------------------------------------------------------------------
    # submission side
    # ------------------------------------------------------------------
    def breaker(self, tenant: str) -> CircuitBreaker:
        """The tenant's circuit breaker (created on first use)."""
        with self._breaker_lock:
            breaker = self._breakers.get(tenant)
            if breaker is None:
                breaker = CircuitBreaker(
                    tenant,
                    failure_threshold=self._circuit_threshold,
                    recovery_time=self._circuit_recovery,
                    clock=self._clock,
                )
                self._breakers[tenant] = breaker
            return breaker

    def submit(
        self,
        tenant: str,
        fn: Callable[[JobContext], Any],
        *,
        name: str | None = None,
        priority: int = 0,
        timeout: float | None = None,
        deadline: float | None = None,
    ) -> JobHandle:
        """Admit one job for ``tenant``; returns its :class:`JobHandle`.

        Raises :class:`~repro.serve.circuit.CircuitOpenError` when the
        tenant's breaker is open and
        :class:`~repro.serve.admission.QueueFullError` under
        backpressure (unless ``shed_on_full`` finds a lower-priority
        victim to evict). ``timeout`` bounds running wall time,
        ``deadline`` bounds queue residency; both cancel cooperatively.
        """
        if self._stopping:
            raise RuntimeError("JobService is shut down; create a fresh one")
        try:
            self.breaker(tenant).allow()
        except CircuitOpenError:
            self.metrics.rejected_circuit += 1
            self.metrics.bump(f"serve.rejected_circuit.{tenant}")
            raise
        submission = next(self._submissions)
        record = _JobRecord(
            tenant,
            name if name is not None else f"job{submission}",
            fn,
            priority,
            submission,
            timeout if timeout is not None else self.default_timeout,
            deadline,
            self._clock(),
        )
        self._admit(record)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                "submit", category="serve", scope="serve.admission",
                tenant=tenant, submission=submission, priority=priority,
            )
        return JobHandle(self, record)

    def _admit(self, record: _JobRecord) -> None:
        """Queue a record, load-shedding a lower-priority victim if allowed."""
        with self._records_lock:
            self._records[record.submission] = record
            self._outstanding += 1
        try:
            try:
                self.queue.push(record.tenant, record, record.priority)
            except QueueFullError:
                if not self.shed_on_full:
                    raise
                victims = self.queue.shed_lowest(1)
                if not victims or victims[0][1] >= record.priority:
                    # Nothing outranked: put any victim back and reject.
                    for tenant, priority, item in victims:
                        self.queue.requeue(tenant, item, priority)
                    raise
                self._mark_shed(victims[0][2], "overload: displaced by "
                                f"priority-{record.priority} submission")
                self.queue.push(record.tenant, record, record.priority)
            self.metrics.submitted += 1
        except QueueFullError:
            with self._records_lock:
                del self._records[record.submission]
                self._outstanding -= 1
                self._drained.notify_all()
            self.metrics.rejected_full += 1
            raise

    def _mark_shed(self, record: _JobRecord, reason: str) -> None:
        with record.lock:
            record.state = "shed"
            record.finished_at = self._clock()
        self.shed_report.record(
            ShedRecord(record.tenant, record.name, record.priority, record.submission, reason)
        )
        self.metrics.shed += 1
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                "shed", category="serve", scope="serve.admission",
                tenant=record.tenant, submission=record.submission, reason=reason,
            )
        self._finish(record)

    def shed_queued(self, count: int, reason: str = "overload") -> int:
        """Explicit load shedding: evict the ``count`` lowest-priority
        queued jobs into the :attr:`shed_report`; returns how many went."""
        victims = self.queue.shed_lowest(count)
        for _tenant, _priority, record in victims:
            self._mark_shed(record, reason)
        return len(victims)

    # ------------------------------------------------------------------
    # worker pool
    # ------------------------------------------------------------------
    def _worker_loop(self, worker: int) -> None:
        jobs_started = 0
        plan = self._fault_plan
        # Each worker-loss slot fires once per service lifetime: the
        # respawned worker restarts its jobs-started count at 0, which
        # would otherwise re-hit the same slot forever.
        fired_losses: set[int] = set()
        while True:
            if self._stopping and self.queue.depth() == 0:
                return
            if plan is not None:
                stall = plan.stall_event(next(self._dequeues))
                if stall is not None:
                    self._record_injection(
                        ServeInjectionRecord("queue_stall", stall.unit, seconds=stall.seconds)
                    )
                    time.sleep(stall.seconds)
            entry = self.queue.pop(timeout=0.05)
            if entry is None:
                continue
            _tenant, record = entry
            if (
                plan is not None
                and jobs_started not in fired_losses
                and plan.kills_worker(worker, jobs_started)
            ):
                fired_losses.add(jobs_started)
                # The worker dies holding the job: requeue it (never lost),
                # then "respawn" after the backoff — same thread, fresh count.
                self._record_injection(
                    ServeInjectionRecord("worker_loss", jobs_started, worker=worker)
                )
                assert self.fault_report is not None
                self.fault_report.record_requeue()
                self.queue.requeue(record.tenant, record, record.priority)
                self.metrics.bump("serve.worker_losses")
                self.retry_backoff.reseeded(worker).sleep(0)
                self.fault_report.record_worker_respawn(worker)
                self.metrics.bump("serve.worker_respawns")
                jobs_started = 0
                continue
            jobs_started += 1
            try:
                self._run_job(worker, record)
            except Exception as exc:  # pragma: no cover - scheduler-internal bug
                # A worker thread must never die silently: fail the job
                # with the evidence and keep serving the queue.
                with record.lock:
                    if record.state not in _TERMINAL_STATES:
                        record.state = "failed"
                        record.error = exc
                        record.finished_at = self._clock()
                        self.metrics.failed += 1
                if not record.done.is_set():
                    self._finish(record)

    def _run_job(self, worker: int, record: _JobRecord) -> None:
        now = self._clock()
        with record.lock:
            if record.state != "queued":
                return  # cancelled or shed while waiting
            waited = now - record.submitted_at
            if record.deadline is not None and waited > record.deadline:
                record.state = "expired"
                record.error = DeadlineExpired(
                    f"{record.tenant}/{record.name}", record.deadline, waited
                )
                record.finished_at = now
                expired = True
            else:
                record.state = "running"
                record.worker = worker
                record.started_at = now
                expired = False
        if expired:
            self.metrics.expired += 1
            self.breaker(record.tenant).record_failure()
            self._finish(record)
            return
        if record.timeout is not None:
            with self._records_lock:
                self._bounded[record.submission] = record
            self._watchdog_wake.set()
        tracer = get_tracer()
        ctx = JobContext(record.tenant, record.name, record.submission, record.cancel_event)
        try:
            if tracer.enabled:
                with tracer.scope(f"serve.j{record.submission}"):
                    with tracer.span(
                        "job", category="serve", tenant=record.tenant,
                        job=record.name, priority=record.priority, worker=worker,
                    ):
                        self._run_attempts(record, ctx)
            else:
                self._run_attempts(record, ctx)
        finally:
            ctx._cleanup()
            self._finish(record)

    def _run_attempts(self, record: _JobRecord, ctx: JobContext) -> None:
        plan = self._fault_plan
        backoff = self.retry_backoff.reseeded(record.submission)
        attempt = 0
        while True:
            record.attempts = attempt + 1
            try:
                ctx.check_cancelled()
                if plan is not None and plan.poisons(record.submission):
                    self._record_injection(
                        ServeInjectionRecord("poison", record.submission)
                    )
                    raise PoisonedJobError(record.submission)
                result = record.fn(ctx)
            except BaseException as exc:  # noqa: BLE001 - every exit routed below
                from repro.spark.context import SparkJobCancelled

                if isinstance(exc, (JobCancelled, SparkJobCancelled)):
                    with record.lock:
                        record.state = "timeout" if record.timed_out else "cancelled"
                        record.error = exc
                        record.finished_at = self._clock()
                    if record.timed_out:
                        self.metrics.timeouts += 1
                    else:
                        self.metrics.cancelled += 1
                    return
                if isinstance(exc, Exception) and attempt < self.max_retries:
                    self.metrics.retries += 1
                    self.metrics.bump(f"serve.retries.{record.tenant}")
                    backoff.sleep(attempt)
                    attempt += 1
                    continue
                with record.lock:
                    record.state = "failed"
                    record.error = exc
                    record.finished_at = self._clock()
                self.metrics.failed += 1
                tripped = self.breaker(record.tenant).record_failure()
                if tripped:
                    self.metrics.bump("serve.circuit_opens")
                    tracer = get_tracer()
                    if tracer.enabled:
                        tracer.instant(
                            "circuit_open", category="serve", scope="serve.admission",
                            tenant=record.tenant, submission=record.submission,
                        )
                if not isinstance(exc, Exception):
                    raise  # KeyboardInterrupt and friends keep propagating
                return
            with record.lock:
                record.state = "done"
                record.result = result
                record.finished_at = self._clock()
            self.metrics.completed += 1
            self.breaker(record.tenant).record_success()
            return

    def _finish(self, record: _JobRecord) -> None:
        """Mark one job settled (idempotent: every exit path may call it)."""
        with self._records_lock:
            if record.done.is_set():
                return
            record.done.set()
            self._bounded.pop(record.submission, None)
            self._outstanding -= 1
            if self._outstanding == 0:
                self._drained.notify_all()

    def _record_injection(self, record: ServeInjectionRecord) -> None:
        assert self.fault_report is not None
        self.fault_report.fire(
            record, self.metrics, get_tracer(), scope="serve.scheduler",
            unit=record.unit, worker=record.worker,
        )

    # ------------------------------------------------------------------
    # deadlines / cancellation
    # ------------------------------------------------------------------
    def _watchdog_loop(self) -> None:
        """Set cancel tokens on running jobs past their wall timeout.

        Scans only the running jobs that have a timeout, so a scan costs
        the same however many jobs the service has finished."""
        while not self._shutdown_done:
            self._watchdog_wake.wait(timeout=self._watchdog_interval * 25)
            self._watchdog_wake.clear()
            if self._shutdown_done:
                return
            deadline_pending = False
            now = self._clock()
            with self._records_lock:
                bounded = list(self._bounded.values())
            for record in bounded:
                if record.state != "running":
                    continue
                deadline_pending = True
                if now - record.started_at > record.timeout:
                    record.timed_out = True
                    record.cancel_event.set()
                    tracer = get_tracer()
                    if tracer.enabled:
                        tracer.instant(
                            "wall_timeout", category="serve", scope="serve.scheduler",
                            tenant=record.tenant, submission=record.submission,
                        )
            if deadline_pending:
                # Poll fast only while a bounded job is actually running.
                self._watchdog_wake.wait(timeout=self._watchdog_interval)
                self._watchdog_wake.set()

    def _cancel(self, record: _JobRecord) -> None:
        with record.lock:
            if record.state == "queued":
                record.state = "cancelled"
                record.error = JobCancelled(f"{record.tenant}/{record.name}")
                record.finished_at = self._clock()
                cancelled_in_queue = True
            else:
                cancelled_in_queue = record.state not in _TERMINAL_STATES
                record.cancel_event.set()
        if cancelled_in_queue and record.done.is_set():
            return
        if record.state == "cancelled" and not record.done.is_set():
            self.metrics.cancelled += 1
            self._finish(record)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def drain(self, timeout: float | None = None) -> bool:
        """Block until every admitted job reached a terminal state."""
        with self._records_lock:
            return self._drained.wait_for(lambda: self._outstanding == 0, timeout=timeout)

    def job_records(self) -> list[JobHandle]:
        """Handles for every admitted job, in submission order."""
        with self._records_lock:
            return [JobHandle(self, r) for _, r in sorted(self._records.items())]

    def tenant_completions(self) -> dict[str, int]:
        """Completed-job counts per tenant (the fairness witness)."""
        with self._records_lock:
            out: dict[str, int] = {}
            for record in self._records.values():
                if record.state == "done":
                    out[record.tenant] = out.get(record.tenant, 0) + 1
            return out

    def shutdown(self, *, drain: bool = True, timeout: float | None = None) -> None:
        """Stop the service (idempotent).

        ``drain=True`` lets queued jobs finish first; ``drain=False``
        cancels everything still queued (their handles end
        ``"cancelled"``) and only waits for the jobs already running.
        """
        if self._shutdown_done:
            return
        self._stopping = True
        if not drain:
            with self._records_lock:
                queued = [r for r in self._records.values() if r.state == "queued"]
            for record in queued:
                self._cancel(record)
        else:
            self.drain(timeout=timeout)
        self.queue.close()
        for t in self._threads:
            t.join(timeout=5.0)
        self._shutdown_done = True
        self._watchdog_wake.set()
        self._watchdog.join(timeout=5.0)

    def __enter__(self) -> "JobService":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        state = "stopped" if self._shutdown_done else "serving"
        plan = f", fault_plan={self._fault_plan!r}" if self._fault_plan is not None else ""
        return (
            f"JobService({self.num_workers} worker(s), {self.queue!r}, {state}{plan})"
        )
