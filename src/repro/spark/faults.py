"""Deterministic fault injection for the mini-Spark engine.

Real Spark's defining robustness claim is that a lost task or a corrupt
shuffle fetch costs *recomputation, not wrong answers*: every partition
can be rebuilt from its RDD lineage. This module brings that claim to
the simulator with the same discipline as :mod:`repro.mpi.faults`: a
:class:`SparkFaultPlan` is *seeded* and *bit-reproducible*, built on the
:mod:`repro.rng.lcg` block-split fast-forward idiom, so "task 2 of job 5
fails on its first attempt" happens identically on every run with the
same seed.

Faults are addressed by deterministic engine coordinates rather than
wall-clock time:

- ``task`` / ``worker`` / ``straggle`` events by ``(job_index,
  partition)`` — jobs are numbered in submission order by the context
  (an action's job first, then the map stages of the shuffles it needs,
  parents first, alike on every backend), partitions are the task
  indices within a job;
- ``shuffle`` events by ``(shuffle_index, block_slot)`` — shuffles are
  numbered in materialization order, the slot is folded onto a concrete
  ``(map_task, reduce_partition)`` block when the shuffle's shape is
  known;
- ``broadcast`` events by the broadcast's creation index.

Fault kinds and the scheduler's recovery for each:

- ``task``     — the attempt raises :class:`TaskFailure` before running
  the task body; recovered by per-task retry with bounded deterministic
  backoff (``SparkContext(max_task_retries=...)``).
- ``worker``   — the attempt's worker is blacklisted and the attempt
  raises :class:`BlacklistedWorker`; the retry lands on another worker.
  The scheduler never blacklists its last live worker.
- ``straggle`` — the attempt is an injected slow node: the scheduler
  abandons it mid-sleep and launches a speculative copy on another
  worker, which always wins (deterministic winner selection — the
  original is delayed by a known injected amount).
- ``shuffle``  — a stored shuffle block is corrupted in place; the
  checksum-verified fetch detects it and the lost map output is
  **recomputed from lineage**, stopping at cached/checkpointed RDDs.
- ``broadcast``— the shipped broadcast payload is corrupted; the
  checksum on first task access detects it and refetches the driver's
  master copy.
- ``spill_delete`` / ``spill_truncate`` / ``spill_corrupt`` — a
  just-written shuffle *spill file* (out-of-core mode, see
  ``SparkContext(memory_budget=...)``) is unlinked, cut in half, or has
  a byte flipped, addressed by ``(shuffle_index, spill_file_slot)``
  with at most one event per slot. The always-on spill CRCs detect the
  damage on the first fetch that touches the file, and every map output
  that lived in it is recomputed from lineage and re-stored pinned in
  memory. ``attempts`` makes the fault re-fire on the first
  ``attempts - 1`` recoveries; once recovery failures exceed the
  context's ``max_task_retries`` the job fails structurally with a
  :class:`SparkJobFailedError` whose report names the lost spill files.

Because injected failures fire *before* the task body and accumulator
updates commit exactly once per logical task, every action under an
active plan returns results **bit-identical** to the fault-free run —
the invariant ``tests/spark/test_fault_recovery.py`` sweeps seeds over.

The default is no plan at all: ``SparkContext()`` takes the exact
fault-free hot path (one ``is None`` test per job; the
``spark_fault_overhead`` gate in ``benchmarks/gates.py`` holds the line
at <5%).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

from repro.faults import FaultPlanBase, FaultReportBase, Region, check_event, sample
from repro.rng.lcg import KNUTH_LCG, LcgParams

__all__ = [
    "SparkFaultEvent",
    "SparkFaultPlan",
    "SparkFaultReport",
    "SparkInjectionRecord",
    "SparkJobFailedError",
    "TaskFailure",
    "BlacklistedWorker",
    "SPARK_FAULT_KINDS",
    "SPILL_FAULT_KINDS",
]

#: The recognized fault kinds, in the order the sampler's probability
#: intervals are laid out for the per-(job, partition) draws.
SPARK_FAULT_KINDS = (
    "task",
    "worker",
    "straggle",
    "shuffle",
    "broadcast",
    "spill_delete",
    "spill_truncate",
    "spill_corrupt",
)

#: Kinds addressed by (job_index, partition) — consumed by the task scheduler.
_TASK_KINDS = frozenset({"task", "worker", "straggle"})

#: Disk-tier kinds addressed by (shuffle_index, spill_file_slot).
SPILL_FAULT_KINDS = ("spill_delete", "spill_truncate", "spill_corrupt")
_SPILL_KINDS = frozenset(SPILL_FAULT_KINDS)


class TaskFailure(RuntimeError):
    """An injected task-attempt failure (fired before the task body runs).

    The scheduler catches this and retries the task on another attempt;
    it only escapes wrapped in :class:`SparkJobFailedError` once retries
    are exhausted.
    """

    def __init__(self, job: int, partition: int, attempt: int, worker: int) -> None:
        super().__init__(
            f"injected failure: task {partition} of job {job}, "
            f"attempt {attempt} on worker {worker}"
        )
        self.job = job
        self.partition = partition
        self.attempt = attempt
        self.worker = worker


class BlacklistedWorker(RuntimeError):
    """The attempt's worker was just blacklisted by an injected worker fault.

    Like :class:`TaskFailure`, caught by the scheduler: the retry is
    assigned to a different (non-blacklisted) worker.
    """

    def __init__(self, worker: int, job: int, partition: int, attempt: int) -> None:
        super().__init__(
            f"worker {worker} blacklisted while running task {partition} "
            f"of job {job} (attempt {attempt})"
        )
        self.worker = worker
        self.job = job
        self.partition = partition
        self.attempt = attempt


class SparkJobFailedError(RuntimeError):
    """A task exhausted its retries: the job is unrecoverable.

    Carries the context's :class:`SparkFaultReport` as :attr:`report`,
    so a failed run ends with structured evidence (what fired, what was
    retried/recomputed) instead of a hang or a bare traceback.
    """

    def __init__(self, job: int, partition: int, failures: int, report: "SparkFaultReport") -> None:
        super().__init__(
            f"task {partition} of job {job} failed {failures} time(s) and "
            f"exhausted its retries\n{report.summary()}"
        )
        self.job = job
        self.partition = partition
        self.failures = failures
        self.report = report


@dataclass(frozen=True)
class SparkFaultEvent:
    """One scheduled fault at an engine coordinate.

    ``slot``/``unit`` mean (job, partition) for task-level kinds,
    (shuffle, block_slot) for ``shuffle``, and (broadcast_index, 0) for
    ``broadcast``. ``attempts`` is how many consecutive attempts a
    ``task``/``worker`` event fails; ``seconds`` is the ``straggle``
    delay.
    """

    kind: str
    slot: int
    unit: int = 0
    attempts: int = 1
    seconds: float = 0.0

    def __post_init__(self) -> None:
        check_event(self, SPARK_FAULT_KINDS, ("slot", "unit"))


@dataclass(frozen=True)
class SparkInjectionRecord:
    """One fault that actually fired: kind, coordinate, attempt, worker."""

    kind: str
    slot: int
    unit: int
    attempt: int = 0
    worker: int = -1
    seconds: float = 0.0


class SparkFaultPlan(FaultPlanBase):
    """An immutable, seeded schedule of engine faults for one context.

    Build one explicitly from :class:`SparkFaultEvent` instances (or the
    single-event constructors below), or sample one reproducibly with
    :meth:`sample`. At most one event may target a given coordinate.
    """

    _order = _row = attrgetter("kind", "slot", "unit")

    @staticmethod
    def _slot(event: SparkFaultEvent) -> tuple[str, str, object]:
        if event.kind in _TASK_KINDS:
            return "task-level", "(job, partition)", (event.slot, event.unit)
        if event.kind in _SPILL_KINDS:
            return "spill-file", "(shuffle, file)", (event.slot, event.unit)
        if event.kind == "shuffle":
            return "shuffle", "(shuffle, block)", (event.slot, event.unit)
        return "broadcast", "index", event.slot

    # ------------------------------------------------------------------
    # single-event constructors (the classroom building blocks)
    # ------------------------------------------------------------------
    @classmethod
    def fail_task(cls, job: int, partition: int, attempts: int = 1) -> "SparkFaultPlan":
        """Fail one task's first ``attempts`` attempts."""
        return cls([SparkFaultEvent("task", job, partition, attempts=attempts)])

    @classmethod
    def blacklist_worker(cls, job: int, partition: int) -> "SparkFaultPlan":
        """Blacklist whichever worker draws this task's first attempt."""
        return cls([SparkFaultEvent("worker", job, partition)])

    @classmethod
    def straggler(cls, job: int, partition: int, seconds: float = 0.002) -> "SparkFaultPlan":
        """Make one task attempt an artificial slow node."""
        return cls([SparkFaultEvent("straggle", job, partition, seconds=seconds)])

    @classmethod
    def corrupt_shuffle(cls, shuffle: int, block: int = 0) -> "SparkFaultPlan":
        """Corrupt one stored shuffle block of the ``shuffle``-th shuffle."""
        return cls([SparkFaultEvent("shuffle", shuffle, block)])

    @classmethod
    def corrupt_broadcast(cls, index: int = 0) -> "SparkFaultPlan":
        """Corrupt the shipped payload of the ``index``-th broadcast."""
        return cls([SparkFaultEvent("broadcast", index)])

    @classmethod
    def delete_spill(cls, shuffle: int, file: int = 0, attempts: int = 1) -> "SparkFaultPlan":
        """Unlink the ``file``-th spill run of the ``shuffle``-th shuffle."""
        return cls([SparkFaultEvent("spill_delete", shuffle, file, attempts=attempts)])

    @classmethod
    def truncate_spill(cls, shuffle: int, file: int = 0, attempts: int = 1) -> "SparkFaultPlan":
        """Cut the ``file``-th spill run of the ``shuffle``-th shuffle in half."""
        return cls([SparkFaultEvent("spill_truncate", shuffle, file, attempts=attempts)])

    @classmethod
    def corrupt_spill(cls, shuffle: int, file: int = 0, attempts: int = 1) -> "SparkFaultPlan":
        """Flip a byte mid-file in the ``file``-th spill run of a shuffle."""
        return cls([SparkFaultEvent("spill_corrupt", shuffle, file, attempts=attempts)])

    # ------------------------------------------------------------------
    # reproducible sampling
    # ------------------------------------------------------------------
    @classmethod
    def sample(
        cls,
        seed: int,
        jobs: int,
        partitions: int,
        *,
        task_fail_prob: float = 0.0,
        blacklist_prob: float = 0.0,
        straggle_prob: float = 0.0,
        shuffle_corrupt_prob: float = 0.0,
        broadcast_corrupt_prob: float = 0.0,
        spill_delete_prob: float = 0.0,
        spill_truncate_prob: float = 0.0,
        spill_corrupt_prob: float = 0.0,
        shuffles: int = 4,
        shuffle_blocks: int = 16,
        broadcasts: int = 4,
        spill_files: int = 8,
        attempts: int = 1,
        spill_attempts: int = 1,
        seconds: float = 0.002,
        max_blacklists: int = 1,
        params: LcgParams = KNUTH_LCG,
    ) -> "SparkFaultPlan":
        """Draw a reproducible plan with :func:`repro.faults.sample`.

        The stream holds, in order: one draw per (job, partition), split
        between the task-level kinds; one per (shuffle, block) and one
        per broadcast, each with its own probability; one per (shuffle,
        spill_file_slot), split between the spill kinds — slots a run
        never writes are harmless no-ops, so plans compose with any
        memory budget.

        ``max_blacklists`` caps worker deaths (the scheduler additionally
        refuses to blacklist its last live worker), and ``attempts``
        (per failing task) / ``spill_attempts`` (per destroyed spill
        file) should stay at or below the context's ``max_task_retries``
        for the plan to be recoverable.
        """
        shuffle_at = jobs * partitions
        broadcast_at = shuffle_at + shuffles * shuffle_blocks
        # Spill draws come last so seeds from before spill faults keep their plans.
        spill_at = broadcast_at + broadcasts
        task_probs = {"task": task_fail_prob, "worker": blacklist_prob, "straggle": straggle_prob}
        spill_probs = {"spill_delete": spill_delete_prob, "spill_truncate": spill_truncate_prob,
                       "spill_corrupt": spill_corrupt_prob}
        hits = sample(
            seed,
            params,
            [
                Region("task-level", task_probs, jobs, partitions),
                Region("shuffle_corrupt_prob", {"shuffle": shuffle_corrupt_prob},
                       shuffles, shuffle_blocks, shuffle_at),
                # One draw per broadcast, addressed as (index, 0).
                Region("broadcast_corrupt_prob", {"broadcast": broadcast_corrupt_prob},
                       broadcasts, 1, broadcast_at),
                Region("spill-file", spill_probs, shuffles, spill_files, spill_at),
            ],
            positive={"jobs": jobs, "partitions": partitions, "shuffles": shuffles,
                      "shuffle_blocks": shuffle_blocks, "broadcasts": broadcasts,
                      "spill_files": spill_files, "attempts": attempts,
                      "spill_attempts": spill_attempts},
            nonnegative={"max_blacklists": max_blacklists},
            seconds={"seconds": seconds},
        )
        events: list[SparkFaultEvent] = []
        blacklists = 0
        for kind, slot, unit in hits:
            if kind == "worker":
                if blacklists >= max_blacklists:
                    continue
                blacklists += 1
            events.append(SparkFaultEvent(
                kind, slot, unit,
                attempts=(attempts if kind == "task"
                          else spill_attempts if kind in _SPILL_KINDS else 1),
                seconds=seconds if kind == "straggle" else 0.0,
            ))
        return cls(events, seed=seed)

    # ------------------------------------------------------------------
    # lookups (consumed by the scheduler / shuffle store / broadcasts)
    # ------------------------------------------------------------------
    def task_event(self, job: int, partition: int) -> SparkFaultEvent | None:
        """The task-level event scheduled at ``(job, partition)``, if any."""
        return self._slots.get(("task-level", (job, partition)))

    def shuffle_events(self, shuffle: int) -> list[SparkFaultEvent]:
        """Corruption events scheduled on the ``shuffle``-th shuffle."""
        return [e for e in self.events if e.kind == "shuffle" and e.slot == shuffle]

    @property
    def has_shuffle_events(self) -> bool:
        """Whether any shuffle corruption is scheduled at all.

        The engine consults this to decide whether shuffle stores need
        checksums: corruption only ever enters through the plan, so a
        plan that schedules none keeps the zero-overhead plain blocks.
        """
        return any(e.kind == "shuffle" for e in self.events)

    def broadcast_event(self, index: int) -> SparkFaultEvent | None:
        """The corruption event scheduled on the ``index``-th broadcast."""
        return self._slots.get(("broadcast", index))

    def spill_event(self, shuffle: int, slot: int) -> SparkFaultEvent | None:
        """The disk-fault event scheduled on one spill-file slot, if any."""
        return self._slots.get(("spill-file", (shuffle, slot)))

    @property
    def has_spill_events(self) -> bool:
        """Whether any spill-file destruction is scheduled at all."""
        return any(e.kind in _SPILL_KINDS for e in self.events)


@dataclass
class SparkFaultReport(FaultReportBase):
    """What the fault layer observed during one context's lifetime.

    Reached as ``ctx.fault_report`` (``None`` when no plan is installed)
    and carried by :class:`SparkJobFailedError` on unrecoverable plans.
    All mutators are thread-safe; readers should run after the jobs
    they care about have returned.
    """

    plan: SparkFaultPlan | None = None
    injected: list[SparkInjectionRecord] = field(default_factory=list)
    retries: dict[tuple[int, int], int] = field(default_factory=dict)
    recomputed: list[tuple[int, int]] = field(default_factory=list)
    blacklisted: list[int] = field(default_factory=list)
    speculative: list[tuple[int, int]] = field(default_factory=list)
    broadcast_refetches: int = 0
    worker_crashes: list[tuple[int, int]] = field(default_factory=list)
    #: (shuffle, spill_slot, reason, path) per detected spill-file loss.
    spill_losses: list[tuple[int, int, str, str]] = field(default_factory=list)
    #: (shuffle, spill_slot) per spill file healed via lineage.
    spill_recoveries: list[tuple[int, int]] = field(default_factory=list)

    _order = _row = attrgetter("kind", "slot", "unit", "attempt")
    counter = "spark.injected_faults"
    category = "spark.fault"

    def record_retry(self, job: int, partition: int) -> None:
        """Log one failed attempt that will be retried (or escalate)."""
        with self._lock:
            key = (job, partition)
            self.retries[key] = self.retries.get(key, 0) + 1

    def record_recompute(self, shuffle: int, map_task: int) -> None:
        """Log one lost map output rebuilt from lineage."""
        with self._lock:
            self.recomputed.append((shuffle, map_task))

    def record_blacklist(self, worker: int) -> None:
        """Log one worker removed from scheduling."""
        with self._lock:
            self.blacklisted.append(worker)

    def record_speculative(self, job: int, partition: int) -> None:
        """Log one speculative copy launched against a straggler."""
        with self._lock:
            self.speculative.append((job, partition))

    def record_broadcast_refetch(self) -> None:
        """Log one corrupted broadcast payload restored from the driver."""
        with self._lock:
            self.broadcast_refetches += 1

    def record_worker_crash(self, worker: int, lost_tasks: int) -> None:
        """Log one executor worker *process* that died mid-job (process
        backend); its lost task results were re-executed on the driver."""
        with self._lock:
            self.worker_crashes.append((worker, lost_tasks))

    def record_spill_loss(self, shuffle: int, slot: int, reason: str, path: str) -> None:
        """Log one spill file detected missing/truncated/corrupt on fetch."""
        with self._lock:
            self.spill_losses.append((shuffle, slot, reason, path))

    def record_spill_recovery(self, shuffle: int, slot: int) -> None:
        """Log one lost spill file's map outputs rebuilt from lineage."""
        with self._lock:
            self.spill_recoveries.append((shuffle, slot))

    def lost_spill_files(self) -> list[tuple[int, int, str, str]]:
        """The spill files this run lost, as (shuffle, slot, reason, path)."""
        with self._lock:
            return sorted(self.spill_losses)

    def _describe(self, rec: SparkInjectionRecord) -> str:
        where = f"worker {rec.worker}" if rec.worker >= 0 else "engine"
        return f"{rec.kind} at ({rec.slot}, {rec.unit}) attempt {rec.attempt} [{where}]"

    def _details(self) -> list[str]:
        lines = []
        if self.retries:
            total = sum(self.retries.values())
            lines.append(f"  {total} retried attempt(s) over {len(self.retries)} task(s)")
        if self.recomputed:
            lines.append(
                f"  {len(self.recomputed)} map output(s) recomputed from lineage: "
                + ", ".join(f"shuffle {s} map {m}" for s, m in sorted(self.recomputed))
            )
        if self.blacklisted:
            lines.append(f"  worker(s) blacklisted: {sorted(self.blacklisted)}")
        if self.speculative:
            lines.append(f"  {len(self.speculative)} speculative task(s) launched (all won)")
        if self.broadcast_refetches:
            lines.append(f"  {self.broadcast_refetches} broadcast payload(s) refetched")
        if self.worker_crashes:
            lost = sum(n for _w, n in self.worker_crashes)
            lines.append(
                f"  {len(self.worker_crashes)} worker process crash(es), "
                f"{lost} lost task(s) re-executed on the driver"
            )
        if self.spill_losses:
            lines.append(f"  {len(self.spill_losses)} spill file(s) lost:")
            for shuffle, slot, reason, path in sorted(self.spill_losses):
                lines.append(f"    - shuffle {shuffle} spill file {slot} ({reason}): {path}")
        if self.spill_recoveries:
            lines.append(
                f"  {len(self.spill_recoveries)} spill file(s) recovered from lineage: "
                + ", ".join(f"shuffle {s} file {f}" for s, f in sorted(self.spill_recoveries))
            )
        if not lines and not self.injected:
            lines.append("  nothing fired")
        return lines
