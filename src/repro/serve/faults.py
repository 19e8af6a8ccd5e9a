"""Deterministic scheduler-level fault injection for the serve tier.

:class:`~repro.mpi.faults.FaultPlan` shakes one SPMD world and
:class:`~repro.spark.faults.SparkFaultPlan` shakes one engine job; a
:class:`ServeFaultPlan` shakes the *service around them* — the layer
where multi-tenant systems actually break. Same house contract: seeded,
bit-reproducible (block-split :mod:`repro.rng.lcg` streams, one draw
per slot), inert by default, every firing recorded.

Fault kinds and their coordinates:

- ``poison``      — per submission slot (the service-wide submission
  index): the job's body raises :class:`PoisonedJobError` instead of
  running — on every attempt, so retries burn out and the tenant's
  circuit breaker sees real consecutive failures.
- ``worker_loss`` — per ``(worker, jobs_started)`` slot: the scheduler
  worker "dies" right after picking up that job (the job is requeued,
  never lost) and the pool respawns the worker after a
  :class:`~repro.util.backoff.BackoffPolicy` delay.
- ``queue_stall`` — per dequeue slot: the worker's dequeue stalls for
  ``seconds`` before the pop (a GC pause / noisy neighbour at the
  queue), stressing deadlines and the backpressure hints.

Per-job :class:`~repro.spark.faults.SparkFaultPlan`\\ s compose freely
underneath: a traffic job can carry its own engine-level plan while the
service's plan tears at the scheduler above it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable

from repro.faults import FaultPlanBase, FaultReportBase, Region, check_event, sample
from repro.rng.lcg import KNUTH_LCG, LcgParams

__all__ = [
    "SERVE_FAULT_KINDS",
    "PoisonedJobError",
    "ServeFaultEvent",
    "ServeFaultPlan",
    "ServeFaultReport",
    "ServeInjectionRecord",
]

#: Recognized serve-level fault kinds, probability-interval order.
SERVE_FAULT_KINDS = ("poison", "worker_loss", "queue_stall")

#: Draw-stream spacing: each coordinate family owns a disjoint block of
#: the shared LCG sequence (submissions / worker slots / dequeues), so
#: ``submissions`` and ``jobs_per_worker`` may not exceed it.
_STREAM_SPACING = 1 << 20


class PoisonedJobError(RuntimeError):
    """The injected body failure of a poisoned submission."""

    def __init__(self, submission: int) -> None:
        super().__init__(f"submission {submission} is poisoned (injected)")
        self.submission = submission


@dataclass(frozen=True)
class ServeFaultEvent:
    """One scheduled serve fault at its coordinate.

    ``unit`` is the submission index for ``poison``, the per-worker
    jobs-started count for ``worker_loss``, and the service-wide dequeue
    index for ``queue_stall``. ``worker`` only matters for
    ``worker_loss``; ``seconds`` only for ``queue_stall``.
    """

    kind: str
    unit: int
    worker: int = 0
    seconds: float = 0.0

    def __post_init__(self) -> None:
        check_event(self, SERVE_FAULT_KINDS, ("unit", "worker"))


@dataclass(frozen=True)
class ServeInjectionRecord:
    """One serve fault that actually fired."""

    kind: str
    unit: int
    worker: int = 0
    seconds: float = 0.0


class ServeFaultPlan(FaultPlanBase):
    """An immutable schedule of scheduler-level faults for one service.

    Build explicitly from :class:`ServeFaultEvent` instances or sample
    reproducibly with :meth:`sample`. At most one event per
    ``(kind, worker, unit)`` slot.
    """

    _order = _row = attrgetter("kind", "worker", "unit")

    def __init__(self, events: Iterable[ServeFaultEvent] = (), *, seed: int | None = None) -> None:
        super().__init__(events, seed=seed)
        self._poison = {e.unit for e in self.events if e.kind == "poison"}
        self._worker_loss = {
            (e.worker, e.unit) for e in self.events if e.kind == "worker_loss"
        }
        self._stalls = {e.unit: e for e in self.events if e.kind == "queue_stall"}

    # -- explicit single-fault constructors (the cookbook entries) -----
    @classmethod
    def poison_job(cls, submission: int) -> "ServeFaultPlan":
        """Poison one submission (every attempt of it fails)."""
        return cls([ServeFaultEvent("poison", submission)])

    @classmethod
    def kill_worker(cls, worker: int, after_jobs: int = 0) -> "ServeFaultPlan":
        """Kill one scheduler worker as it starts its ``after_jobs``-th job."""
        return cls([ServeFaultEvent("worker_loss", after_jobs, worker=worker)])

    @classmethod
    def stall_queue(cls, dequeue: int, seconds: float = 0.005) -> "ServeFaultPlan":
        """Stall the ``dequeue``-th pop for ``seconds``."""
        return cls([ServeFaultEvent("queue_stall", dequeue, seconds=seconds)])

    @classmethod
    def sample(
        cls,
        seed: int,
        *,
        submissions: int,
        workers: int = 4,
        jobs_per_worker: int | None = None,
        poison_prob: float = 0.0,
        worker_loss_prob: float = 0.0,
        stall_prob: float = 0.0,
        stall_seconds: float = 0.002,
        max_worker_losses: int | None = None,
        params: LcgParams = KNUTH_LCG,
    ) -> "ServeFaultPlan":
        """Draw a reproducible plan: one LCG decision per slot.

        Submission slots draw ``poison`` with ``poison_prob``; each
        worker's first ``jobs_per_worker`` (default: enough for the
        whole load, ``submissions``) job-start slots draw
        ``worker_loss`` with ``worker_loss_prob`` (at most one loss per
        worker — it respawns, but a worker that dies at every job would
        starve the pool, so losses are capped at ``max_worker_losses``,
        default ``workers - 1``, keeping at least one worker undisturbed);
        dequeue slots draw ``queue_stall`` with ``stall_prob``. Each
        family draws from its own ``_STREAM_SPACING`` block of the
        stream (see :func:`repro.faults.sample`).
        """
        horizon = submissions if jobs_per_worker is None else jobs_per_worker
        loss_budget = workers - 1 if max_worker_losses is None else max_worker_losses
        hits = sample(
            seed,
            params,
            [
                Region("poison_prob", {"poison": poison_prob}, 1, submissions, 0, _STREAM_SPACING),
                Region("worker_loss_prob", {"worker_loss": worker_loss_prob},
                       workers, horizon, _STREAM_SPACING, _STREAM_SPACING),
                Region("stall_prob", {"queue_stall": stall_prob},
                       1, submissions, _STREAM_SPACING * (1 + workers), _STREAM_SPACING),
            ],
            positive={"submissions": submissions, "workers": workers,
                      "per-worker horizon": horizon},
            nonnegative={"max_worker_losses": loss_budget},
            seconds={"stall_seconds": stall_seconds},
        )
        events: list[ServeFaultEvent] = []
        lost: set[int] = set()
        for kind, row, unit in hits:
            if kind == "worker_loss":
                # A worker dies at most once (it respawns fresh), and at
                # most ``loss_budget`` workers die.
                if row in lost or len(lost) >= loss_budget:
                    continue
                lost.add(row)
            events.append(ServeFaultEvent(
                kind, unit, worker=row if kind == "worker_loss" else 0,
                seconds=stall_seconds if kind == "queue_stall" else 0.0,
            ))
        return cls(events, seed=seed)

    # -- runtime lookups ----------------------------------------------
    def poisons(self, submission: int) -> bool:
        """Whether ``submission`` is scheduled to be poisoned."""
        return submission in self._poison

    def kills_worker(self, worker: int, jobs_started: int) -> bool:
        """Whether ``worker`` dies as it starts job number ``jobs_started``."""
        return (worker, jobs_started) in self._worker_loss

    def stall_event(self, dequeue: int) -> ServeFaultEvent | None:
        """The stall scheduled at the ``dequeue``-th pop, if any."""
        return self._stalls.get(dequeue)


@dataclass
class ServeFaultReport(FaultReportBase):
    """What the serve fault layer observed during one service lifetime.

    Mutators are thread-safe (scheduler workers fire faults
    concurrently); read after :meth:`~repro.serve.scheduler.JobService.drain`.
    """

    plan: ServeFaultPlan | None = None
    injected: list[ServeInjectionRecord] = field(default_factory=list)
    worker_respawns: dict[int, int] = field(default_factory=dict)
    requeued_jobs: int = 0

    _order = _row = attrgetter("kind", "worker", "unit")
    counter = "serve.injected_faults"
    category = "serve.fault"

    def record_worker_respawn(self, worker: int) -> None:
        """Log the pool bringing a lost worker back."""
        with self._lock:
            self.worker_respawns[worker] = self.worker_respawns.get(worker, 0) + 1

    def record_requeue(self) -> None:
        """Log one job put back after its worker died mid-pickup."""
        with self._lock:
            self.requeued_jobs += 1

    def _describe(self, rec: ServeInjectionRecord) -> str:
        where = f" worker {rec.worker}" if rec.kind == "worker_loss" else ""
        return f"{rec.kind}{where} @ {rec.unit}"

    def _details(self) -> list[str]:
        lines = [
            f"  worker {worker} respawned {n} time(s)"
            for worker, n in sorted(self.worker_respawns.items())
        ]
        if self.requeued_jobs:
            lines.append(f"  {self.requeued_jobs} job(s) requeued after worker loss")
        return lines
