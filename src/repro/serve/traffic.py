"""Seeded multi-tenant traffic for soaking the job service.

The serve tier's claims — fairness, backpressure, clean degradation,
bit-identical results under co-tenancy and injected faults — only mean
something under *load*. This module generates that load reproducibly:

- :func:`generate_traffic` draws a tenant-interleaved job mix
  (wordcount / k-means / NYC-arrests pipeline, mixed priorities, seeded
  inter-arrival gaps) from block-split :mod:`repro.rng.lcg` streams —
  one stream per tenant, so the mix is bit-identical per seed no matter
  how many tenants are asked for.
- :func:`job_body` turns a :class:`TrafficJob` into the callable the
  service runs: a pure function of the job's own seed, so the *same
  job run solo* (:func:`run_solo`) is the bit-identity oracle.
- :func:`run_soak` drives a :class:`~repro.serve.scheduler.JobService`
  through the whole mix — honoring ``retry_after`` backpressure hints
  with the shared :class:`~repro.util.backoff.BackoffPolicy` — and
  returns a :class:`SoakResult` scoring throughput, max-min fairness,
  and per-job digest equality against the solo oracle.

Workloads are deliberately small (tens of milliseconds each): the soak
stresses the *scheduler*, not the engines — the engines have their own
benchmarks.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from operator import add
from typing import Any, Callable, Sequence

from repro.rng.lcg import KNUTH_LCG, LcgParams, LinearCongruential
from repro.serve.admission import QueueFullError
from repro.serve.faults import ServeFaultPlan
from repro.serve.scheduler import JobContext, JobHandle, JobService
from repro.trace.history import result_digest
from repro.util.backoff import BackoffPolicy
from repro.util.validation import require_nonnegative_int, require_positive_int

__all__ = [
    "TRAFFIC_WORKLOADS",
    "SoakResult",
    "TrafficJob",
    "generate_traffic",
    "job_body",
    "max_min_share",
    "run_soak",
    "run_solo",
]

#: Workload mix drawn by the generator, draw-interval order.
TRAFFIC_WORKLOADS = ("wordcount", "kmeans", "nyc")

#: One tenant's draw stream sits this far from the next in the LCG sequence.
_STREAM_SPACING = 1 << 20


@dataclass(frozen=True)
class TrafficJob:
    """One queued unit of tenant work: what to run, for whom, how urgent."""

    tenant: str
    workload: str
    priority: int
    seed: int
    arrival: float
    name: str

    def __post_init__(self) -> None:
        if self.workload not in TRAFFIC_WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r}; expected one of {TRAFFIC_WORKLOADS}"
            )
        require_nonnegative_int("seed", self.seed)
        if self.arrival < 0:
            raise ValueError(f"arrival must be >= 0, got {self.arrival}")


def generate_traffic(
    seed: int,
    *,
    tenants: int = 4,
    jobs_per_tenant: int = 50,
    priorities: Sequence[int] = (0, 1, 2),
    mean_gap: float = 0.0,
    workloads: Sequence[str] = TRAFFIC_WORKLOADS,
    params: LcgParams = KNUTH_LCG,
) -> tuple[TrafficJob, ...]:
    """A reproducible multi-tenant job mix, sorted by arrival time.

    Each tenant owns a fast-forwarded block of one LCG sequence and
    draws, per job: a workload (uniform over ``workloads``), a priority
    (uniform over ``priorities``), and an inter-arrival gap (uniform in
    ``[0, 2 * mean_gap]`` — zero by default: an instantaneous burst,
    the hardest case for admission). Job seeds are
    ``tenant_index * jobs_per_tenant + job_index`` — distinct, stable,
    and independent of the draws, so the solo oracle never moves.
    """
    require_positive_int("tenants", tenants)
    require_positive_int("jobs_per_tenant", jobs_per_tenant)
    if not workloads:
        raise ValueError("workloads must be non-empty")
    for w in workloads:
        if w not in TRAFFIC_WORKLOADS:
            raise ValueError(f"unknown workload {w!r}; expected one of {TRAFFIC_WORKLOADS}")
    if not priorities:
        raise ValueError("priorities must be non-empty")
    if mean_gap < 0:
        raise ValueError(f"mean_gap must be >= 0, got {mean_gap}")
    base = LinearCongruential(params, seed)
    jobs: list[TrafficJob] = []
    for t in range(tenants):
        stream = base.jumped(_STREAM_SPACING * t)
        tenant = f"tenant{t}"
        arrival = 0.0
        for j in range(jobs_per_tenant):
            workload = workloads[int(stream.next_uniform() * len(workloads)) % len(workloads)]
            priority = priorities[int(stream.next_uniform() * len(priorities)) % len(priorities)]
            arrival += stream.next_uniform() * 2.0 * mean_gap
            jobs.append(
                TrafficJob(
                    tenant=tenant,
                    workload=workload,
                    priority=priority,
                    seed=t * jobs_per_tenant + j,
                    arrival=arrival,
                    name=f"{workload}-{t}.{j}",
                )
            )
    jobs.sort(key=lambda job: (job.arrival, job.tenant, job.name))
    return tuple(jobs)


# ----------------------------------------------------------------------
# job bodies: pure functions of the job's seed
# ----------------------------------------------------------------------
def _wordcount_body(seed: int) -> Callable[[JobContext], Any]:
    lines = [
        f"line {i} the quick brown fox jumps over the lazy dog token{(i * (seed + 3)) % 7}"
        for i in range(60)
    ]

    def body(ctx: JobContext) -> dict[str, int]:
        with ctx.spark_context(2) as sc:
            counts = (
                sc.parallelize(lines, 4)
                .flat_map(str.split)
                .map(lambda w: (w, 1))
                .reduce_by_key(add)
                .collect()
            )
        return dict(sorted(counts))

    return body


def _kmeans_body(seed: int) -> Callable[[JobContext], Any]:
    def body(ctx: JobContext) -> Any:
        from repro.kmeans import TerminationCriteria, kmeans_parallel
        from repro.knn.data import make_blobs

        ctx.check_cancelled()
        points, _labels = make_blobs(96, 2, 3, seed=seed)
        result = kmeans_parallel(
            points, 3, num_workers=2, backend="thread", kernel="numpy",
            seed=seed, criteria=TerminationCriteria(max_iterations=3),
        )
        return result.centroids

    return body


def _nyc_body(seed: int) -> Callable[[JobContext], Any]:
    def body(ctx: JobContext) -> Any:
        from repro.pipeline.nyc import generate_arrests, generate_ntas, nyc_arrests_pipeline

        ctx.check_cancelled()
        ntas = generate_ntas(2, 2, seed=seed)
        arrests = generate_arrests(300, ntas, year=2021, seed=seed)
        pipeline = nyc_arrests_pipeline(ntas, 2, 2, year_filter=2021, num_workers=2)
        return pipeline.run([arrests])

    return body


_BODIES: dict[str, Callable[[int], Callable[[JobContext], Any]]] = {
    "wordcount": _wordcount_body,
    "kmeans": _kmeans_body,
    "nyc": _nyc_body,
}


def job_body(job: TrafficJob) -> Callable[[JobContext], Any]:
    """The callable the service runs for ``job`` — pure in ``job.seed``."""
    return _BODIES[job.workload](job.seed)


def run_solo(job: TrafficJob) -> Any:
    """Run ``job``'s body outside any service — the bit-identity oracle."""
    ctx = JobContext(job.tenant, job.name, -1, threading.Event())
    try:
        return job_body(job)(ctx)
    finally:
        ctx._cleanup()


def max_min_share(completions: dict[str, int]) -> float:
    """min/max completed-jobs ratio across tenants (1.0 = perfectly fair)."""
    if not completions:
        return 1.0
    counts = list(completions.values())
    top = max(counts)
    return 1.0 if top == 0 else min(counts) / top


@dataclass
class SoakResult:
    """What one soak run proved (or didn't)."""

    jobs: int
    duration: float
    throughput: float
    states: dict[str, int]
    completions: dict[str, int]
    fairness: float
    mismatched: list[str]
    shed: list[str]
    handles: list[JobHandle] = field(repr=False, default_factory=list)

    def summary(self) -> str:
        lines = [
            f"SoakResult: {self.jobs} job(s) in {self.duration:.2f}s "
            f"({self.throughput:.1f} jobs/s), fairness {self.fairness:.2f}",
            f"  states: {dict(sorted(self.states.items()))}",
            f"  completions: {dict(sorted(self.completions.items()))}",
        ]
        if self.shed:
            lines.append(f"  shed: {len(self.shed)} job(s)")
        if self.mismatched:
            lines.append(f"  MISMATCHED vs solo: {self.mismatched}")
        return "\n".join(lines)


def run_soak(
    service: JobService,
    jobs: Sequence[TrafficJob],
    *,
    verify: bool = True,
    submit_backoff: BackoffPolicy | None = None,
    max_submit_retries: int = 200,
    pace: bool = False,
    timeout: float | None = 120.0,
) -> SoakResult:
    """Drive ``service`` through ``jobs`` and score the run.

    Submissions that hit backpressure retry on the
    :class:`~repro.serve.admission.QueueFullError` ``retry_after`` hint
    (floored by ``submit_backoff``); with ``pace=True`` the submitter
    honors each job's ``arrival`` offset, otherwise it submits as fast
    as admission allows. With ``verify=True`` every job that ended
    ``"done"`` is digest-compared against :func:`run_solo` (solo runs
    are cached per ``(workload, seed)``), and every job must have
    reached *some* terminal state — a queued-forever job fails the soak
    by tripping the drain ``timeout``.
    """
    backoff = submit_backoff if submit_backoff is not None else BackoffPolicy(0.001, cap=0.05)
    start = time.monotonic()
    handles: list[JobHandle] = []
    for index, job in enumerate(jobs):
        if pace:
            behind = job.arrival - (time.monotonic() - start)
            if behind > 0:
                time.sleep(behind)
        for attempt in range(max_submit_retries + 1):
            try:
                handles.append(
                    service.submit(
                        job.tenant, job_body(job), name=job.name, priority=job.priority
                    )
                )
                break
            except QueueFullError as exc:
                if attempt >= max_submit_retries:
                    raise
                time.sleep(max(exc.retry_after, backoff.delay(min(attempt, 8))))
    if not service.drain(timeout=timeout):
        raise TimeoutError(
            f"soak did not drain within {timeout}s: "
            f"{service.queue!r}, metrics={service.metrics!r}"
        )
    duration = time.monotonic() - start
    states: dict[str, int] = {}
    for handle in handles:
        states[handle.state] = states.get(handle.state, 0) + 1
    mismatched: list[str] = []
    if verify:
        oracle: dict[tuple[str, int], str] = {}
        by_name = {job.name: job for job in jobs}
        for handle in handles:
            if handle.state != "done":
                continue
            job = by_name[handle.name]
            key = (job.workload, job.seed)
            if key not in oracle:
                oracle[key] = result_digest(run_solo(job))
            if result_digest(handle.result()) != oracle[key]:
                mismatched.append(handle.name)
    completions = service.tenant_completions()
    shed = [rec.name for rec in service.shed_report.records]
    return SoakResult(
        jobs=len(handles),
        duration=duration,
        throughput=len(handles) / duration if duration > 0 else float("inf"),
        states=states,
        completions=completions,
        fairness=max_min_share(completions),
        mismatched=mismatched,
        shed=shed,
        handles=handles,
    )
