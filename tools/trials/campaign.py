"""Campaign matrix construction and execution.

A *campaign* is one sweep over the trial matrix: benchmark suites ×
executor backends × fault plans × sanitizer schedules × seeds. Each
cell is a :class:`TrialSpec` — a named workload closure with string
config labels — and :func:`run_campaign` times every cell
(min-of-repeats), fingerprints its result for bit-identity, and emits
canonical :class:`repro.trace.history.BenchRecord` rows.

Campaign execution is itself traceable: every trial runs inside a
``repro.trace`` span (category ``"trials"``) with ``trials.trials`` /
``trials.failures`` counters and a ``trials.trial_seconds`` histogram,
so the harness obeys the same observability discipline it measures.

:class:`CampaignInjection` is the trend pipeline's own seeded fault
injection (the ``repro.mpi.faults`` idiom applied to measurement):
multiply a cell's recorded seconds or break its digest so regression
detection can be exercised end-to-end without waiting for a real
regression.
"""

from __future__ import annotations

import subprocess
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.trace import Tracer, use_tracer
from repro.trace.history import BenchRecord, append_history, make_record, result_digest

__all__ = [
    "TrialSpec",
    "CampaignInjection",
    "CampaignResult",
    "build_matrix",
    "run_campaign",
    "default_git_sha",
    "DEFAULT_SUITES",
]

#: Suites the default matrix covers, and the dimension each one sweeps.
DEFAULT_SUITES = (
    "kmeans", "kmeans_openmp", "wordcount", "heat", "knn_mapreduce", "serve", "align",
)


@dataclass(frozen=True)
class TrialSpec:
    """One campaign cell: a workload closure plus its series identity."""

    workload: str
    config: tuple[tuple[str, str], ...]
    runner: Callable[[], Any] = field(compare=False)

    @property
    def config_label(self) -> str:
        """``"backend=thread,seed=0"`` — matches ``BenchRecord.config_label``."""
        return ",".join(f"{k}={v}" for k, v in self.config) or "default"


def _spec(workload: str, config: Mapping[str, Any], runner: Callable[[], Any]) -> TrialSpec:
    return TrialSpec(
        workload=workload,
        config=tuple(sorted((str(k), str(v)) for k, v in config.items())),
        runner=runner,
    )


def _fingerprinted(
    rungs: Mapping[str, Callable[[], Any]], rung: str, digested: Callable[[Any], Any]
) -> Callable[[], Any]:
    """A runner for one model-ladder rung, reduced by ``digested`` to the
    part of its result the trial digest covers (an unknown rung fails
    inside the trial)."""
    return lambda: digested(rungs[rung]())


@dataclass(frozen=True)
class CampaignInjection:
    """Measurement-level fault injection for the trend pipeline itself.

    ``slowdowns`` multiplies the recorded seconds of matching
    ``(workload, config_label)`` cells; ``digest_breaks`` perturbs their
    result fingerprint. Neither touches the workload — they corrupt the
    *measurement*, which is exactly what the analyzer must catch.
    """

    slowdowns: Mapping[tuple[str, str], float] = field(default_factory=dict)
    digest_breaks: frozenset[tuple[str, str]] = frozenset()


@dataclass
class CampaignResult:
    """What one campaign run produced."""

    records: list[BenchRecord]
    errors: list[str]
    wall_seconds: float
    metrics: dict[str, Any]
    appended: int = 0


def default_git_sha() -> str | None:
    """The repo's short HEAD SHA, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


# ----------------------------------------------------------------------
# the default matrix
# ----------------------------------------------------------------------

def _kmeans_trials(backends: Sequence[str], seed: int) -> list[TrialSpec]:
    from repro.kmeans import TerminationCriteria, ladder
    from repro.knn.data import make_blobs

    points, _ = make_blobs(2_000, 8, 8, seed=seed)
    rungs = ladder.rungs(
        (points, 8), workers=4, seed=seed, criteria=TerminationCriteria(max_iterations=5)
    )
    return [
        _spec("kmeans", {"backend": backend, "seed": seed},
              _fingerprinted(rungs, f"executor-{backend}", attrgetter("centroids", "assignments")))
        for backend in backends
    ]


def _kmeans_openmp_trials(schedules: Sequence[str], seed: int) -> list[TrialSpec]:
    from repro.kmeans import TerminationCriteria, ladder
    from repro.knn.data import make_blobs
    from repro.sanitizer import Sanitizer, use_sanitizer

    points, _ = make_blobs(1_200, 8, 8, seed=seed)
    rungs = ladder.rungs(
        (points, 8), workers=4, seed=seed, criteria=TerminationCriteria(max_iterations=4)
    )
    plain = _fingerprinted(rungs, "openmp-reduction", attrgetter("centroids", "assignments"))

    def observed() -> Any:
        with use_sanitizer(Sanitizer()):
            return plain()

    runners = {"off": plain, "observe": observed}
    return [
        _spec("kmeans_openmp", {"sanitizer": sched, "seed": seed}, runners[sched])
        for sched in schedules
        if sched in runners
    ]


def _wordcount_trials(fault_plans: Sequence[str], seed: int) -> list[TrialSpec]:
    from repro.knn.wordcount import wordcount_spark
    from repro.spark.faults import SparkFaultPlan

    lines = [
        f"line {i} the quick brown fox jumps over the lazy dog number {i % 10}"
        for i in range(800)
    ]

    def make_plan(kind: str) -> Any:
        if kind == "none":
            return None
        return SparkFaultPlan.sample(
            seed, jobs=2, partitions=8, task_fail_prob=0.15, attempts=3
        )

    specs = []
    for kind in fault_plans:
        def runner(k: str = kind) -> Any:
            return wordcount_spark(lines, num_workers=4, fault_plan=make_plan(k))

        specs.append(_spec("wordcount", {"faults": kind, "seed": seed}, runner))
    return specs


def _heat_trials(seed: int) -> list[TrialSpec]:
    from repro.heat import ladder, sine_initial_condition

    problem = (sine_initial_condition(20_000, mode=1 + seed % 3), 0.25, 20)
    return [
        _spec("heat_coforall", {"locales": locales, "seed": seed},
              _fingerprinted(ladder.rungs(problem, workers=locales), "coforall", itemgetter(0)))
        for locales in (1, 2)
    ]


def _knn_mapreduce_trials(seed: int) -> list[TrialSpec]:
    from repro.knn import make_blobs, run_knn_mapreduce

    db, labels = make_blobs(600, 8, 4, seed=seed)
    queries, _ = make_blobs(80, 8, 4, seed=seed + 1)

    def runner() -> Any:
        preds, shipped = run_knn_mapreduce(4, db, labels, queries, 5)
        return (preds, shipped)

    return [_spec("knn_mapreduce", {"ranks": 4, "seed": seed}, runner)]


def _serve_trials(fault_plans: Sequence[str], seed: int) -> list[TrialSpec]:
    from repro.serve import JobService, ServeFaultPlan, generate_traffic, run_soak

    jobs = generate_traffic(seed, tenants=3, jobs_per_tenant=4)

    def make_plan(kind: str) -> Any:
        if kind == "none":
            return None
        return ServeFaultPlan.sample(
            seed, submissions=len(jobs), workers=2,
            poison_prob=0.05, worker_loss_prob=0.03, stall_prob=0.05,
        )

    specs = []
    for kind in fault_plans:
        def runner(k: str = kind) -> Any:
            service = JobService(
                2, capacity=8, max_retries=1, fault_plan=make_plan(k),
                circuit_threshold=100,
            )
            try:
                result = run_soak(service, jobs, verify=False, timeout=120.0)
            finally:
                service.shutdown()
            # The digestable witness: terminal states + per-tenant shares.
            return (sorted(result.states.items()), sorted(result.completions.items()))

        specs.append(_spec("serve_soak", {"faults": kind, "seed": seed}, runner))
    return specs


def _align_trials(backends: Sequence[str], seed: int) -> list[TrialSpec]:
    from repro.align import generate_pair, ladder

    rungs = ladder.rungs(generate_pair(seed, 96), workers=4, tile=24)
    models = {"sequential": {"model": "sequential"}} | {
        f"executor-{backend}": {"model": "executor", "backend": backend}
        for backend in backends
    }
    return [
        _spec("align", {**config, "seed": seed},
              _fingerprinted(rungs, rung, attrgetter("matrix", "path")))
        for rung, config in models.items()
    ]


def build_matrix(
    *,
    suites: Sequence[str] = DEFAULT_SUITES,
    backends: Sequence[str] = ("serial", "thread"),
    fault_plans: Sequence[str] = ("none", "spark"),
    sanitizer_schedules: Sequence[str] = ("off", "observe"),
    seeds: Sequence[int] = (0,),
) -> list[TrialSpec]:
    """The campaign matrix: every suite crossed with its dimensions.

    Each dimension applies where it is meaningful — backends sweep the
    executor-backed k-means, fault plans sweep the Spark wordcount and
    the serve soak (``none`` vs a scheduler-level ``ServeFaultPlan``),
    sanitizer schedules sweep the OpenMP k-means rung, locales sweep the
    heat solver, and backends also sweep the executor wavefront against
    its sequential oracle (same digest across the model dimension = the
    bit-identity witness) — and every suite is swept over ``seeds``.
    """
    unknown = set(suites) - set(DEFAULT_SUITES)
    if unknown:
        raise ValueError(f"unknown suites {sorted(unknown)}; choose from {DEFAULT_SUITES}")
    specs: list[TrialSpec] = []
    for seed in seeds:
        if "kmeans" in suites:
            specs.extend(_kmeans_trials(backends, seed))
        if "kmeans_openmp" in suites:
            specs.extend(_kmeans_openmp_trials(sanitizer_schedules, seed))
        if "wordcount" in suites:
            specs.extend(_wordcount_trials(fault_plans, seed))
        if "heat" in suites:
            specs.extend(_heat_trials(seed))
        if "knn_mapreduce" in suites:
            specs.extend(_knn_mapreduce_trials(seed))
        if "serve" in suites:
            specs.extend(_serve_trials(fault_plans, seed))
        if "align" in suites:
            specs.extend(_align_trials(backends, seed))
    return specs


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------

#: Default size bound on the live ``history.jsonl`` before it rotates
#: to numbered segments (see :func:`repro.trace.history.append_history`).
HISTORY_MAX_BYTES = 4 * 1024 * 1024


def run_campaign(
    specs: Iterable[TrialSpec],
    *,
    history_path: str | Path | None = None,
    history_max_bytes: int | None = HISTORY_MAX_BYTES,
    repeats: int = 2,
    clock: Callable[[], float] = time.perf_counter,
    now: Callable[[], str] | None = None,
    git_sha: str | None = None,
    injection: CampaignInjection | None = None,
    tracer: Tracer | None = None,
) -> CampaignResult:
    """Time every trial, fingerprint its result, emit canonical records.

    Each cell is timed min-of-``repeats`` (the least-noise estimator the
    overhead gates use), its last result is hashed via
    :func:`repro.trace.history.result_digest`, and a
    :class:`BenchRecord` is stamped with ``now()`` and ``git_sha``. A
    trial that raises is counted in ``errors`` and skipped — one broken
    workload must not kill the campaign. When ``history_path`` is given
    the records are appended to it. ``clock`` is injectable so tests can
    drive the pipeline with deterministic timings.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    specs = list(specs)
    injection = injection or CampaignInjection()
    stamp = now() if now is not None else datetime.now(timezone.utc).isoformat()
    sha = git_sha if git_sha is not None else default_git_sha()
    tracer = tracer if tracer is not None else Tracer()

    records: list[BenchRecord] = []
    errors: list[str] = []
    wall_start = time.perf_counter()
    with use_tracer(tracer):
        with tracer.span("campaign", category="trials", trials=len(specs)):
            for spec in specs:
                cell = (spec.workload, spec.config_label)
                tracer.metrics.counter("trials.trials").inc()
                try:
                    with tracer.span(
                        f"trial:{spec.workload}", category="trials", config=spec.config_label
                    ):
                        best = float("inf")
                        result: Any = None
                        for _ in range(repeats):
                            t0 = clock()
                            result = spec.runner()
                            best = min(best, clock() - t0)
                except Exception as exc:  # noqa: BLE001 — campaign must survive any trial
                    tracer.metrics.counter("trials.failures").inc()
                    tracer.instant(
                        "trials.trial_failed", category="trials",
                        workload=spec.workload, config=spec.config_label,
                        error=type(exc).__name__,
                    )
                    errors.append(f"{spec.workload}[{spec.config_label}]: {exc!r}")
                    continue
                digest = result_digest(result)
                if cell in injection.slowdowns:
                    best *= float(injection.slowdowns[cell])
                    tracer.metrics.counter("trials.injected_slowdowns").inc()
                if cell in injection.digest_breaks:
                    digest = f"{digest}:injected-break"
                    tracer.metrics.counter("trials.injected_digest_breaks").inc()
                tracer.metrics.histogram("trials.trial_seconds").observe(best)
                records.append(make_record(
                    spec.workload,
                    config=dict(spec.config),
                    timings={"total": best},
                    digest=digest,
                    timestamp=stamp,
                    git_sha=sha,
                    source="campaign",
                ))
    wall = time.perf_counter() - wall_start

    appended = 0
    if history_path is not None:
        appended = append_history(history_path, records, max_bytes=history_max_bytes)
    return CampaignResult(
        records=records,
        errors=errors,
        wall_seconds=wall,
        metrics=tracer.metrics.snapshot(),
        appended=appended,
    )
