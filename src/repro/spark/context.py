"""The driver-side entry point: job execution, data ingest, shared vars.

A :class:`SparkContext` plays driver *and* cluster: ``run_job`` executes
one task per partition on a pluggable executor backend
(:mod:`repro.core.executor`): ``backend="thread"`` (the default — each
job runs on a team of parked helper threads; a nested job — a shuffle
materializing inside a task — runs inline on that task's thread, as does
a job issued on a job service worker), ``"serial"``, or ``"process"``
(fork-based worker processes for real CPU parallelism; see
``docs/executors.md``).
Results, accumulator values, and fault recovery are bit-identical
across all three. The
:class:`JobMetrics` counters make the engine's communication behaviour
observable, which is what the pipeline assignment grades students on
discussing.

With a :class:`~repro.spark.faults.SparkFaultPlan` installed the
scheduler becomes fault-tolerant, mirroring real Spark's recovery
model:

- injected task failures and worker blacklistings are retried with
  bounded deterministic backoff (``max_task_retries``), each retry on
  the next virtual worker;
- injected stragglers trigger a speculative copy on another worker,
  which deterministically wins (the abandoned original is recorded,
  never run, and holds no thread);
- corrupted shuffle/broadcast payloads are caught by checksums in
  :mod:`repro.spark.shuffle` / :mod:`repro.spark.broadcast` and healed
  by lineage recomputation / master-copy refetch.

Accumulator updates are buffered per attempt and committed exactly once
per logical task (``(job, partition)``), so results *and* diagnostics
are bit-identical to the fault-free run. Without a plan the scheduler
takes the original code path (one ``is None`` test per task).
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import shutil
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro.core.executor import (
    BACKENDS,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    WorkerCrashError,
)
from repro.spark.accumulators import (
    Accumulator,
    apply_encoded_updates,
    commit_updates,
    encode_updates,
    task_updates,
)
from repro.spark.broadcast import Broadcast
from repro.spark.faults import (
    BlacklistedWorker,
    SparkFaultPlan,
    SparkFaultReport,
    SparkInjectionRecord,
    SparkJobFailedError,
    TaskFailure,
)
from repro.spark.rdd import RDD, ParallelCollectionRDD, ShuffledRDD
from repro.spark.shuffle import ShuffleBlockStore, SpillFileInfo, damage_spill_file
from repro.trace.tracer import get_tracer
from repro.util.backoff import BackoffPolicy
from repro.util.partition import block_partition
from repro.util.validation import require_nonnegative_int, require_positive_int

__all__ = ["SparkContext", "JobMetrics", "SparkJobCancelled"]


class SparkJobCancelled(RuntimeError):
    """A job observed its context's cancel token and stopped cooperatively.

    Raised at a task boundary, *before* the job's accumulator sinks are
    committed — so a cancelled job leaves no partial accumulator state
    behind (the rollback is that the commit never happens), and the
    context's idempotent :meth:`SparkContext.stop` removes any spill
    directory the aborted job materialized.
    """

    def __init__(self, context: str, job: int | None = None, partition: int | None = None) -> None:
        where = ""
        if job is not None:
            where = f" (job {job})" if partition is None else f" (job {job}, partition {partition})"
        super().__init__(f"{context} was cancelled{where}")
        self.context = context
        self.job = job
        self.partition = partition

_CONTEXT_IDS = itertools.count(1)


@dataclass
class JobMetrics:
    """Observable engine counters (reset with :meth:`SparkContext.reset_metrics`).

    Fault-tolerance counters live in :attr:`extra` under ``spark.*``
    keys (see ``docs/observability.md``) and are bumped via
    :meth:`bump`, which is thread-safe — recovery happens on task
    threads.
    """

    jobs: int = 0
    tasks: int = 0
    shuffles: int = 0
    shuffle_records: int = 0
    partitions_cached: int = 0
    extra: dict[str, int] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def bump(self, key: str, n: int = 1) -> None:
        """Thread-safely add ``n`` to the ``extra[key]`` counter."""
        with self._lock:
            self.extra[key] = self.extra.get(key, 0) + n


class SparkContext:
    """Factory for RDDs plus the scheduler that runs their jobs.

    Usable as a context manager (``with SparkContext() as sc:``);
    :meth:`stop` is idempotent and leaving the ``with`` block calls it.

    ``fault_plan`` installs deterministic fault injection + recovery
    (see :mod:`repro.spark.faults`): ``max_task_retries`` bounds per-task
    retries and ``retry_backoff`` seeds the exponential backoff between
    them. ``fault_report`` then carries the structured evidence of what
    fired and what was recovered.

    ``cancel_token`` (anything with ``is_set()``, e.g. a
    ``threading.Event``; one is created when omitted so :meth:`cancel`
    always works) makes every job cooperatively cancellable: the
    scheduler checks the token at each task boundary and raises
    :class:`SparkJobCancelled` once it is set — before any accumulator
    sink commits, so a cancelled job rolls back to the pre-job
    accumulator state, and :meth:`stop` reclaims any spill directory it
    left behind. This is the hook ``repro.serve`` uses for per-job
    deadlines and wall timeouts.

    ``memory_budget`` (bytes, ``None`` = unbounded) turns the shuffle
    tier out-of-core: each shuffle's block store spills sorted,
    CRC-checksummed runs to a context-private temp directory whenever
    its resident estimate exceeds the budget, and the reduce side k-way
    merges the runs back (results stay bit-identical to the in-memory
    run). ``spill_compress`` zlib-compresses spilled blocks;
    ``verify_reads`` turns on checksum verification of *resident*
    shuffle blocks independently of any fault plan; ``spill_dir``
    overrides where the private spill directory is created. The spill
    directory is removed by the idempotent :meth:`stop` — on success,
    after a failed job, and on double-stop alike.
    """

    def __init__(
        self,
        num_workers: int = 4,
        default_partitions: int | None = None,
        *,
        name: str | None = None,
        backend: str = "thread",
        fault_plan: SparkFaultPlan | None = None,
        max_task_retries: int = 3,
        retry_backoff: float = 0.001,
        memory_budget: int | None = None,
        spill_compress: bool = False,
        verify_reads: bool = False,
        spill_dir: str | Path | None = None,
        cancel_token: Any | None = None,
    ) -> None:
        self.num_workers = require_positive_int("num_workers", num_workers)
        self.default_partitions = default_partitions or num_workers
        require_positive_int("default_partitions", self.default_partitions)
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
        if backend == "process" and "fork" not in multiprocessing.get_all_start_methods():
            # Spark tasks close over the whole lineage DAG (RDDs, shuffle
            # stores, broadcasts) — only fork can ship that to workers.
            raise ValueError(
                "backend='process' requires the 'fork' start method, which this "
                "platform does not offer; use backend='thread'"
            )
        self.backend = backend
        self._driver_pid = os.getpid()
        self.name = name or f"SparkContext-{next(_CONTEXT_IDS)}"
        self.metrics = JobMetrics()
        self._rdd_counter = 0
        self._stopped = False
        # --- fault tolerance state (all inert when fault_plan is None) ---
        self._fault_plan = fault_plan
        self.max_task_retries = require_nonnegative_int("max_task_retries", max_task_retries)
        if retry_backoff < 0:
            raise ValueError(f"retry_backoff must be >= 0, got {retry_backoff}")
        self.retry_backoff = retry_backoff
        self._retry_policy = BackoffPolicy(retry_backoff)
        self.fault_report: SparkFaultReport | None = (
            SparkFaultReport(plan=fault_plan) if fault_plan is not None else None
        )
        self._job_lock = threading.Lock()
        self._job_counter = 0
        self._shuffle_counter = 0
        self._broadcast_counter = 0
        self._blacklisted: set[int] = set()
        self._blacklist_lock = threading.Lock()
        self._committed: set[tuple[int, int]] = set()
        self._commit_lock = threading.Lock()
        # --- out-of-core shuffle state ---
        if memory_budget is not None:
            require_positive_int("memory_budget", memory_budget)
        self.memory_budget = memory_budget
        self.spill_compress = spill_compress
        self.verify_reads = verify_reads
        self._spill_dir_base = Path(spill_dir) if spill_dir is not None else None
        self._spill_root: Path | None = None
        self._spill_lock = threading.Lock()
        self._spill_fired: dict[tuple[int, int], int] = {}
        # --- cooperative cancellation (the serve tier's hook) ---
        self._cancel_token = cancel_token if cancel_token is not None else threading.Event()
        # --- process-backend executor ---
        # One ProcessExecutor per context, created lazily on the first
        # process-backend job and closed by stop().
        self._executor: Executor | None = None

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def parallelize(self, data: Iterable[Any], num_partitions: int | None = None) -> RDD:
        """Slice driver data into a partitioned RDD."""
        self._check_alive()
        items = list(data)
        nparts = num_partitions or self.default_partitions
        require_positive_int("num_partitions", nparts)
        slices = [list(items[r.start : r.stop]) for r in block_partition(len(items), nparts)]
        return ParallelCollectionRDD(self, slices)

    def text_file(self, path: str | Path, num_partitions: int | None = None) -> RDD:
        """One element per line of a text file (the HDFS-ingest stand-in)."""
        lines = Path(path).read_text().splitlines()
        return self.parallelize(lines, num_partitions)

    def empty_rdd(self) -> RDD:
        """An RDD with a single empty partition."""
        return ParallelCollectionRDD(self, [[]])

    # ------------------------------------------------------------------
    # shared variables
    # ------------------------------------------------------------------
    def broadcast(self, value: Any) -> Broadcast:
        """Snapshot ``value`` for read-only task access.

        Under a fault plan, broadcasts are numbered in creation order;
        a scheduled ``broadcast`` event corrupts the shipped payload
        here, and the checksum on first task access refetches the
        driver's master copy.
        """
        self._check_alive()
        if self._fault_plan is None:
            return Broadcast(value)
        with self._job_lock:
            index = self._broadcast_counter
            self._broadcast_counter += 1
        bc = Broadcast(value, on_refetch=self._on_broadcast_refetch)
        event = self._fault_plan.broadcast_event(index)
        if event is not None:
            bc._corrupt()
            assert self.fault_report is not None
            self.fault_report.fire(
                SparkInjectionRecord("broadcast", index, 0), self.metrics, get_tracer(),
                scope="spark.driver", index=index,
            )
        return bc

    def _on_broadcast_refetch(self) -> None:
        self.metrics.bump("spark.broadcast_refetches")
        if self.fault_report is not None:
            self.fault_report.record_broadcast_refetch()
        get_tracer().instant("broadcast_refetch", category="spark.fault")

    def accumulator(self, initial: Any = 0, op: Callable[[Any, Any], Any] | None = None) -> Accumulator:
        """Create a task-writable, driver-readable fold cell."""
        self._check_alive()
        return Accumulator(initial, op)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run_job(self, rdd: RDD, task_fn: Callable[[int, list[Any]], Any]) -> list[Any]:
        """Run ``task_fn(partition_index, partition_data)`` over all partitions.

        Results are returned in partition order. The context's
        ``backend`` picks the executor: ``"thread"`` (default — a team
        of helper threads per job; a job nested in a task, or issued on
        a job service worker, runs inline), ``"serial"``, or
        ``"process"`` (fork-based worker processes; see
        ``docs/executors.md``). All three produce bit-identical results
        and accumulator values.
        """
        _job_id, results = self._execute_job(rdd, task_fn)
        return results

    def _execute_job(
        self, rdd: RDD, task_fn: Callable[[int, list[Any]], Any]
    ) -> tuple[int, list[Any]]:
        """Run a job and also return its id (jobs are numbered in
        submission order — the coordinate task-level fault events use)."""
        self._check_alive()
        self._check_cancelled()
        with self._job_lock:
            job_id = self._job_counter
            self._job_counter += 1
        self.metrics.jobs += 1
        self.metrics.tasks += rdd.num_partitions
        backend = self.backend
        if backend == "process" and os.getpid() != self._driver_pid:
            # A nested job inside a forked worker (daemonic processes
            # can't have children): compute inline instead.
            backend = "serial"
        tracer = get_tracer()
        with tracer.span(
            "job", category="spark", scope="spark.driver",
            rdd=rdd.id, partitions=rdd.num_partitions, backend=backend,
        ):
            if backend == "process":
                return job_id, self._execute_job_process(tracer, task_fn, rdd, job_id)
            executor = (
                SerialExecutor() if backend == "serial" else ThreadExecutor(self.num_workers)
            )
            outcomes = executor.map(
                lambda i, _item: self._run_task(tracer, task_fn, rdd, i, job_id),
                range(rdd.num_partitions),
            )
            # Commit accumulator sinks in partition order — deterministic
            # and identical across backends (see repro.spark.accumulators).
            results: list[Any] = []
            for i, (result, sink) in enumerate(outcomes):
                self._commit_task((job_id, i), sink)
                results.append(result)
            return job_id, results

    def _run_task(
        self,
        tracer: Any,
        task_fn: Callable[[int, list[Any]], Any],
        rdd: RDD,
        i: int,
        job_id: int,
    ) -> tuple[Any, Any]:
        """One logical task on the serial/thread path: returns
        ``(result, accumulator_sink)``; the job loop commits sinks."""
        self._check_cancelled(job_id, i)
        if self._fault_plan is None:
            # The fault-free hot path: one is-None test plus the sink.
            with task_updates() as sink:
                if not tracer.enabled:
                    return task_fn(i, rdd.partition(i)), sink
                # Each partition gets its own logical-clock lane; nested jobs
                # spawned inside a task inherit it through the thread-local scope.
                with tracer.scope(f"spark.p{i}"):
                    with tracer.span("task", category="spark", rdd=rdd.id, partition=i):
                        return task_fn(i, rdd.partition(i)), sink
        self._resolve_task_faults(tracer, i, job_id)
        return self._execute_attempt(tracer, task_fn, rdd, i, job_id)

    def _resolve_task_faults(self, tracer: Any, partition: int, job_id: int) -> None:
        """Play out the fault plan's schedule for one logical task: retry,
        blacklist, and speculate until an attempt survives (returns) or
        retries are exhausted (raises :class:`SparkJobFailedError`).

        Pure scheduling — the surviving attempt's body is *not* run here,
        which is what lets the process backend resolve faults driver-side
        (deterministically, in partition order) and then batch-execute
        the surviving attempts in worker processes.
        """
        plan = self._fault_plan
        report = self.fault_report
        assert plan is not None and report is not None
        event = plan.task_event(job_id, partition)
        lane = f"spark.p{partition}"
        failures = 0
        attempt = 0
        while True:
            worker = self._pick_worker(partition, attempt)
            if event is not None and attempt < event.attempts:
                if event.kind == "straggle" and attempt == 0:
                    # The attempt is an injected slow node: record its
                    # straggle (it never runs, so no thread waits out its
                    # seconds) and launch a speculative copy, which runs the
                    # real body immediately on the next worker — so the copy
                    # always wins, deterministically.
                    report.fire(
                        SparkInjectionRecord(
                            "straggle", job_id, partition, attempt, worker, seconds=event.seconds
                        ),
                        self.metrics, tracer, scope=lane,
                        job=job_id, partition=partition, worker=worker, seconds=event.seconds,
                    )
                    self.metrics.bump("spark.speculative_tasks")
                    report.record_speculative(job_id, partition)
                    tracer.instant(
                        "speculative_launch", category="spark.fault", scope=lane,
                        job=job_id, partition=partition,
                    )
                    self.metrics.bump("spark.speculative_wins")
                    attempt += 1
                    continue
                if event.kind in ("task", "worker"):
                    injected: Exception | None = None
                    if event.kind == "task":
                        injected = TaskFailure(job_id, partition, attempt, worker)
                        detail = {"attempt": attempt}
                    elif self._blacklist(worker):
                        injected = BlacklistedWorker(worker, job_id, partition, attempt)
                        detail = {"worker": worker}
                    # (an injected blacklist against the last live worker is
                    # suppressed: the scheduler never kills its whole cluster)
                    if injected is not None:
                        report.fire(
                            SparkInjectionRecord(event.kind, job_id, partition, attempt, worker),
                            self.metrics, tracer, scope=lane,
                            job=job_id, partition=partition, **detail,
                        )
                        failures += 1
                        if failures > self.max_task_retries:
                            raise SparkJobFailedError(
                                job_id, partition, failures, report
                            ) from injected
                        report.record_retry(job_id, partition)
                        self.metrics.bump("spark.task_retries")
                        tracer.instant(
                            "task_retry", category="spark.fault", scope=lane,
                            job=job_id, partition=partition, attempt=attempt + 1,
                        )
                        if self.retry_backoff:
                            self._retry_policy.sleep(failures - 1)
                        attempt += 1
                        continue
            return

    def _execute_attempt(
        self,
        tracer: Any,
        task_fn: Callable[[int, list[Any]], Any],
        rdd: RDD,
        partition: int,
        job_id: int,
    ) -> tuple[Any, Any]:
        """One surviving attempt: run the body with accumulator updates
        buffered; the caller commits the sink exactly once per task."""
        with task_updates() as sink:
            if not tracer.enabled:
                result = task_fn(partition, rdd.partition(partition))
            else:
                with tracer.scope(f"spark.p{partition}"):
                    with tracer.span("task", category="spark", rdd=rdd.id, partition=partition):
                        result = task_fn(partition, rdd.partition(partition))
        return result, sink

    # ------------------------------------------------------------------
    # process backend
    # ------------------------------------------------------------------
    def _execute_job_process(
        self,
        tracer: Any,
        task_fn: Callable[[int, list[Any]], Any],
        rdd: RDD,
        job_id: int,
    ) -> list[Any]:
        """Run one job's tasks in forked worker processes.

        Three driver-side steps make the fork model safe and keep results
        bit-identical to the other backends:

        1. the lineage is *prepared* — every shuffle store and every
           persisted/checkpointed cache is materialized in the driver, so
           workers compute over inherited data instead of each privately
           (and wastefully) rebuilding driver state they can't share back;
        2. under a fault plan, each task's injected schedule is resolved
           here, serially in partition order (retries/blacklists/
           speculation are driver bookkeeping — only surviving attempt
           bodies ship to workers);
        3. task accumulator updates travel home as encoded pairs and are
           committed in partition order, same as the other backends.

        A crashed worker (:class:`WorkerCrashError`) is surfaced in
        metrics and the fault report, and its lost tasks are re-executed
        on the driver — the process-backend analogue of retry.
        """
        self._check_cancelled(job_id)
        self._prepare_lineage_for_processes(tracer, rdd)
        if self._fault_plan is not None:
            for i in range(rdd.num_partitions):
                self._resolve_task_faults(tracer, i, job_id)

        def body(i: int, _item: Any) -> tuple[Any, list[tuple[int, Any]]]:
            with task_updates() as sink:
                result = task_fn(i, rdd.partition(i))
            return result, encode_updates(sink)

        outcomes = self._process_map(tracer, body, list(range(rdd.num_partitions)))
        results: list[Any] = []
        for i, (result, pairs) in enumerate(outcomes):
            self._commit_task_encoded((job_id, i), pairs)
            results.append(result)
        return results

    def _process_map(
        self, tracer: Any, body: Callable[[int, Any], Any], items: Sequence[Any]
    ) -> list[Any]:
        """Map ``body`` over ``items`` in worker processes, recovering
        lost results on the driver when a worker dies mid-job.

        Task bodies close over live lineage, so they never pickle and
        always take the executor's fork path: fresh workers per job that
        see the driver state as of *this* job.
        """
        executor = self._process_executor()
        try:
            return executor.map(body, items)
        except WorkerCrashError as crash:
            self.metrics.bump("spark.worker_crashes")
            if self.fault_report is not None:
                self.fault_report.record_worker_crash(crash.worker, len(crash.missing))
            tracer.instant(
                "worker_crash", category="spark.fault", scope="spark.driver",
                worker=crash.worker, exitcode=crash.exitcode, lost=len(crash.missing),
            )
            outcomes = dict(crash.completed)
            for i in crash.missing:
                outcomes[i] = body(i, items[i])
            return [outcomes[i] for i in range(len(items))]

    def _process_executor(self) -> Executor:
        """The context's process-backend executor."""
        if self._executor is None:
            self._executor = ProcessExecutor(self.num_workers, start_method="fork")
        return self._executor

    def _prepare_lineage_for_processes(self, tracer: Any, rdd: RDD) -> None:
        """Materialize all shuffle stores and persist/checkpoint caches in
        ``rdd``'s lineage, driver-side, before forking workers.

        Post-order over the dependency DAG so parents are ready before a
        child computes. Cache fills run as process maps themselves (the
        computed partitions ship home and are installed), and their
        accumulator updates are applied once — mirroring the thread
        backend, where the first task to touch a cached partition folds
        that computation's updates into its own committed sink.
        """
        seen: set[int] = set()

        def visit(r: RDD) -> None:
            if id(r) in seen:
                return
            seen.add(id(r))
            for dep in r.deps:
                visit(dep.parent)
            if isinstance(r, ShuffledRDD):
                r._materialize_shuffle()
            splits = r._uncached_splits()
            if splits:
                def fill(_i: int, split: int, r: RDD = r) -> tuple[list[Any], list[tuple[int, Any]]]:
                    with task_updates() as sink:
                        data = r.compute(split)
                    return data, encode_updates(sink)

                filled = self._process_map(tracer, fill, splits)
                for split, (data, pairs) in zip(splits, filled):
                    r._install_partition(split, data)
                    apply_encoded_updates(pairs)

        visit(rdd)

    # ------------------------------------------------------------------
    # accumulator commits (exactly-once per logical task)
    # ------------------------------------------------------------------
    def _mark_committed(self, key: tuple[int, int]) -> bool:
        with self._commit_lock:
            if key in self._committed:
                return False
            self._committed.add(key)
            return True

    def _commit_task(self, key: tuple[int, int], sink: Any) -> None:
        """Apply an attempt's buffered accumulator updates exactly once
        per logical task (lineage recomputation of an already-committed
        task discards its updates — that's the exactly-once guarantee)."""
        if self._mark_committed(key):
            commit_updates(sink)

    def _commit_task_encoded(self, key: tuple[int, int], pairs: list[tuple[int, Any]]) -> None:
        """The process-backend commit: same exactly-once gate, but the
        updates arrive as encoded ``(accumulator_id, amount)`` pairs."""
        if self._mark_committed(key):
            apply_encoded_updates(pairs)

    # ------------------------------------------------------------------
    # virtual workers (fault-tolerance scheduling model)
    # ------------------------------------------------------------------
    def _pick_worker(self, partition: int, attempt: int) -> int:
        """Deterministic assignment over live (non-blacklisted) workers."""
        with self._blacklist_lock:
            live = [w for w in range(self.num_workers) if w not in self._blacklisted]
        return live[(partition + attempt) % len(live)]

    def _blacklist(self, worker: int) -> bool:
        """Remove ``worker`` from scheduling; refuses to kill the last one."""
        with self._blacklist_lock:
            if worker in self._blacklisted:
                return False
            if len(self._blacklisted) >= self.num_workers - 1:
                return False
            self._blacklisted.add(worker)
        self.metrics.bump("spark.blacklisted_workers")
        if self.fault_report is not None:
            self.fault_report.record_blacklist(worker)
        return True

    # ------------------------------------------------------------------
    # shuffle registration + spill management (fault injection seams)
    # ------------------------------------------------------------------
    def _next_shuffle_index(self) -> int:
        """Number a shuffle in materialization order (the coordinate
        ``shuffle`` and spill-file fault events address)."""
        with self._job_lock:
            index = self._shuffle_counter
            self._shuffle_counter += 1
        return index

    def _create_shuffle_store(self, index: int, num_maps: int, num_parts: int) -> Any:
        """Build the block store for shuffle ``index`` with this context's
        checksum/spill configuration wired in."""
        plan = self._fault_plan
        # Corruption of resident blocks only enters through the plan, so
        # resident checksums are pure overhead unless the plan schedules
        # a shuffle fault — or the user asked for them via verify_reads.
        checksums = plan is not None and plan.has_shuffle_events
        return ShuffleBlockStore(
            num_maps,
            num_parts,
            checksums=checksums,
            verify_reads=self.verify_reads,
            memory_budget=self.memory_budget,
            spill_dir=self._spill_dir if self.memory_budget is not None else None,
            spill_name=f"shuffle-{index:05d}",
            compress=self.spill_compress,
            on_spill=(
                (lambda info: self._on_spill_file(index, info))
                if self.memory_budget is not None
                else None
            ),
            on_merge=self._on_merge_pass,
        )

    def _inject_shuffle_corruption(self, store: Any, index: int) -> None:
        """Apply any scheduled resident-block corruption to a freshly
        materialized shuffle — after the blocks exist, before any fetch."""
        if self._fault_plan is None:
            return
        for event in self._fault_plan.shuffle_events(index):
            map_task = event.unit % store.num_maps
            reduce_part = (event.unit // store.num_maps) % store.num_parts
            if store.corrupt(map_task, reduce_part):
                assert self.fault_report is not None
                self.fault_report.fire(
                    SparkInjectionRecord("shuffle", index, event.unit),
                    self.metrics, get_tracer(), scope="spark.driver",
                    shuffle=index, map_task=map_task, reduce_part=reduce_part,
                )

    def _spill_dir(self) -> Path:
        """The context-private spill directory, created on first spill and
        removed by :meth:`stop`."""
        with self._spill_lock:
            if self._spill_root is None:
                base = None
                if self._spill_dir_base is not None:
                    self._spill_dir_base.mkdir(parents=True, exist_ok=True)
                    base = str(self._spill_dir_base)
                self._spill_root = Path(
                    tempfile.mkdtemp(prefix="repro-spark-spill-", dir=base)
                )
            return self._spill_root

    @property
    def spill_directory(self) -> Path | None:
        """Where spill runs live (``None`` until the first spill/after stop)."""
        with self._spill_lock:
            return self._spill_root

    def _on_spill_file(self, shuffle: int, info: SpillFileInfo) -> None:
        """Account one written spill run and fire any scheduled disk fault
        against it (deletion / truncation / byte corruption)."""
        self.metrics.bump("spark.spill_files")
        self.metrics.bump("spark.spill_bytes", info.bytes)
        get_tracer().instant(
            "spill", category="spark.spill", scope="spark.driver",
            shuffle=shuffle, file=info.slot, bytes=info.bytes,
            blocks=info.blocks, map_tasks=len(info.map_tasks),
            compressed=info.compressed,
        )
        plan = self._fault_plan
        if plan is None:
            return
        event = plan.spill_event(shuffle, info.slot)
        if event is None:
            return
        with self._spill_lock:
            self._spill_fired[(shuffle, info.slot)] = 1
        if damage_spill_file(info.path, event.kind):
            assert self.fault_report is not None
            self.fault_report.fire(
                SparkInjectionRecord(event.kind, shuffle, info.slot),
                self.metrics, get_tracer(), scope="spark.driver",
                shuffle=shuffle, file=info.slot,
            )

    def _spill_refire(self, shuffle: int, slot: int) -> bool:
        """Whether the spill fault at ``(shuffle, slot)`` destroys the
        recomputed data again (its ``attempts`` are not yet exhausted).
        Each call that returns True consumes one attempt."""
        plan = self._fault_plan
        if plan is None:
            return False
        event = plan.spill_event(shuffle, slot)
        if event is None:
            return False
        with self._spill_lock:
            fired = self._spill_fired.get((shuffle, slot), 0)
            if fired >= event.attempts:
                return False
            self._spill_fired[(shuffle, slot)] = fired + 1
        assert self.fault_report is not None
        self.fault_report.fire(
            SparkInjectionRecord(event.kind, shuffle, slot, attempt=fired), self.metrics
        )
        return True

    def _on_merge_pass(self, runs: int) -> None:
        """Account one reduce-side k-way merge over spilled runs."""
        self.metrics.bump("spark.merge_passes")
        get_tracer().instant(
            "merge", category="spark.spill", runs=runs,
        )

    # ------------------------------------------------------------------
    # cooperative cancellation
    # ------------------------------------------------------------------
    def cancel(self) -> None:
        """Request cooperative cancellation of all current and future jobs.

        Only effective when the context's token supports ``set()`` (the
        default internal token and any ``threading.Event`` do). Running
        tasks finish their current body; the next task boundary raises
        :class:`SparkJobCancelled` before any accumulator commit.
        """
        setter = getattr(self._cancel_token, "set", None)
        if setter is None:
            raise TypeError(
                f"cancel_token {self._cancel_token!r} has no set(); cancel it "
                "at its source instead"
            )
        setter()

    @property
    def cancelled(self) -> bool:
        """Whether the cancel token has been set."""
        return bool(self._cancel_token.is_set())

    def _check_cancelled(self, job: int | None = None, partition: int | None = None) -> None:
        if self._cancel_token.is_set():
            get_tracer().instant(
                "job_cancelled", category="spark.cancel", scope="spark.driver",
                job=-1 if job is None else job,
            )
            raise SparkJobCancelled(self.name, job, partition)

    # ------------------------------------------------------------------
    # lifecycle / bookkeeping
    # ------------------------------------------------------------------
    def reset_metrics(self) -> None:
        """Zero the engine counters (between benchmark phases)."""
        self.metrics = JobMetrics()

    def stop(self) -> None:
        """Refuse further work (catching use-after-stop bugs in pipelines).

        Idempotent: stopping a stopped context is a no-op, so ``with``
        blocks and explicit ``stop()`` calls compose.
        """
        with self._spill_lock:
            spill_root, self._spill_root = self._spill_root, None
        if spill_root is not None:
            # Best-effort, even after a failed job: leaked spill runs are
            # the disk-tier equivalent of a memory leak.
            shutil.rmtree(spill_root, ignore_errors=True)
        if self._stopped:
            return
        self._stopped = True
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.close()

    def _check_alive(self) -> None:
        if self._stopped:
            raise RuntimeError(
                f"{self.name} has been stopped; create a fresh SparkContext "
                "to run further jobs"
            )

    def _next_rdd_id(self) -> int:
        self._rdd_counter += 1
        return self._rdd_counter

    def __enter__(self) -> "SparkContext":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    def __repr__(self) -> str:
        state = "stopped" if self._stopped else "alive"
        plan = f", fault_plan={self._fault_plan!r}" if self._fault_plan is not None else ""
        return (
            f"{type(self).__name__}(name={self.name!r}, num_workers={self.num_workers}, "
            f"backend={self.backend!r}, {state}{plan})"
        )
