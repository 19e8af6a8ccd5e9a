"""The benchmark's workloads: seeded inputs, the calls into the program, the checks.

Each workload builds its inputs and the reference answers from the seed
alone, outside any timing. ``start``/``stop`` bring the long-lived
engines up and down (the set-up a user pays once), and ``request`` runs
one unit of user work and returns what the program produced, which
``failures`` then checks against the reference answers.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.align import align_executor, align_openmp, align_sequential, generate_pair
from repro.align.mpi_align import run_align_mpi
from repro.core.executor import ProcessExecutor
from repro.kmeans import (
    TerminationCriteria,
    kmeans_device,
    kmeans_openmp,
    kmeans_parallel,
    kmeans_sequential,
    run_kmeans_mpi,
)
from repro.kmeans.initialization import init_random_points
from repro.knn import run_wordcount
from repro.knn.data import make_blobs
from repro.knn.wordcount import tokenize, wordcount_spark
from repro.pipeline import arrests_per_100k, generate_arrests, generate_ntas
from repro.pipeline.nyc import locate_nta
from repro.serve import JobService, generate_traffic, job_body, run_solo
from repro.serve.traffic import TRAFFIC_WORKLOADS, TrafficJob
from repro.spark import SparkContext
from repro.trace import get_tracer
from repro.trace.history import result_digest

#: Threads, ranks and pool workers per parallel model: the 2-core box
#: the benchmark is sized for.
WORKERS = 2


@dataclass
class Done:
    """What one ``request`` call produced, for ``failures`` to check.

    A ladder or dataflow request is a fixed sequence of program calls,
    timed one by one in ``calls`` as ``(label, seconds)``. A serve burst
    holds many requests (jobs), whose latencies are in ``latencies``.
    """

    outputs: Any
    calls: list[tuple[str, float]] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)


def _call(calls: list, label: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """Call into the program under a ``bench.call`` span named
    ``module/model``, appending ``(label, seconds)`` to ``calls``."""
    with get_tracer().span(label, category="bench.call"):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        calls.append((label, time.perf_counter() - start))
    return result


class Ladder:
    """One k-means and one alignment problem, solved by every rung of the
    model ladder: sequential, OpenMP, MPI, executor and device models.

    A request is one full ladder over both problems. Every rung must
    reproduce the sequential answer exactly (k-means centroids to 1e-9,
    as the conformance suite allows).
    """

    requests_per_call = 1
    POINTS, DIMS, CLUSTERS = 4000, 8, 8
    LENGTH = 120
    TILE = 24
    CRITERIA = TerminationCriteria(max_iterations=10, min_changes=0, max_centroid_shift=0.0)

    def __init__(self, seed: int) -> None:
        # Overlapping blobs: points keep switching clusters, so every seed
        # runs the full iteration budget and does the same work.
        self.points, _ = make_blobs(self.POINTS, self.DIMS, self.CLUSTERS, seed=seed, separation=0.5)
        self.init = init_random_points(self.points, self.CLUSTERS, seed=seed)
        self.a, self.b = generate_pair(seed, self.LENGTH)
        self.kmeans_oracle = kmeans_sequential(
            self.points, self.CLUSTERS, criteria=self.CRITERIA, initial_centroids=self.init
        )
        self.align_oracle = align_sequential(self.a, self.b)
        self.pool: ProcessExecutor | None = None

    def start(self) -> None:
        self.pool = ProcessExecutor(WORKERS)

    def stop(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None

    def _rungs(self) -> list[tuple[str, Callable[[], Any]]]:
        pts, k = self.points, self.CLUSTERS
        km = {"criteria": self.CRITERIA, "initial_centroids": self.init}
        a, b = self.a, self.b
        return [
            ("kmeans/sequential", lambda: kmeans_sequential(pts, k, **km)),
            *(
                (f"kmeans/openmp-{v}", lambda v=v: kmeans_openmp(pts, k, num_threads=WORKERS, variant=v, **km))
                for v in ("critical", "atomic", "reduction")
            ),
            ("kmeans/mpi", lambda: run_kmeans_mpi(WORKERS, pts, k, **km)),
            ("kmeans/executor-thread", lambda: kmeans_parallel(pts, k, num_workers=WORKERS, backend="thread", **km)),
            ("kmeans/executor-process", lambda: kmeans_parallel(pts, k, num_workers=WORKERS, backend=self.pool, **km)),
            ("kmeans/device", lambda: kmeans_device(pts, k, block_size=512, **km)),
            ("align/sequential", lambda: align_sequential(a, b)),
            ("align/openmp-reduction", lambda: align_openmp(a, b, num_threads=WORKERS, variant="reduction")),
            ("align/mpi", lambda: run_align_mpi(WORKERS, a, b)),
            ("align/executor-thread", lambda: align_executor(a, b, num_workers=WORKERS, backend="thread", tile=self.TILE)),
            ("align/executor-process", lambda: align_executor(a, b, num_workers=WORKERS, backend=self.pool, tile=self.TILE)),
        ]

    def request(self) -> Done:
        calls: list[tuple[str, float]] = []
        return Done([(label, _call(calls, label, run)) for label, run in self._rungs()], calls)

    def failures(self, done: Done) -> int:
        km, al = self.kmeans_oracle, self.align_oracle
        for label, result in done.outputs:
            if label.startswith("kmeans/"):
                ok = (
                    np.array_equal(result.assignments, km.assignments)
                    and np.allclose(result.centroids, km.centroids, rtol=0.0, atol=1e-9)
                    and result.iterations == km.iterations
                )
            else:
                ok = (
                    np.array_equal(result.matrix, al.matrix)
                    and result.path == al.path
                    and result.score == al.score
                )
            if not ok:
                return 1
        return 0


class Dataflow:
    """The dataflow engines on one seeded data set: the NYC arrests
    pipeline on mini-Spark, and word count on MapReduce-MPI and on Spark.

    A request runs all three jobs. Rates, cleaning tallies and word
    counts must equal a plain Python pass over the same rows.
    """

    requests_per_call = 1
    ROWS, COLS = 6, 8
    HISTORIC, CURRENT, YEAR = 6000, 3000, 2021
    LINES, WORDS_PER_LINE, VOCABULARY = 2000, 10, 300

    def __init__(self, seed: int) -> None:
        self.ntas = generate_ntas(self.ROWS, self.COLS, seed=seed)
        self.arrests = [
            generate_arrests(self.HISTORIC, self.ntas, year=self.YEAR - 1, seed=2 * seed),
            generate_arrests(self.CURRENT, self.ntas, year=self.YEAR, seed=2 * seed + 1),
        ]
        words = np.random.default_rng(seed).integers(0, self.VOCABULARY, (self.LINES, self.WORDS_PER_LINE))
        self.lines = [" ".join(f"w{w}" for w in row) for row in words]
        self.rates_oracle, self.tally_oracle = self._nyc_reference()
        self.counts_oracle = dict(Counter(w for line in self.lines for w in tokenize(line)))

    def _nyc_reference(self) -> tuple[dict[str, float], dict[str, int]]:
        counts = {nta.code: 0 for nta in self.ntas}
        tally = {"dropped": 0, "unlocated": 0}
        for dataset in self.arrests:
            for arrest in dataset:
                if arrest.year != self.YEAR:
                    continue
                if not (arrest.valid and 0.0 <= arrest.x <= 1.0 and 0.0 <= arrest.y <= 1.0):
                    tally["dropped"] += 1
                    continue
                code = locate_nta(arrest.x, arrest.y, self.ntas)
                if code is None:
                    tally["unlocated"] += 1
                else:
                    counts[code] += 1
        population = {nta.code: nta.population for nta in self.ntas}
        rates = {code: 100_000.0 * n / population[code] if n else 0.0 for code, n in counts.items()}
        return rates, tally

    def start(self) -> None:
        """Nothing long-lived: every job brings up its own context."""

    def stop(self) -> None:
        pass

    def _nyc(self) -> tuple[dict[str, float], dict[str, int]]:
        with SparkContext(WORKERS) as sc:
            return arrests_per_100k(sc, self.arrests, self.ntas, year_filter=self.YEAR)

    def request(self) -> Done:
        calls: list[tuple[str, float]] = []
        outputs = (
            _call(calls, "pipeline/nyc-spark", self._nyc),
            _call(calls, "knn/wordcount-mapreduce", run_wordcount, WORKERS, self.lines, local_combine=True),
            _call(calls, "knn/wordcount-spark", wordcount_spark, self.lines, num_workers=WORKERS),
        )
        return Done(outputs, calls)

    def failures(self, done: Done) -> int:
        (rates, tally), mapreduce_counts, spark_counts = done.outputs
        ok = (
            rates == self.rates_oracle
            and tally == self.tally_oracle
            and mapreduce_counts == self.counts_oracle
            and spark_counts == self.counts_oracle
        )
        return 0 if ok else 1


class ServeSoak:
    """Bursts of multi-tenant traffic against one long-lived job service.

    A request is one job; each burst submits the repo's seeded traffic
    mix (word count, k-means, NYC pipeline) for every tenant at once and
    waits for the service to drain. A job's latency runs from its
    submission to the end of its body, so it includes queueing behind
    the rest of the burst. Every job must finish and match its solo run.
    """

    TENANTS, JOBS_PER_TENANT, SERVICE_WORKERS = 4, 6, 3
    requests_per_call = TENANTS * JOBS_PER_TENANT
    DRAIN_TIMEOUT = 60.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.bursts = 0
        self.service: JobService | None = None
        # Job seeds depend only on the job's slot, never on the traffic
        # seed, so every burst draws from this fixed set of solo answers.
        self.oracle = {
            (workload, slot): result_digest(
                run_solo(TrafficJob("solo", workload, 0, slot, 0.0, f"{workload}-{slot}"))
            )
            for workload in TRAFFIC_WORKLOADS
            for slot in range(self.requests_per_call)
        }

    def start(self) -> None:
        self.service = JobService(self.SERVICE_WORKERS, capacity=4 * self.requests_per_call)

    def stop(self) -> None:
        if self.service is not None:
            self.service.shutdown()
            self.service = None

    def request(self) -> Done:
        assert self.service is not None
        jobs = generate_traffic(
            self.seed * 100_000 + self.bursts, tenants=self.TENANTS, jobs_per_tenant=self.JOBS_PER_TENANT
        )
        self.bursts += 1
        finished: dict[str, float] = {}

        def timed(job: TrafficJob) -> Callable[[Any], Any]:
            body = job_body(job)

            def run(ctx: Any) -> Any:
                result = body(ctx)
                finished[job.name] = time.perf_counter()
                return result

            return run

        submitted: dict[str, float] = {}
        handles = []
        for job in jobs:
            submitted[job.name] = time.perf_counter()
            handles.append((job, self.service.submit(job.tenant, timed(job), name=job.name, priority=job.priority)))
        if not self.service.drain(timeout=self.DRAIN_TIMEOUT):
            raise TimeoutError(f"service did not drain within {self.DRAIN_TIMEOUT}s")
        latencies = [finished[name] - submitted[name] for name in submitted if name in finished]
        return Done(handles, latencies=latencies)

    def failures(self, done: Done) -> int:
        bad = 0
        for job, handle in done.outputs:
            if handle.state != "done" or result_digest(handle.result()) != self.oracle[(job.workload, job.seed)]:
                bad += 1
        return bad


WORKLOADS = {"ladder": Ladder, "dataflow": Dataflow, "serve-soak": ServeSoak}
