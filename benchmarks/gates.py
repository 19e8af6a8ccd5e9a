"""The idle-machinery overhead gates, each declared once.

"No optimization without measuring" cuts both ways: machinery that sits
on a hot path (tracing hooks, fault injectors, the race detector, the
out-of-core shuffle accounting, the serving tier) must prove that it is
free when nobody uses it. Robustness or observability that slows the
common case gets turned off, which is worse than not having it.

The uninstrumented code no longer exists to diff against, so every gate
times the default (*baseline*) against a *variant* that does strictly
more work on every hook — an enabled tracer, an empty fault plan, an
observe-mode sanitizer, a memory budget too large to spill, an idle
service — and bounds ``variant / baseline``. Each :class:`Gate` says
why its variant bounds the default from above.

One table, two runners, one timing loop
(:func:`repro.util.timing.interleaved_min`):

- ``benchmarks/test_overhead_gates.py`` runs every gate at ``BENCH``
  scale against 1.05x and writes ``out/<name>.txt`` plus the schema-v1
  ``out/BENCH_<name>.json``;
- ``tests/integration/test_overhead_tripwires.py`` runs every gate at
  ``TRIPWIRE`` scale against 2.0x in tier-1: a tiny workload and a
  loose bound, so it fires on a gross regression (an un-gated hot-path
  allocation, accidental always-on machinery), not on scheduler noise.

Run one gate by hand with::

    PYTHONPATH=src python -m pytest benchmarks/test_overhead_gates.py -k trace
"""

from __future__ import annotations

import textwrap
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from operator import add
from typing import Any, Callable, ContextManager, Iterator, Mapping

import numpy as np

from repro.align import align_sequential, generate_pair
from repro.kmeans.initialization import init_random_points
from repro.kmeans.mpi_kmeans import run_kmeans_mpi
from repro.kmeans.openmp_kmeans import kmeans_openmp
from repro.kmeans.termination import TerminationCriteria
from repro.mpi import FaultPlan
from repro.pipeline import arrests_per_100k, generate_arrests, generate_ntas
from repro.sanitizer import Sanitizer, use_sanitizer
from repro.serve import JobService
from repro.serve.scheduler import JobContext
from repro.spark import SparkContext, SparkFaultPlan
from repro.trace import NULL_TRACER, Tracer, use_tracer
from repro.trace.history import result_digest
from repro.util.team import become_worker
from repro.util.timing import interleaved_min

BENCH, TRIPWIRE = "bench", "tripwire"
THRESHOLDS = {BENCH: 1.05, TRIPWIRE: 2.0}

Runs = Mapping[str, Callable[[], Any]]


@dataclass(frozen=True)
class Gate:
    """One overhead gate: how to build its runs and what must hold."""

    name: str  #: BENCH file stem and record workload
    why: str  #: why the variant bounds the default from above
    build: Callable[[str], ContextManager[Runs]]  #: scale -> labelled runs
    pair: tuple[str, str]  #: gated (baseline, variant) labels
    check: Callable[[Mapping[str, Any]], dict[str, Any]]  #: asserts; returns record extras
    config: Callable[[str, Mapping[str, Any]], dict[str, Any]]  #: (scale, results) -> labels
    repeats: Mapping[str, int]  #: interleaved rounds per scale
    inner: int = 1  #: back-to-back calls per timing


@dataclass(frozen=True)
class GateRun:
    """One gate's measurement at one scale."""

    gate: Gate
    scale: str
    seconds: dict[str, float]
    config: dict[str, Any]
    extra: dict[str, Any]

    @property
    def ratio(self) -> float:
        baseline, variant = self.gate.pair
        return self.seconds[variant] / self.seconds[baseline]

    @property
    def threshold(self) -> float:
        return THRESHOLDS[self.scale]

    def report(self) -> str:
        """The human-readable ``out/<name>.txt`` body."""
        baseline, variant = self.gate.pair
        repeats = self.gate.repeats[self.scale]
        rounds = f"{repeats}x{self.gate.inner}" if self.gate.inner > 1 else f"{repeats}"
        lines = [
            f"Overhead gate {self.gate.name}: {variant} vs {baseline} "
            f"(min of {rounds} interleaved runs)",
            " ".join(f"{k}={v}" for k, v in self.config.items()),
        ]
        base = self.seconds[baseline]
        lines += [
            f"  {label:>18}: {sec:.4f}s ({sec / base:.3f}x)"
            for label, sec in self.seconds.items()
        ]
        lines += [
            f"ratio: {self.ratio:.3f}x (budget: <{self.threshold:.2f}x)",
            *(f"{k}: {v}" for k, v in self.extra.items()),
            "",
            textwrap.fill(self.gate.why, 72),
        ]
        return "\n".join(lines) + "\n"

    def failure(self) -> str:
        baseline, variant = self.gate.pair
        return (
            f"{self.gate.name}: {variant}/{baseline} ratio {self.ratio:.3f}x "
            f"exceeds {self.threshold}x at {self.scale} scale"
        )


def run_gate(gate: Gate, scale: str) -> GateRun:
    """Time the gate's runs interleaved, then run its checks."""
    repeats = gate.repeats[scale]
    with gate.build(scale) as runs:
        seconds, results = interleaved_min(runs, repeats=repeats, inner=gate.inner)
    extra = gate.check(results)
    config = {**gate.config(scale, results), "repeats": repeats}
    return GateRun(gate, scale, seconds, config, extra)


def _same_kmeans(a, b) -> None:
    np.testing.assert_array_equal(a.centroids, b.centroids)
    np.testing.assert_array_equal(a.assignments, b.assignments)


def _traced(fn: Callable[[], Any]) -> Callable[[], tuple[Any, Tracer]]:
    """``fn`` under a fresh enabled tracer; returns (result, tracer)."""

    def run():
        tracer = Tracer()
        with use_tracer(tracer):
            return fn(), tracer

    return run


def _untraced(fn: Callable[[], Any]) -> Callable[[], Any]:
    def run():
        with use_tracer(NULL_TRACER):
            return fn()

    return run


# ----------------------------------------------------------------------
# k-means SPMD run: trace layer and MPI fault layer
# ----------------------------------------------------------------------

#: Trace event volume is fixed per iteration (collectives + message
#: posts), so the bench instance makes one iteration's numpy work dominate.
TRACE_SIZES = {
    BENCH: dict(ranks=4, n=16_000, d=16, k=8, max_iterations=25),
    TRIPWIRE: dict(ranks=2, n=1_000, d=8, k=4, max_iterations=10),
}
FAULT_SIZES = {
    BENCH: dict(ranks=4, n=4_000, d=8, k=8, max_iterations=25),
    TRIPWIRE: dict(ranks=2, n=1_000, d=8, k=4, max_iterations=10),
}


def _kmeans_mpi(sizes: Mapping[str, int], **kwargs: Any) -> Callable[[], Any]:
    points = np.random.default_rng(7).normal(size=(sizes["n"], sizes["d"]))
    criteria = TerminationCriteria(max_iterations=sizes["max_iterations"])
    return lambda: run_kmeans_mpi(
        sizes["ranks"], points, sizes["k"], seed=1, criteria=criteria, **kwargs
    )


def _kmeans_mpi_config(sizes: Mapping[str, int], result) -> dict[str, Any]:
    return {
        "model": "kmeans_mpi", "ranks": sizes["ranks"], "n": sizes["n"],
        "d": sizes["d"], "k": sizes["k"], "iterations": result.iterations,
    }


@contextmanager
def _trace_runs(scale: str) -> Iterator[Runs]:
    run = _kmeans_mpi(TRACE_SIZES[scale])
    yield {"disabled": _untraced(run), "enabled": _traced(run)}


def _trace_check(results: Mapping[str, Any]) -> dict[str, Any]:
    traced, tracer = results["enabled"]
    _same_kmeans(results["disabled"], traced)
    assert len(tracer) > 0  # the enabled run actually recorded events
    return {"events": len(tracer)}


@contextmanager
def _fault_runs(scale: str) -> Iterator[Runs]:
    sizes = FAULT_SIZES[scale]
    yield {
        "baseline": _kmeans_mpi(sizes, faults=None),
        "empty_plan": _kmeans_mpi(sizes, faults=FaultPlan()),
    }


def _fault_check(results: Mapping[str, Any]) -> dict[str, Any]:
    _same_kmeans(results["baseline"], results["empty_plan"])
    return {}


# ----------------------------------------------------------------------
# OpenMP k-means reduction rung: sanitizer
# ----------------------------------------------------------------------

#: Hook volume is fixed per iteration (one region, one reduction slot and
#: a handful of annotated writes per thread), so the bench instance makes
#: one iteration's numpy work dominate the constant hook cost.
SANITIZER_SIZES = {
    BENCH: dict(threads=4, n=96_000, d=16, k=8, max_iterations=10),
    TRIPWIRE: dict(threads=4, n=8_000, d=16, k=8, max_iterations=10),
}


@contextmanager
def _sanitizer_runs(scale: str) -> Iterator[Runs]:
    sizes = SANITIZER_SIZES[scale]
    points = np.random.default_rng(7).normal(size=(sizes["n"], sizes["d"]))
    init = init_random_points(points, sizes["k"], seed=1)
    criteria = TerminationCriteria(max_iterations=sizes["max_iterations"])

    def run():
        # The reduction rung merges in thread order, so the disabled
        # and observed runs are bit-comparable.
        return kmeans_openmp(
            points, sizes["k"], num_threads=sizes["threads"], variant="reduction",
            criteria=criteria, initial_centroids=init,
        )

    def observed():
        sanitizer = Sanitizer()  # fresh shadow state each run
        with use_sanitizer(sanitizer):
            return run(), sanitizer

    yield {"disabled": run, "observed": observed}


def _sanitizer_check(results: Mapping[str, Any]) -> dict[str, Any]:
    observed, sanitizer = results["observed"]
    _same_kmeans(results["disabled"], observed)
    # The observed run really instrumented the team and found no races.
    assert sanitizer.races == ()
    assert len(sanitizer.detector.clock_of("omp0:t0")) > 0
    return {"races": len(sanitizer.races)}


def _sanitizer_config(scale: str, results: Mapping[str, Any]) -> dict[str, Any]:
    sizes = SANITIZER_SIZES[scale]
    return {
        "model": "kmeans_openmp", "variant": "reduction", "threads": sizes["threads"],
        "n": sizes["n"], "d": sizes["d"], "k": sizes["k"],
        "iterations": results["disabled"].iterations,
    }


# ----------------------------------------------------------------------
# sequential align kernel: trace layer on the wavefront
# ----------------------------------------------------------------------

#: Long enough that the per-diagonal numpy work dominates the strided
#: instants; the hook volume is ~(n+m) enabled-tests plus ~32 instants.
ALIGN_LENGTH = {BENCH: 640, TRIPWIRE: 240}


@contextmanager
def _align_runs(scale: str) -> Iterator[Runs]:
    a, b = generate_pair(6, ALIGN_LENGTH[scale])
    run = lambda: align_sequential(a, b)
    yield {"disabled": _untraced(run), "enabled": _traced(run)}


def _align_check(results: Mapping[str, Any]) -> dict[str, Any]:
    base = results["disabled"]
    traced, tracer = results["enabled"]
    np.testing.assert_array_equal(base.matrix, traced.matrix)
    assert base.path == traced.path
    assert len(tracer) > 0  # the enabled run actually recorded events
    return {"events": len(tracer)}


# ----------------------------------------------------------------------
# Spark: fault layer on the NYC pipeline, out-of-core shuffle on wordcount
# ----------------------------------------------------------------------

SPARK_FAULT_SIZES = {
    BENCH: dict(workers=4, ntas_rows=6, ntas_cols=8,
                arrests_historic=12_000, arrests_current=6_000),
    TRIPWIRE: dict(workers=2, ntas_rows=3, ntas_cols=4,
                   arrests_historic=1_500, arrests_current=800),
}


@contextmanager
def _spark_fault_runs(scale: str) -> Iterator[Runs]:
    sizes = SPARK_FAULT_SIZES[scale]
    ntas = generate_ntas(sizes["ntas_rows"], sizes["ntas_cols"], seed=7)
    datasets = [
        generate_arrests(sizes["arrests_historic"], ntas, year=2020, seed=1),
        generate_arrests(sizes["arrests_current"], ntas, year=2021, seed=1),
    ]

    def run(fault_plan):
        with SparkContext(sizes["workers"], fault_plan=fault_plan) as sc:
            return arrests_per_100k(sc, datasets, ntas, year_filter=2021)

    yield {"baseline": lambda: run(None), "empty_plan": lambda: run(SparkFaultPlan())}


def _spark_fault_check(results: Mapping[str, Any]) -> dict[str, Any]:
    assert results["baseline"] == results["empty_plan"]  # (rates, diagnostics)
    return {}


SPILL_SIZES = {
    BENCH: dict(workers=4, lines=20_000, partitions=16),
    TRIPWIRE: dict(workers=2, lines=2_000, partitions=8),
}
SPILL_BUDGET = 64 * 1024
HUGE_BUDGET = 1 << 30  # accounting on every put, disk never touched
WORDS = "the quick brown fox jumps over lazy dogs while zebras vex daft wizards".split()


@contextmanager
def _spill_runs(scale: str) -> Iterator[Runs]:
    sizes = SPILL_SIZES[scale]
    lines = [
        " ".join(WORDS[(i * 7 + j) % len(WORDS)] for j in range(10)) + f" tail{i % 503}"
        for i in range(sizes["lines"])
    ]

    def run(memory_budget, compress=False):
        def once():
            with SparkContext(
                sizes["workers"], memory_budget=memory_budget, spill_compress=compress
            ) as sc:
                counts = dict(
                    sc.parallelize(lines, sizes["partitions"])
                    .flat_map(str.split)
                    .map(lambda w: (w, 1))
                    .reduce_by_key(add)
                    .collect()
                )
                return counts, dict(sc.metrics.extra)

        return once

    # Spilling itself is the graceful-degradation trade and may cost
    # what it costs: the spill runs are timed and checked, not gated.
    yield {
        "in_memory": run(None),
        "no_spill_budget": run(HUGE_BUDGET),
        "spill": run(SPILL_BUDGET),
        "spill_compressed": run(SPILL_BUDGET, compress=True),
    }


def _spill_check(results: Mapping[str, Any]) -> dict[str, Any]:
    counts = results["in_memory"][0]
    assert all(other == counts for other, _ in results.values())
    spill, compressed = results["spill"][1], results["spill_compressed"][1]
    assert spill["spark.spill_files"] >= 1  # the budget bit
    assert results["no_spill_budget"][1].get("spark.spill_files", 0) == 0
    return {
        "spill_files": spill["spark.spill_files"],
        "spill_bytes": spill["spark.spill_bytes"],
        "spill_bytes_compressed": compressed["spark.spill_bytes"],
        "merge_passes": spill["spark.merge_passes"],
    }


# ----------------------------------------------------------------------
# serve: one wordcount job through an idle JobService
# ----------------------------------------------------------------------

SERVE_LINES = {BENCH: 4_000, TRIPWIRE: 2_000}


@contextmanager
def _serve_runs(scale: str) -> Iterator[Runs]:
    # Big enough (~tens of ms at bench scale) that the budget is not
    # lost in timer noise.
    lines = [
        f"line {i} the quick brown fox jumps over the lazy dog token{i % 13}"
        for i in range(SERVE_LINES[scale])
    ]

    def body(ctx):
        with ctx.spark_context(2) as sc:
            counts = (
                sc.parallelize(lines, 8)
                .flat_map(str.split)
                .map(lambda w: (w, 1))
                .reduce_by_key(add)
                .collect()
            )
        return dict(sorted(counts))

    def direct():
        ctx = JobContext("solo", "direct", -1, threading.Event())
        try:
            return body(ctx)
        finally:
            ctx._cleanup()

    # The service is long-lived (that is the point of a serving tier);
    # the gate prices the per-job machinery, not pool construction. A
    # service worker runs its job's maps inline (one level of fan-out),
    # so the direct call runs on a long-lived worker thread too: both
    # sides then run the same stages the same way.
    with JobService(1, capacity=4) as service, ThreadPoolExecutor(
        1, thread_name_prefix="gate-direct", initializer=become_worker
    ) as worker:
        yield {
            "direct": lambda: worker.submit(direct).result(60.0),
            "served": lambda: service.submit("t", body, name="single").result(60.0),
        }


def _serve_check(results: Mapping[str, Any]) -> dict[str, Any]:
    assert result_digest(results["direct"]) == result_digest(results["served"])
    return {}


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------

GATES: tuple[Gate, ...] = (
    Gate(
        name="trace_overhead",
        why="An enabled tracer records every hook the disabled default only "
        "tests for, so enabled bounds disabled from above.",
        build=_trace_runs,
        pair=("disabled", "enabled"),
        check=_trace_check,
        config=lambda scale, r: _kmeans_mpi_config(TRACE_SIZES[scale], r["disabled"]),
        repeats={BENCH: 9, TRIPWIRE: 3},
    ),
    Gate(
        name="fault_overhead",
        why="An empty FaultPlan runs the injector's lookup on every runtime "
        "operation and finds nothing; faults=None does strictly less.",
        build=_fault_runs,
        pair=("baseline", "empty_plan"),
        check=_fault_check,
        config=lambda scale, r: _kmeans_mpi_config(FAULT_SIZES[scale], r["baseline"]),
        repeats={BENCH: 5, TRIPWIRE: 3},
    ),
    Gate(
        name="spark_fault_overhead",
        why="An empty SparkFaultPlan sends every task through the fault-aware "
        "scheduler (accumulator sinks, exactly-once commits, worker selection) "
        "and injects nothing; plan=None does strictly less.",
        build=_spark_fault_runs,
        pair=("baseline", "empty_plan"),
        check=_spark_fault_check,
        config=lambda scale, r: {**SPARK_FAULT_SIZES[scale], "year_filter": 2021},
        repeats={BENCH: 9, TRIPWIRE: 3},
    ),
    Gate(
        name="sanitizer_overhead",
        why="Observe mode keeps vector clocks on every hook the disabled "
        "default only tests for None, so observed bounds disabled from above.",
        build=_sanitizer_runs,
        pair=("disabled", "observed"),
        check=_sanitizer_check,
        config=_sanitizer_config,
        repeats={BENCH: 9, TRIPWIRE: 3},
    ),
    Gate(
        name="align_overhead",
        why="An enabled tracer records every diagonal hook the disabled "
        "default only tests for, so enabled bounds disabled from above.",
        build=_align_runs,
        pair=("disabled", "enabled"),
        check=_align_check,
        config=lambda scale, r: {
            "model": "sequential", "kernel": "numpy", "length": ALIGN_LENGTH[scale],
        },
        repeats={BENCH: 9, TRIPWIRE: 3},
        inner=3,
    ),
    Gate(
        name="shuffle_spill",
        why="A budget too large to spill runs the out-of-core accounting on "
        "every put and never touches disk; budget=None does strictly less.",
        build=_spill_runs,
        pair=("in_memory", "no_spill_budget"),
        check=_spill_check,
        config=lambda scale, r: {**SPILL_SIZES[scale], "spill_budget_bytes": SPILL_BUDGET},
        repeats={BENCH: 7, TRIPWIRE: 3},
    ),
    Gate(
        name="serve",
        why="An idle JobService runs admission, the fair-share queue, the "
        "circuit breaker, the watchdog and metrics for one uncontended job; "
        "a direct call runs none of them.",
        build=_serve_runs,
        pair=("direct", "served"),
        check=_serve_check,
        config=lambda scale, r: {},
        repeats={BENCH: 7, TRIPWIRE: 3},
    ),
)
