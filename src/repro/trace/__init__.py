"""Unified deterministic tracing & metrics for every substrate and workload.

The measurement substrate the assignments keep reaching for: load
imbalance in k-means (§3), shuffle volume in MapReduce (§2/§4),
barrier/halo overhead in the heat solvers (§6), task distribution when
N ∤ T in HPO (§7) — all hinge on *seeing* parallel behaviour. This
package provides one process-wide answer:

- :class:`Tracer` — structured span/instant events, each stamped with a
  wall clock *and* a per-scope **logical clock** whose sequence is
  bit-reproducible across runs of a deterministic workload;
- :class:`MetricsRegistry` — counters, gauges, histograms (e.g.
  ``mpi.messages``, ``mpi.barrier_wait_seconds``,
  ``mapreduce.shuffle_pairs``, ``kmeans.iteration_shift``,
  ``hpo.trial_seconds``), with per-label breakdowns;
- exporters — Chrome ``chrome://tracing`` JSON
  (:func:`to_chrome_trace`), a plain-text per-rank timeline
  (:func:`render_timeline`), and a metrics summary table
  (:func:`format_metrics_table`);
- history — the longitudinal layer (``repro.trace.history``): the
  canonical :class:`BenchRecord` schema every ``BENCH_*.json`` payload
  normalizes into, the append-only ``benchmarks/history.jsonl`` store,
  rolling-baseline trend analysis (:func:`analyze_trends`), and the
  deterministic ``TRENDS.md`` renderer (:func:`render_trends`) driven
  by the campaign runner in ``tools/trials/`` (docs/trials.md).

The default tracer is disabled and free on the hot path (gated < 5% by
the ``trace_overhead`` gate in ``benchmarks/gates.py``). Enable per run::

    from repro.trace import Tracer, use_tracer, render_timeline

    with use_tracer(Tracer()) as t:
        run_spmd(4, program)
    print(render_timeline(t))

See docs/observability.md for the full guide.
"""

from repro.trace.export import render_timeline, to_chrome_trace, write_chrome_trace
from repro.trace.history import (
    BENCH_SCHEMA_VERSION,
    BenchRecord,
    Finding,
    analyze_trends,
    append_history,
    history_segments,
    load_bench_dir,
    load_bench_file,
    load_history,
    make_record,
    render_trends,
    result_digest,
    sparkline,
    validate_bench_payload,
)
from repro.trace.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_metrics_table,
)
from repro.trace.tracer import (
    NULL_TRACER,
    TraceEvent,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    "TraceEvent",
    "Tracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "format_metrics_table",
    "to_chrome_trace",
    "write_chrome_trace",
    "render_timeline",
    "BENCH_SCHEMA_VERSION",
    "BenchRecord",
    "Finding",
    "make_record",
    "validate_bench_payload",
    "load_bench_file",
    "load_bench_dir",
    "append_history",
    "history_segments",
    "load_history",
    "result_digest",
    "analyze_trends",
    "sparkline",
    "render_trends",
]
