"""Run one benchmark workload against the program in ``src/`` and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 10 --trace 0

The run builds the workload's inputs and reference answers from the
seed, then sets up several times over: bring the program's engines up,
answer one cold request, bring them down. It then brings the engines up
once more and sends requests back to back for ``--seconds`` seconds,
checking every answer. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones (CPU time per request
and per set-up); with ``--trace 1`` every request runs under an enabled
tracer and the metrics are the wall time per request spent in each
layer, plus span counts. A per-module table of the traced run goes to
standard error. perfbench/README.md lists the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import resource
import statistics
import sys
import time
from collections import Counter
from multiprocessing import resource_tracker
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 9


def _load_program() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {src}")
    sys.path.insert(0, str(src))


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _cpu_seconds() -> float:
    """CPU time of this process's threads plus that of its reaped child
    processes (a process pool's workers count once the pool is closed).

    The end-to-end metrics are CPU times, not wall times: on a shared
    virtual machine the wall clock also runs while the host gives this
    guest's CPUs to others, which moved wall-clock figures by as much as
    60% from one run to the next; CPU time leaves that out.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _reap_children() -> None:
    """Stop and wait for every process the run started.

    The program's process pools are closed by then, but a stray worker
    is still joined (terminated, then killed, if it lingers). Shared
    memory also starts Python's resource-tracker process, which would
    otherwise outlive this one until it notices the exit; closing its
    pipe and waiting for it ends it here.
    """
    for child in multiprocessing.active_children():
        child.join(timeout=2.0)
        if child.is_alive():
            child.terminate()
            child.join(timeout=2.0)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _print_modules(per_kind: Counter, per_request: float) -> None:
    """The per-module table of a traced run, on standard error."""
    rows: Counter = Counter()
    for kind, seconds in per_kind.items():
        rows[kind.module, kind.layer] += seconds
    total = sum(rows.values()) or 1.0
    print(f"{'module':>12} {'layer':>10} {'ms/request':>11} {'share':>6}", file=sys.stderr)
    for (module, layer), seconds in rows.most_common():
        print(f"{module:>12} {layer:>10} {seconds * per_request:>11.3f} {seconds / total:>6.1%}",
              file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    _load_program()
    try:
        return _run(args)
    finally:
        _reap_children()


def _run(args: argparse.Namespace) -> int:
    from layers import LAYERS, attribute
    from workloads import WORKLOADS

    from repro.trace import Tracer, use_tracer

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    attempted = failed = cold_failures = 0
    setup_seconds: list[float] = []
    call_seconds: dict[str, list[float]] = {}
    latencies: list[float] = []
    per_kind: Counter = Counter()
    spans: Counter = Counter()
    for _ in range(SETUP_REPEATS):
        before = _cpu_seconds()
        workload.start()
        try:
            done = workload.request()
        finally:
            workload.stop()
        setup_seconds.append(_cpu_seconds() - before)
        cold_failures += workload.failures(done)

    tracer = Tracer() if args.trace else None
    before = _cpu_seconds()
    workload.start()
    try:
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline:
            attempted += workload.requests_per_call
            if tracer is None:
                done = workload.request()
            else:
                tracer.clear()
                with use_tracer(tracer), tracer.span("request", category="bench.request") as root:
                    done = workload.request()
                events = tracer.events()
                per_kind.update(attribute(events, root.start, root.start + root.duration))
                spans.update((e.category, e.name) for e in events if e.phase == "X")
            for label, seconds in done.calls:
                call_seconds.setdefault(label, []).append(seconds)
            latencies.extend(done.latencies)
            failed += workload.failures(done)
    finally:
        workload.stop()
    window_cpu = _cpu_seconds() - before

    served = attempted - failed
    # A request of fixed program calls takes, typically, the sum of each
    # call's median; summing per-call medians keeps one slow call in a
    # request from moving the whole request's sample.
    if call_seconds:
        latency_ms = 1000.0 * sum(statistics.median(s) for s in call_seconds.values())
    else:
        latency_ms = 1000.0 * statistics.median(latencies)
    if args.trace:
        per_request = 1000.0 / max(served, 1)
        layer_ms: Counter = Counter()
        for kind, seconds in per_kind.items():
            layer_ms[kind.layer] += seconds * per_request
        # Per-module times go to the standard-error table only: a module a
        # workload never enters would report a constant zero.
        metrics = {f"{layer}_ms": _metric(layer_ms[layer], "ms") for layer in LAYERS}
        metrics["traced_latency_ms"] = _metric(latency_ms, "ms")
        counted = {
            "mpi_calls": lambda category, name: category.startswith("mpi."),
            "executor_maps": lambda category, name: category == "executor",
            "spark_tasks": lambda category, name: category == "spark" and name == "task",
        }
        for metric, match in counted.items():
            count = sum(n for key, n in spans.items() if match(*key))
            metrics[metric] = _metric(count / max(served, 1), "count")
        _print_modules(per_kind, per_request)
    else:
        metrics = {
            "cpu_ms": _metric(1000.0 * window_cpu / max(served, 1), "ms"),
            "setup_s": _metric(statistics.median(setup_seconds), "s"),
        }
        print(f"wall-clock latency {latency_ms:.3f} ms (not bounded: it includes the time "
              "other guests of a shared host take)", file=sys.stderr)
    correct = failed == 0 and cold_failures == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
