"""Fold the spans of one traced request into wall time per module and layer.

The program already records spans at its module boundaries (the SPMD
runtime and MPI calls, executor maps, Spark jobs and tasks, MapReduce
phases, serve jobs, the align wavefront). The benchmark adds two kinds
of its own: a ``bench.request`` span around each request and a
``bench.call`` span, named ``<module>/<model>``, around each call it
makes into the program.

Lanes run concurrently (MPI ranks, pool threads, serve workers), so a
per-lane self time would count one wall second once per busy lane.
Instead each instant of a request goes to the deepest span kind open in
any lane at that instant, by the fixed depth order below, split evenly
when several kinds share that depth. A kind's time is thus its self
time in wall seconds: the span's time minus the time a deeper span was
running. The times of one request sum exactly to its traced wall time.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

#: Layers reported per request, in output order.
LAYERS = ("harness", "kernel", "engine", "transport")


class Kind(NamedTuple):
    depth: int
    module: str
    layer: str


_MAPREDUCE = {
    "map": (5, "kernel"),
    "map_speculative": (5, "kernel"),
    "reduce": (5, "kernel"),
    "shuffle": (6, "transport"),
    "gather": (6, "transport"),
}


def classify(category: str, name: str) -> Kind:
    """The kind of one span; a deeper kind hides a shallower one.

    Depths: 0 benchmark glue, 1 a program call minus every span inside
    it, 2 serve jobs, 3 drivers (SPMD runtime, Spark job, MapReduce
    grouping), 4 executor maps (queue and pickle round trip, plus task
    bodies that record no span), 5 task bodies, 6 messages (MPI calls,
    shuffles, halo exchanges).
    """
    if category == "bench.request":
        return Kind(0, "harness", "harness")
    if category == "bench.call":
        return Kind(1, name.split("/", 1)[0], "kernel")
    if category == "serve":
        return Kind(2, "serve", "engine")
    if category == "runtime":
        return Kind(3, "mpi", "engine")
    if category == "spark":
        return Kind(5, "spark", "kernel") if name == "task" else Kind(3, "spark", "engine")
    if category == "mapreduce":
        depth, layer = _MAPREDUCE.get(name, (3, "engine"))
        return Kind(depth, "mapreduce", layer)
    if category == "executor":
        return Kind(4, "executor", "transport")
    if category.startswith("mpi."):
        return Kind(6, "mpi", "transport")
    if name == "align.exchange":
        return Kind(6, "align", "transport")
    return Kind(5, category.split(".", 1)[0], "kernel")


def attribute(events: Iterable, start: float, end: float) -> dict[Kind, float]:
    """Seconds of ``[start, end]`` given to each span kind, deepest first."""
    edges: list[tuple[float, int, Kind]] = []
    for event in events:
        if event.phase != "X":
            continue
        lo, hi = max(event.start, start), min(event.start + event.duration, end)
        if hi > lo:
            kind = classify(event.category, event.name)
            edges.append((lo, 1, kind))
            edges.append((hi, -1, kind))
    edges.sort()
    open_count: dict[Kind, int] = {}
    seconds: dict[Kind, float] = {}
    previous = start
    for at, step, kind in edges:
        if at > previous and open_count:
            deepest = max(k.depth for k in open_count)
            sharing = [k for k in open_count if k.depth == deepest]
            for k in sharing:
                seconds[k] = seconds.get(k, 0.0) + (at - previous) / len(sharing)
        previous = at
        count = open_count.get(kind, 0) + step
        if count:
            open_count[kind] = count
        else:
            del open_count[kind]
    return seconds
