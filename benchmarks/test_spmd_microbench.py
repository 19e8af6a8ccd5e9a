"""SPMD runtime microbench: what one message and one collective cost.

Measures per-operation CPU and wall time of three SPMD patterns: a
2-rank point-to-point round trip, a 4-rank ``barrier`` and a 4-rank
``allreduce`` of 64 float64. Each runs unpinned and pinned to one CPU;
pinning confines only this process (``os.sched_setaffinity(0, ...)``)
and restores its CPU set afterwards. Writes schema-v1
``BENCH_spmd.json``. The numbers are reported, not gated.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.mpi import run_spmd

OPS = 200
REPEATS = 3


def _ping_pong(comm) -> None:
    for _ in range(OPS):
        if comm.rank == 0:
            comm.send(1, dest=1)
            comm.recv(source=1)
        else:
            comm.send(comm.recv(source=0), dest=0)


def _barrier(comm) -> None:
    for _ in range(OPS):
        comm.barrier()


def _allreduce(comm) -> None:
    vec = np.full(64, float(comm.rank))
    for _ in range(OPS):
        comm.allreduce(vec)


PATTERNS = {"p2p_roundtrip/2": (2, _ping_pong), "barrier/4": (4, _barrier),
            "allreduce64/4": (4, _allreduce)}


def _measure(size: int, program) -> tuple[float, float]:
    """Min over repeats of (CPU, wall) seconds per operation."""
    best_cpu = best_wall = float("inf")
    for _ in range(REPEATS):
        cpu0, wall0 = time.process_time(), time.perf_counter()
        run_spmd(size, program, timeout=30.0)
        best_cpu = min(best_cpu, (time.process_time() - cpu0) / OPS)
        best_wall = min(best_wall, (time.perf_counter() - wall0) / OPS)
    return best_cpu, best_wall


def _placements() -> dict[str, set[int] | None]:
    if not hasattr(os, "sched_getaffinity"):
        return {"unpinned": None}
    return {"unpinned": None, "pinned1": {min(os.sched_getaffinity(0))}}


def test_spmd_microbench(bench_json_writer, report_writer):
    timings: dict[str, float] = {}
    for placement, cpus in _placements().items():
        old = os.sched_getaffinity(0) if cpus is not None else None
        try:
            if cpus is not None:
                os.sched_setaffinity(0, cpus)
            for name, (size, program) in PATTERNS.items():
                cpu, wall = _measure(size, program)
                timings[f"{placement}/{name}/cpu"] = cpu
                timings[f"{placement}/{name}/wall"] = wall
        finally:
            if old is not None:
                os.sched_setaffinity(0, old)
    bench_json_writer(
        "spmd",
        timings,
        workload="spmd_microbench",
        config={"ops": OPS, "repeats": REPEATS, "cpu_count": os.cpu_count()},
    )
    lines = ["SPMD microbench (seconds per operation, min of repeats)"]
    lines += [f"  {label:<40} {sec * 1e6:9.1f} us" for label, sec in sorted(timings.items())]
    report_writer("spmd_microbench", "\n".join(lines) + "\n")
    assert all(sec > 0 for sec in timings.values())
