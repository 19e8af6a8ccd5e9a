"""Executor-backend K-means: the assignment step over serial/thread/process.

The PKMeans lineage of the assignment (and the paper's §3 speedup
curves) hinges on the embarrassingly-parallel structure of phase 1:
each point's nearest centroid is independent, so the point array splits
into static blocks farmed over :mod:`repro.core.executor` workers. Each
task returns *private* per-cluster sums/counts, and the driver merges
partials in block order — the same deterministic reduction as
``kmeans_openmp(variant="reduction")``, so results are bit-identical
across the ``serial``/``thread``/``process`` backends (asserted in
``tests/core/test_executor_determinism.py``). That farmed map plus the
merge is this model's ``step``; the loop around it is the shared
:func:`~repro.kmeans.sequential.lloyd`.

The data plane is communication-avoiding (the arXiv 1608.06347 shape):
the points are prepared once per call as a
:class:`~repro.kmeans.sequential.PointBlock` whose one buffer is
*published* through :meth:`Executor.publish` — a shared-memory segment
on the process backend, the buffer itself elsewhere — and each task
slices its own rows of it. The assignment vector is a
*writable* published segment whose disjoint blocks each task writes in
place. What crosses the process boundary per task per iteration is a
``(start, stop)`` pair out and ``(changes, sums, counts)`` back —
``O(k·d)`` bytes however many points there are.

Two ``kernel`` choices select what each task actually computes:

- ``"numpy"`` — :func:`~repro.kmeans.sequential.assign_points` and
  :func:`~repro.kmeans.sequential.cluster_sums`, the math every other
  model runs. numpy releases the GIL inside these kernels, so *threads*
  already scale here; zero-copy sharing is what lets the process
  backend match them instead of drowning in pickled partitions.
- ``"python"`` — a pure-Python distance loop, the GIL-bound stand-in
  for the C starter code's per-point arithmetic. Threads serialize on
  the GIL; only the process backend shows real speedup — which is
  exactly what ``benchmarks/test_executor_backends.py`` measures.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.core.executor import BACKENDS, DataRef, Executor, get_executor
from repro.kmeans.sequential import (
    KMeansResult, PointBlock, assign_points, cluster_sums, lloyd, point_block, start_centroids,
)
from repro.kmeans.termination import TerminationCriteria
from repro.trace.tracer import get_tracer
from repro.util.partition import block_partition
from repro.util.validation import require_positive_int

__all__ = ["kmeans_parallel", "KERNELS"]

KERNELS = ("numpy", "python")


def _assign_block_numpy(
    block: PointBlock, centroids: np.ndarray, old: np.ndarray
) -> tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """One task: vectorized assignment + private sums/counts for a block."""
    new_local, changes = assign_points(block, centroids, old)
    return (new_local, changes, *cluster_sums(block, new_local, len(centroids)))


def _assign_block_python(
    block: PointBlock, centroids: np.ndarray, old: np.ndarray
) -> tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """The GIL-bound task: pure-Python distance scan per point.

    Ties go to the lowest cluster index (a strict ``<`` scan), matching
    numpy's argmin convention, and partials accumulate in point order —
    deterministic for any fixed blocking.
    """
    k = len(centroids)
    d = len(centroids[0]) if k else 0
    cent = [[float(x) for x in c] for c in centroids]
    sums = [[0.0] * d for _ in range(k)]
    counts = [0] * k
    new_local = []
    changes = 0
    for row_index, row in enumerate(block.points.tolist()):
        best, best_d2 = 0, float("inf")
        for c in range(k):
            cc = cent[c]
            dist = 0.0
            for j in range(d):
                diff = row[j] - cc[j]
                dist += diff * diff
            if dist < best_d2:
                best, best_d2 = c, dist
        new_local.append(best)
        if best != old[row_index]:
            changes += 1
        target = sums[best]
        for j in range(d):
            target[j] += row[j]
        counts[best] += 1
    return (
        np.asarray(new_local, dtype=np.int64),
        changes,
        np.asarray(sums),
        np.asarray(counts, dtype=np.int64),
    )


_KERNEL_FNS = {"numpy": _assign_block_numpy, "python": _assign_block_python}


def _assign_task(
    block_ref: DataRef,
    layout: tuple[tuple[int, int], str],
    assign_ref: DataRef,
    kernel: str,
    centroids: np.ndarray,
    _index: int,
    rows: tuple[int, int],
) -> tuple[int, np.ndarray, np.ndarray]:
    """One pooled assignment task: read shared points, write shared labels.

    Module-level (bound with :func:`functools.partial`) so the payload
    pickles and the process backend keeps its persistent pool; only the
    centroid snapshot travels with the job, only ``(changes, sums,
    counts)`` travel back. ``layout`` is the published block's
    ``(shape, order)``, from which the task rebuilds its views. The
    row writes are disjoint by construction, which is the writable-ref
    contract.
    """
    lo, hi = rows
    block = PointBlock.from_buffer(block_ref.array(), *layout)[lo:hi]
    assignments = assign_ref.array()
    old = np.array(assignments[lo:hi])  # snapshot before the in-place write
    new_local, changes, sums, counts = _KERNEL_FNS[kernel](block, centroids, old)
    assignments[lo:hi] = new_local
    return changes, sums, counts


def kmeans_parallel(
    points: np.ndarray,
    k: int,
    *,
    num_workers: int = 4,
    backend: "str | Executor" = "thread",
    kernel: str = "numpy",
    seed: int = 0,
    criteria: TerminationCriteria | None = None,
    initial_centroids: np.ndarray | None = None,
) -> KMeansResult:
    """K-means with the assignment step farmed over an executor backend.

    ``num_workers`` fixes the static blocking (and thus the arithmetic)
    independently of ``backend``, so any two backends at the same worker
    count return bit-identical centroids, assignments, and histories.
    ``backend`` also accepts a live :class:`Executor` — pass a warm
    :class:`ProcessExecutor` to amortize its pool across calls (the
    executor is then the caller's to close).
    """
    require_positive_int("num_workers", num_workers)
    if not isinstance(backend, Executor) and backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    if kernel not in KERNELS:
        raise ValueError(f"kernel must be one of {KERNELS}, got {kernel!r}")
    points, centroids = start_centroids(points, k, seed=seed, initial_centroids=initial_centroids)
    n, d = points.shape
    ranges = [
        (r.start, r.stop) for r in block_partition(n, num_workers) if r.stop > r.start
    ]
    owns_executor = not isinstance(backend, Executor)
    executor = get_executor(backend, num_workers)

    block = point_block(points)
    layout = ((n, d), block.order)
    block_ref = assign_ref = None
    try:
        block_ref = executor.publish(block.buffer)
        assign_ref = executor.publish(np.full(n, -1, dtype=np.int64), writable=True)

        def step(centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
            partials = executor.map(
                functools.partial(
                    _assign_task, block_ref, layout, assign_ref, kernel, centroids
                ),
                ranges,
            )
            sums = np.zeros((k, d))
            counts = np.zeros(k, dtype=np.int64)
            changes = 0
            for block_changes, block_sums, block_counts in partials:
                changes += block_changes
                sums += block_sums  # block-order merge: deterministic reduction
                counts += block_counts
            return sums, counts, changes

        run = lloyd(step, centroids, criteria, model="executor", tracer=get_tracer())
        assignments = np.array(assign_ref.array())  # outlive the segment
    finally:
        if assign_ref is not None:
            executor.unpublish(assign_ref)
        if block_ref is not None:
            executor.unpublish(block_ref)
        if owns_executor:
            executor.close()

    return run.result(points, assignments)
