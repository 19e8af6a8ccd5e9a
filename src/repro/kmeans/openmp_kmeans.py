"""OpenMP-model K-means: the four-stage race-repair ladder.

The assignment's parallelization strategy (paper §3): (1) detect the
race conditions — the cluster-change counter and the per-cluster
sums/counts; (2) guard them with **critical** regions; (3) replace with
**atomic** operations; (4) restructure as **reductions**. Each rung is a
selectable ``variant`` so correctness and cost can be compared:

- ``"racy"`` — rung zero, the bug under study: an unguarded
  :class:`~repro.openmp.RacyCell` change counter and bare shared
  sums/counts updates. Kept so the race *detector* has a true positive
  — ``repro.sanitizer.explore`` flags it on every schedule and loses
  updates on adverse ones. Never use it for answers.
- ``"critical"`` — one named critical section serializes every update
  (correct, maximally contended);
- ``"atomic"`` — per-cluster atomic cells, one guarded add per
  non-empty cluster of a block (correct, finer-grained);
- ``"reduction"`` — per-thread private sums merged once, in thread
  order (correct, contention-free, and deterministic).

``VARIANTS`` lists the *correct* rungs (what conformance tests sweep);
``ALL_VARIANTS`` adds ``"racy"`` for the sanitizer suite.

Only the body of one iteration is OpenMP: each thread runs the shared
:func:`~repro.kmeans.sequential.assign_points` and
:func:`~repro.kmeans.sequential.cluster_sums` kernels on its static
block (a :class:`~repro.kmeans.sequential.PointBlock` prepared once per
thread id before the loop), and the rungs differ only in how the
block partials meet. The means, histories, tracing and stop test are
:func:`~repro.kmeans.sequential.lloyd`'s. So all variants produce
identical assignments; centroid coordinates may differ across variants
by float-addition order only. Shared cells carry
``annotate_read``/``annotate_write`` declarations — free when no
sanitizer is installed — so every rung is certifiable by
``tests/sanitizer/test_kmeans_certification.py``.
"""

from __future__ import annotations

import numpy as np

from repro.kmeans.sequential import (
    KMeansResult, assign_points, cluster_sums, lloyd, point_block, start_centroids,
)
from repro.kmeans.termination import TerminationCriteria
from repro.openmp import Atomic, RacyCell, parallel_region
from repro.sanitizer.runtime import annotate_read, annotate_write
from repro.trace.tracer import get_tracer
from repro.util.partition import block_bounds
from repro.util.validation import require_positive_int

__all__ = ["kmeans_openmp", "VARIANTS", "ALL_VARIANTS"]

#: The correct rungs of the ladder (safe for answers and conformance sweeps).
VARIANTS = ("critical", "atomic", "reduction")
#: Every rung including the intentionally-broken one the detector must flag.
ALL_VARIANTS = ("racy",) + VARIANTS


def kmeans_openmp(
    points: np.ndarray,
    k: int,
    *,
    num_threads: int = 4,
    variant: str = "reduction",
    seed: int = 0,
    criteria: TerminationCriteria | None = None,
    initial_centroids: np.ndarray | None = None,
) -> KMeansResult:
    """Shared-memory K-means with the chosen race-repair variant."""
    require_positive_int("num_threads", num_threads)
    if variant not in ALL_VARIANTS:
        raise ValueError(f"variant must be one of {ALL_VARIANTS}, got {variant!r}")
    points, centroids = start_centroids(points, k, seed=seed, initial_centroids=initial_centroids)
    n, d = points.shape
    assignments = np.full(n, -1, dtype=np.int64)
    bounds = [block_bounds(n, num_threads, t) for t in range(num_threads)]
    blocks = [point_block(points[lo:hi]) for lo, hi in bounds]

    def step(centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        if variant == "racy":
            changes_cell = RacyCell(0, name="kmeans.changes")
        else:
            changes_cell = Atomic(0, name="kmeans.changes")
        sums = np.zeros((k, d))
        counts = np.zeros(k, dtype=np.int64)
        cluster_cells = (
            [Atomic(0, name=f"kmeans.cluster[{c}]") for c in range(k)]
            if variant == "atomic"
            else None
        )
        thread_partials = [None] * num_threads  # the "reduction" rung's privates

        def body(ctx) -> None:
            lo, hi = bounds[ctx.thread_id]
            if hi == lo:
                return
            block = blocks[ctx.thread_id]
            # Phase 1: vectorized assignment of this thread's block. The
            # per-point writes are disjoint; the shared *counter* is the race.
            annotate_read("kmeans.centroids", "kmeans.assign:centroids")
            new_local, local_changes = assign_points(block, centroids, assignments[lo:hi])
            assignments[lo:hi] = new_local

            if variant == "critical":
                with ctx.critical("changes"):
                    changes_cell.store(changes_cell.value + local_changes)
            else:
                changes_cell.add(local_changes)  # racy / atomic / reduction

            # Phase 2: per-cluster sums/counts — the update race. Every
            # rung takes its block's partial with the shared kernel; they
            # differ only in how that partial meets the shared arrays
            # (added in place: the closure must not rebind them).
            if variant == "racy":
                # Stage 1: the bug — bare read-modify-writes on shared arrays.
                annotate_write("kmeans.sums", "kmeans.racy:sums")
                annotate_write("kmeans.counts", "kmeans.racy:counts")
                block_sums, block_counts = cluster_sums(block, new_local, k)
                sums[:] += block_sums
                counts[:] += block_counts
            elif variant == "critical":
                # Stage 2: one big critical region serializes all updates,
                # the partial's computation included.
                with ctx.critical("centroid-update"):
                    annotate_write("kmeans.sums", "kmeans.critical:sums")
                    annotate_write("kmeans.counts", "kmeans.critical:counts")
                    block_sums, block_counts = cluster_sums(block, new_local, k)
                    sums[:] += block_sums
                    counts[:] += block_counts
            elif variant == "atomic":
                # Stage 3: per-cluster cells — finer-grained exclusion, one
                # guarded add per non-empty cluster of the block.
                block_sums, block_counts = cluster_sums(block, new_local, k)
                for c in np.flatnonzero(block_counts):
                    with cluster_cells[c].guarded():
                        annotate_write(f"kmeans.sums[{c}]", "kmeans.atomic:sums")
                        sums[c] += block_sums[c]
                        counts[c] += block_counts[c]
            else:
                # Stage 4: thread-private accumulators, merged after the join.
                annotate_write(f"kmeans.sums:t{ctx.thread_id}", "kmeans.reduction:sums")
                thread_partials[ctx.thread_id] = cluster_sums(block, new_local, k)

        parallel_region(num_threads, body)

        if variant == "reduction":
            for t, partial in enumerate(thread_partials):  # deterministic thread-order merge
                annotate_read(f"kmeans.sums:t{t}", "kmeans.reduction:merge")
                if partial is not None:
                    sums += partial[0]
                    counts += partial[1]

        annotate_write("kmeans.centroids", "kmeans.update:centroids")
        return sums, counts, changes_cell.value

    run = lloyd(step, centroids, criteria, model="openmp", tracer=get_tracer())
    return run.result(points, assignments)
