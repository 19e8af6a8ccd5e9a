"""CUDA/OpenCL-model K-means: grid/block decomposition, per-block reductions.

The assignment's accelerator step (paper §3): "students should use
thread-blocks and coalesced memory accesses. They then determine the
situations when atomic operations or reductions are more profitable."
The simulator keeps the GPU *structure* while executing on numpy:

- the point array is covered by a **grid** of fixed-size **blocks**;
- the *assign kernel* processes one block per launch index, touching
  points contiguously (the coalescing discipline — here, numpy slices);
- the *update kernel* does a **per-block reduction** into block-private
  partial sums (shared-memory style), followed by a single cross-block
  combine (the global atomics stand-in);

so the profitability question the assignment poses — per-update atomics
vs block-level reduction — is measurable by flipping ``update_mode``.
The assign kernel is the shared
:func:`~repro.kmeans.sequential.assign_points`, on one
:class:`~repro.kmeans.sequential.PointBlock` per grid block prepared
before the first launch; the host loop around the grid launches is
:func:`~repro.kmeans.sequential.lloyd`.
"""

from __future__ import annotations

import numpy as np

from repro.kmeans.sequential import (
    KMeansResult, assign_points, cluster_sums, lloyd, point_block, start_centroids,
)
from repro.kmeans.termination import TerminationCriteria
from repro.trace.tracer import get_tracer
from repro.util.validation import require_positive_int

__all__ = ["kmeans_device"]


def kmeans_device(
    points: np.ndarray,
    k: int,
    *,
    block_size: int = 256,
    update_mode: str = "block_reduce",
    seed: int = 0,
    criteria: TerminationCriteria | None = None,
    initial_centroids: np.ndarray | None = None,
) -> KMeansResult:
    """GPU-structured K-means.

    ``update_mode``:

    - ``"block_reduce"`` — each block reduces locally, one global merge
      (the fast path on real devices for small-to-moderate k);
    - ``"global_atomic"`` — every point update hits the global
      accumulators directly (a Python loop adding one point row at a
      time), modeling the atomic-contention alternative.
    """
    require_positive_int("block_size", block_size)
    if update_mode not in ("block_reduce", "global_atomic"):
        raise ValueError(f"unknown update_mode {update_mode!r}")
    points, centroids = start_centroids(points, k, seed=seed, initial_centroids=initial_centroids)
    n, d = points.shape
    assignments = np.full(n, -1, dtype=np.int64)
    grid = [(lo, min(lo + block_size, n)) for lo in range(0, n, block_size)]
    blocks = [point_block(points[lo:hi]) for lo, hi in grid]  # contiguous = coalesced

    def step(centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        changes = 0
        sums = np.zeros((k, d))
        counts = np.zeros(k, dtype=np.int64)
        for (lo, hi), block in zip(grid, blocks):  # the kernel grid

            # assign kernel
            new_local, block_changes = assign_points(block, centroids, assignments[lo:hi])
            changes += block_changes
            assignments[lo:hi] = new_local

            # update kernel
            if update_mode == "block_reduce":
                # shared-memory reduce, then one global combine
                block_sums, block_counts = cluster_sums(block, new_local, k)
                sums += block_sums
                counts += block_counts
            else:
                for row in range(hi - lo):  # global atomics
                    c = new_local[row]
                    sums[c] += block.points[row]
                    counts[c] += 1
        return sums, counts, changes

    run = lloyd(step, centroids, criteria, model="device", tracer=get_tracer())
    return run.result(points, assignments)
