"""Ablation — cache effects in the k-means assign phase.

"The code presents opportunities for further optimizations based on
cache effects" (paper §3). The canonical demonstration: the same
distance computation over row-major (C-contiguous, points × features —
each point's coordinates adjacent) vs column-major (Fortran-ordered)
storage. The mathematics is identical; the stride pattern is not.
Both blocks are prepared once, outside the timed calls, as every model
prepares its blocks once per run; ``point_block`` keeps a
Fortran-ordered array column-major, so the layout under test survives.
"""

import numpy as np

from repro.kmeans.sequential import assign_points, point_block
from repro.knn.data import make_blobs
from repro.util.timing import time_call

N, D, K = 40_000, 32, 16


def test_kmeans_memory_layout_ablation(benchmark, report_writer, bench_json_writer):
    points_c, _ = make_blobs(N, D, K, seed=3)
    points_c = np.ascontiguousarray(points_c)
    points_f = np.asfortranarray(points_c)
    centroids = points_c[:K].copy()
    stale = np.full(N, -1, dtype=np.int64)
    block_c = point_block(points_c)
    block_f = point_block(points_f)
    assert block_f.order == "F"

    benchmark(lambda: assign_points(block_c, centroids, stale))

    c_sec, (c_assign, _) = time_call(
        lambda: assign_points(block_c, centroids, stale), repeats=3
    )
    f_sec, (f_assign, _) = time_call(
        lambda: assign_points(block_f, centroids, stale), repeats=3
    )
    np.testing.assert_array_equal(c_assign, f_assign)

    lines = [
        "Ablation: memory layout of the point array in the assign phase",
        f"n={N:,} d={D} K={K}",
        f"C-order (row-major, coordinates adjacent): {c_sec:.4f}s",
        f"F-order (column-major):                    {f_sec:.4f}s",
        f"ratio: {f_sec / c_sec:.2f}x",
        "",
        "shape: identical assignments; layout alone changes the constant —",
        "the cache-effects discussion the assignment invites (exact ratio",
        "depends on BLAS and cache sizes; on some machines it inverts for",
        "the GEMM-dominated path, which is itself the point worth teaching)",
    ]
    report_writer("ablation_kmeans_cache", "\n".join(lines) + "\n")
    bench_json_writer(
        "ablation_kmeans_cache",
        {"c_order": c_sec, "f_order": f_sec},
        workload="ablation_kmeans_cache",
        config={"n": N, "d": D, "k": K},
        bit_identical=True,  # layouts produced identical assignments
        layout_ratio=f_sec / c_sec,
    )
