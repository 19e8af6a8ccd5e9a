"""E-kmeans-ladder — §3's programming-model comparison.

The assignment's arc: critical sections are correct but slow; atomics
are finer-grained; reductions eliminate contention entirely; MPI needs
one distributed reduction per iteration; the CUDA-style version compares
per-block reductions against global atomics. Every rung of
:func:`repro.kmeans.ladder.rungs`, plus the device rung with global
atomics, clusters the same cloud from the same initial centroids and
must meet the ladder's same-answer contract; the series reported is
their wall-clock times. ``BENCH_kmeans_models.json`` records them as a
schema-v1 row, its timing labels the rung names and its digest the
sequential result's (the rungs agree within 1e-9, not bitwise).
"""

from repro.kmeans import TerminationCriteria, kmeans_device
from repro.kmeans import ladder as kmeans_ladder
from repro.kmeans.initialization import init_random_points
from repro.knn.data import make_blobs
from repro.trace.history import result_digest
from repro.util.timing import time_call

N, D, K = 6000, 8, 8
THREADS = 4
CRITERIA = TerminationCriteria(max_iterations=15, min_changes=0, max_centroid_shift=0.0)


REPEATS = 2


def test_kmeans_programming_models(benchmark, report_writer, bench_json_writer):
    points, _ = make_blobs(N, D, K, seed=2, separation=5.0)
    init = init_random_points(points, K, seed=9)
    model_kwargs = {"criteria": CRITERIA, "initial_centroids": init}
    configs = kmeans_ladder.rungs((points, K), workers=THREADS, **model_kwargs)
    configs["device-globalatomic"] = lambda: kmeans_device(
        points, K, block_size=512, update_mode="global_atomic", **model_kwargs
    )

    reference = benchmark(configs["sequential"])

    lines = [
        f"E-kmeans-ladder: one clustering, {len(configs)} parallelization strategies",
        f"n={N} d={D} K={K} iterations={reference.iterations} threads/ranks/workers={THREADS}",
        "",
        f"{'model':>22} {'seconds':>9} {'same answer':>12}",
    ]
    times = {}
    for name, task in configs.items():
        sec, result = time_call(task, repeats=REPEATS)
        assert not kmeans_ladder.mismatches(result, reference), name
        times[name] = sec
        lines.append(f"{name:>22} {sec:>9.3f} {'yes':>12}")

    bench_json_writer(
        "kmeans_models",
        times,
        workload="kmeans_models",
        config={
            "n": N, "d": D, "k": K, "iterations": reference.iterations,
            # rungs() gives threads, ranks and pool workers one count.
            "workers": THREADS, "repeats": REPEATS, "device_block": 512,
        },
        # No bit_identical flag: the rungs agree within 1e-9, not bitwise,
        # and a False flag would read as a broken self-check.
        digest=result_digest(reference),
    )

    # Shape assertions from the assignment's narrative:
    # the reduction rung beats the single big critical section,
    assert times["openmp-reduction"] < times["openmp-critical"]
    # and per-block reduction beats per-point global atomics on 'device'.
    assert times["device"] < times["device-globalatomic"]
    lines.append("")
    lines.append("shape: reduction < critical (the OpenMP ladder pays off);")
    lines.append("       block-reduce < global-atomic (the CUDA profitability question)")
    report_writer("kmeans_models", "\n".join(lines) + "\n")
