"""The k-means model ladder, declared once.

:func:`rungs` gives every *correct* model of the family as a labelled
zero-argument runner; :func:`mismatches` is the same-answer contract
they meet against ``sequential``. Conformance tests, the golden
digests, benches and trial builders iterate this one ladder instead of
listing models by hand.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

import numpy as np

from repro.core.executor import BACKENDS
from repro.kmeans.device_kmeans import kmeans_device
from repro.kmeans.initialization import init_random_points
from repro.kmeans.mpi_kmeans import run_kmeans_mpi
from repro.kmeans.openmp_kmeans import VARIANTS, kmeans_openmp
from repro.kmeans.parallel_kmeans import kmeans_parallel
from repro.kmeans.sequential import KMeansResult, kmeans_sequential
from repro.kmeans.termination import TerminationCriteria

__all__ = ["rungs", "mismatches", "cases", "SERIAL", "SCHEDULE_DEPENDENT", "BLOCKED"]

#: Rungs that take no worker count.
SERIAL = ("sequential", "device")
#: Rungs whose float sums follow the thread schedule and vary between runs.
SCHEDULE_DEPENDENT = ("openmp-critical", "openmp-atomic")
#: Rungs whose centroids are byte-identical at equal worker count.
BLOCKED = ("openmp-reduction", "mpi", *(f"executor-{b}" for b in BACKENDS))
#: (seed, shape, k) of the golden cases: 8 iterations from k random points.
CASES = ((0, (60, 2), 3), (5, (45, 3), 4))


def cases() -> Iterator[tuple[str, tuple[np.ndarray, int], dict[str, Any]]]:
    """The golden problems, each with its digest-key tag and rung keywords."""
    for seed, shape, k in CASES:
        points = np.random.default_rng(seed).normal(size=shape)
        init = init_random_points(points, k, seed=seed)
        keywords = {"criteria": TerminationCriteria(max_iterations=8), "initial_centroids": init}
        yield f"seed={seed}/{shape[0]}x{shape[1]}/k={k}", (points, k), keywords


def rungs(
    problem: tuple[np.ndarray, int], *, workers: int, **model_kwargs
) -> dict[str, Callable[[], KMeansResult]]:
    """Every correct model, labelled, as a runner over ``(points, k)``.

    ``workers`` is the thread, rank and pool-worker count;
    ``model_kwargs`` (``criteria``, ``initial_centroids``, ``seed``)
    go to every model. The ``device`` rung launches 512-point blocks
    with the per-block reduction update.
    """
    points, k = problem
    ladder = {"sequential": lambda: kmeans_sequential(points, k, **model_kwargs)}
    for variant in VARIANTS:
        ladder[f"openmp-{variant}"] = lambda v=variant: kmeans_openmp(
            points, k, num_threads=workers, variant=v, **model_kwargs
        )
    ladder["mpi"] = lambda: run_kmeans_mpi(workers, points, k, **model_kwargs)
    for backend in BACKENDS:
        ladder[f"executor-{backend}"] = lambda b=backend: kmeans_parallel(
            points, k, num_workers=workers, backend=b, **model_kwargs
        )
    ladder["device"] = lambda: kmeans_device(points, k, block_size=512, **model_kwargs)
    return ladder


def mismatches(result: KMeansResult, reference: KMeansResult) -> list[str]:
    """Names of the fields on which ``result`` breaks the contract.

    ``assignments``, ``iterations`` and ``changes_history`` must be
    exact; ``centroids`` differ by float-addition order only, so they
    must agree within ``atol=1e-9`` with no relative slack.
    """
    same = {
        "centroids": result.centroids.shape == reference.centroids.shape
        and np.allclose(result.centroids, reference.centroids, rtol=0.0, atol=1e-9),
        "assignments": np.array_equal(result.assignments, reference.assignments),
        "iterations": result.iterations == reference.iterations,
        "changes_history": result.changes_history == reference.changes_history,
    }
    return [name for name, ok in same.items() if not ok]
