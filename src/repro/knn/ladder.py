"""The kNN model ladder, declared once.

:func:`rungs` gives every kNN model of paper §2 as a labelled
zero-argument runner; :func:`mismatches` is the same-answer contract
they meet against ``brute-vectorized``: exactly equal predictions.
Conformance tests and the golden digests iterate this one ladder.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

import numpy as np

from repro.knn.brute import knn_predict_heap, knn_predict_vectorized
from repro.knn.data import make_blobs
from repro.knn.kdtree import KDTree
from repro.knn.mapreduce_knn import run_knn_mapreduce
from repro.knn.parallel_variants import knn_openmp, run_knn_mpi
from repro.knn.quadtree import QuadTree

__all__ = ["rungs", "mismatches", "problem", "cases", "trees", "SERIAL"]

#: Rungs that take no worker count.
SERIAL = ("brute-vectorized", "brute-heap", "kdtree", "quadtree", "device")
#: (seed, database size, query count, classes, k) of the golden cases,
#: on 2-D blobs so that the quadtree runs too. Every query's k-th and
#: (k+1)-th nearest distances are at least 1e-3 apart.
CASES = ((1, 90, 25, 3, 5), (6, 70, 18, 4, 4))

Problem = tuple[np.ndarray, np.ndarray, np.ndarray, int]


def problem(seed: int, n: int, q: int, classes: int, k: int) -> Problem:
    """``(database, labels, queries, k)``: ``n`` then ``q`` points of 2-D blobs."""
    points, labels = make_blobs(n + q, 2, classes, seed=seed, spread=1.5)
    return points[:n], labels[:n], points[n:], k


def cases() -> Iterator[tuple[str, Problem, dict[str, Any]]]:
    """The golden problems, each with its digest-key tag and no rung keywords."""
    for seed, n, q, classes, k in CASES:
        yield f"seed={seed}/n={n}/q={q}/k={k}", problem(seed, n, q, classes, k), {}


def trees(problem: Problem) -> dict[str, Callable[[], KDTree | QuadTree]]:
    """Builders of both trees, with leaves of 4 points so small problems prune."""
    database, labels, _, _ = problem
    return {
        "kdtree": lambda: KDTree.build(database, labels, leaf_size=4),
        "quadtree": lambda: QuadTree(database, labels, leaf_capacity=4),
    }


def rungs(problem: Problem, *, workers: int) -> dict[str, Callable[[], np.ndarray]]:
    """Every model, labelled, as a runner returning the predictions.

    ``workers`` is the OpenMP thread count and the MPI and MapReduce
    rank count; the :data:`SERIAL` rungs do not use it. The ``device``
    rung is the CUDA-style grid of paper §2: the vectorized engine's
    loop over 8-query blocks, one distance tile per block; the
    ``openmp`` threads share out blocks of 8 queries too.
    """
    database, labels, queries, k = problem
    ladder = {
        "brute-vectorized": lambda: knn_predict_vectorized(database, labels, queries, k),
        "brute-heap": lambda: knn_predict_heap(database, labels, queries, k),
    }
    for name, build in trees(problem).items():
        ladder[name] = lambda build=build: build().predict(queries, k)
    ladder["device"] = lambda: knn_predict_vectorized(database, labels, queries, k, block=8)
    ladder["openmp"] = lambda: knn_openmp(
        database, labels, queries, k, num_threads=workers, chunk=8
    )
    ladder["mpi"] = lambda: run_knn_mpi(workers, database, labels, queries, k)
    for combine in (True, False):
        ladder[f"mapreduce-combine={combine}"] = lambda c=combine: run_knn_mapreduce(
            workers, database, labels, queries, k, local_combine=c
        )[0]
    return ladder


def mismatches(predictions: np.ndarray, reference: np.ndarray) -> list[str]:
    """``["predictions"]`` unless the two prediction vectors are equal."""
    return [] if np.array_equal(predictions, reference) else ["predictions"]
