"""kNN in other programming models — the §2 adaptation suggestions.

"The assignment could be adapted to shared memory programming models
like OpenMP, other distributed memory programming models like MPI, or
accelerator programming models like CUDA" (paper §2):

- :func:`knn_openmp` — queries worksharing-split over a thread team
  (blocks of ``chunk`` queries, each classified by the vectorized
  engine, under any worksharing schedule);
- :func:`knn_mpi` — plain MPI (no MapReduce): queries scattered, each
  rank classifies its block against the replicated database, results
  gathered;
- CUDA needs no code of its own: a grid of query blocks, each with one
  distance tile, is :func:`repro.knn.knn_predict_vectorized`'s block
  loop (the ``device`` rung of :mod:`repro.knn.ladder`).

All agree exactly with the vectorized engine.
"""

from __future__ import annotations

import numpy as np

from repro.knn.brute import knn_predict_vectorized
from repro.mpi import Communicator, run_spmd
from repro.openmp import parallel_region
from repro.util.partition import block_bounds
from repro.util.validation import require_positive_int

__all__ = ["knn_openmp", "knn_mpi", "run_knn_mpi"]


def knn_openmp(
    database: np.ndarray,
    labels: np.ndarray,
    queries: np.ndarray,
    k: int,
    *,
    num_threads: int = 4,
    schedule: str = "static",
    chunk: int = 32,
) -> np.ndarray:
    """Shared-memory kNN: the query loop is the parallel loop.

    The loop's iterations are blocks of ``chunk`` queries, each
    classified by one vectorized call and handed out under any
    :meth:`~repro.openmp.region.TeamContext.for_range` schedule. The
    database is shared read-only (the OpenMP default for enclosing
    scope); each thread writes only its own slice of the output — no
    races, which is why this is the gentle first adaptation.
    """
    require_positive_int("chunk", chunk)
    queries = np.asarray(queries, dtype=float)
    out = np.empty(queries.shape[0], dtype=np.int64)

    def body(ctx) -> None:
        for index in ctx.for_range((queries.shape[0] + chunk - 1) // chunk, schedule=schedule):
            lo, hi = index * chunk, (index + 1) * chunk
            out[lo:hi] = knn_predict_vectorized(database, labels, queries[lo:hi], k)

    parallel_region(num_threads, body)
    return out


def knn_mpi(
    comm: Communicator,
    database: np.ndarray,
    labels: np.ndarray,
    queries: np.ndarray | None,
    k: int,
) -> np.ndarray | None:
    """Plain-MPI kNN: database replicated, queries scattered, results gathered.

    ``queries`` is needed on the root only. Root returns the full
    prediction vector; other ranks return None.
    """
    if comm.rank == 0:
        if queries is None:
            raise ValueError("root must supply the query set")
        queries = np.asarray(queries, dtype=float)
        chunks = [
            queries[slice(*block_bounds(queries.shape[0], comm.size, r))]
            for r in range(comm.size)
        ]
    else:
        chunks = None
    my_queries = comm.scatter(chunks, root=0)
    gathered = comm.gather(knn_predict_vectorized(database, labels, my_queries, k), root=0)
    if comm.rank != 0:
        return None
    return np.concatenate(gathered)


def run_knn_mpi(
    num_ranks: int,
    database: np.ndarray,
    labels: np.ndarray,
    queries: np.ndarray,
    k: int,
) -> np.ndarray:
    """Launcher for :func:`knn_mpi`."""

    def program(comm: Communicator):
        return knn_mpi(comm, database, labels, queries if comm.rank == 0 else None, k)

    return run_spmd(num_ranks, program)[0]

