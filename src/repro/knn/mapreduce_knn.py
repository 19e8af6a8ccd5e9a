"""kNN over MapReduce-MPI — the assignment's parallel implementation.

The typical implementation the paper describes, reproduced phase for
phase:

1. *all processes load the query set* (assumed small) — here the
   queries argument is shared by every rank;
2. *the database file is parsed in parallel by multiple map tasks which
   compute distances and generate (key: query, value: (distance,
   class)) pairs* — ``map_tasks`` over database chunks;
3. *a reduction phase takes the pairs for each query, extracts the
   nearest neighbors' classes, and generates (key: query, value:
   predicted_class) pairs* — ``collate`` + ``reduce``.

The paper's communication optimization — "adding local reductions at
each rank … noticeably improves the communication cost" — is the
``local_combine`` flag: before the shuffle each rank keeps only its k
best candidates per query, shrinking shuffled pairs from Θ(n) to
Θ(ranks · q · k).
"""

from __future__ import annotations

import numpy as np

from repro.knn.brute import _problem, majority_vote
from repro.knn.heap import top_k_smallest
from repro.mapreduce import KeyValue, MapReduce
from repro.mpi import Communicator, run_spmd
from repro.util.partition import block_bounds

__all__ = ["knn_mapreduce", "run_knn_mapreduce"]


def knn_mapreduce(
    comm: Communicator,
    database: np.ndarray,
    labels: np.ndarray,
    queries: np.ndarray,
    k: int,
    *,
    local_combine: bool = True,
    num_map_tasks: int | None = None,
) -> tuple[np.ndarray, int]:
    """SPMD kNN over MapReduce: call from every rank of ``comm``.

    ``database``/``labels``/``queries`` are the full inputs, identical on
    every rank (the SPMD shared-input convention; map tasks each parse
    their own chunk, which is the parallel-IO teaching point). Returns
    ``(predictions, shuffled_pairs)`` — predictions on every rank, plus
    the global shuffle volume for the communication ablation.
    """
    database, labels, queries, k_eff = _problem(database, labels, queries, k)

    ntasks = num_map_tasks or comm.size
    mr = MapReduce(comm)

    def map_chunk(task: int, kv: KeyValue) -> None:
        # "Parse" this map task's chunk of the database file.
        lo, hi = block_bounds(database.shape[0], ntasks, task)
        if lo == hi:
            return
        chunk = database[lo:hi]
        chunk_labels = labels[lo:hi]
        # One fused distance computation: chunk × queries.
        d2 = (
            np.einsum("ij,ij->i", chunk, chunk)[:, None]
            - 2.0 * (chunk @ queries.T)
            + np.einsum("ij,ij->i", queries, queries)[None, :]
        )
        for qi in range(queries.shape[0]):
            col = d2[:, qi]
            if local_combine:
                # Keep this task's k best now; fewer pairs downstream.
                for dist, li in top_k_smallest(col.tolist(), None, k_eff):
                    kv.add(qi, (dist, int(chunk_labels[li])))
            else:
                for li in range(chunk.shape[0]):
                    kv.add(qi, (float(col[li]), int(chunk_labels[li])))

    mr.map_tasks(ntasks, map_chunk)
    shuffled = mr.aggregate()
    mr.convert()

    def pick_class(query_id: int, candidates: list, kv: KeyValue) -> None:
        keys, classes = zip(*candidates)
        distances, nearest = zip(*top_k_smallest(keys, classes, k_eff))
        kv.add(query_id, majority_vote(nearest, distances))

    mr.reduce(pick_class)
    predicted = dict(mr.gather_all())
    if len(predicted) != queries.shape[0]:
        raise AssertionError("some queries produced no prediction")
    return np.array([predicted[qi] for qi in range(len(predicted))], dtype=np.int64), shuffled


def run_knn_mapreduce(
    num_ranks: int,
    database: np.ndarray,
    labels: np.ndarray,
    queries: np.ndarray,
    k: int,
    **kwargs,
) -> tuple[np.ndarray, int]:
    """Launcher: run :func:`knn_mapreduce` on ``num_ranks`` SPMD ranks.

    Returns rank 0's (predictions, shuffled-pair count).
    """
    results = run_spmd(
        num_ranks, knn_mapreduce, database, labels, queries, k, **kwargs
    )
    return results[0]
