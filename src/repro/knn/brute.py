"""Sequential kNN classification — the assignment's starter algorithm.

Two implementations of the same Θ(q·n·(d + log k)) method:

- :func:`knn_predict_heap` — the explicit-loop form matching the C++
  starter code students are given (distance loop + bounded heap);
- :func:`knn_predict_vectorized` — the numpy form used as the timing
  baseline (one fused distance computation per query block, then
  ``argpartition`` for the k smallest — the idiomatic scientific-Python
  translation).

Both resolve class votes through :func:`majority_vote` with the same
deterministic tie-break, so their predictions agree exactly.
"""

from __future__ import annotations

import numpy as np

from repro.knn.heap import BoundedMaxHeap
from repro.util.validation import require_positive_int

__all__ = [
    "majority_vote",
    "weighted_vote",
    "knn_predict_heap",
    "knn_predict_vectorized",
    "KNNClassifier",
]


def majority_vote(labels: np.ndarray, distances: np.ndarray | None = None) -> int:
    """The most frequent label; ties broken by smaller summed distance,
    then by smaller label value (fully deterministic).

    ``labels``/``distances`` are the k nearest neighbors' classes and
    distances for one query.
    """
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("majority_vote needs at least one neighbor")
    counts: dict[int, int] = {}
    dist_sum: dict[int, float] = {}
    for i, lab in enumerate(labels):
        lab = int(lab)
        counts[lab] = counts.get(lab, 0) + 1
        if distances is not None:
            dist_sum[lab] = dist_sum.get(lab, 0.0) + float(distances[i])
    best = min(
        counts,
        key=lambda lab: (-counts[lab], dist_sum.get(lab, 0.0), lab),
    )
    return best


def weighted_vote(labels: np.ndarray, distances: np.ndarray, *, eps: float = 1e-9) -> int:
    """Inverse-distance-weighted vote: near neighbors count for more.

    Each neighbor contributes weight ``1 / (distance + eps)`` to its
    class; the heaviest class wins, ties broken by smaller label. With a
    zero-distance neighbor (an exact duplicate of the query) that class
    wins outright, which is the behaviour one wants from a memorizing
    classifier.
    """
    labels = np.asarray(labels)
    distances = np.asarray(distances, dtype=float)
    if labels.size == 0:
        raise ValueError("weighted_vote needs at least one neighbor")
    if labels.shape != distances.shape:
        raise ValueError("labels and distances must align")
    weights: dict[int, float] = {}
    for lab, dist in zip(labels, distances):
        lab = int(lab)
        weights[lab] = weights.get(lab, 0.0) + 1.0 / (float(dist) + eps)
    return min(weights, key=lambda lab: (-weights[lab], lab))


def _problem(
    database: np.ndarray, labels: np.ndarray, queries: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The kNN inputs as arrays, checked, with k capped at the database size."""
    database = np.asarray(database, dtype=float)
    queries = np.asarray(queries, dtype=float)
    labels = np.asarray(labels)
    require_positive_int("k", k)
    if database.ndim != 2 or queries.ndim != 2:
        raise ValueError("database and queries must be 2-D (points × features)")
    if database.shape[1] != queries.shape[1]:
        raise ValueError(
            f"dimension mismatch: database is {database.shape[1]}-d, queries are {queries.shape[1]}-d"
        )
    if labels.shape != (database.shape[0],):
        raise ValueError("labels must be one per database point")
    if database.shape[0] == 0:
        raise ValueError("database is empty")
    return database, labels, queries, min(k, database.shape[0])


def knn_predict_heap(
    database: np.ndarray, labels: np.ndarray, queries: np.ndarray, k: int
) -> np.ndarray:
    """Loop-and-heap kNN: the literal starter-code algorithm.

    For each query: one pass over the database maintaining a bounded
    max-heap of the k nearest, then a majority vote.
    """
    database, labels, queries, k = _problem(database, labels, queries, k)
    out = np.empty(queries.shape[0], dtype=np.int64)
    for qi in range(queries.shape[0]):
        heap = BoundedMaxHeap(k)
        q = queries[qi]
        for di in range(database.shape[0]):
            diff = database[di] - q
            dist2 = float(diff @ diff)
            heap.offer(dist2, int(labels[di]))
        distances, nearest = zip(*heap.sorted_items())
        out[qi] = majority_vote(nearest, distances)
    return out


def knn_predict_vectorized(
    database: np.ndarray,
    labels: np.ndarray,
    queries: np.ndarray,
    k: int,
    *,
    block: int = 256,
    vote: str = "majority",
) -> np.ndarray:
    """Vectorized kNN: blocked distance matrices + ``argpartition``.

    Queries are processed in blocks of ``block`` to bound the distance
    matrix to ``block × n`` (be easy on the memory, per the course's
    optimization guidance) while keeping the inner loops in BLAS.
    """
    database, labels, queries, k = _problem(database, labels, queries, k)
    require_positive_int("block", block)
    if vote not in ("majority", "distance"):
        raise ValueError(f"vote must be 'majority' or 'distance', got {vote!r}")

    n = database.shape[0]
    db_sq = np.einsum("ij,ij->i", database, database)
    out = np.empty(queries.shape[0], dtype=np.int64)
    for lo in range(0, queries.shape[0], block):
        chunk = queries[lo : lo + block]
        # ||q - d||^2 = ||q||^2 - 2 q·d + ||d||^2 ; the q² term is
        # constant per row and irrelevant to the argmin, so skip it.
        dist2 = db_sq[None, :] - 2.0 * (chunk @ database.T)
        if k < n:
            idx = np.argpartition(dist2, k - 1, axis=1)[:, :k]
        else:
            idx = np.tile(np.arange(n), (chunk.shape[0], 1))
        for row in range(chunk.shape[0]):
            neighbors = idx[row]
            # Recover true squared distances for the deterministic tie-break.
            diffs = database[neighbors] - chunk[row]
            true_d2 = np.einsum("ij,ij->i", diffs, diffs)
            if vote == "distance":
                out[lo + row] = weighted_vote(labels[neighbors], np.sqrt(true_d2))
            else:
                out[lo + row] = majority_vote(labels[neighbors], true_d2)
    return out


class KNNClassifier:
    """The user-facing classifier: fit a database, predict query classes.

    ``method`` picks the engine: ``"vectorized"`` (default), ``"heap"``
    (reference loop), or ``"kdtree"`` (space-partitioning variant).
    """

    def __init__(self, k: int = 5, method: str = "vectorized") -> None:
        self.k = require_positive_int("k", k)
        if method not in ("vectorized", "heap", "kdtree"):
            raise ValueError(f"unknown method {method!r}")
        self.method = method
        self._database: np.ndarray | None = None
        self._labels: np.ndarray | None = None
        self._tree = None

    def fit(self, database: np.ndarray, labels: np.ndarray) -> "KNNClassifier":
        """Store (and for kdtree, index) the classified database."""
        database = np.asarray(database, dtype=float)
        labels = np.asarray(labels)
        if database.ndim != 2:
            raise ValueError("database must be 2-D")
        if labels.shape != (database.shape[0],):
            raise ValueError("labels must be one per database point")
        self._database = database
        self._labels = labels
        if self.method == "kdtree":
            from repro.knn.kdtree import KDTree

            self._tree = KDTree.build(database, labels)
        return self

    def predict(self, queries: np.ndarray) -> np.ndarray:
        """Predicted class per query point."""
        if self._database is None:
            raise RuntimeError("call fit() before predict()")
        queries = np.asarray(queries, dtype=float)
        if self.method == "heap":
            return knn_predict_heap(self._database, self._labels, queries, self.k)
        if self.method == "kdtree":
            assert self._tree is not None
            return self._tree.predict(queries, self.k)
        return knn_predict_vectorized(self._database, self._labels, queries, self.k)

    def score(self, queries: np.ndarray, true_labels: np.ndarray) -> float:
        """Fraction of queries classified correctly."""
        pred = self.predict(queries)
        true_labels = np.asarray(true_labels)
        if true_labels.shape != pred.shape:
            raise ValueError("true_labels must be one per query")
        return float(np.mean(pred == true_labels))
