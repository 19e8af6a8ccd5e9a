"""k-d tree — the Data-Structures adaptation of the kNN assignment.

"For Data Structures, the assignment could focus on space partitioning
trees … for a 'box' of the search space, compute a lower bound on the
distance from its points to a query point and decide whether to examine
any point in the box" (paper §2). That is precisely the search of
:class:`BoxTree`, which the k-d tree and :class:`repro.knn.QuadTree`
share: a branch is pruned when the squared distance from the query to
the node's box reaches the current k-th best distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.knn.brute import majority_vote
from repro.knn.heap import BoundedMaxHeap
from repro.util.validation import require_positive_int

__all__ = ["KDTree"]

_LEAF_SIZE = 16


@dataclass
class _Node:
    lo: np.ndarray          # bounding box, per-dimension minima
    hi: np.ndarray          # bounding box, per-dimension maxima
    indices: np.ndarray | None = None  # leaf: member point indices
    axis: int = -1
    split: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.indices is not None


class BoxTree:
    """Branch-and-bound kNN search over a tree of boxes.

    A subclass builds the tree and gives the three things that differ
    between trees: ``_bound`` (squared distance from a query to a node's
    box), ``_children`` (the order in which an inner node's children are
    visited) and ``_scan`` (offer a leaf's points to the heap).
    """

    #: Nodes visited by the most recent query (pruning observability).
    last_nodes_visited = 0

    def __init__(self, root: Any, points: np.ndarray, labels: np.ndarray) -> None:
        self._root = root
        self._points = points
        self._labels = labels

    def query(self, q: np.ndarray, k: int) -> list[tuple[float, int]]:
        """The k nearest (squared-distance, point-index) pairs, ascending."""
        require_positive_int("k", k)
        q = np.asarray(q, dtype=float)
        heap = BoundedMaxHeap(min(k, self._points.shape[0]))
        visited = 0

        def descend(node: Any) -> None:
            nonlocal visited
            visited += 1
            if self._bound(node, q) >= heap.worst_key:
                return  # the whole box cannot beat the current k-th best
            if node.is_leaf:
                self._scan(node, q, heap)
                return
            for child in self._children(node, q):
                descend(child)

        descend(self._root)
        self.last_nodes_visited = visited
        return heap.sorted_items()

    def predict(self, queries: np.ndarray, k: int) -> np.ndarray:
        """Majority-vote classification per query."""
        queries = np.asarray(queries, dtype=float)
        if queries.ndim != 2 or queries.shape[1] != self._points.shape[1]:
            raise ValueError("queries must be 2-D with matching dimensionality")
        out = np.empty(queries.shape[0], dtype=np.int64)
        for i, q in enumerate(queries):
            distances, indices = zip(*self.query(q, k))
            out[i] = majority_vote(self._labels[list(indices)], distances)
        return out

    @property
    def num_points(self) -> int:
        """Database size."""
        return self._points.shape[0]


class KDTree(BoxTree):
    """Median-split k-d tree over a classified point database."""

    @classmethod
    def build(cls, points: np.ndarray, labels: np.ndarray, leaf_size: int = _LEAF_SIZE) -> "KDTree":
        """Build by recursive median splits on the widest dimension."""
        points = np.asarray(points, dtype=float)
        labels = np.asarray(labels)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError("points must be a non-empty 2-D array")
        if labels.shape != (points.shape[0],):
            raise ValueError("labels must be one per point")
        require_positive_int("leaf_size", leaf_size)

        def make(indices: np.ndarray) -> _Node:
            sub = points[indices]
            lo, hi = sub.min(axis=0), sub.max(axis=0)
            if len(indices) <= leaf_size or np.all(lo == hi):
                return _Node(lo=lo, hi=hi, indices=indices)
            axis = int(np.argmax(hi - lo))
            order = indices[np.argsort(sub[:, axis], kind="stable")]
            mid = len(order) // 2
            split = float(points[order[mid], axis])
            return _Node(
                lo=lo,
                hi=hi,
                axis=axis,
                split=split,
                left=make(order[:mid]),
                right=make(order[mid:]),
            )

        return cls(make(np.arange(points.shape[0])), points, labels)

    def _bound(self, node: _Node, q: np.ndarray) -> float:
        below = np.maximum(node.lo - q, 0.0)
        above = np.maximum(q - node.hi, 0.0)
        gap = below + above
        return float(gap @ gap)

    def _children(self, node: _Node, q: np.ndarray) -> tuple[_Node, _Node]:
        # The child containing q first, to shrink worst_key early.
        if q[node.axis] >= node.split:
            return node.right, node.left  # type: ignore[return-value]
        return node.left, node.right  # type: ignore[return-value]

    def _scan(self, node: _Node, q: np.ndarray, heap: BoundedMaxHeap) -> None:
        sub = self._points[node.indices]
        d2 = np.einsum("ij,ij->i", sub - q, sub - q)
        for dist, idx in zip(d2, node.indices):
            heap.offer(float(dist), int(idx))
