"""Region quadtree for 2-D spatial search — the paper's named example.

The Data-Structures variant explicitly mentions quad-trees (citing
Shaffer). A region quadtree recursively splits a square into four
quadrants. Nearest-neighbor search is the k-d tree's branch and bound
(:class:`repro.knn.kdtree.BoxTree`) over the classic fixed 4-way
spatial decomposition: it prunes quadrants whose box lower bound
reaches the current k-th best and visits the nearest quadrant first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.knn.heap import BoundedMaxHeap
from repro.knn.kdtree import BoxTree
from repro.util.validation import require_positive_int

__all__ = ["QuadTree"]

_LEAF_CAPACITY = 8


@dataclass
class _QNode:
    cx: float
    cy: float
    half: float
    indices: list[int] = field(default_factory=list)
    children: "list[_QNode] | None" = None  # NW, NE, SW, SE

    @property
    def is_leaf(self) -> bool:
        return self.children is None


class QuadTree(BoxTree):
    """Point quadtree over 2-D classified points."""

    def __init__(self, points: np.ndarray, labels: np.ndarray, leaf_capacity: int = _LEAF_CAPACITY) -> None:
        points = np.asarray(points, dtype=float)
        labels = np.asarray(labels)
        if points.ndim != 2 or points.shape[1] != 2:
            raise ValueError("QuadTree requires 2-D points (n × 2)")
        if points.shape[0] == 0:
            raise ValueError("QuadTree requires at least one point")
        if labels.shape != (points.shape[0],):
            raise ValueError("labels must be one per point")
        require_positive_int("leaf_capacity", leaf_capacity)
        self._leaf_capacity = leaf_capacity
        lo = points.min(axis=0)
        hi = points.max(axis=0)
        center = (lo + hi) / 2.0
        half = float(max((hi - lo).max() / 2.0, 1e-12))
        super().__init__(_QNode(float(center[0]), float(center[1]), half), points, labels)
        for i in range(points.shape[0]):
            self._insert(self._root, i, depth=0)

    def _insert(self, node: _QNode, index: int, depth: int) -> None:
        if node.is_leaf:
            node.indices.append(index)
            # Depth cap guards against many coincident points.
            if len(node.indices) > self._leaf_capacity and depth < 32:
                self._subdivide(node)
                members, node.indices = node.indices, []
                for m in members:
                    self._insert(self._child_for(node, m), m, depth + 1)
            return
        self._insert(self._child_for(node, index), index, depth + 1)

    def _subdivide(self, node: _QNode) -> None:
        h = node.half / 2.0
        node.children = [
            _QNode(node.cx - h, node.cy + h, h),  # NW
            _QNode(node.cx + h, node.cy + h, h),  # NE
            _QNode(node.cx - h, node.cy - h, h),  # SW
            _QNode(node.cx + h, node.cy - h, h),  # SE
        ]

    def _child_for(self, node: _QNode, index: int) -> _QNode:
        assert node.children is not None
        x, y = self._points[index]
        east = x > node.cx
        north = y > node.cy
        return node.children[(0 if north else 2) + (1 if east else 0)]

    def _bound(self, node: _QNode, q: np.ndarray) -> float:
        dx = max(abs(q[0] - node.cx) - node.half, 0.0)
        dy = max(abs(q[1] - node.cy) - node.half, 0.0)
        return dx * dx + dy * dy

    def _children(self, node: _QNode, q: np.ndarray) -> list[_QNode]:
        # Nearest quadrant first to tighten the bound early.
        return sorted(node.children, key=lambda c: self._bound(c, q))  # type: ignore[arg-type]

    def _scan(self, node: _QNode, q: np.ndarray, heap: BoundedMaxHeap) -> None:
        for idx in node.indices:
            diff = self._points[idx] - q
            heap.offer(float(diff @ diff), idx)
