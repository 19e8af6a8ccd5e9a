"""Planar geometry for the spatial-join stage of the NYC pipeline.

The Figure 2 pipeline "identifies the spatial positions of all arrests"
— i.e. assigns each arrest point to the Neighborhood Tabulation Area
polygon containing it. Point-in-polygon is the classic even–odd ray
cast, with a bounding-box pre-check that rejects far points before the
ray cast. Each polygon derives its non-horizontal edges once, at
construction, in the form the ray cast reads; a horizontal edge can
never straddle the ray, so dropping it changes no answer. The join does
not scan every polygon per point: it is indexed
by :class:`repro.pipeline.nyc.NTAIndex`, a uniform grid over the
polygons' bounding boxes, and runs :meth:`Polygon.contains` only on the
few polygons listed in the point's cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = ["BoundingBox", "Polygon"]


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned rectangle (min/max corner)."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def contains(self, x: float, y: float) -> bool:
        """Closed-box membership."""
        return self.min_x <= x <= self.max_x and self.min_y <= y <= self.max_y


class Polygon:
    """A simple (non-self-intersecting) polygon given by its vertex ring."""

    def __init__(self, vertices: Sequence[tuple[float, float]]) -> None:
        if len(vertices) < 3:
            raise ValueError(f"a polygon needs >= 3 vertices, got {len(vertices)}")
        self.vertices = [(float(x), float(y)) for x, y in vertices]
        xs = [x for x, _ in self.vertices]
        ys = [y for _, y in self.vertices]
        self.bbox = BoundingBox(min(xs), min(ys), max(xs), max(ys))
        # Edge (i, j) as (yi, yj, xi, xj - xi, yj - yi), ring order kept.
        ring = self.vertices
        self._edges = [
            (yi, yj, xi, xj - xi, yj - yi)
            for (xi, yi), (xj, yj) in zip(ring, ring[-1:] + ring[:-1])
            if yi != yj
        ]

    @classmethod
    def rectangle(cls, min_x: float, min_y: float, max_x: float, max_y: float) -> "Polygon":
        """Axis-aligned rectangle polygon (CCW ring)."""
        if max_x <= min_x or max_y <= min_y:
            raise ValueError("rectangle must have positive extent")
        return cls([(min_x, min_y), (max_x, min_y), (max_x, max_y), (min_x, max_y)])

    def contains(self, x: float, y: float) -> bool:
        """Even–odd ray-cast membership (boundary points count as inside
        on the lower/left edges, so tiles partition the plane cleanly).

        Reads the edges derived at construction: the crossing is
        ``dx * (y - yi) / dy + xi``, the same IEEE operations in the
        same order as ``(xj - xi) * (y - yi) / (yj - yi) + xi`` over
        the vertex ring, so every answer is the plain ray cast's.
        """
        box = self.bbox
        if not (box.min_x <= x <= box.max_x and box.min_y <= y <= box.max_y):
            return False
        inside = False
        for yi, yj, xi, dx, dy in self._edges:
            if (yi > y) != (yj > y) and x < dx * (y - yi) / dy + xi:
                inside = not inside
        return inside

    def area(self) -> float:
        """Shoelace area (absolute value)."""
        verts = self.vertices
        twice = 0.0
        j = len(verts) - 1
        for i in range(len(verts)):
            twice += verts[j][0] * verts[i][1] - verts[i][0] * verts[j][1]
            j = i
        return abs(twice) / 2.0

    def centroid(self) -> tuple[float, float]:
        """Vertex-average centroid (adequate for convex tiles)."""
        n = len(self.vertices)
        return (
            sum(x for x, _ in self.vertices) / n,
            sum(y for _, y in self.vertices) / n,
        )

    def __repr__(self) -> str:
        return f"Polygon({len(self.vertices)} vertices)"
