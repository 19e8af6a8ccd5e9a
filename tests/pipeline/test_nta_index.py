"""The NTA grid index answers exactly what the linear scan answers.

:class:`repro.pipeline.nyc.NTAIndex` replaces the per-arrest scan of
:func:`repro.pipeline.nyc.locate_nta` in the Figure 2 pipeline. Its
contract is equality with that scan, boundary points included: the
first NTA in list order whose polygon contains the point wins. The
properties below draw small half-integer coordinates so shared edges,
shared vertices and overlaps are common, and probe vertices, points on
edges, bounding-box corners and points outside every polygon.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline import Polygon, generate_ntas
from repro.pipeline.nyc import NTA, NTAIndex, locate_nta

coords = st.integers(-8, 8).map(lambda v: v / 2)


def as_ntas(polygons: list[Polygon]) -> list[NTA]:
    return [
        NTA(code=f"P{i}", name=f"polygon {i}", borough="", polygon=p, population=1)
        for i, p in enumerate(polygons)
    ]


@st.composite
def polygons(draw) -> Polygon:
    """A triangle, a rectangle, or a star-shaped (often concave) ring."""
    kind = draw(st.sampled_from(("triangle", "rectangle", "star")))
    if kind == "triangle":
        return Polygon([(draw(coords), draw(coords)) for _ in range(3)])
    if kind == "rectangle":
        x0, x1 = sorted(draw(st.lists(coords, min_size=2, max_size=2, unique=True)))
        y0, y1 = sorted(draw(st.lists(coords, min_size=2, max_size=2, unique=True)))
        return Polygon.rectangle(x0, y0, x1, y1)
    ring = draw(st.lists(st.tuples(coords, coords), min_size=4, max_size=8, unique=True))
    cx = sum(x for x, _ in ring) / len(ring)
    cy = sum(y for _, y in ring) / len(ring)
    ring.sort(key=lambda p: (math.atan2(p[1] - cy, p[0] - cx), p))
    return Polygon(ring)


@st.composite
def probes(draw, shapes: list[Polygon]) -> tuple[float, float]:
    """A vertex, a point on an edge, a bbox corner, or any nearby point."""
    kind = draw(st.sampled_from(("vertex", "edge", "corner", "anywhere")))
    shape = draw(st.sampled_from(shapes))
    verts = shape.vertices
    if kind == "vertex":
        return draw(st.sampled_from(verts))
    if kind == "edge":
        i = draw(st.integers(0, len(verts) - 1))
        (x0, y0), (x1, y1) = verts[i], verts[(i + 1) % len(verts)]
        t = draw(st.sampled_from((0.25, 0.5, 0.75)))
        return x0 + t * (x1 - x0), y0 + t * (y1 - y0)
    if kind == "corner":
        box = shape.bbox
        return draw(st.sampled_from(
            [(box.min_x, box.min_y), (box.min_x, box.max_y),
             (box.max_x, box.min_y), (box.max_x, box.max_y)]
        ))
    return draw(st.floats(-6, 6)), draw(st.floats(-6, 6))


def assert_index_matches_scan(shapes: list[Polygon], points) -> None:
    ntas = as_ntas(shapes)
    index = NTAIndex(ntas)
    for x, y in points:
        assert index.locate(x, y) == locate_nta(x, y, ntas), (x, y)
        outside = not (index.min_x <= x <= index.max_x and index.min_y <= y <= index.max_y)
        if outside:
            assert index.candidates(x, y) == ()


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_index_matches_linear_scan(data):
    shapes = data.draw(st.lists(polygons(), min_size=1, max_size=6))
    points = data.draw(st.lists(probes(shapes), min_size=1, max_size=40))
    assert_index_matches_scan(shapes, points)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_single_nta(data):
    shape = data.draw(polygons())
    points = data.draw(st.lists(probes([shape]), min_size=1, max_size=40))
    assert_index_matches_scan([shape], points)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_zero_height_union_bbox(data):
    # Collinear 3-vertex rings on one horizontal line are legal polygons;
    # the union bbox then has zero height and every row maps to cell 0.
    y = data.draw(coords)
    xs = st.lists(coords, min_size=3, max_size=3)
    shapes = [Polygon([(x, y) for x in data.draw(xs)]) for _ in range(data.draw(st.integers(1, 4)))]
    points = data.draw(st.lists(probes(shapes), min_size=1, max_size=40))
    assert_index_matches_scan(shapes, points)


def test_subnormal_width():
    # side / width overflows to inf; the axis must collapse to one cell.
    shape = Polygon([(0.0, 0.0), (5e-324, 0.0), (0.0, 1.0)])
    assert_index_matches_scan([shape], shape.vertices + [(0.0, 0.5), (5e-324, 1.0)])


def test_list_order_decides_overlap_owner():
    low, high = Polygon.rectangle(0, 0, 2, 2), Polygon.rectangle(1, 1, 3, 3)
    for shapes in ([low, high], [high, low]):
        ntas = as_ntas(shapes)
        # (1.5, 1.5) lies in both rectangles; the first in list order owns it.
        assert NTAIndex(ntas).locate(1.5, 1.5) == "P0" == locate_nta(1.5, 1.5, ntas)


@pytest.mark.parametrize("rows, cols", [(6, 8), (3, 4), (1, 1)])
def test_grid_prunes_to_neighbouring_tiles(rows, cols):
    # A cell is narrower than a tile, so it meets at most two tile
    # columns and two tile rows: at most four candidates, not rows*cols.
    ntas = generate_ntas(rows, cols, seed=0)
    index = NTAIndex(ntas)
    ticks = [i / (4 * index.side) for i in range(4 * index.side + 1)]
    samples = [(x, y) for x in ticks for y in ticks]
    assert max(len(index.candidates(x, y)) for x, y in samples) <= 4
    assert all(index.locate(x, y) == locate_nta(x, y, ntas) for x, y in samples)


def reference_contains(polygon: Polygon, x: float, y: float) -> bool:
    """The even–odd ray cast over the vertex ring, every edge per call."""
    if not polygon.bbox.contains(x, y):
        return False
    inside = False
    verts = polygon.vertices
    j = len(verts) - 1
    for i in range(len(verts)):
        xi, yi = verts[i]
        xj, yj = verts[j]
        if (yi > y) != (yj > y):
            x_cross = (xj - xi) * (y - yi) / (yj - yi) + xi
            if x < x_cross:
                inside = not inside
        j = i
    return inside


def outcome(f, *args):
    """``f(*args)``, or the type of what it raised."""
    try:
        return f(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc)


EXTREMES = (math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, -0.0)
extreme_coords = coords | st.sampled_from(EXTREMES)


@st.composite
def extreme_polygons(draw, vertex_coords=extreme_coords) -> Polygon:
    """Rings with infinite, NaN, huge or subnormal vertices."""
    ring = st.lists(st.tuples(vertex_coords, vertex_coords), min_size=3, max_size=6)
    return Polygon(draw(ring))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_contains_matches_reference_ray_cast(data):
    shape = data.draw(polygons() | extreme_polygons())
    points = data.draw(
        st.lists(probes([shape]) | st.tuples(extreme_coords, extreme_coords), min_size=1, max_size=40)
    )
    for x, y in points:
        assert outcome(shape.contains, x, y) == outcome(reference_contains, shape, x, y), (x, y)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_candidates_cell_is_the_build_cell(data):
    # Vertices stay finite, with extents that fit a float: a NaN or
    # infinite extent cannot be gridded, at any revision.
    gridded = coords | st.sampled_from((1e300, -1e300, 5e-324, -0.0))
    shapes = data.draw(st.lists(polygons() | extreme_polygons(gridded), min_size=1, max_size=4))
    index = NTAIndex(as_ntas(shapes))
    points = data.draw(
        st.lists(probes(shapes) | st.tuples(extreme_coords, extreme_coords), min_size=1, max_size=40)
    )
    for x, y in points:
        inside = index.min_x <= x <= index.max_x and index.min_y <= y <= index.max_y

        def built_cell():
            return index._cells[index._row(y) * index.side + index._col(x)] if inside else ()

        assert outcome(index.candidates, x, y) == outcome(built_cell), (x, y)


def test_empty_list_rejected():
    with pytest.raises(ValueError):
        NTAIndex([])
