"""The ``PointBlock`` kernels give the bytes of the inline expressions.

A k-means model prepares its blocks once per run: the points, their
squared norms and their coordinate columns, in one buffer. The kernels
must then return exactly what the per-iteration expressions they
replaced returned on the same array: the same assignments, change
count, sums and counts, byte for byte. That has to hold for the arrays
a model hands :func:`point_block` — C- and Fortran-ordered, a
row-strided slice, fewer points than clusters, no points at all — and
for a row range of a block, including one rebuilt from its buffer as an
executor task does.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.kmeans.sequential import PointBlock, assign_points, cluster_sums, point_block

coordinates = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def inline_assign(points, centroids, assignments):
    """Phase 1 as it was written before blocks were prepared."""
    d2 = (
        np.einsum("ij,ij->i", points, points)[:, None]
        - 2.0 * points @ centroids.T
        + np.einsum("ij,ij->i", centroids, centroids)[None, :]
    )
    new_assignments = np.argmin(d2, axis=1)
    return new_assignments, int(np.count_nonzero(new_assignments != assignments))


def inline_sums(points, labels, k):
    """Phase 2 as it was written before blocks were prepared."""
    sums = np.empty((k, points.shape[1]))
    for j in range(points.shape[1]):
        sums[:, j] = np.bincount(labels, weights=points[:, j], minlength=k)
    return sums, np.bincount(labels, minlength=k)


def layouts(base: np.ndarray, layout: str) -> np.ndarray:
    if layout == "fortran":
        return np.asfortranarray(base)
    if layout == "strided":  # every other row of a larger array
        spread = np.zeros((2 * base.shape[0], base.shape[1]))
        spread[::2] = base
        return spread[::2]
    return np.ascontiguousarray(base)


@st.composite
def cases(draw):
    k = draw(st.integers(1, 6))
    d = draw(st.integers(1, 5))
    n = draw(st.integers(0, 30))
    values = draw(st.lists(coordinates, min_size=n * d, max_size=n * d))
    layout = draw(st.sampled_from(["c", "fortran", "strided"]))
    points = layouts(np.array(values, dtype=float).reshape(n, d), layout)
    centroid_values = draw(st.lists(coordinates, min_size=k * d, max_size=k * d))
    centroids = np.array(centroid_values, dtype=float).reshape(k, d)
    lo = draw(st.integers(0, n))
    hi = draw(st.integers(lo, n))
    old = draw(st.lists(st.integers(-1, k - 1), min_size=n, max_size=n))
    return points, centroids, (lo, hi), np.array(old, dtype=np.int64)


def assert_block_matches(block: PointBlock, points, centroids, old, k) -> None:
    got, got_changes = assign_points(block, centroids, old)
    want, want_changes = inline_assign(points, centroids, old)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert got_changes == want_changes
    sums, counts = cluster_sums(block, got, k)
    want_sums, want_counts = inline_sums(points, got, k)
    assert sums.shape == want_sums.shape and sums.tobytes() == want_sums.tobytes()
    assert counts.dtype == want_counts.dtype and counts.tobytes() == want_counts.tobytes()


@given(case=cases())
@example(case=(np.zeros((0, 3)), np.ones((4, 3)), (0, 0), np.zeros(0, dtype=np.int64)))
@example(case=(np.array([[1.0, 2.0]]), np.arange(10.0).reshape(5, 2), (0, 1), np.array([3])))
@settings(max_examples=150, deadline=None)
def test_block_kernels_match_inline_expressions(case):
    points, centroids, (lo, hi), old = case
    k = centroids.shape[0]
    block = point_block(points)
    assert block.points.tobytes() == points.tobytes()
    fortran = points.flags.f_contiguous and not points.flags.c_contiguous
    assert block.order == ("F" if fortran else "C")
    assert_block_matches(block, points, centroids, old, k)
    # A row range of a prepared block, as a thread or task uses it, and
    # the same range of a block rebuilt from its buffer.
    assert_block_matches(block[lo:hi], points[lo:hi], centroids, old[lo:hi], k)
    rebuilt = PointBlock.from_buffer(block.buffer, points.shape, block.order)[lo:hi]
    assert_block_matches(rebuilt, points[lo:hi], centroids, old[lo:hi], k)


def test_block_is_three_views_of_one_buffer():
    points = np.arange(12.0).reshape(4, 3)
    block = point_block(points)
    assert block.buffer.shape == (4 * (2 * 3 + 1),)
    for view in (block.points, block.norms, block.columns):
        assert view.base is block.buffer
    np.testing.assert_array_equal(block.columns, points.T)
    assert block.columns.flags.c_contiguous
    np.testing.assert_array_equal(block.norms[:, 0], (points**2).sum(axis=1))
    rows = block[1:3]
    np.testing.assert_array_equal(rows.columns, points[1:3].T)
    assert rows.buffer is block.buffer
