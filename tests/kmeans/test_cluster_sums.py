"""``cluster_sums`` gives the bytes of the ``np.add.at`` accumulation.

The phase-2 kernel every k-means model shares adds each cluster's
points in point order. The reference here is the textbook ``np.add.at``
form it replaced; the two must agree bit for bit on every block a model
can hand it: empty, smaller than ``k``, one point, one cluster only, a
strided row view, and a block that arrived through ``pickle`` (as from
an MPI rank or a pool worker), whose ``float64`` dtype is a
non-canonical instance.
"""

from __future__ import annotations

import pickle

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.kmeans.sequential import cluster_sums, point_block

coordinates = st.floats(
    min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False
)


def add_at_reference(points: np.ndarray, labels: np.ndarray, k: int):
    sums = np.zeros((k, points.shape[1]))
    counts = np.zeros(k, dtype=np.int64)
    np.add.at(sums, labels, points)
    np.add.at(counts, labels, 1)
    return sums, counts


@st.composite
def blocks(draw):
    """``(points, labels, k)``, the points maybe strided and unpickled."""
    k = draw(st.integers(1, 6))
    d = draw(st.integers(1, 4))
    n = draw(st.integers(0, 24))
    if draw(st.booleans()):  # every point in one cluster
        labels = [draw(st.integers(0, k - 1))] * n
    else:
        labels = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    stride = draw(st.integers(1, 3))
    values = draw(st.lists(coordinates, min_size=n * stride * d, max_size=n * stride * d))
    base = np.array(values, dtype=np.float64).reshape(n * stride, d)
    if draw(st.booleans()):
        base = pickle.loads(pickle.dumps(base))
    return base[::stride], np.array(labels, dtype=np.intp), k


def assert_same_bytes(points: np.ndarray, labels: np.ndarray, k: int) -> None:
    sums, counts = cluster_sums(point_block(points), labels, k)
    ref_sums, ref_counts = add_at_reference(points, labels, k)
    assert sums.dtype == ref_sums.dtype and sums.shape == ref_sums.shape
    assert counts.dtype == ref_counts.dtype and counts.shape == ref_counts.shape
    assert sums.tobytes() == ref_sums.tobytes()
    assert counts.tobytes() == ref_counts.tobytes()


@given(case=blocks())
@example(case=(np.zeros((0, 3)), np.zeros(0, dtype=np.intp), 4))  # n = 0
@example(case=(np.array([[1.5, -2.0]]), np.array([2]), 5))  # one point
@example(case=(np.array([[1e16, 1.0], [1.0, 1e-16], [-1e16, 3.0]]), np.array([0, 0, 0]), 1))
@settings(max_examples=150, deadline=None)
def test_cluster_sums_matches_add_at_bytes(case):
    assert_same_bytes(*case)


def test_unpickled_strided_block_matches_add_at_bytes():
    rng = np.random.default_rng(7)
    base = pickle.loads(pickle.dumps(rng.normal(scale=1e3, size=(2000, 8))))
    assert base.dtype is not np.dtype(np.float64)  # the non-canonical instance
    block = base[1::3]
    labels = rng.integers(0, 6, size=block.shape[0])
    labels[labels == 4] = 5  # leave cluster 4 empty
    assert_same_bytes(block, labels, 6)
