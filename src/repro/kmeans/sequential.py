"""The sequential K-means starter program, and the loop every model shares.

Mirrors the structure of the Valladolid handout (paper §3): static
arrays, a two-phase main loop —

  phase 1: re-assign each point to its closest centroid, counting
           cluster changes (the write/update race once parallelized);
  phase 2: recompute each centroid as the mean of its points, i.e.
           per-cluster coordinate sums and member counts (the second
           race, plus the load-balance discussion);

— and a three-threshold termination check. The parallel models change
only *who* does phase 1 and the phase-2 partials and *how* the partials
merge, so everything else lives here once and they all call it:

- :func:`start_centroids` — input validation and the starting centroids;
- :func:`point_block` — a :class:`PointBlock`, the points of a block
  with the per-point terms both kernels need, prepared once per run;
- :func:`assign_points` — the distance/argmin kernel, on any block;
- :func:`cluster_sums` — the per-cluster sums and counts of a block;
- :func:`lloyd` — the iterate/update/stop loop around a model's merged
  ``step``, with the histories and the ``kmeans.iteration`` trace; its
  :class:`Lloyd` state builds the :class:`KMeansResult`.

A :class:`PointBlock` holds what never changes between iterations: the
points, their squared norms (the ``||x||²`` term of every distance) and
the coordinate columns as contiguous rows (the ``np.bincount`` weights
of phase 2). A model builds its blocks once per run — one per thread,
rank, grid block or call — and every iteration reuses them. The kernels
run the same operations on the same values in the same order as the
inline expressions they replace, so no output moves by a bit: the norms
are computed on the caller's array as given (``einsum``'s summation
order follows the memory layout), the block keeps that array's row or
column order for the product with the centroids (BLAS rounds the two
differently), and a bin's sum still adds its points in point order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from repro.kmeans.initialization import init_random_points
from repro.kmeans.termination import TerminationCriteria
from repro.trace.tracer import Tracer, get_tracer
from repro.util.validation import require_positive_int

__all__ = [
    "KMeansResult",
    "Lloyd",
    "PointBlock",
    "point_block",
    "assign_points",
    "cluster_sums",
    "update_centroids",
    "start_centroids",
    "lloyd",
    "kmeans_sequential",
]


@dataclass
class KMeansResult:
    """Everything the assignment asks students to report."""

    centroids: np.ndarray
    assignments: np.ndarray
    iterations: int
    stop_reason: str
    inertia: float
    changes_history: list[int] = field(default_factory=list)
    shift_history: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class PointBlock:
    """A block of points with the per-point terms of both kernels.

    ``points`` is ``(n, d)``, ``norms`` the ``(n, 1)`` squared norms and
    ``columns`` the ``(d, n)`` coordinates, one contiguous row per
    dimension. All three are views into one float64 ``buffer`` —
    points, then norms, then columns — so a block publishes as one
    shared-memory segment and :meth:`from_buffer` rebuilds it on the
    other side. ``block[lo:hi]`` is rows ``lo..hi`` (``columns[:,
    lo:hi]``), still views into the same buffer.
    """

    points: np.ndarray
    norms: np.ndarray
    columns: np.ndarray
    buffer: np.ndarray

    @classmethod
    def from_buffer(cls, buffer: np.ndarray, shape: tuple[int, int], order: str) -> "PointBlock":
        """The views of an ``(n, d)`` block laid out in ``buffer``.

        ``order`` is the memory order of the points region: ``"F"``
        when the block was made from a Fortran-ordered array, else
        ``"C"``.
        """
        n, d = shape
        return cls(
            buffer[: n * d].reshape(shape, order=order),
            buffer[n * d : n * (d + 1)].reshape(n, 1),
            buffer[n * (d + 1) :].reshape(d, n),
            buffer,
        )

    @property
    def order(self) -> str:
        """The memory order of the points region, for :meth:`from_buffer`."""
        return _order(self.points)

    def __getitem__(self, rows: slice) -> "PointBlock":
        return PointBlock(self.points[rows], self.norms[rows], self.columns[:, rows], self.buffer)


def _order(points: np.ndarray) -> str:
    return "F" if points.flags.f_contiguous and not points.flags.c_contiguous else "C"


def point_block(points: np.ndarray) -> PointBlock:
    """Prepare ``points`` for the kernels: copy them once, with their norms.

    The norms are computed on ``points`` as given. A Fortran-ordered
    array stays column-major in the block; any other is copied in row
    order.
    """
    points = np.asarray(points, dtype=float)
    n, d = points.shape
    block = PointBlock.from_buffer(np.empty(n * (2 * d + 1)), (n, d), _order(points))
    block.points[...] = points
    block.norms[:, 0] = np.einsum("ij,ij->i", points, points)
    block.columns[...] = points.T
    return block


def assign_points(
    block: PointBlock, centroids: np.ndarray, assignments: np.ndarray
) -> tuple[np.ndarray, int]:
    """Phase 1 on a block: new assignments and the change count.

    Vectorized distance argmin over ``||x||² - 2 x·c + ||c||²``; ties go
    to the lowest cluster index (numpy argmin convention), matching a
    naive ``<`` scan in C.
    """
    d2 = (
        block.norms
        - 2.0 * block.points @ centroids.T
        + np.einsum("ij,ij->i", centroids, centroids)[None, :]
    )
    new_assignments = np.argmin(d2, axis=1)
    changes = int(np.count_nonzero(new_assignments != assignments))
    return new_assignments, changes


def cluster_sums(
    block: PointBlock, labels: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Phase 2 partials on a block: per-cluster sums and member counts.

    One ``np.bincount`` per dimension, over that dimension's contiguous
    row of ``block.columns``, gives the sums and one more the counts.
    Each bin starts at zero and adds its points in point order, so a
    fixed blocking merged in a fixed order gives a fixed float result —
    the same bytes as ``np.add.at``. ``add.at`` is 3-4x slower on a
    2000 x 8 block, and over 10x slower on one unpickled from an MPI
    rank or a pool worker, whose non-canonical ``float64`` dtype sends
    it down a slow path.
    """
    columns = block.columns
    sums = np.empty((k, columns.shape[0]))
    for j, column in enumerate(columns):
        sums[:, j] = np.bincount(labels, weights=column, minlength=k)
    return sums, np.bincount(labels, minlength=k)


def _means(sums: np.ndarray, counts: np.ndarray, old_centroids: np.ndarray) -> np.ndarray:
    """Per-cluster means; empty clusters keep their old centroid."""
    new_centroids = old_centroids.copy()
    nonempty = counts > 0
    new_centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
    return new_centroids


def update_centroids(
    points: np.ndarray,
    assignments: np.ndarray,
    k: int,
    old_centroids: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Phase 2: per-cluster sums/counts and the resulting means.

    Returns (new_centroids, sums, counts). Empty clusters keep their old
    centroid (the conventional fix; the starter code's behaviour).
    """
    sums, counts = cluster_sums(point_block(points), assignments, k)
    return _means(sums, counts, old_centroids), sums, counts


def compute_inertia(points: np.ndarray, centroids: np.ndarray, assignments: np.ndarray) -> float:
    """Sum of squared distances of points to their assigned centroid."""
    diffs = points - centroids[assignments]
    return float(np.einsum("ij,ij->", diffs, diffs))


def start_centroids(
    points: np.ndarray,
    k: int,
    *,
    seed: int = 0,
    initial_centroids: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Validate the input and pick the starting centroids.

    Returns ``(points, centroids)`` with ``points`` as a float array.
    ``initial_centroids`` overrides the seeded choice — the hook every
    model uses to start from identical state.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError("points must be a non-empty 2-D array")
    require_positive_int("k", k)
    if initial_centroids is None:
        return points, init_random_points(points, k, seed)
    centroids = np.asarray(initial_centroids, dtype=float).copy()
    if centroids.shape != (k, points.shape[1]):
        raise ValueError(
            f"initial_centroids must be {(k, points.shape[1])}, got {centroids.shape}"
        )
    return points, centroids


class Lloyd(NamedTuple):
    """Where :func:`lloyd` stands after an iteration.

    ``stop_reason`` is None while the loop is still going (what an
    ``after`` hook sees on every iteration but the last).
    """

    centroids: np.ndarray
    iterations: int
    stop_reason: str | None
    changes_history: list[int]
    shift_history: list[float]

    def result(self, points: np.ndarray, assignments: np.ndarray) -> KMeansResult:
        """The finished run as a :class:`KMeansResult`, inertia included."""
        return KMeansResult(
            centroids=self.centroids,
            assignments=assignments,
            iterations=self.iterations,
            stop_reason=self.stop_reason,
            inertia=compute_inertia(points, self.centroids, assignments),
            changes_history=self.changes_history,
            shift_history=self.shift_history,
        )


def lloyd(
    step: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, int]],
    centroids: np.ndarray,
    criteria: TerminationCriteria | None,
    *,
    model: str,
    tracer: Tracer,
    iteration: int = 0,
    changes_history: list[int] | None = None,
    shift_history: list[float] | None = None,
    after: Callable[[Lloyd], None] | None = None,
) -> Lloyd:
    """The clustering loop every model runs; only ``step`` is parallel.

    ``step(centroids)`` does phase 1 and the phase-2 partials however
    the model distributes them, and returns the merged ``(sums, counts,
    changes)``. This loop takes the means, records both histories,
    traces the iteration (``kmeans.iteration`` plus the
    ``{model}``-labelled metrics) and stops on ``criteria``. A resumed
    run passes the ``iteration`` it had completed and its histories;
    ``after`` sees the state at the end of every iteration.
    """
    criteria = criteria or TerminationCriteria()
    changes_history = [] if changes_history is None else changes_history
    shift_history = [] if shift_history is None else shift_history
    while True:
        iteration += 1
        sums, counts, changes = step(centroids)
        new_centroids = _means(sums, counts, centroids)
        max_shift = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        changes_history.append(changes)
        shift_history.append(max_shift)
        if tracer.enabled:
            tracer.instant(
                "kmeans.iteration", category="kmeans", iteration=iteration, changes=changes
            )
            tracer.metrics.histogram("kmeans.iteration_shift", model=model).observe(max_shift)
            tracer.metrics.counter("kmeans.iterations", model=model).inc()
        reason = criteria.reason_to_stop(iteration, changes, max_shift)
        state = Lloyd(centroids, iteration, reason, changes_history, shift_history)
        if after is not None:
            after(state)
        if state.stop_reason is not None:
            return state


def kmeans_sequential(
    points: np.ndarray,
    k: int,
    *,
    seed: int = 0,
    criteria: TerminationCriteria | None = None,
    initial_centroids: np.ndarray | None = None,
) -> KMeansResult:
    """The reference clustering run: both phases over the whole array."""
    points, centroids = start_centroids(points, k, seed=seed, initial_centroids=initial_centroids)
    block = point_block(points)
    assignments = np.full(points.shape[0], -1, dtype=np.int64)

    def step(centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        nonlocal assignments
        assignments, changes = assign_points(block, centroids, assignments)
        return (*cluster_sums(block, assignments, k), changes)

    run = lloyd(step, centroids, criteria, model="sequential", tracer=get_tracer())
    return run.result(points, assignments)
