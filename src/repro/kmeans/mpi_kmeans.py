"""MPI-model K-means: distributed points, collective reductions.

The assignment's distributed-memory step (paper §3): "the data
structures should be distributed. The initial data and results can be
communicated with collective communication operations. Students who
reach the fourth step in OpenMP … find MPI easier since a distributed
reduction is needed in any case."

Phase structure per iteration:

1. root broadcasts the current centroids (``bcast``);
2. each rank assigns its own block of points (scattered once, up
   front, and prepared once as a
   :class:`~repro.kmeans.sequential.PointBlock`) and accumulates local
   sums / counts / change count;
3. one ``allreduce`` folds the partials — in rank order, so the result
   is deterministic and equal to the OpenMP reduction variant's.

Steps 2–3 are this model's ``step`` for the shared
:func:`~repro.kmeans.sequential.lloyd` loop, which every rank runs on
the same reduced values; only rank 0 traces it.

For fault tolerance the loop can checkpoint: pass a
:class:`KMeansCheckpoint` and rank 0 records ``(iteration, centroids,
assignments, histories)`` after each completed iteration (the loop's
``after`` hook). A *restarted* world handed the same checkpoint resumes
the loop from the last completed iteration and its histories and —
because the reduction folds in rank order — finishes with centroids
bit-identical to an uninterrupted run of the same world size
(docs/fault_tolerance.md).
"""

from __future__ import annotations

import threading

import numpy as np

from repro.kmeans.sequential import (
    KMeansResult, Lloyd, assign_points, cluster_sums, lloyd, point_block, start_centroids,
)
from repro.kmeans.termination import TerminationCriteria
from repro.mpi import Communicator, run_spmd
from repro.trace.tracer import NULL_TRACER
from repro.util.partition import block_bounds

__all__ = ["kmeans_mpi", "run_kmeans_mpi", "KMeansCheckpoint"]


class KMeansCheckpoint:
    """Iteration checkpoint for :func:`kmeans_mpi` (in-memory stand-in for a file).

    Holds the state of the last *completed* iteration: the iteration
    number, the centroids it produced, the global assignment vector, and
    the per-iteration histories. ``save`` replaces the whole state
    atomically under a lock, so a world that dies mid-save at worst
    leaves the previous iteration's state — never a torn one (the
    write-temp-then-rename discipline of real checkpoint files).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._state: tuple | None = None

    @property
    def iteration(self) -> int:
        """Last completed iteration recorded (0 = nothing recorded)."""
        with self._lock:
            return 0 if self._state is None else self._state[0]

    def has_state(self) -> bool:
        """True once at least one iteration has been recorded."""
        with self._lock:
            return self._state is not None

    def save(
        self,
        iteration: int,
        centroids: np.ndarray,
        assignments: np.ndarray,
        changes_history: list[int],
        shift_history: list[float],
    ) -> None:
        """Atomically record the state after one completed iteration."""
        state = (
            iteration,
            np.array(centroids, copy=True),
            np.array(assignments, copy=True),
            list(changes_history),
            list(shift_history),
        )
        with self._lock:
            self._state = state

    def restore(self) -> tuple[int, np.ndarray, np.ndarray, list[int], list[float]]:
        """Copies of the recorded state; raises if nothing was saved."""
        with self._lock:
            if self._state is None:
                raise ValueError("checkpoint is empty — nothing to restore")
            it, cent, assign, ch, sh = self._state
            return it, cent.copy(), assign.copy(), list(ch), list(sh)


def kmeans_mpi(
    comm: Communicator,
    points: np.ndarray | None,
    k: int,
    *,
    seed: int = 0,
    criteria: TerminationCriteria | None = None,
    initial_centroids: np.ndarray | None = None,
    checkpoint: KMeansCheckpoint | None = None,
) -> KMeansResult | None:
    """SPMD K-means: call from every rank; ``points`` needed on root only.

    Returns the full :class:`KMeansResult` on rank 0, None elsewhere.

    With a ``checkpoint``, rank 0 records every completed iteration's
    state (one extra gather per iteration), and a world started with a
    *non-empty* checkpoint resumes from it instead of initializing —
    the restart path for a run killed by a fault.
    """
    rank, size = comm.rank, comm.size

    # --- one-time distribution of the input (collective scatter) -------
    restored = checkpoint is not None and checkpoint.has_state()
    chunks = assignment_chunks = centroids = None
    iteration = 0
    changes_history: list[int] = []
    shift_history: list[float] = []
    if rank == 0:
        points, centroids = start_centroids(
            points, k, seed=seed, initial_centroids=initial_centroids
        )
        n, d = points.shape
        chunks = [points[slice(*block_bounds(n, size, r))] for r in range(size)]
        if restored:
            iteration, centroids, assignments_g, changes_history, shift_history = (
                checkpoint.restore()
            )
            if centroids.shape != (k, d):
                raise ValueError(
                    f"checkpoint centroids must be {(k, d)}, got {centroids.shape}"
                )
            assignment_chunks = [
                assignments_g[slice(*block_bounds(n, size, r))] for r in range(size)
            ]

    my_block = point_block(comm.scatter(chunks, root=0))
    centroids = comm.bcast(centroids, root=0)
    if restored:
        my_assignments = comm.scatter(assignment_chunks, root=0)
        iteration = comm.bcast(iteration, root=0)
    else:
        my_assignments = np.full(my_block.points.shape[0], -1, dtype=np.int64)

    def step(centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        nonlocal my_assignments
        # Phase 1 and the phase-2 partials on this rank's block, then ONE
        # distributed reduction.
        my_assignments, local_changes = assign_points(my_block, centroids, my_assignments)
        local_sums, local_counts = cluster_sums(my_block, my_assignments, k)
        return comm.allreduce(
            (local_sums, local_counts, local_changes),
            op=lambda a, b: (a[0] + b[0], a[1] + b[1], a[2] + b[2]),
        )

    def save(state: Lloyd) -> None:
        # One extra collective per iteration: the completed state lands
        # on rank 0 before anyone can die in iteration i+1.
        gathered = comm.gather(my_assignments, root=0)
        if rank == 0:
            checkpoint.save(
                state.iterations,
                state.centroids,
                np.concatenate(gathered),
                state.changes_history,
                state.shift_history,
            )

    # Post-allreduce the values are global, so rank 0 speaks for all.
    tracer = comm.tracer if rank == 0 else NULL_TRACER
    run = lloyd(
        step, centroids, criteria, model="mpi", tracer=tracer, iteration=iteration,
        changes_history=changes_history, shift_history=shift_history,
        after=save if checkpoint is not None else None,
    )

    # --- gather results back to root (collective gather) ---------------
    gathered = comm.gather(my_assignments, root=0)
    if rank != 0:
        return None
    return run.result(points, np.concatenate(gathered))


def run_kmeans_mpi(
    num_ranks: int,
    points: np.ndarray,
    k: int,
    *,
    faults=None,
    timeout: float = 60.0,
    **kwargs,
) -> KMeansResult:
    """Launcher: run :func:`kmeans_mpi` on ``num_ranks`` ranks, return root's result.

    ``faults``/``timeout`` go to the runtime (fault-injection runs);
    remaining keyword arguments go to :func:`kmeans_mpi` — including
    ``checkpoint``, which is how a relaunch after a fault resumes.
    """

    def program(comm: Communicator) -> KMeansResult | None:
        return kmeans_mpi(comm, points if comm.rank == 0 else None, k, **kwargs)

    return run_spmd(num_ranks, program, faults=faults, timeout=timeout)[0]
