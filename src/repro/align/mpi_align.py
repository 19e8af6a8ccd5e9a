"""MPI-model wavefront alignment: block rows, per-diagonal halo exchange.

The distributed-memory step of the alignment assignment. Rows of the DP
matrix are block-distributed: rank ``r`` owns interior rows
``lo+1 .. hi`` (from :func:`~repro.util.partition.block_bounds` over the
``n`` interior rows) and computes their cells diagonal by diagonal. The
only cross-rank dependency is the **last owned row**: rank ``r``'s rows
read row ``lo`` — rank ``r-1``'s last row — as their up/diagonal
predecessors. So after computing anti-diagonal ``d`` each rank sends the
single cell ``(hi, d - hi)`` downstream and receives its halo cell
``(lo, d - lo)`` from upstream, tagged with ``d``.

Send and receive are governed by the *same* deterministic predicate —
"row ``hi`` (resp. ``lo``) has a cell on diagonal ``d`` with
``0 <= j <= m``, inside the band" — evaluated from values every rank
already knows (``n``, ``m``, ``band``, the row partition), so the
pairing can never mismatch and, because sends are buffered, the
send-then-receive step is deadlock-free by construction.

Fault tolerance mirrors the k-means design (docs/fault_tolerance.md):
pass an :class:`AlignCheckpoint` and rank 0 periodically gathers the
completed row blocks and records ``(diagonal, matrix)``; a relaunched
world restores the matrix, fast-forwards to the first unfinished
diagonal, and — the arithmetic being integer — finishes bit-identical
to a fault-free run. ``tests/align/test_align_faults.py`` holds it to
that under crash and straggler plans.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext

import numpy as np

from repro.align.scoring import (
    AlignResult,
    ScoringScheme,
    build_result,
    check_band,
    diagonal_cells,
    diagonal_row_range,
    encode_sequence,
    in_band,
    init_matrix,
    sweep_cells,
)
from repro.mpi import Communicator, run_spmd
from repro.util.partition import block_bounds

__all__ = ["align_mpi", "run_align_mpi", "AlignCheckpoint"]

#: User tag space for halo messages: tag = _TAG_HALO_BASE + diagonal.
_TAG_HALO_BASE = 0


class AlignCheckpoint:
    """Diagonal checkpoint for :func:`align_mpi` (in-memory stand-in for a file).

    Holds the matrix as of the last *checkpointed* diagonal. ``save``
    replaces the whole state atomically under a lock — a world dying
    mid-save at worst leaves the previous checkpoint, never a torn one
    (the write-temp-then-rename discipline of real checkpoint files).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._state: tuple[int, np.ndarray] | None = None

    @property
    def diagonal(self) -> int:
        """Last checkpointed anti-diagonal (0 = nothing recorded)."""
        with self._lock:
            return 0 if self._state is None else self._state[0]

    def has_state(self) -> bool:
        """True once at least one diagonal has been recorded."""
        with self._lock:
            return self._state is not None

    def save(self, diagonal: int, matrix: np.ndarray) -> None:
        """Atomically record the matrix after completing ``diagonal``."""
        state = (diagonal, np.array(matrix, copy=True))
        with self._lock:
            self._state = state

    def restore(self) -> tuple[int, np.ndarray]:
        """A copy of the recorded state; raises if nothing was saved."""
        with self._lock:
            if self._state is None:
                raise ValueError("checkpoint is empty — nothing to restore")
            diagonal, matrix = self._state
            return diagonal, matrix.copy()


def _halo_exists(row: int, d: int, m: int, band: int | None) -> bool:
    """The shared send/recv predicate: does row ``row`` have a cell on ``d``?

    True when ``(row, d - row)`` is a real matrix cell inside the band.
    Sender (last owned row) and receiver (halo row) evaluate it on the
    same ``row`` value, so every send has exactly one matching receive.
    """
    j = d - row
    return 0 <= j <= m and in_band(row, j, band)


def align_mpi(
    comm: Communicator,
    a: str | np.ndarray | None,
    b: str | np.ndarray | None,
    *,
    scheme: ScoringScheme | None = None,
    band: int | None = None,
    checkpoint: AlignCheckpoint | None = None,
    checkpoint_every: int = 8,
) -> AlignResult | None:
    """SPMD wavefront alignment: call from every rank; sequences on root only.

    Returns the full :class:`AlignResult` on rank 0, None elsewhere.
    With a ``checkpoint``, rank 0 gathers and records the matrix every
    ``checkpoint_every`` completed diagonals; a world started with a
    non-empty checkpoint resumes from the recorded diagonal instead of
    recomputing — the restart path for a run killed by a fault.
    """
    scheme = scheme or ScoringScheme()
    rank, size = comm.rank, comm.size
    tracer = comm.tracer

    # --- one-time distribution of the input (collective bcast) ---------
    if rank == 0:
        a_codes = encode_sequence(a)
        b_codes = encode_sequence(b)
        check_band(a_codes.shape[0], b_codes.shape[0], band, scheme.mode)
    else:
        a_codes = b_codes = None
    # Single bcast for both sequences: under injected delay faults the
    # runtime delivers via timers, so two back-to-back broadcasts (same
    # reserved tag) can arrive reordered and a rank would compute with
    # a and b swapped. One message cannot be reordered with itself.
    a_codes, b_codes = comm.bcast(
        (a_codes, b_codes) if rank == 0 else None, root=0
    )
    n = a_codes.shape[0]
    m = b_codes.shape[0]
    if n < size:
        # Raised consistently on every rank (post-bcast), so no rank can
        # hang waiting for a peer that bailed out early.
        raise ValueError(
            f"align_mpi needs at least one interior row per rank: n={n} < size={size}"
        )

    lo, hi = block_bounds(n, size, rank)  # interior rows lo+1 .. hi (1-indexed)
    first_row = lo + 1
    last_row = hi
    halo_row = lo  # owned by rank-1 (row 0 is the init boundary)
    a_list = a_codes.tolist()
    b_list = b_codes.tolist()

    restored = checkpoint is not None and checkpoint.has_state()
    if restored:
        if rank == 0:
            state = checkpoint.restore()
            if state[1].shape != (n + 1, m + 1):
                raise ValueError(
                    f"checkpoint matrix must be {(n + 1, m + 1)}, got {state[1].shape}"
                )
        else:
            state = None
        # Bundled for the same delay-reordering reason as the input bcast.
        start_d, H = comm.bcast(state, root=0)
    else:
        start_d = 1  # diagonal 1 is pure boundary; the loop starts past it
        H = init_matrix(n, m, scheme, band)
    rows = H.tolist()

    def gathered() -> np.ndarray | None:
        """The matrix of every rank's completed rows on rank 0 (collective)."""
        blocks = comm.gather(rows[first_row : last_row + 1], root=0)
        if rank != 0:
            return None
        full = list(rows)
        for r, block in enumerate(blocks):
            r_lo, r_hi = block_bounds(n, size, r)
            full[r_lo + 1 : r_hi + 1] = block
        return np.asarray(full, dtype=np.int64)

    enabled = tracer.enabled
    stride = max(1, (n + m) // 32)
    exchanges = 0
    with tracer.span("align.score", category="align", model="mpi", rank=rank, size=size):
        for d in range(start_d + 1, n + m + 1):
            # Compute this rank's share of anti-diagonal d.
            ilo, ihi = diagonal_row_range(d, n, m, band)
            sweep_cells(
                rows, a_list, b_list,
                diagonal_cells(d, max(ilo, first_row), min(ihi, last_row)), scheme,
            )

            # Halo exchange: push the last owned row's cell downstream,
            # pull the halo row's cell from upstream (send first —
            # buffered sends make the step deadlock-free).
            with tracer.span(
                "align.exchange", category="align", model="mpi", rank=rank, d=d
            ) if enabled and d % stride == 0 else nullcontext():
                if rank + 1 < size and _halo_exists(last_row, d, m, band):
                    comm.send(rows[last_row][d - last_row], dest=rank + 1,
                              tag=_TAG_HALO_BASE + d)
                    exchanges += 1
                if rank > 0 and _halo_exists(halo_row, d, m, band):
                    rows[halo_row][d - halo_row] = comm.recv(
                        source=rank - 1, tag=_TAG_HALO_BASE + d
                    )
                    exchanges += 1
            if enabled and rank == 0 and d % stride == 0:
                tracer.instant("align.diagonal", category="align", model="mpi", d=d)

            # Periodic checkpoint: the completed rows land on rank 0
            # before anyone can die on a later diagonal.
            if checkpoint is not None and (d % checkpoint_every == 0 or d == n + m):
                full = gathered()
                if rank == 0:
                    checkpoint.save(d, full)

    if enabled:
        tracer.metrics.counter("align.exchanges", model="mpi", rank=rank).inc(exchanges)

    # --- gather the matrix back to root (collective gather) ------------
    H = gathered()
    if rank != 0:
        return None
    if enabled:
        tracer.metrics.counter("align.alignments", model="mpi").inc()
    return build_result(H, a_codes, b_codes, scheme, band)


def run_align_mpi(
    num_ranks: int,
    a: str | np.ndarray,
    b: str | np.ndarray,
    *,
    faults=None,
    timeout: float = 60.0,
    **kwargs,
) -> AlignResult:
    """Launcher: run :func:`align_mpi` on ``num_ranks`` ranks, return root's result.

    ``faults``/``timeout`` go to the runtime (fault-injection runs);
    remaining keyword arguments go to :func:`align_mpi` — including
    ``checkpoint``, which is how a relaunch after a fault resumes.
    """

    def program(comm: Communicator) -> AlignResult | None:
        if comm.rank == 0:
            return align_mpi(comm, a, b, **kwargs)
        return align_mpi(comm, None, None, **kwargs)

    return run_spmd(num_ranks, program, faults=faults, timeout=timeout)[0]
