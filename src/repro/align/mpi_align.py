"""MPI-model wavefront alignment: block rows, a pipelined strip exchange.

The distributed-memory step of the alignment assignment. Rank ``r``
owns interior rows ``lo+1 .. hi`` (:func:`~repro.util.partition.block_bounds`
over the ``n`` rows) and sweeps them in **column blocks** ``j0 .. j1``
of width ``tile`` with :func:`~repro.align.executor_align.sweep_tiles`.
The only cross-rank dependency is row ``lo``, rank ``r-1``'s last row,
which rank ``r``'s first row reads. So before a block a rank receives
row ``lo``'s strip over the block's columns from upstream (up to
``tile`` cells, tagged with the block index), and after it sends its
last row's strip downstream. Rank ``r`` sweeps block ``c`` while rank
``r+1`` sweeps block ``c-1``: a pipelined wavefront with one message
per column block and rank pair, not one per cell anti-diagonal.

Sender and receiver decide with the *same* predicate — "row ``hi``
(resp. ``lo``) has in-band cells in columns ``j0 .. j1``", the strip
being exactly those cells — on values every rank knows (``m``,
``band``, ``tile``, the row partition). The pairing can never mismatch
and, sends being buffered, the receive-sweep-send step is
deadlock-free by construction.

Fault tolerance mirrors the k-means design (docs/fault_tolerance.md):
with an :class:`AlignCheckpoint`, rank 0 gathers the matrix every
``checkpoint_every`` column blocks and records ``(block, matrix)``; a
relaunched world restores it, skips the completed blocks and — the
arithmetic being integer — finishes bit-identical to a fault-free run.
``tests/align/test_align_faults.py`` holds it to that under crash and
straggler plans.
"""

from __future__ import annotations

import functools
import threading
from contextlib import nullcontext

import numpy as np

from repro.align.executor_align import DEFAULT_TILE, sweep_tiles
from repro.align.scoring import (
    AlignResult,
    ScoringScheme,
    build_result,
    check_band,
    encode_sequence,
    init_matrix,
)
from repro.mpi import Communicator, run_spmd
from repro.util.partition import block_bounds
from repro.util.validation import require_positive_int

__all__ = ["align_mpi", "run_align_mpi", "AlignCheckpoint"]

#: User tag space for halo messages: tag = _TAG_HALO_BASE + column block.
_TAG_HALO_BASE = 0


class AlignCheckpoint:
    """Column-block checkpoint for :func:`align_mpi` (in-memory stand-in for a file).

    Holds the matrix as of the last *checkpointed* column block. ``save``
    replaces the whole state atomically under a lock — a world dying
    mid-save at worst leaves the previous checkpoint, never a torn one
    (the write-temp-then-rename discipline of real checkpoint files).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._state: tuple[int, np.ndarray] | None = None
        #: Column-block width of the run that saved the state (None: not given).
        self.tile: int | None = None

    @property
    def block(self) -> int:
        """Column blocks completed at the last checkpoint (0 = nothing recorded)."""
        with self._lock:
            return 0 if self._state is None else self._state[0]

    def has_state(self) -> bool:
        """True once at least one column block has been recorded."""
        with self._lock:
            return self._state is not None

    def save(self, block: int, matrix: np.ndarray, tile: int | None = None) -> None:
        """Atomically record the matrix after ``block`` column blocks of width ``tile``."""
        state = (block, np.array(matrix, copy=True))
        with self._lock:
            self._state = state
            self.tile = tile

    def restore(self) -> tuple[int, np.ndarray]:
        """A copy of the recorded state; raises if nothing was saved."""
        with self._lock:
            if self._state is None:
                raise ValueError("checkpoint is empty — nothing to restore")
            block, matrix = self._state
            return block, matrix.copy()


def _strip(row: int, j0: int, j1: int, band: int | None) -> slice | None:
    """The shared send/recv predicate: row ``row``'s in-band columns in ``j0..j1``.

    None when there are none. Sender (last owned row) and receiver (halo
    row) evaluate it on the same ``row``, so every send has exactly one
    matching receive of the same length.
    """
    if band is not None:
        j0, j1 = max(j0, row - band), min(j1, row + band)
    return slice(j0, j1 + 1) if j0 <= j1 else None


def align_mpi(
    comm: Communicator,
    a: str | np.ndarray | None,
    b: str | np.ndarray | None,
    *,
    scheme: ScoringScheme | None = None,
    band: int | None = None,
    tile: int = DEFAULT_TILE,
    checkpoint: AlignCheckpoint | None = None,
    checkpoint_every: int = 8,
) -> AlignResult | None:
    """SPMD wavefront alignment: call from every rank; sequences on root only.

    Returns the full :class:`AlignResult` on rank 0, None elsewhere.
    ``tile`` is the column-block width. With a ``checkpoint``, rank 0
    gathers and records the matrix every ``checkpoint_every`` completed
    column blocks; a world started with a non-empty checkpoint resumes
    after the recorded block instead of recomputing — the restart path
    for a run killed by a fault.
    """
    require_positive_int("tile", tile)
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
            if checkpoint.tile not in (None, tile):  # block counts are in tile widths
                raise ValueError(f"checkpoint saved at tile={checkpoint.tile}, not {tile}")
        else:
            state = None
        # Bundled for the same delay-reordering reason as the input bcast.
        start_block, H = comm.bcast(state, root=0)
    else:
        start_block = 0
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
    num_blocks = -(-m // tile)
    stride = max(1, num_blocks // 32)
    exchanges = 0
    with tracer.span(
        "align.score", category="align", model="mpi", rank=rank, size=size, tile=tile
    ):
        for c in range(start_block, num_blocks):
            j0 = 1 + c * tile
            j1 = min(m, j0 + tile - 1)
            # Pull the halo row's strip from upstream, sweep the block,
            # push the last owned row's strip downstream.
            halo = _strip(halo_row, j0, j1, band) if rank > 0 else None
            out = _strip(last_row, j0, j1, band) if rank + 1 < size else None
            traced = enabled and c % stride == 0
            exchange = functools.partial(
                tracer.span, "align.exchange", category="align", model="mpi", rank=rank, block=c
            ) if traced else nullcontext
            if halo:
                with exchange():
                    rows[halo_row][halo] = comm.recv(source=rank - 1, tag=_TAG_HALO_BASE + c)
            sweep_tiles(rows, a_list, b_list, [(first_row, last_row, j0, j1)], band, scheme)
            if out:
                with exchange():
                    comm.send(rows[last_row][out], dest=rank + 1, tag=_TAG_HALO_BASE + c)
            exchanges += (halo is not None) + (out is not None)

            # Periodic checkpoint: the completed rows land on rank 0
            # before anyone can die on a later block.
            done = c + 1
            if checkpoint is not None and (done % checkpoint_every == 0 or done == num_blocks):
                full = gathered()
                if rank == 0:
                    checkpoint.save(done, full, tile)

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
    tile: int = DEFAULT_TILE,
    faults=None,
    timeout: float = 60.0,
    **kwargs,
) -> AlignResult:
    """Launcher: run :func:`align_mpi` on ``num_ranks`` ranks, return root's result.

    ``tile`` is every rank's column-block width; ``faults``/``timeout``
    go to the runtime (fault-injection runs); remaining keyword
    arguments go to :func:`align_mpi` — including ``checkpoint``, which
    is how a relaunch after a fault resumes.
    """

    def program(comm: Communicator) -> AlignResult | None:
        if comm.rank == 0:
            return align_mpi(comm, a, b, tile=tile, **kwargs)
        return align_mpi(comm, None, None, tile=tile, **kwargs)

    return run_spmd(num_ranks, program, faults=faults, timeout=timeout)[0]
