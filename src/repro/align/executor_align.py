"""The tile plan every parallel align model shares, and the executor model.

The DP matrix is cut into square tiles of side ``tile``, and tiles on
the same **tile anti-diagonal** are independent — each tile's
dependencies (its up, left, and up-left neighbour tiles) live on
earlier tile diagonals. :func:`tile_diagonals` is that plan,
:func:`tile_bounds` a tile's cells and :func:`sweep_tiles` the one tile
sweep. The OpenMP model splits each tile diagonal's tiles across its
team, the MPI model sweeps its row block by column blocks of the same
width, and the executor model below farms each tile diagonal over
:mod:`repro.core.executor` workers with one ``map`` per diagonal (the
map return is the wavefront barrier). All three default to
:data:`DEFAULT_TILE`.

The data plane is communication-avoiding, exactly like the k-means
executor model: both sequence code arrays are *published* once through
:meth:`Executor.publish` (read-only shared-memory segments on the
process backend), and the score matrix is a single ``writable=True``
published segment that every tile task updates in place over disjoint
cell ranges. What crosses the process boundary per task is a tile
coordinate out and a match count back — ``O(1)`` bytes however large the
matrix is.

Because each cell is a pure integer function of its predecessors, the
finished matrix is independent of tile size, worker count, and backend
— bit-identical to the sequential oracle, which is what
``tests/integration/test_model_conformance.py`` asserts across
``serial``/``thread``/``process``.
"""

from __future__ import annotations

import functools
from typing import Iterable, Sequence

import numpy as np

from repro.align.scoring import (
    AlignResult,
    ScoringScheme,
    band_rows,
    build_result,
    check_band,
    encode_sequence,
    init_matrix,
    sweep_rows,
)
from repro.core.executor import BACKENDS, DataRef, Executor, get_executor
from repro.trace.tracer import get_tracer
from repro.util.validation import require_positive_int

__all__ = ["DEFAULT_TILE", "align_executor", "sweep_tiles", "tile_bounds", "tile_diagonals"]

#: Tile side of every parallel align model unless the caller picks one.
DEFAULT_TILE = 32


def tile_diagonals(
    n: int, m: int, tile: int, band: int | None
) -> list[list[tuple[int, int]]]:
    """Tile coordinates grouped by anti-diagonal, band-pruned.

    Tile ``(ti, tj)`` covers interior rows ``1 + ti*tile ..`` and
    columns ``1 + tj*tile ..``; diagonal ``td = ti + tj``. Tiles whose
    whole extent lies outside the band are dropped (their cells keep the
    sentinel), so a narrow band costs ``O(n * band)`` work, not
    ``O(n * m)``.
    """
    nt_i = -(-n // tile)
    nt_j = -(-m // tile)
    return [
        [
            (ti, td - ti)
            for ti in range(max(0, td - nt_j + 1), min(nt_i - 1, td) + 1)
            if band_rows(*tile_bounds(ti, td - ti, tile, n, m), band)  # meets the band
        ]
        for td in range(nt_i + nt_j - 1)
    ]


def tile_bounds(ti: int, tj: int, tile: int, n: int, m: int) -> tuple[int, int, int, int]:
    """Tile ``(ti, tj)``'s interior rows ``i0..i1`` and columns ``j0..j1``, inclusive."""
    i0 = 1 + ti * tile
    j0 = 1 + tj * tile
    return i0, min(n, i0 + tile - 1), j0, min(m, j0 + tile - 1)


def sweep_tiles(
    rows: list[list[int]], a: Sequence[int], b: Sequence[int],
    blocks: Iterable[tuple[int, int, int, int]], band: int | None, scheme: ScoringScheme,
    san=None, origin: tuple[int, int] = (0, 0),
) -> tuple[int, tuple[int, int, int]]:
    """Sweep the in-band row spans of each block ``(i0, i1, j0, j1)`` in turn, row-major.

    Bounds are matrix coordinates; ``rows``, ``a`` and ``b`` may be a
    block copied out at ``origin``, which the sweep then addresses in
    local coordinates. Every predecessor outside the current block must
    already be final. Returns :func:`~repro.align.scoring.sweep_rows`'
    ``(match_events, best)`` over all the blocks.
    """
    spans = [span for bounds in blocks for span in band_rows(*bounds, band, origin)]
    return sweep_rows(rows, a, b, spans, scheme, san)


def _tile_task(
    a_ref: DataRef, b_ref: DataRef, h_ref: DataRef, scheme: ScoringScheme, band: int | None,
    tile: int, shape: tuple[int, int], _index: int, coord: tuple[int, int],
) -> int:
    """One pooled tile: read shared predecessors, write shared scores.

    Module-level (bound with :func:`functools.partial`) so the payload
    pickles and the process backend keeps its persistent pool. The tile
    and its halo row and column are copied out in one ``tolist()``,
    swept row-major in local coordinates (the per-diagonal map barrier
    finished every inter-tile dependency), and written back in one
    slice. Returns the tile's match events.
    """
    n, m = shape
    i0, i1, j0, j1 = bounds = tile_bounds(*coord, tile, n, m)
    H = h_ref.array()
    rows = H[i0 - 1 : i1 + 1, j0 - 1 : j1 + 1].tolist()
    events, _ = sweep_tiles(
        rows, a_ref.array()[i0 - 1 : i1].tolist(), b_ref.array()[j0 - 1 : j1].tolist(),
        [bounds], band, scheme, origin=(i0 - 1, j0 - 1),
    )
    H[i0 : i1 + 1, j0 : j1 + 1] = np.asarray(rows, dtype=np.int64)[1:, 1:]
    return events


def align_executor(
    a: str | np.ndarray,
    b: str | np.ndarray,
    *,
    scheme: ScoringScheme | None = None,
    band: int | None = None,
    num_workers: int = 4,
    backend: "str | Executor" = "thread",
    tile: int = DEFAULT_TILE,
) -> AlignResult:
    """Tiled wavefront alignment over an executor backend.

    ``tile`` fixes the decomposition (and thus the task set)
    independently of ``backend`` and ``num_workers``; the integer
    arithmetic makes the finished matrix identical regardless.
    ``backend`` also accepts a live :class:`Executor` — pass a warm
    :class:`ProcessExecutor` to amortize its pool across calls (the
    executor is then the caller's to close).
    """
    scheme = scheme or ScoringScheme()
    if not isinstance(backend, Executor) and backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    require_positive_int("num_workers", num_workers)
    require_positive_int("tile", tile)
    a_codes = encode_sequence(a)
    b_codes = encode_sequence(b)
    n = a_codes.shape[0]
    m = b_codes.shape[0]
    check_band(n, m, band, scheme.mode)

    waves = tile_diagonals(n, m, tile, band)
    owns_executor = not isinstance(backend, Executor)
    executor = get_executor(backend, num_workers)
    backend_name = executor.name
    tracer = get_tracer()
    stride = max(1, len(waves) // 16)

    a_ref = b_ref = h_ref = None
    try:
        a_ref = executor.publish(a_codes)
        b_ref = executor.publish(b_codes)
        h_ref = executor.publish(init_matrix(n, m, scheme, band), writable=True)
        task = functools.partial(_tile_task, a_ref, b_ref, h_ref, scheme, band, tile, (n, m))
        with tracer.span(
            "align.score", category="align", model="executor",
            backend=backend_name, tile=tile, num_workers=num_workers,
        ):
            for td, wave in enumerate(waves):
                if not wave:
                    continue
                events = executor.map(task, wave)  # the wavefront barrier
                if tracer.enabled and td % stride == 0:
                    tracer.instant(
                        "align.diagonal", category="align", model="executor",
                        d=td, tiles=len(wave), match_events=int(sum(events)),
                    )
        H = np.array(h_ref.array())  # outlive the segment
        if tracer.enabled:
            tracer.metrics.counter("align.tiles", model="executor").inc(sum(map(len, waves)))
            tracer.metrics.counter("align.alignments", model="executor").inc()
    finally:
        for ref in (h_ref, b_ref, a_ref):
            if ref is not None:
                executor.unpublish(ref)
        if owns_executor:
            executor.close()

    return build_result(H, a_codes, b_codes, scheme, band)
