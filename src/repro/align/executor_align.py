"""Executor-backend alignment: a tiled wavefront over the PR-9 pool.

The accelerator-flavoured rung of the assignment: the DP matrix is cut
into square tiles, and tiles on the same **tile anti-diagonal** are
independent — each tile's dependencies (its up, left, and up-left
neighbour tiles) live on earlier tile diagonals. So the driver sweeps
tile diagonals in order, farming each one's tiles over
:mod:`repro.core.executor` workers with one ``map`` per diagonal (the
map return is the wavefront barrier).

The data plane is communication-avoiding, exactly like the k-means
executor model: both sequence code arrays are *published* once through
:meth:`Executor.publish` (read-only shared-memory segments on the
process backend), and the score matrix is a single ``writable=True``
published segment that every tile task updates in place over disjoint
cell ranges. What crosses the process boundary per task is a tile
coordinate out and a cell count back — ``O(1)`` bytes however large the
matrix is.

Because each cell is a pure integer function of its predecessors, the
finished matrix is independent of tile size, worker count, and backend
— bit-identical to the sequential oracle, which is what
``tests/integration/test_model_conformance.py`` asserts across
``serial``/``thread``/``process``.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.align.scoring import (
    AlignResult,
    ScoringScheme,
    band_cells,
    build_result,
    check_band,
    encode_sequence,
    init_matrix,
    sweep_cells,
)
from repro.core.executor import BACKENDS, DataRef, Executor, get_executor
from repro.trace.tracer import get_tracer
from repro.util.validation import require_positive_int

__all__ = ["align_executor", "tile_diagonals"]


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
    diagonals: list[list[tuple[int, int]]] = []
    for td in range(nt_i + nt_j - 1):
        wave: list[tuple[int, int]] = []
        for ti in range(max(0, td - nt_j + 1), min(nt_i - 1, td) + 1):
            tj = td - ti
            i0 = 1 + ti * tile
            i1 = min(n, i0 + tile - 1)
            j0 = 1 + tj * tile
            j1 = min(m, j0 + tile - 1)
            if any(band_cells(i0, i1, j0, j1, band)):  # the tile meets the band
                wave.append((ti, tj))
        diagonals.append(wave)
    return diagonals


def _tile_task(
    a_ref: DataRef,
    b_ref: DataRef,
    h_ref: DataRef,
    scheme: ScoringScheme,
    band: int | None,
    tile: int,
    shape: tuple[int, int],
    _index: int,
    coord: tuple[int, int],
) -> int:
    """One pooled tile: read shared predecessors, write shared scores.

    Module-level (bound with :func:`functools.partial`) so the payload
    pickles and the process backend keeps its persistent pool. The tile
    and its halo row and column are copied out in one ``tolist()``,
    swept row-major in local coordinates (the per-diagonal map barrier
    finished every inter-tile dependency), and written back in one
    slice. Returns the number of in-band cells it computed.
    """
    n, m = shape
    ti, tj = coord
    H = h_ref.array()
    i0 = 1 + ti * tile
    i1 = min(n, i0 + tile - 1)
    j0 = 1 + tj * tile
    j1 = min(m, j0 + tile - 1)
    rows = H[i0 - 1 : i1 + 1, j0 - 1 : j1 + 1].tolist()
    cells = list(band_cells(i0, i1, j0, j1, band, origin=(i0 - 1, j0 - 1)))
    sweep_cells(
        rows, a_ref.array()[i0 - 1 : i1].tolist(), b_ref.array()[j0 - 1 : j1].tolist(),
        cells, scheme,
    )
    H[i0 : i1 + 1, j0 : j1 + 1] = np.asarray(rows, dtype=np.int64)[1:, 1:]
    return len(cells)


def align_executor(
    a: str | np.ndarray,
    b: str | np.ndarray,
    *,
    scheme: ScoringScheme | None = None,
    band: int | None = None,
    num_workers: int = 4,
    backend: "str | Executor" = "thread",
    tile: int = 32,
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
        task = functools.partial(
            _tile_task, a_ref, b_ref, h_ref, scheme, band, tile, (n, m)
        )
        tiles_done = 0
        with tracer.span(
            "align.score", category="align", model="executor",
            backend=backend_name, tile=tile, num_workers=num_workers,
        ):
            for td, wave in enumerate(waves):
                if not wave:
                    continue
                cell_counts = executor.map(task, wave)  # the wavefront barrier
                tiles_done += len(wave)
                if tracer.enabled and td % stride == 0:
                    tracer.instant(
                        "align.diagonal", category="align", model="executor",
                        d=td, tiles=len(wave), cells=int(sum(cell_counts)),
                    )
        H = np.array(h_ref.array())  # outlive the segment
        if tracer.enabled:
            tracer.metrics.counter("align.tiles", model="executor").inc(tiles_done)
            tracer.metrics.counter("align.alignments", model="executor").inc()
    finally:
        for ref in (h_ref, b_ref, a_ref):
            if ref is not None:
                executor.unpublish(ref)
        if owns_executor:
            executor.close()

    return build_result(H, a_codes, b_codes, scheme, band)
