"""OpenMP-model wavefront alignment: the race-repair ladder on a new shape.

K-means taught the ladder on a *reduction* dependency (every thread
updates the same accumulators each iteration). Alignment teaches it on a
**wavefront**: a tile of the DP matrix depends on its up, left and
up-left neighbours, so the team sweeps the tile diagonals of
:func:`~repro.align.executor_align.tile_diagonals` in order, each
diagonal's tiles split across threads by
:func:`~repro.util.partition.block_bounds`, with one ``ctx.barrier()``
per tile diagonal making the cross-tile reads race-free (7 barriers for
a 120 x 120 pair at the default tile, against 239 cell anti-diagonals).
The matrix is therefore correct on *every* rung; what the ladder guards
are the shared wavefront statistics (the match-event counter and the
best-cell box) each thread flushes once per tile diagonal:

- ``"racy"`` — rung zero: a :class:`~repro.openmp.RacyCell` counter and
  a bare read-compare-write on the best box. The sanitizer flags both
  cells (``align.matches``, ``align.best``) on every schedule and loses
  counter updates on adverse ones. Never use it for answers.
- ``"critical"`` — one named critical section guards both statistics;
- ``"atomic"`` — per-statistic :class:`~repro.openmp.Atomic` cells;
- ``"reduction"`` — thread-private statistics merged in thread order
  after the join (contention-free and deterministic).

Each thread sweeps its tiles row-major on the shared list-of-rows matrix
with :func:`~repro.align.executor_align.sweep_tiles` and the sanitizer it
read once, so each cell carries ``align.H[i,j]`` annotations when one is
installed, which is what lets ``tests/sanitizer/test_align_certification.py``
certify the barrier structure itself, not just the statistics.
"""

from __future__ import annotations

import numpy as np

from repro.align.executor_align import DEFAULT_TILE, sweep_tiles, tile_bounds, tile_diagonals
from repro.align.scoring import (
    OUT_OF_BAND,
    AlignResult,
    ScoringScheme,
    build_result,
    check_band,
    encode_sequence,
    init_matrix,
)
from repro.openmp import Atomic, RacyCell, parallel_region
from repro.sanitizer.runtime import annotate_read, annotate_write, get_sanitizer, preemption_point
from repro.trace.tracer import get_tracer
from repro.util.partition import block_bounds
from repro.util.validation import require_positive_int

__all__ = ["align_openmp", "VARIANTS", "ALL_VARIANTS"]

#: The correct rungs of the ladder (safe for answers and conformance sweeps).
VARIANTS = ("critical", "atomic", "reduction")
#: Every rung including the intentionally-broken one the detector must flag.
ALL_VARIANTS = ("racy",) + VARIANTS


def _better(candidate: tuple, incumbent: tuple) -> bool:
    """Strict total order on (score, i, j): max score, then smallest i, j.

    Matches :func:`repro.align.scoring.summarize_matrix`'s row-major
    argmax exactly, so every visit order agrees on the winner.
    """
    return (candidate[0], -candidate[1], -candidate[2]) > (
        incumbent[0], -incumbent[1], -incumbent[2]
    )


def align_openmp(
    a: str | np.ndarray,
    b: str | np.ndarray,
    *,
    num_threads: int = 4,
    variant: str = "reduction",
    scheme: ScoringScheme | None = None,
    band: int | None = None,
    tile: int = DEFAULT_TILE,
) -> AlignResult:
    """Shared-memory tiled wavefront alignment with the chosen race-repair rung."""
    require_positive_int("num_threads", num_threads)
    require_positive_int("tile", tile)
    if variant not in ALL_VARIANTS:
        raise ValueError(f"variant must be one of {ALL_VARIANTS}, got {variant!r}")
    scheme = scheme or ScoringScheme()
    a_codes = encode_sequence(a)
    b_codes = encode_sequence(b)
    n = a_codes.shape[0]
    m = b_codes.shape[0]
    check_band(n, m, band, scheme.mode)
    rows = init_matrix(n, m, scheme, band).tolist()
    waves = [wave for wave in tile_diagonals(n, m, tile, band) if wave]
    a_list = a_codes.tolist()
    b_list = b_codes.tolist()

    # Shared wavefront statistics — the cells the ladder is about.
    matches_cell = (RacyCell if variant == "racy" else Atomic)(0, name="align.matches")
    best_box: list = [OUT_OF_BAND, 0, 0]  # (score, i, j) under _better's order
    best_cell_atomic = (
        Atomic((OUT_OF_BAND, 0, 0), name="align.best") if variant == "atomic" else None
    )
    thread_matches = [0] * num_threads if variant == "reduction" else None
    thread_best = [(OUT_OF_BAND, 0, 0)] * num_threads if variant == "reduction" else None

    def body(ctx) -> None:
        san = get_sanitizer()
        tid = ctx.thread_id
        for wave in waves:
            lo, hi = block_bounds(len(wave), ctx.num_threads, tid)
            if hi > lo:  # this thread owns tiles on the diagonal: sweep, then flush
                wave_matches, wave_best = sweep_tiles(
                    rows, a_list, b_list,
                    (tile_bounds(ti, tj, tile, n, m) for ti, tj in wave[lo:hi]),
                    band, scheme, san,
                )
                if variant == "racy":
                    # Rung zero: the counter loses updates in RacyCell's
                    # read→write window; the best box in ours.
                    matches_cell.add(wave_matches)
                    annotate_read("align.best", "align.racy:best:read")
                    incumbent = (best_box[0], best_box[1], best_box[2])
                    if _better(wave_best, incumbent):
                        preemption_point()
                        annotate_write("align.best", "align.racy:best:write")
                        best_box[0], best_box[1], best_box[2] = wave_best
                elif variant == "critical":
                    with ctx.critical("align.stats"):
                        annotate_read("align.best", "align.critical:best")
                        if _better(wave_best, tuple(best_box)):
                            annotate_write("align.best", "align.critical:best")
                            best_box[0], best_box[1], best_box[2] = wave_best
                        matches_cell.add(wave_matches)
                elif variant == "atomic":
                    matches_cell.add(wave_matches)
                    best_cell_atomic.update(
                        lambda old, cand=wave_best: cand if _better(cand, old) else old
                    )
                else:
                    # Reduction: thread-private partials, merged post-join.
                    annotate_write(f"align.stats:t{tid}", "align.reduction:partial")
                    thread_matches[tid] += wave_matches
                    if _better(wave_best, thread_best[tid]):
                        thread_best[tid] = wave_best
            ctx.barrier()

    tracer = get_tracer()
    with tracer.span(
        "align.score", category="align", model="openmp",
        variant=variant, num_threads=num_threads, tile=tile,
    ):
        parallel_region(num_threads, body)
    H = np.asarray(rows, dtype=np.int64)
    if tracer.enabled:
        tracer.metrics.counter("align.tile_diagonals", model="openmp").inc(len(waves))
        tracer.metrics.counter("align.alignments", model="openmp").inc()

    if variant == "reduction":
        match_events = 0
        best = (OUT_OF_BAND, 0, 0)
        for t in range(num_threads):  # deterministic thread-order merge
            annotate_read(f"align.stats:t{t}", "align.reduction:merge")
            match_events += thread_matches[t]
            if _better(thread_best[t], best):
                best = thread_best[t]
    else:
        match_events = matches_cell.value
        best = best_cell_atomic.value if variant == "atomic" else tuple(best_box)
    return build_result(H, a_codes, b_codes, scheme, band, stats=(best[0], best[1:], match_events))
