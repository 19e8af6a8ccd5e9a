"""OpenMP-model wavefront alignment: the race-repair ladder on a new shape.

K-means taught the ladder on a *reduction* dependency (every thread
updates the same accumulators each iteration). Alignment teaches it on a
**wavefront**: anti-diagonal ``d`` of the DP matrix depends on diagonals
``d-1`` and ``d-2``, so the team sweeps diagonals in order — rows of
each diagonal split statically across threads, one ``ctx.barrier()``
per diagonal making the cross-diagonal reads race-free. The matrix
itself is therefore correct on *every* rung; what the ladder guards are
the shared wavefront statistics (the match-event counter and the
best-cell box) each thread flushes per diagonal:

- ``"racy"`` — rung zero: a :class:`~repro.openmp.RacyCell` counter and
  a bare read-compare-write on the best box. The sanitizer flags both
  cells (``align.matches``, ``align.best``) on every schedule and loses
  counter updates on adverse ones. Never use it for answers.
- ``"critical"`` — one named critical section guards both statistics;
- ``"atomic"`` — per-statistic :class:`~repro.openmp.Atomic` cells;
- ``"reduction"`` — thread-private statistics merged in thread order
  after the join (contention-free and deterministic).

Each thread hands its block of diagonal ``d`` of a list-of-rows matrix
to :func:`~repro.align.scoring.sweep_cells` with the sanitizer it read
once, so each cell carries ``align.H[i,j]`` annotations when one is
installed, which is what lets ``tests/sanitizer/test_align_certification.py``
certify the barrier structure itself, not just the statistics.
"""

from __future__ import annotations

import numpy as np

from repro.align.scoring import (
    OUT_OF_BAND,
    AlignResult,
    ScoringScheme,
    build_result,
    check_band,
    diagonal_cells,
    diagonal_row_range,
    encode_sequence,
    init_matrix,
    sweep_cells,
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
) -> AlignResult:
    """Shared-memory wavefront alignment with the chosen race-repair rung."""
    require_positive_int("num_threads", num_threads)
    if variant not in ALL_VARIANTS:
        raise ValueError(f"variant must be one of {ALL_VARIANTS}, got {variant!r}")
    scheme = scheme or ScoringScheme()
    a_codes = encode_sequence(a)
    b_codes = encode_sequence(b)
    n = a_codes.shape[0]
    m = b_codes.shape[0]
    check_band(n, m, band, scheme.mode)
    rows = init_matrix(n, m, scheme, band).tolist()
    a_list = a_codes.tolist()
    b_list = b_codes.tolist()

    # Shared wavefront statistics — the cells the ladder is about.
    if variant == "racy":
        matches_cell = RacyCell(0, name="align.matches")
    else:
        matches_cell = Atomic(0, name="align.matches")
    best_box: list = [OUT_OF_BAND, 0, 0]  # (score, i, j) under _better's order
    best_cell_atomic = (
        Atomic((OUT_OF_BAND, 0, 0), name="align.best") if variant == "atomic" else None
    )
    thread_matches = [0] * num_threads if variant == "reduction" else None
    thread_best = (
        [(OUT_OF_BAND, 0, 0)] * num_threads if variant == "reduction" else None
    )

    def body(ctx) -> None:
        san = get_sanitizer()
        tid = ctx.thread_id
        for d in range(2, n + m + 1):
            ilo, ihi = diagonal_row_range(d, n, m, band)
            count = ihi - ilo + 1
            if count > 0:
                lo, hi = block_bounds(count, ctx.num_threads, tid)
                diag_matches, diag_best = sweep_cells(
                    rows, a_list, b_list, diagonal_cells(d, ilo + lo, ilo + hi - 1),
                    scheme, san,
                )
                if hi > lo:  # this thread owned cells on the diagonal: flush
                    if variant == "racy":
                        # Rung zero: the counter loses updates in RacyCell's
                        # read→write window; the best box in ours.
                        matches_cell.add(diag_matches)
                        annotate_read("align.best", "align.racy:best:read")
                        incumbent = (best_box[0], best_box[1], best_box[2])
                        if _better(diag_best, incumbent):
                            preemption_point()
                            annotate_write("align.best", "align.racy:best:write")
                            best_box[0], best_box[1], best_box[2] = diag_best
                    elif variant == "critical":
                        with ctx.critical("align.stats"):
                            annotate_read("align.best", "align.critical:best")
                            if _better(diag_best, tuple(best_box)):
                                annotate_write("align.best", "align.critical:best")
                                best_box[0], best_box[1], best_box[2] = diag_best
                            matches_cell.add(diag_matches)
                    elif variant == "atomic":
                        matches_cell.add(diag_matches)
                        best_cell_atomic.update(
                            lambda old, cand=diag_best: cand if _better(cand, old) else old
                        )
                    else:
                        # Reduction: thread-private partials, merged post-join.
                        annotate_write(f"align.stats:t{tid}", "align.reduction:partial")
                        thread_matches[tid] += diag_matches
                        if _better(diag_best, thread_best[tid]):
                            thread_best[tid] = diag_best
            ctx.barrier()

    tracer = get_tracer()
    with tracer.span(
        "align.score", category="align", model="openmp",
        variant=variant, num_threads=num_threads,
    ):
        parallel_region(num_threads, body)
    H = np.asarray(rows, dtype=np.int64)
    if tracer.enabled:
        tracer.metrics.counter("align.diagonals", model="openmp").inc(n + m - 1)
        tracer.metrics.counter("align.alignments", model="openmp").inc()

    if variant == "reduction":
        match_events = 0
        best = (OUT_OF_BAND, 0, 0)
        for t in range(num_threads):  # deterministic thread-order merge
            annotate_read(f"align.stats:t{t}", "align.reduction:merge")
            match_events += thread_matches[t]
            if _better(thread_best[t], best):
                best = thread_best[t]
    elif variant == "atomic":
        match_events = matches_cell.value
        best = best_cell_atomic.value
    else:
        match_events = matches_cell.value
        best = tuple(best_box)
    return build_result(H, a_codes, b_codes, scheme, band, stats=(best[0], best[1:], match_events))
