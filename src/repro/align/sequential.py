"""The sequential alignment oracle: two kernels, one integer answer.

The reference implementation every parallel model is certified against.
Two kernels compute the same banded dynamic-programming matrix:

- ``"numpy"`` — vectorized over **anti-diagonals**: every cell on
  diagonal ``d`` depends only on diagonals ``d-1`` and ``d-2``, so one
  fancy-indexed ``maximum`` fills the whole wavefront at once. This is
  the exact dependency structure the parallel models exploit, expressed
  serially.
- ``"python"`` — the per-cell scalar loop: one row-major
  :func:`repro.align.scoring.sweep_cells` over the in-band cells, the
  same loop the OpenMP, MPI, and executor walkers hand their own cells
  to. The GIL-bound stand-in for the C starter code.

Both kernels produce bit-identical int64 matrices (integer arithmetic
has no rounding, and ``max`` is order-independent), which is what makes
the cross-model conformance suite a pure ``assert_array_equal``.

Tracing: one ``align.score`` span around the sweep and strided
``align.diagonal`` instants, all behind the off-by-default tracer gate
— the idle overhead is bounded under 5% by the ``align_overhead`` gate
in ``benchmarks/gates.py``.
"""

from __future__ import annotations

import numpy as np

from repro.align.scoring import (
    AlignResult,
    ScoringScheme,
    band_cells,
    build_result,
    check_band,
    diagonal_row_range,
    encode_sequence,
    init_matrix,
    sweep_cells,
)
from repro.trace.tracer import get_tracer

__all__ = ["KERNELS", "score_matrix", "align_sequential"]

#: Selectable oracle kernels (both bit-identical; benchmarked head to head).
KERNELS = ("numpy", "python")


def _score_matrix_numpy(
    a_codes: np.ndarray, b_codes: np.ndarray, scheme: ScoringScheme, band: int | None
) -> np.ndarray:
    """Anti-diagonal vectorized sweep (the serial wavefront)."""
    n = a_codes.shape[0]
    m = b_codes.shape[0]
    H = init_matrix(n, m, scheme, band)
    tracer = get_tracer()
    enabled = tracer.enabled
    stride = max(1, (n + m) // 32)
    local = scheme.mode == "local"
    with tracer.span("align.score", category="align", model="sequential", kernel="numpy"):
        for d in range(2, n + m + 1):
            ilo, ihi = diagonal_row_range(d, n, m, band)
            if ilo > ihi:
                continue
            ii = np.arange(ilo, ihi + 1)
            jj = d - ii
            sub = np.where(a_codes[ii - 1] == b_codes[jj - 1], scheme.match, scheme.mismatch)
            best = np.maximum(
                H[ii - 1, jj - 1] + sub,
                np.maximum(H[ii - 1, jj] + scheme.gap, H[ii, jj - 1] + scheme.gap),
            )
            if local:
                np.maximum(best, 0, out=best)
            H[ii, jj] = best
            if enabled and d % stride == 0:
                tracer.instant(
                    "align.diagonal", category="align", model="sequential",
                    d=d, cells=int(ihi - ilo + 1),
                )
        if enabled:
            tracer.metrics.counter("align.diagonals", model="sequential").inc(n + m - 1)
    return H


def _score_matrix_python(
    a_codes: np.ndarray, b_codes: np.ndarray, scheme: ScoringScheme, band: int | None
) -> np.ndarray:
    """Row-major :func:`sweep_cells` over the in-band cells (the teaching kernel)."""
    n = a_codes.shape[0]
    m = b_codes.shape[0]
    rows = init_matrix(n, m, scheme, band).tolist()
    with get_tracer().span("align.score", category="align", model="sequential", kernel="python"):
        sweep_cells(
            rows, a_codes.tolist(), b_codes.tolist(), band_cells(1, n, 1, m, band), scheme
        )
    return np.asarray(rows, dtype=np.int64)


_KERNEL_FNS = {"numpy": _score_matrix_numpy, "python": _score_matrix_python}


def score_matrix(
    a: str | np.ndarray,
    b: str | np.ndarray,
    *,
    scheme: ScoringScheme | None = None,
    band: int | None = None,
    kernel: str = "numpy",
) -> np.ndarray:
    """The full DP matrix for one pair (the oracle's core).

    Returns the ``(len(a)+1, len(b)+1)`` int64 matrix; out-of-band
    cells hold :data:`~repro.align.scoring.OUT_OF_BAND`.
    """
    scheme = scheme or ScoringScheme()
    if kernel not in KERNELS:
        raise ValueError(f"kernel must be one of {KERNELS}, got {kernel!r}")
    a_codes = encode_sequence(a)
    b_codes = encode_sequence(b)
    check_band(a_codes.shape[0], b_codes.shape[0], band, scheme.mode)
    return _KERNEL_FNS[kernel](a_codes, b_codes, scheme, band)


def align_sequential(
    a: str | np.ndarray,
    b: str | np.ndarray,
    *,
    scheme: ScoringScheme | None = None,
    band: int | None = None,
    kernel: str = "numpy",
) -> AlignResult:
    """The reference alignment: score matrix, statistics, traceback."""
    scheme = scheme or ScoringScheme()
    a_codes = encode_sequence(a)
    b_codes = encode_sequence(b)
    matrix = score_matrix(a_codes, b_codes, scheme=scheme, band=band, kernel=kernel)
    result = build_result(matrix, a_codes, b_codes, scheme, band)
    tracer = get_tracer()
    if tracer.enabled:
        tracer.metrics.counter("align.alignments", model="sequential").inc()
        tracer.metrics.histogram("align.score", model="sequential").observe(result.score)
    return result
