"""The sequential alignment oracle: two kernels, one integer answer.

The reference implementation every parallel model is certified against.
Two kernels compute the same banded dynamic-programming matrix:

- ``"numpy"`` — vectorized over **rows**. For row ``i`` over its in-band
  columns ``j0..j1``, the diagonal and up moves read only row ``i-1``,
  so ``T = max(H[i-1, j-1] + s_ij, H[i-1, j] + gap)`` (floored at 0 in
  local mode) is one vector expression. The left move chains along the
  row: ``H[i, j] = max(T[j], H[i, j-1] + gap)`` unrolls to
  ``H[i, j] = max over k <= j of (seg[k] + (j - k) * gap)``, where
  ``seg`` is ``T`` with the left neighbour ``H[i, j0-1]`` prepended. So
  ``H[i, j0-1..j1] = maximum.accumulate(seg - k * gap) + k * gap`` over
  positions ``k``: one prefix maximum per row. The arithmetic is int64
  additions and maxima, exact for either sign of a linear gap.
- ``"python"`` — the per-cell scalar loop: one row-major
  :func:`repro.align.scoring.sweep_rows` over the in-band row spans,
  the same loop the OpenMP, MPI, and executor tile sweeps hand their
  spans to. The GIL-bound stand-in for the C starter code.

Both kernels produce bit-identical int64 matrices (integer arithmetic
has no rounding, and ``max`` is order-independent), which is what makes
the cross-model conformance suite a pure ``assert_array_equal``.

Tracing: one ``align.score`` span around the sweep and strided
``align.row`` instants, all behind the off-by-default tracer gate — the
idle overhead is bounded under 5% by the ``align_overhead`` gate in
``benchmarks/gates.py``.
"""

from __future__ import annotations

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
from repro.trace.tracer import get_tracer

__all__ = ["KERNELS", "score_matrix", "align_sequential"]

#: Selectable oracle kernels (both bit-identical; benchmarked head to head).
KERNELS = ("numpy", "python")


def _score_matrix_numpy(
    a_codes: np.ndarray, b_codes: np.ndarray, scheme: ScoringScheme, band: int | None
) -> np.ndarray:
    """Row-scan vectorized sweep: one prefix maximum per row."""
    n = a_codes.shape[0]
    m = b_codes.shape[0]
    H = init_matrix(n, m, scheme, band)
    tracer = get_tracer()
    enabled = tracer.enabled
    stride = max(1, n // 32)
    steps = np.arange(m + 1, dtype=np.int64) * scheme.gap  # k * gap at segment position k
    with tracer.span("align.score", category="align", model="sequential", kernel="numpy"):
        for i in range(1, n + 1):
            j0, j1 = (1, m) if band is None else (max(1, i - band), min(m, i + band))
            if j0 > j1:
                continue
            above = H[i - 1]
            sub = np.where(b_codes[j0 - 1 : j1] == a_codes[i - 1], scheme.match, scheme.mismatch)
            seg = np.empty(j1 - j0 + 2, dtype=np.int64)
            seg[0] = H[i, j0 - 1]
            np.maximum(above[j0 - 1 : j1] + sub, above[j0 : j1 + 1] + scheme.gap, out=seg[1:])
            if scheme.mode == "local":
                np.maximum(seg[1:], 0, out=seg[1:])
            k = steps[: seg.shape[0]]
            H[i, j0 : j1 + 1] = (np.maximum.accumulate(seg - k) + k)[1:]
            if enabled and i % stride == 0:
                tracer.instant("align.row", category="align", model="sequential", i=i)
        if enabled:
            tracer.metrics.counter("align.rows", model="sequential").inc(n)
    return H


def _score_matrix_python(
    a_codes: np.ndarray, b_codes: np.ndarray, scheme: ScoringScheme, band: int | None
) -> np.ndarray:
    """Row-major :func:`sweep_rows` over the in-band row spans (the teaching kernel)."""
    n = a_codes.shape[0]
    m = b_codes.shape[0]
    rows = init_matrix(n, m, scheme, band).tolist()
    with get_tracer().span("align.score", category="align", model="sequential", kernel="python"):
        sweep_rows(
            rows, a_codes.tolist(), b_codes.tolist(), band_rows(1, n, 1, m, band), scheme
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
