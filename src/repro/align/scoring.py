"""Scoring schemes, band geometry, and the shared alignment mathematics.

Every model in :mod:`repro.align` — sequential, OpenMP wavefront, MPI
block rows, executor tiles — must produce the *same* dynamic-programming
matrix, bit for bit. That is only cheap to certify because everything
score-related is integer arithmetic defined **once**, here:

- :class:`ScoringScheme` — match / mismatch / gap scores plus the
  ``"global"`` (Needleman–Wunsch) vs ``"local"`` (Smith–Waterman) mode;
- :func:`sweep_rows` — the one scalar loop, and the one place the
  recurrence is written (the row-scan numpy kernel in
  :mod:`repro.align.sequential` is its vectorized twin, asserted equal
  in ``tests/align``): it fills row spans ``(i, lo, hi)`` in order;
  the python oracle and the tile sweep that the OpenMP, MPI and
  executor models share differ only in which spans they hand it;
- :func:`cell_score` — the recurrence for one cell, as a one-cell
  :func:`sweep_rows`;
- :func:`in_band` / :func:`band_rows` — banded-DP geometry: the
  in-band span of each row of a row range by a column range;
- :func:`summarize_matrix` — the derived statistics (best cell, match
  events) that the OpenMP rung ladder recomputes cooperatively;
- :func:`traceback_path` / :func:`build_result` — the deterministic
  traceback (diagonal > up > left tie priority) and the
  :class:`AlignResult` container.

Cells outside the band hold the :data:`OUT_OF_BAND` sentinel — a value
so negative it can never win a ``max`` — so a full matrix compare also
certifies that no model computed cells it was not supposed to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "MODES",
    "OUT_OF_BAND",
    "ScoringScheme",
    "AlignResult",
    "encode_sequence",
    "in_band",
    "band_rows",
    "cell_score",
    "sweep_rows",
    "init_matrix",
    "summarize_matrix",
    "traceback_path",
    "build_result",
]

#: Supported alignment modes: Needleman–Wunsch and Smith–Waterman.
MODES = ("global", "local")

#: Sentinel stored in cells the band excludes. A quarter of the int64
#: floor: adding a gap penalty (or a band of them) can never overflow,
#: and no reachable score can ever sink low enough to collide with it.
OUT_OF_BAND = int(np.iinfo(np.int64).min // 4)

#: DNA alphabet shared with :mod:`repro.align.data`.
ALPHABET = "ACGT"


@dataclass(frozen=True)
class ScoringScheme:
    """Integer alignment scores: the whole reason bit-identity is easy.

    ``match`` rewards an equal pair on a diagonal move, ``mismatch``
    scores an unequal pair, ``gap`` is the per-character indel score
    (applied on every up/left move). ``mode`` selects Needleman–Wunsch
    (``"global"``, scores may go negative, traceback from the corner)
    or Smith–Waterman (``"local"``, scores floor at zero, traceback
    from the best cell).
    """

    match: int = 2
    mismatch: int = -1
    gap: int = -2
    mode: str = "global"

    def __post_init__(self) -> None:
        for field_name in ("match", "mismatch", "gap"):
            value = getattr(self, field_name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{field_name} must be an int, got {value!r}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")

    def substitution(self, equal: bool) -> int:
        """The diagonal-move score for an (un)equal character pair."""
        return self.match if equal else self.mismatch


@dataclass
class AlignResult:
    """Everything the assignment asks students to report for one alignment.

    ``matrix`` is the full ``(n+1, m+1)`` int64 DP matrix (out-of-band
    cells hold :data:`OUT_OF_BAND`), ``path`` the traceback cell
    sequence from its start corner to its terminal cell, ``aligned_a``
    / ``aligned_b`` the gapped strings it spells. ``best_score`` /
    ``best_cell`` / ``match_events`` are the wavefront statistics the
    OpenMP rung ladder accumulates cooperatively (and the racy rung
    loses updates on).
    """

    score: int
    matrix: np.ndarray
    path: tuple[tuple[int, int], ...]
    aligned_a: str
    aligned_b: str
    best_score: int
    best_cell: tuple[int, int]
    match_events: int


def encode_sequence(seq: str | Sequence[int] | np.ndarray) -> np.ndarray:
    """A sequence as a uint8 code array (ASCII bytes for strings).

    The models compare codes, never Python characters, so the same
    array can be published into a shared-memory segment untouched.
    """
    if isinstance(seq, str):
        if not seq:
            raise ValueError("sequences must be non-empty")
        return np.frombuffer(seq.encode("ascii"), dtype=np.uint8).copy()
    arr = np.asarray(seq, dtype=np.uint8)
    if arr.ndim != 1 or arr.shape[0] == 0:
        raise ValueError("sequences must be non-empty 1-D")
    return arr


def in_band(i: int, j: int, band: int | None) -> bool:
    """True when cell ``(i, j)`` lies within the anti-diagonal band."""
    return band is None or -band <= i - j <= band


def check_band(n: int, m: int, band: int | None, mode: str) -> None:
    """Validate a band half-width against the problem shape.

    A global alignment must reach the ``(n, m)`` corner, so the band
    must cover ``|n - m|``; a local alignment only needs a non-negative
    width.
    """
    if band is None:
        return
    if not isinstance(band, int) or isinstance(band, bool) or band < 0:
        raise ValueError(f"band must be a non-negative int or None, got {band!r}")
    if mode == "global" and band < abs(n - m):
        raise ValueError(
            f"band {band} cannot reach the corner: global alignment of lengths "
            f"{n} x {m} needs band >= {abs(n - m)}"
        )


def band_rows(
    i0: int, i1: int, j0: int, j1: int, band: int | None, origin: tuple[int, int] = (0, 0)
) -> list[tuple[int, int, int]]:
    """In-band spans ``(i, lo, hi)`` of rows ``i0..i1`` x columns ``j0..j1``, less ``origin``.

    One span per row that meets the band, in row order; ``lo..hi`` is
    inclusive. The shift lets a walker sweep a copied block in local
    coordinates.
    """
    oi, oj = origin
    if band is None:
        band = i1 + j1  # wide enough that the clip below never bites
    spans = []
    for i in range(i0, i1 + 1):
        lo = max(j0, i - band)
        hi = min(j1, i + band)
        if lo <= hi:
            spans.append((i - oi, lo - oj, hi - oj))
    return spans


def cell_score(diag: int, up: int, left: int, equal: bool, scheme: ScoringScheme) -> tuple[int, bool]:
    """The recurrence for one cell, given its three predecessor values.

    Returns ``(value, match_event)`` where ``match_event`` is True when
    the characters are equal **and** the cell's value equals the
    diagonal-match candidate — the statistic the rung ladder counts.
    Out-of-band predecessors arrive as :data:`OUT_OF_BAND` and lose
    every ``max`` on their own. A one-cell :func:`sweep_rows`, which
    holds the recurrence.
    """
    rows = [[diag, up], [left, 0]]
    events, _ = sweep_rows(rows, (0,), (0 if equal else 1,), ((1, 1, 1),), scheme)
    return rows[1][1], events == 1


def sweep_rows(
    rows: list[list[int]], a: Sequence[int], b: Sequence[int],
    spans: Iterable[tuple[int, int, int]], scheme: ScoringScheme, san=None,
) -> tuple[int, tuple[int, int, int]]:
    """Fill each row span ``(i, lo, hi)`` of ``rows`` in order; ``(match_events, best)``.

    ``rows`` is the DP matrix (or a block of it) as lists of plain ints;
    cell ``(i, j)`` reads ``rows[i-1][j-1]``, ``rows[i-1][j]`` and
    ``rows[i][j-1]`` and compares codes ``a[i-1]`` and ``b[j-1]``, so
    the caller's order must put every predecessor first. A span fetches
    its two rows and its code once and sweeps ``j = lo..hi``, carrying
    the left neighbour from one cell to the next. Each cell takes the
    best of the diagonal move (``match`` or ``mismatch``) and the two
    ``gap`` moves, floored at zero in local mode; it is a match event
    when the codes are equal and the value is the diagonal-match
    candidate. ``best`` is the ``(value, i, j)`` maximizing ``(value,
    -i, -j)`` over the swept cells (``(OUT_OF_BAND, 0, 0)`` for none):
    the order :func:`summarize_matrix` uses, so a full row-major sweep
    reproduces its statistics. With a sanitizer ``san``, each cell
    makes three ``align.H`` reads and one write, labelled with its
    coordinates.
    """
    match, mismatch, gap = scheme.match, scheme.mismatch, scheme.gap
    local = scheme.mode == "local"
    events = 0
    best_value, best_i, best_j = OUT_OF_BAND, 0, 0
    for i, lo, hi in spans:
        above = rows[i - 1]
        row = rows[i]
        ai = a[i - 1]
        left = row[lo - 1]
        for j in range(lo, hi + 1):
            if san is not None:
                san.mem_read(f"align.H[{i - 1},{j - 1}]", "align.wavefront:diag")
                san.mem_read(f"align.H[{i - 1},{j}]", "align.wavefront:up")
                san.mem_read(f"align.H[{i},{j - 1}]", "align.wavefront:left")
            diag = above[j - 1]
            equal = ai == b[j - 1]
            value = diag + match if equal else diag + mismatch
            up = above[j] + gap
            if up > value:
                value = up
            left += gap
            if left > value:
                value = left
            if local and value < 0:
                value = 0
            if san is not None:
                san.mem_write(f"align.H[{i},{j}]", "align.wavefront:write")
            row[j] = left = value
            if equal and value == diag + match:
                events += 1
            if value >= best_value and (value > best_value or (i, j) < (best_i, best_j)):
                best_value, best_i, best_j = value, i, j
    return events, (best_value, best_i, best_j)


def init_matrix(n: int, m: int, scheme: ScoringScheme, band: int | None) -> np.ndarray:
    """A fresh DP matrix: sentinel everywhere, boundaries filled in band.

    Global mode ladders the gap penalty down row 0 and column 0; local
    mode zeroes them. Out-of-band boundary cells keep the sentinel.
    """
    H = np.full((n + 1, m + 1), OUT_OF_BAND, dtype=np.int64)
    top = np.arange(m + 1, dtype=np.int64) * scheme.gap if scheme.mode == "global" else np.zeros(m + 1, dtype=np.int64)
    side = np.arange(n + 1, dtype=np.int64) * scheme.gap if scheme.mode == "global" else np.zeros(n + 1, dtype=np.int64)
    if band is None:
        H[0, :] = top
        H[:, 0] = side
    else:
        jmax = min(m, band)
        imax = min(n, band)
        H[0, : jmax + 1] = top[: jmax + 1]
        H[: imax + 1, 0] = side[: imax + 1]
    return H


def _interior_band_mask(n: int, m: int, band: int | None) -> np.ndarray:
    """Boolean mask of interior in-band cells over the full matrix shape."""
    mask = np.ones((n + 1, m + 1), dtype=bool)
    mask[0, :] = False
    mask[:, 0] = False
    if band is not None:
        ii = np.arange(n + 1)[:, None]
        jj = np.arange(m + 1)[None, :]
        mask &= np.abs(ii - jj) <= band
    return mask


def summarize_matrix(
    matrix: np.ndarray,
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    scheme: ScoringScheme,
    band: int | None,
) -> tuple[int, tuple[int, int], int]:
    """Derived wavefront statistics: ``(best_score, best_cell, match_events)``.

    ``best_cell`` maximizes ``(score, -i, -j)`` over interior in-band
    cells — a strict total order, so every visit order (and every rung
    of the OpenMP ladder) agrees on it. ``match_events`` counts interior
    in-band cells whose value equals the diagonal-match candidate with
    equal characters — exactly :func:`cell_score`'s flag, summed.
    """
    n = matrix.shape[0] - 1
    m = matrix.shape[1] - 1
    mask = _interior_band_mask(n, m, band)
    if not mask.any():
        raise ValueError("alignment has no interior in-band cells")

    scores = np.where(mask, matrix, OUT_OF_BAND)
    best_score = int(scores.max())
    # Row-major argwhere order = smallest i then smallest j among ties.
    bi, bj = np.argwhere(scores == best_score)[0]
    best_cell = (int(bi), int(bj))

    equal = a_codes[:, None] == b_codes[None, :]  # (n, m) char-pair equality
    diag_candidate = matrix[:-1, :-1] + scheme.match
    events = mask[1:, 1:] & equal & (matrix[1:, 1:] == diag_candidate)
    return best_score, best_cell, int(np.count_nonzero(events))


def traceback_path(
    matrix: np.ndarray,
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    scheme: ScoringScheme,
    band: int | None,
    *,
    start: tuple[int, int] | None = None,
) -> tuple[tuple[tuple[int, int], ...], str, str]:
    """The deterministic traceback: ``(path, aligned_a, aligned_b)``.

    Moves are chosen with fixed priority **diagonal > up > left** among
    the predecessors that reproduce the cell's value, so the path is a
    pure function of the matrix — any two models with bit-identical
    matrices return bit-identical paths. Global mode walks from
    ``(n, m)`` to ``(0, 0)``; local mode from ``start`` (default: the
    summarized best cell) until it consumes a zero cell.
    """
    n = matrix.shape[0] - 1
    m = matrix.shape[1] - 1
    if scheme.mode == "global":
        i, j = n, m
    else:
        if start is None:
            _, start, _ = summarize_matrix(matrix, a_codes, b_codes, scheme, band)
        i, j = start

    cells = [(i, j)]
    out_a: list[str] = []
    out_b: list[str] = []

    def char_a(row: int) -> str:
        return chr(int(a_codes[row - 1]))

    def char_b(col: int) -> str:
        return chr(int(b_codes[col - 1]))

    while True:
        if scheme.mode == "global":
            if i == 0 and j == 0:
                break
        else:
            if matrix[i, j] == 0 or (i == 0 or j == 0):
                break
        value = int(matrix[i, j])
        moved = False
        if i > 0 and j > 0 and in_band(i - 1, j - 1, band):
            sub = scheme.substitution(int(a_codes[i - 1]) == int(b_codes[j - 1]))
            if value == int(matrix[i - 1, j - 1]) + sub:
                out_a.append(char_a(i))
                out_b.append(char_b(j))
                i, j = i - 1, j - 1
                moved = True
        if not moved and i > 0 and in_band(i - 1, j, band):
            if j == 0 or value == int(matrix[i - 1, j]) + scheme.gap:
                out_a.append(char_a(i))
                out_b.append("-")
                i = i - 1
                moved = True
        if not moved and j > 0 and in_band(i, j - 1, band):
            if i == 0 or value == int(matrix[i, j - 1]) + scheme.gap:
                out_a.append("-")
                out_b.append(char_b(j))
                j = j - 1
                moved = True
        if not moved:
            raise AssertionError(
                f"traceback stuck at cell ({i}, {j}) — matrix is not a valid "
                f"DP table for this scheme/band"
            )
        cells.append((i, j))

    out_a.reverse()
    out_b.reverse()
    return tuple(reversed(cells)), "".join(out_a), "".join(out_b)


def build_result(
    matrix: np.ndarray,
    a_codes: np.ndarray,
    b_codes: np.ndarray,
    scheme: ScoringScheme,
    band: int | None,
    stats: tuple[int, tuple[int, int], int] | None = None,
) -> AlignResult:
    """Assemble the full :class:`AlignResult` from a finished matrix.

    Every model finishes here. ``stats`` — ``(best_score, best_cell,
    match_events)`` — replaces the summarized statistics: the OpenMP
    model passes the ladder's cooperatively accumulated ones (equal on
    every guarded rung), and a local traceback starts from its cell.
    """
    n = matrix.shape[0] - 1
    m = matrix.shape[1] - 1
    best_score, best_cell, match_events = stats or summarize_matrix(
        matrix, a_codes, b_codes, scheme, band
    )
    if scheme.mode == "global":
        score = int(matrix[n, m])
        path, aligned_a, aligned_b = traceback_path(matrix, a_codes, b_codes, scheme, band)
    else:
        score = best_score
        path, aligned_a, aligned_b = traceback_path(
            matrix, a_codes, b_codes, scheme, band, start=best_cell
        )
    return AlignResult(
        score=score,
        matrix=matrix,
        path=path,
        aligned_a=aligned_a,
        aligned_b=aligned_b,
        best_score=best_score,
        best_cell=best_cell,
        match_events=match_events,
    )
