"""Property-based tests: the algebra the alignment score must satisfy.

Hypothesis sweeps DNA strings and scoring parameters; each property is
a statement about *every* instance, not a pinned example:

- swapping the sequences transposes the matrix and preserves the score
  (the scoring scheme is symmetric in its two inputs);
- the optimal score is monotone non-decreasing in the match reward
  (every alignment's value is, so the max over alignments is);
- a sequence aligned against itself scores the perfect-match value;
- the numpy and python kernels build the same matrix for any integer
  scheme and band, and a row-major sweep yields its statistics;
- ``sweep_rows`` over ``band_rows`` spans fills any block, at any
  origin, exactly as a plain per-cell loop written here does: values,
  match events, best cell and sanitizer accesses.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import ScoringScheme, align_sequential, score_matrix
from repro.align.scoring import (
    OUT_OF_BAND, band_rows, encode_sequence, in_band, init_matrix, summarize_matrix,
    sweep_rows,
)

dna = st.text(alphabet="ACGT", min_size=1, max_size=28)
modes = st.sampled_from(["global", "local"])


@given(a=dna, b=dna, mode=modes)
@settings(max_examples=40, deadline=None)
def test_score_symmetric_under_sequence_swap(a, b, mode):
    scheme = ScoringScheme(mode=mode)
    forward = align_sequential(a, b, scheme=scheme)
    backward = align_sequential(b, a, scheme=scheme)
    assert forward.score == backward.score
    # Stronger: the DP matrix itself transposes.
    np.testing.assert_array_equal(forward.matrix, backward.matrix.T)


@given(a=dna, b=dna, mode=modes, reward=st.integers(min_value=1, max_value=6))
@settings(max_examples=40, deadline=None)
def test_score_monotone_in_match_reward(a, b, mode, reward):
    lower = align_sequential(
        a, b, scheme=ScoringScheme(match=reward, mode=mode)
    ).score
    higher = align_sequential(
        a, b, scheme=ScoringScheme(match=reward + 1, mode=mode)
    ).score
    assert higher >= lower


@given(s=dna, mode=modes, match=st.integers(min_value=1, max_value=5))
@settings(max_examples=40, deadline=None)
def test_self_alignment_scores_perfect_match(s, mode, match):
    scheme = ScoringScheme(match=match, mode=mode)
    result = align_sequential(s, s, scheme=scheme)
    assert result.score == match * len(s)
    assert result.aligned_a == s and result.aligned_b == s


@given(a=dna, b=dna)
@settings(max_examples=40, deadline=None)
def test_local_score_bounds(a, b):
    scheme = ScoringScheme(mode="local")
    score = align_sequential(a, b, scheme=scheme).score
    assert 0 <= score <= scheme.match * min(len(a), len(b))


scores = st.integers(min_value=-5, max_value=5)


@given(
    a=dna, b=dna, mode=modes, match=scores, mismatch=scores, gap=scores,
    band_slack=st.none() | st.integers(min_value=0, max_value=6),
)
@settings(max_examples=60, deadline=None)
def test_kernels_agree_on_arbitrary_instances(a, b, mode, match, mismatch, gap, band_slack):
    # Any integer scheme, not just the default: the sweep reads the
    # scheme's constants once, so a wrong hoist shows on some scheme.
    scheme = ScoringScheme(match=match, mismatch=mismatch, gap=gap, mode=mode)
    n, m = len(a), len(b)
    band = None if band_slack is None else abs(n - m) + band_slack
    matrix = score_matrix(a, b, scheme=scheme, band=band, kernel="numpy")
    np.testing.assert_array_equal(
        matrix, score_matrix(a, b, scheme=scheme, band=band, kernel="python")
    )
    # A full row-major sweep returns summarize_matrix's statistics.
    a_codes, b_codes = encode_sequence(a), encode_sequence(b)
    rows = init_matrix(n, m, scheme, band).tolist()
    swept = sweep_rows(
        rows, a_codes.tolist(), b_codes.tolist(), band_rows(1, n, 1, m, band), scheme
    )
    best_score, best_cell, match_events = summarize_matrix(
        matrix, a_codes, b_codes, scheme, band
    )
    assert swept == (match_events, (best_score, *best_cell))


class RecordingSanitizer:
    """Records every access the sweep declares, in order."""

    def __init__(self):
        self.accesses = []

    def mem_read(self, name, label):
        self.accesses.append(("read", name, label))

    def mem_write(self, name, label):
        self.accesses.append(("write", name, label))


def per_cell_reference(H, a, b, bounds, band, scheme, origin):
    """The recurrence written cell by cell over the block, in local coordinates."""
    i0, i1, j0, j1 = bounds
    oi, oj = origin
    H = [row[:] for row in H]
    events = 0
    best = (OUT_OF_BAND, 0, 0)
    accesses = []
    for i in range(i0, i1 + 1):
        for j in range(j0, j1 + 1):
            if not in_band(i, j, band):
                continue
            li, lj = i - oi, j - oj
            accesses += [
                ("read", f"align.H[{li - 1},{lj - 1}]", "align.wavefront:diag"),
                ("read", f"align.H[{li - 1},{lj}]", "align.wavefront:up"),
                ("read", f"align.H[{li},{lj - 1}]", "align.wavefront:left"),
                ("write", f"align.H[{li},{lj}]", "align.wavefront:write"),
            ]
            equal = a[i - 1] == b[j - 1]
            diag = H[i - 1][j - 1] + (scheme.match if equal else scheme.mismatch)
            value = max(diag, H[i - 1][j] + scheme.gap, H[i][j - 1] + scheme.gap)
            if scheme.mode == "local":
                value = max(value, 0)
            H[i][j] = value
            if equal and value == H[i - 1][j - 1] + scheme.match:
                events += 1
            if (value, -li, -lj) > (best[0], -best[1], -best[2]):
                best = (value, li, lj)
    return H, events, best, accesses


@st.composite
def block_sweeps(draw):
    """A matrix of arbitrary predecessors, a block of it, an origin and a band."""
    n = draw(st.integers(1, 24))
    m = draw(st.integers(1, 24))
    a = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    b = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    scheme = ScoringScheme(
        match=draw(scores), mismatch=draw(scores), gap=draw(scores), mode=draw(modes)
    )
    band = draw(st.sampled_from([None, 0, abs(n - m), abs(n - m) + 3]))
    # Arbitrary predecessors, a few of them the sentinel: drawn from one
    # seed, since hundreds of separate draws per example make the test slow.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    H = rng.integers(-60, 61, size=(n + 1, m + 1))
    H[rng.random(H.shape) < 0.1] = OUT_OF_BAND
    H = H.tolist()
    i0 = draw(st.integers(1, n))
    i1 = draw(st.integers(i0, n))
    j0 = draw(st.integers(1, m))
    j1 = draw(st.integers(j0, m))
    origin = (draw(st.integers(0, i0 - 1)), draw(st.integers(0, j0 - 1)))
    return H, a, b, (i0, i1, j0, j1), band, scheme, origin


@given(case=block_sweeps())
@settings(max_examples=150, deadline=None)
def test_row_sweep_matches_per_cell_loop(case):
    H, a, b, bounds, band, scheme, origin = case
    i0, i1, j0, j1 = bounds
    oi, oj = origin
    expected, events, best, accesses = per_cell_reference(H, a, b, bounds, band, scheme, origin)
    # The block and its predecessors, copied out at the origin as a tile task does.
    rows = [row[oj : j1 + 1] for row in H[oi : i1 + 1]]
    san = RecordingSanitizer()
    swept = sweep_rows(rows, a[oi:], b[oj:], band_rows(*bounds, band, origin), scheme, san)
    assert rows == [row[oj : j1 + 1] for row in expected[oi : i1 + 1]]
    assert swept == (events, best)
    assert san.accesses == accesses
