"""Property-based tests: the algebra the alignment score must satisfy.

Hypothesis sweeps DNA strings and scoring parameters; each property is
a statement about *every* instance, not a pinned example:

- swapping the sequences transposes the matrix and preserves the score
  (the scoring scheme is symmetric in its two inputs);
- the optimal score is monotone non-decreasing in the match reward
  (every alignment's value is, so the max over alignments is);
- a sequence aligned against itself scores the perfect-match value;
- the numpy and python kernels build the same matrix for any integer
  scheme and band, and a row-major sweep yields its statistics.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import ScoringScheme, align_sequential, score_matrix
from repro.align.scoring import (
    band_cells, encode_sequence, init_matrix, summarize_matrix, sweep_cells,
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
    swept = sweep_cells(
        rows, a_codes.tolist(), b_codes.tolist(), band_cells(1, n, 1, m, band), scheme
    )
    best_score, best_cell, match_events = summarize_matrix(
        matrix, a_codes, b_codes, scheme, band
    )
    assert swept == (match_events, (best_score, *best_cell))
