"""Unit tests for the align family's shared mathematics and the oracle."""

import numpy as np
import pytest

from repro.align import (
    ALPHABET,
    OUT_OF_BAND,
    ScoringScheme,
    align_sequential,
    band_rows,
    cell_score,
    encode_sequence,
    generate_pair,
    generate_sequence,
    in_band,
    init_matrix,
    mutate_sequence,
    score_matrix,
    summarize_matrix,
    sweep_rows,
    tile_diagonals,
)


class TestScoringScheme:
    def test_defaults_are_global_mode(self):
        scheme = ScoringScheme()
        assert scheme.mode == "global"
        assert scheme.substitution(True) == scheme.match
        assert scheme.substitution(False) == scheme.mismatch

    def test_rejects_non_integer_scores(self):
        with pytest.raises(TypeError, match="match"):
            ScoringScheme(match=1.5)
        with pytest.raises(TypeError, match="gap"):
            ScoringScheme(gap=True)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            ScoringScheme(mode="semi-global")


class TestEncodeAndBand:
    def test_encode_roundtrips_ascii(self):
        codes = encode_sequence("ACGT")
        assert codes.dtype == np.uint8
        assert [chr(c) for c in codes] == ["A", "C", "G", "T"]

    def test_encode_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            encode_sequence("")

    def test_global_band_must_reach_corner(self):
        with pytest.raises(ValueError, match="band"):
            score_matrix("ACGTACGT", "AC", band=2)

    def test_band_rows_enumerate_exactly_in_band_cells(self):
        n, m, band = 7, 5, 2
        expected = {
            (i, j)
            for i in range(1, n + 1)
            for j in range(1, m + 1)
            if in_band(i, j, band)
        }

        def cells(spans):
            return [(i, j) for i, lo, hi in spans for j in range(lo, hi + 1)]

        spans = band_rows(1, n, 1, m, band)
        assert cells(spans) == sorted(expected)
        assert all(lo <= hi for _, lo, hi in spans)  # rows that miss the band are left out
        assert band_rows(1, 2, 5, 5, 1) == []  # row 2 reaches column 3 at most
        assert band_rows(1, 4, 5, 5, 1) == [(4, 5, 5)]
        # Shifted by an origin: the same cells in a copied block's coordinates.
        assert cells(band_rows(3, 5, 2, 4, band, origin=(2, 1))) == [
            (i - 2, j - 1) for i, j in sorted(expected) if 3 <= i <= 5 and 2 <= j <= 4
        ]


class TestCellScore:
    def test_prefers_diagonal_then_up_then_left_on_value(self):
        scheme = ScoringScheme(match=2, mismatch=-1, gap=-2)
        value, matched = cell_score(3, 0, 0, True, scheme)
        assert value == 5 and matched
        value, matched = cell_score(0, 5, 1, False, scheme)
        assert value == 3 and not matched

    def test_local_mode_floors_at_zero(self):
        scheme = ScoringScheme(mode="local")
        value, matched = cell_score(-10, -10, -10, False, scheme)
        assert value == 0 and not matched

    def test_out_of_band_sentinel_loses_every_max(self):
        scheme = ScoringScheme()
        value, _ = cell_score(OUT_OF_BAND, OUT_OF_BAND, 4, False, scheme)
        assert value == 4 + scheme.gap


class TestOracle:
    def test_textbook_needleman_wunsch_example(self):
        # The classic GATTACA/GCATGCU instance with unit scores.
        scheme = ScoringScheme(match=1, mismatch=-1, gap=-1)
        result = align_sequential("GATTACA", "GCATGCU", scheme=scheme)
        assert result.score == 0
        assert len(result.aligned_a) == len(result.aligned_b)
        assert result.path[0] == (0, 0) and result.path[-1] == (7, 7)

    def test_local_alignment_finds_embedded_match(self):
        scheme = ScoringScheme(match=2, mismatch=-3, gap=-3, mode="local")
        result = align_sequential("TTTTGGGCC", "AAAGGGAAA", scheme=scheme)
        assert result.score == 6  # the shared GGG run, nothing more
        assert result.aligned_a == "GGG" and result.aligned_b == "GGG"

    def test_kernels_bit_identical(self):
        a, b = generate_pair(3, 33)
        a_codes, b_codes = encode_sequence(a), encode_sequence(b)
        n, m = len(a), len(b)
        for mode in ("global", "local"):
            for band in (None, 12):
                scheme = ScoringScheme(mode=mode)
                use_band = band
                if band is not None and mode == "global":
                    use_band = max(band, abs(len(a) - len(b)))
                matrix = score_matrix(a, b, scheme=scheme, band=use_band, kernel="numpy")
                np.testing.assert_array_equal(
                    matrix, score_matrix(a, b, scheme=scheme, band=use_band, kernel="python")
                )
                # A full row-major sweep yields summarize_matrix's statistics:
                # the contract the OpenMP reduction rung's merge relies on.
                rows = init_matrix(n, m, scheme, use_band).tolist()
                swept = sweep_rows(
                    rows, a_codes.tolist(), b_codes.tolist(),
                    band_rows(1, n, 1, m, use_band), scheme,
                )
                np.testing.assert_array_equal(np.asarray(rows), matrix)
                best_score, best_cell, match_events = summarize_matrix(
                    matrix, a_codes, b_codes, scheme, use_band
                )
                assert swept == (match_events, (best_score, *best_cell))

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="kernel"):
            score_matrix("ACGT", "ACGT", kernel="fortran")

    def test_band_excluded_cells_keep_sentinel(self):
        H = score_matrix("ACGTACGT", "ACGTACGT", band=2)
        n = m = 8
        for i in range(n + 1):
            for j in range(m + 1):
                if abs(i - j) > 2:
                    assert H[i, j] == OUT_OF_BAND
                else:
                    assert H[i, j] > OUT_OF_BAND

    def test_traceback_spells_the_input_sequences(self):
        a, b = generate_pair(9, 28)
        result = align_sequential(a, b)
        assert result.aligned_a.replace("-", "") == a
        assert result.aligned_b.replace("-", "") == b
        assert len(result.aligned_a) == len(result.aligned_b)

    def test_summarize_matches_oracle_statistics(self):
        a, b = generate_pair(2, 21)
        scheme = ScoringScheme()
        result = align_sequential(a, b, scheme=scheme)
        best_score, best_cell, match_events = summarize_matrix(
            result.matrix, encode_sequence(a), encode_sequence(b), scheme, None
        )
        assert (best_score, best_cell, match_events) == (
            result.best_score, result.best_cell, result.match_events,
        )


class TestInitMatrix:
    def test_global_boundaries_ladder_the_gap(self):
        scheme = ScoringScheme(gap=-3)
        H = init_matrix(4, 5, scheme, None)
        np.testing.assert_array_equal(H[0, :], np.arange(6) * -3)
        np.testing.assert_array_equal(H[:, 0], np.arange(5) * -3)

    def test_local_boundaries_are_zero(self):
        H = init_matrix(3, 3, ScoringScheme(mode="local"), None)
        assert H[0, :].sum() == 0 and H[:, 0].sum() == 0

    def test_banded_boundary_cells_outside_band_stay_sentinel(self):
        H = init_matrix(6, 6, ScoringScheme(), 2)
        assert H[0, 3] == OUT_OF_BAND and H[0, 2] == -4
        assert H[4, 0] == OUT_OF_BAND and H[2, 0] == -4


class TestTileDiagonals:
    def test_tiles_cover_interior_exactly_once(self):
        n, m, tile = 10, 7, 3
        seen = {}
        for td, wave in enumerate(tile_diagonals(n, m, tile, None)):
            for ti, tj in wave:
                assert ti + tj == td
                for i in range(1 + ti * tile, min(n, tile + ti * tile) + 1):
                    for j in range(1 + tj * tile, min(m, tile + tj * tile) + 1):
                        assert (i, j) not in seen
                        seen[(i, j)] = td
        assert len(seen) == n * m

    def test_band_prunes_far_tiles(self):
        full = sum(len(w) for w in tile_diagonals(64, 64, 4, None))
        banded = sum(len(w) for w in tile_diagonals(64, 64, 4, 4))
        assert banded < full


class TestSyntheticData:
    def test_generate_sequence_is_deterministic_dna(self):
        s1 = generate_sequence(13, 50)
        s2 = generate_sequence(13, 50)
        assert s1 == s2 and len(s1) == 50
        assert set(s1) <= set(ALPHABET)

    def test_streams_are_disjoint(self):
        assert generate_sequence(13, 50, stream=0) != generate_sequence(13, 50, stream=1)

    def test_mutation_with_zero_rates_is_identity(self):
        ref = generate_sequence(4, 40)
        assert mutate_sequence(4, ref, sub_rate=0.0, indel_rate=0.0) == ref

    def test_mutation_rates_validated(self):
        with pytest.raises(ValueError, match="exceed"):
            mutate_sequence(0, "ACGT", sub_rate=0.9, indel_rate=0.2)

    def test_generate_pair_reproducible_and_related(self):
        a1, b1 = generate_pair(21, 64)
        a2, b2 = generate_pair(21, 64)
        assert (a1, b1) == (a2, b2)
        assert a1 != b1  # the mutation channel fired somewhere
        # The pair aligns far better than an unrelated pair of the same
        # lengths — the whole point of mutating rather than regenerating.
        related = align_sequential(a1, b1).score
        unrelated = align_sequential(a1, generate_pair(22, 64)[0]).score
        assert related > unrelated
