"""Tests for the MapReduce-MPI kNN and the Word Counting warm-up."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.knn import knn_predict_vectorized, make_blobs, run_knn_mapreduce, run_wordcount
from repro.knn.wordcount import tokenize


class TestWordcount:
    LINES = [
        "It was the best of times,",
        "it was the worst of times.",
    ]

    @pytest.mark.parametrize("size", [1, 2, 4])
    def test_counts_match_serial(self, size):
        counts = run_wordcount(size, self.LINES)
        assert counts["it"] == 2
        assert counts["was"] == 2
        assert counts["best"] == 1
        assert counts["times"] == 2

    def test_local_combine_same_answer(self):
        plain = run_wordcount(3, self.LINES)
        combined = run_wordcount(3, self.LINES, local_combine=True)
        assert plain == combined

    def test_tokenize_lowercases_and_strips_punctuation(self):
        assert tokenize("Hello, World! don't") == ["hello", "world", "don't"]

    @staticmethod
    def reference_tokenize(line):
        """Match first, then lowercase each token."""
        return [w.lower() for w in re.findall(r"[A-Za-z0-9']+", line)]

    @given(st.text() | st.text(st.sampled_from("aZ9' .,-\u0130\u212a\u00df\u03a3\u0391\u00e9")))
    @settings(max_examples=300, deadline=None)
    def test_tokenize_matches_reference(self, line):
        assert tokenize(line) == self.reference_tokenize(line)

    @pytest.mark.parametrize(
        "line, tokens",
        [
            # Lowercased first, U+0130 would add "i" plus a combining dot.
            ("\u0130stanbul", ["stanbul"]),
            # Lowercased first, the Kelvin sign would become "k" and join.
            ("\u212aelvin scale", ["elvin", "scale"]),
            ("Stra\u00dfe", ["stra", "e"]),
            ("\u03a3\u0391\u03a3 ABC", ["abc"]),
        ],
    )
    def test_tokenize_non_ascii_examples(self, line, tokens):
        assert tokenize(line) == tokens == self.reference_tokenize(line)


class TestMapReduceKnn:
    @pytest.fixture(scope="class")
    def dataset(self):
        db, labels = make_blobs(300, 6, 4, seed=11)
        queries, _ = make_blobs(40, 6, 4, seed=12)
        return db, labels, queries

    @pytest.mark.parametrize("ranks", [1, 2, 4])
    def test_matches_sequential(self, dataset, ranks):
        db, labels, queries = dataset
        serial = knn_predict_vectorized(db, labels, queries, 5)
        parallel, _ = run_knn_mapreduce(ranks, db, labels, queries, 5)
        np.testing.assert_array_equal(parallel, serial)

    def test_no_local_combine_matches_too(self, dataset):
        db, labels, queries = dataset
        serial = knn_predict_vectorized(db, labels, queries, 3)
        parallel, _ = run_knn_mapreduce(3, db, labels, queries, 3, local_combine=False)
        np.testing.assert_array_equal(parallel, serial)

    def test_local_combine_cuts_shuffle_volume(self, dataset):
        db, labels, queries = dataset
        _, shipped_plain = run_knn_mapreduce(4, db, labels, queries, 5, local_combine=False)
        _, shipped_combined = run_knn_mapreduce(4, db, labels, queries, 5, local_combine=True)
        # Without combine, ~n pairs per query cross ranks; with combine, k per task.
        assert shipped_combined < shipped_plain / 5

    def test_more_map_tasks_than_ranks(self, dataset):
        db, labels, queries = dataset
        serial = knn_predict_vectorized(db, labels, queries, 5)
        parallel, _ = run_knn_mapreduce(2, db, labels, queries, 5, num_map_tasks=9)
        np.testing.assert_array_equal(parallel, serial)

    def test_k_exceeds_database(self):
        db = np.array([[0.0, 0.0], [5.0, 5.0]])
        labels = np.array([0, 1])
        queries = np.array([[0.2, 0.1]])
        preds, _ = run_knn_mapreduce(2, db, labels, queries, k=10)
        assert preds[0] == 0

    def test_empty_database_rejected(self):
        from repro.mpi import RankFailedError

        with pytest.raises(RankFailedError, match="empty"):
            run_knn_mapreduce(
                1, np.empty((0, 2)), np.empty(0, dtype=int), np.zeros((1, 2)), 1
            )
