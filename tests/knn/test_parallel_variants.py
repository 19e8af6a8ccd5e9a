"""Tests for the kNN adaptation variants: OpenMP, plain MPI, device-style."""

import numpy as np
import pytest

from repro.knn import (
    knn_openmp,
    knn_predict_vectorized,
    make_blobs,
    run_knn_mpi,
)


@pytest.fixture(scope="module")
def dataset():
    db, labels = make_blobs(400, 6, 4, seed=20)
    queries, _ = make_blobs(75, 6, 4, seed=21)
    reference = knn_predict_vectorized(db, labels, queries, 5)
    return db, labels, queries, reference


class TestOpenmpKnn:
    @pytest.mark.parametrize("threads", [1, 2, 4, 8])
    def test_static_schedule_matches(self, dataset, threads):
        db, labels, queries, reference = dataset
        got = knn_openmp(db, labels, queries, 5, num_threads=threads)
        np.testing.assert_array_equal(got, reference)

    @pytest.mark.parametrize("schedule", ["static", "static-cyclic"])
    def test_every_schedule_classifies_chunks(self, dataset, schedule, monkeypatch):
        import repro.knn.parallel_variants as variants

        db, labels, queries, reference = dataset
        blocks = []

        def spy(database, labels, block, k):
            blocks.append(len(block))
            return knn_predict_vectorized(database, labels, block, k)

        monkeypatch.setattr(variants, "knn_predict_vectorized", spy)
        got = knn_openmp(db, labels, queries, 5, num_threads=3, schedule=schedule, chunk=7)
        np.testing.assert_array_equal(got, reference)
        assert sorted(blocks) == [5] + [7] * 10  # 75 queries in chunks of 7

    @pytest.mark.parametrize("schedule", ["dynamic", "guided"])
    def test_dynamic_schedules_match(self, dataset, schedule):
        db, labels, queries, reference = dataset
        got = knn_openmp(db, labels, queries, 5, num_threads=3, schedule=schedule, chunk=7)
        np.testing.assert_array_equal(got, reference)

    def test_more_threads_than_queries(self, dataset):
        db, labels, queries, reference = dataset
        got = knn_openmp(db, labels, queries[:3], 5, num_threads=8)
        np.testing.assert_array_equal(got, reference[:3])


class TestMpiKnn:
    @pytest.mark.parametrize("ranks", [1, 2, 5])
    def test_matches_reference(self, dataset, ranks):
        db, labels, queries, reference = dataset
        got = run_knn_mpi(ranks, db, labels, queries, 5)
        np.testing.assert_array_equal(got, reference)

    def test_root_must_have_queries(self, dataset):
        from repro.knn.parallel_variants import knn_mpi
        from repro.mpi import RankFailedError, run_spmd

        db, labels, _, _ = dataset
        with pytest.raises(RankFailedError, match="query set"):
            run_spmd(2, lambda comm: knn_mpi(comm, db, labels, None, 3))


class TestDeviceKnn:
    # The device rung is the vectorized engine's block loop: one
    # distance tile per block of queries, as in a CUDA-style grid.
    @pytest.mark.parametrize("block_size", [1, 16, 1000])
    def test_block_size_invariance(self, dataset, block_size):
        db, labels, queries, reference = dataset
        got = knn_predict_vectorized(db, labels, queries, 5, block=block_size)
        np.testing.assert_array_equal(got, reference)

    def test_invalid_block_size(self, dataset):
        db, labels, queries, _ = dataset
        with pytest.raises(ValueError):
            knn_predict_vectorized(db, labels, queries, 5, block=0)
