"""Tests for K-means: sequential reference, the OpenMP ladder, MPI, device."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kmeans import (
    TerminationCriteria,
    init_kmeans_plus_plus,
    init_random_points,
    kmeans_device,
    kmeans_mpi,
    kmeans_openmp,
    kmeans_sequential,
    run_kmeans_mpi,
)
from repro.kmeans import ladder
from repro.kmeans.sequential import compute_inertia
from repro.knn.data import make_blobs
from repro.mpi import RankFailedError


@pytest.fixture(scope="module")
def blobs():
    return make_blobs(600, 2, 3, seed=42, separation=8.0, spread=0.8)


@pytest.fixture(scope="module")
def reference(blobs):
    points, _ = blobs
    return kmeans_sequential(points, 3, seed=7)


class TestTermination:
    def test_thresholds_validated(self):
        with pytest.raises(ValueError):
            TerminationCriteria(max_iterations=0)
        with pytest.raises(ValueError):
            TerminationCriteria(min_changes=-1)
        with pytest.raises(ValueError):
            TerminationCriteria(max_centroid_shift=-0.1)

    def test_reason_priority(self):
        c = TerminationCriteria(max_iterations=10, min_changes=5, max_centroid_shift=0.01)
        assert c.reason_to_stop(1, changes=3, max_shift=1.0) == "changes"
        assert c.reason_to_stop(1, changes=100, max_shift=0.001) == "centroid_shift"
        assert c.reason_to_stop(10, changes=100, max_shift=1.0) == "max_iterations"
        assert c.reason_to_stop(5, changes=100, max_shift=1.0) is None


class TestInitialization:
    def test_random_points_distinct_and_deterministic(self, blobs):
        points, _ = blobs
        a = init_random_points(points, 5, seed=3)
        b = init_random_points(points, 5, seed=3)
        np.testing.assert_array_equal(a, b)
        assert len({tuple(row) for row in a}) == 5

    def test_random_points_are_data_points(self, blobs):
        points, _ = blobs
        centroids = init_random_points(points, 4, seed=1)
        pts_set = {tuple(row) for row in points}
        assert all(tuple(c) in pts_set for c in centroids)

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            init_random_points(np.zeros((3, 2)), 4)

    def test_kmeans_plus_plus_spreads(self, blobs):
        points, _ = blobs
        pp = init_kmeans_plus_plus(points, 3, seed=0)
        assert pp.shape == (3, 2)
        # Centroids from ++ should be farther apart than worst-case random.
        dists = [np.linalg.norm(pp[i] - pp[j]) for i in range(3) for j in range(i)]
        assert min(dists) > 1.0

    def test_kmeans_plus_plus_all_identical_points(self):
        pts = np.ones((10, 2))
        pp = init_kmeans_plus_plus(pts, 3, seed=0)
        np.testing.assert_array_equal(pp, np.ones((3, 2)))


class TestSequential:
    def test_recovers_well_separated_blobs(self, blobs, reference):
        points, true_labels = blobs
        # Map each found cluster to its majority true label; must be a
        # bijection and classify nearly everything consistently.
        mapping = {}
        for c in range(3):
            members = true_labels[reference.assignments == c]
            assert len(members) > 0
            mapping[c] = np.bincount(members).argmax()
        assert sorted(mapping.values()) == [0, 1, 2]
        relabeled = np.array([mapping[a] for a in reference.assignments])
        assert (relabeled == true_labels).mean() > 0.99

    def test_monotone_inertia_across_iterations(self, blobs):
        # Property of Lloyd's algorithm: inertia never increases.
        points, _ = blobs
        centroids = init_random_points(points, 3, seed=7)
        inertias = []
        for it in range(1, 8):
            result = kmeans_sequential(
                points, 3,
                criteria=TerminationCriteria(max_iterations=it, min_changes=0, max_centroid_shift=0.0),
                initial_centroids=centroids,
            )
            inertias.append(result.inertia)
        assert all(a >= b - 1e-9 for a, b in zip(inertias, inertias[1:]))

    def test_stops_on_no_changes(self, blobs, reference):
        assert reference.stop_reason in ("changes", "centroid_shift")
        assert reference.changes_history[-1] <= 0 or reference.shift_history[-1] <= 1e-8

    def test_assignment_counts_conserved(self, blobs, reference):
        points, _ = blobs
        assert reference.assignments.shape == (points.shape[0],)
        assert set(np.unique(reference.assignments)) <= {0, 1, 2}

    def test_empty_cluster_keeps_centroid(self):
        # Three coincident points, k=2: the far cluster is empty after assign.
        pts = np.zeros((3, 2))
        init = np.array([[0.0, 0.0], [100.0, 100.0]])
        result = kmeans_sequential(pts, 2, initial_centroids=init)
        np.testing.assert_array_equal(result.centroids[1], [100.0, 100.0])

    def test_input_validation(self):
        with pytest.raises(ValueError):
            kmeans_sequential(np.zeros((0, 2)), 2)
        with pytest.raises(ValueError):
            kmeans_sequential(np.zeros((5, 2)), 2, initial_centroids=np.zeros((3, 2)))

    @pytest.mark.parametrize(
        "points,k,init,message",
        [
            (np.zeros((0, 2)), 2, None, "points must be a non-empty 2-D array"),
            (np.zeros(5), 2, None, "points must be a non-empty 2-D array"),
            (np.zeros((5, 2)), 0, None, "k must be >= 1"),
            (np.zeros((5, 2)), 2, np.zeros((3, 2)), r"initial_centroids must be \(2, 2\)"),
        ],
        ids=["empty", "1-D", "k=0", "init-shape"],
    )
    def test_input_validation_every_rung(self, points, k, init, message):
        # Every model validates through the same start; MPI surfaces the
        # root's error inside RankFailedError.
        for label, run in ladder.rungs((points, k), workers=2, initial_centroids=init).items():
            error = RankFailedError if label == "mpi" else ValueError
            with pytest.raises(error, match=message):
                run()

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_property_inertia_nonnegative(self, seed):
        points, _ = make_blobs(60, 2, 2, seed=seed)
        result = kmeans_sequential(points, 2, seed=seed)
        assert result.inertia >= 0.0


class TestOpenmpLadder:
    @pytest.mark.parametrize("variant", ["critical", "atomic", "reduction"])
    def test_variant_matches_sequential(self, blobs, reference, variant):
        points, _ = blobs
        init = init_random_points(points, 3, seed=7)
        result = kmeans_openmp(
            points, 3, num_threads=4, variant=variant, initial_centroids=init
        )
        np.testing.assert_array_equal(result.assignments, reference.assignments)
        np.testing.assert_allclose(result.centroids, reference.centroids, atol=1e-9)
        assert result.iterations == reference.iterations

    def test_thread_count_does_not_change_result(self, blobs):
        points, _ = blobs
        init = init_random_points(points, 3, seed=7)
        results = [
            kmeans_openmp(points, 3, num_threads=t, variant="reduction", initial_centroids=init)
            for t in (1, 2, 5)
        ]
        for r in results[1:]:
            np.testing.assert_array_equal(r.assignments, results[0].assignments)

    def test_unknown_variant(self, blobs):
        points, _ = blobs
        with pytest.raises(ValueError, match="variant"):
            kmeans_openmp(points, 3, variant="simd")


class TestMpi:
    @pytest.mark.parametrize("ranks", [1, 2, 4])
    def test_matches_sequential(self, blobs, reference, ranks):
        points, _ = blobs
        init = init_random_points(points, 3, seed=7)
        result = run_kmeans_mpi(ranks, points, 3, initial_centroids=init)
        np.testing.assert_array_equal(result.assignments, reference.assignments)
        np.testing.assert_allclose(result.centroids, reference.centroids, atol=1e-9)
        assert result.iterations == reference.iterations
        assert result.stop_reason == reference.stop_reason

    def test_non_root_returns_none(self, blobs):
        from repro.mpi import run_spmd

        points, _ = blobs
        init = init_random_points(points, 3, seed=7)
        outs = run_spmd(
            3,
            lambda comm: kmeans_mpi(
                comm, points if comm.rank == 0 else None, 3, initial_centroids=init
            ),
        )
        assert outs[0] is not None
        assert outs[1] is None and outs[2] is None

    def test_more_ranks_than_points(self):
        pts = np.array([[0.0, 0.0], [10.0, 10.0]])
        result = run_kmeans_mpi(4, pts, 2, initial_centroids=pts.copy())
        assert sorted(result.assignments.tolist()) == [0, 1]


class TestDevice:
    @pytest.mark.parametrize("mode", ["block_reduce", "global_atomic"])
    def test_matches_sequential(self, blobs, reference, mode):
        points, _ = blobs
        init = init_random_points(points, 3, seed=7)
        result = kmeans_device(
            points, 3, block_size=64, update_mode=mode, initial_centroids=init
        )
        np.testing.assert_array_equal(result.assignments, reference.assignments)
        np.testing.assert_allclose(result.centroids, reference.centroids, atol=1e-9)

    def test_block_size_invariance(self, blobs):
        points, _ = blobs
        init = init_random_points(points, 3, seed=7)
        a = kmeans_device(points, 3, block_size=32, initial_centroids=init)
        b = kmeans_device(points, 3, block_size=512, initial_centroids=init)
        np.testing.assert_array_equal(a.assignments, b.assignments)

    def test_unknown_mode(self, blobs):
        points, _ = blobs
        with pytest.raises(ValueError, match="update_mode"):
            kmeans_device(points, 3, update_mode="warp")


class TestInertia:
    def test_compute_inertia_zero_when_points_on_centroids(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        cents = pts.copy()
        assert compute_inertia(pts, cents, np.array([0, 1])) == 0.0
