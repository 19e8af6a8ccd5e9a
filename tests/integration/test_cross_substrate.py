"""Integration tests spanning substrate boundaries.

Each test exercises a full assignment-sized stack: application code on
top of one or more substrates, verifying end-to-end behaviour rather
than single modules.
"""

import numpy as np
import pytest

from repro.knn import KNNClassifier, make_blobs, run_knn_mapreduce, train_test_split
from repro.mpi import SUM, run_spmd
from repro.spark import SparkContext
from repro.traffic import TrafficParams, simulate_parallel, simulate_serial


class TestKnnOverMapReduceOverMpi:
    """kNN → MapReduce engine → SPMD runtime, end to end."""

    def test_full_stack_classification_quality(self):
        pts, labels = make_blobs(400, 8, 3, seed=0)
        tr_x, tr_y, te_x, te_y = train_test_split(pts, labels, seed=0)
        preds, _ = run_knn_mapreduce(4, tr_x, tr_y, te_x, k=5)
        accuracy = float(np.mean(preds == te_y))
        serial_acc = KNNClassifier(k=5).fit(tr_x, tr_y).score(te_x, te_y)
        assert accuracy == pytest.approx(serial_acc)
        assert accuracy > 0.9

    def test_rank_count_invariance_of_full_stack(self):
        pts, labels = make_blobs(200, 4, 3, seed=1)
        queries, _ = make_blobs(30, 4, 3, seed=2)
        results = [
            run_knn_mapreduce(r, pts, labels, queries, k=3)[0] for r in (1, 2, 5)
        ]
        for got in results[1:]:
            np.testing.assert_array_equal(got, results[0])


class TestTrafficOverRngOverOpenmp:
    """Traffic → shared RNG sequence → thread team, the §5 stack."""

    def test_figure3_configuration_reproducible_across_threads(self):
        params = TrafficParams()  # the paper's exact parameters
        serial, _ = simulate_serial(params, 60)
        for threads in (2, 5):
            parallel, _ = simulate_parallel(params, 60, num_threads=threads)
            np.testing.assert_array_equal(parallel.positions, serial.positions)
            np.testing.assert_array_equal(parallel.velocities, serial.velocities)


class TestSparkOverThreads:
    """A realistic multi-stage pipeline through the RDD engine."""

    def test_multi_join_aggregation(self):
        sc = SparkContext(num_workers=4)
        orders = sc.parallelize(
            [(f"cust{i % 5}", 10.0 * (i % 7 + 1)) for i in range(100)], 4
        )
        segments = sc.parallelize(
            [(f"cust{i}", "gold" if i < 2 else "basic") for i in range(5)]
        )
        revenue_by_segment = (
            orders.join(segments)
            .map(lambda kv: (kv[1][1], kv[1][0]))
            .reduce_by_key(lambda a, b: a + b)
            .collect_as_map()
        )
        total = sum(v for _, v in orders.collect())
        assert revenue_by_segment["gold"] + revenue_by_segment["basic"] == pytest.approx(total)


class TestMpiComposition:
    """Sub-communicators running independent collectives concurrently."""

    def test_split_teams_run_independent_reductions(self):
        def program(comm):
            team = comm.split(color=comm.rank % 2, key=comm.rank)
            team_sum = team.allreduce(comm.rank, SUM)
            world_sum = comm.allreduce(comm.rank, SUM)
            return (team_sum, world_sum)

        results = run_spmd(6, program)
        evens = 0 + 2 + 4
        odds = 1 + 3 + 5
        assert results[0] == (evens, 15)
        assert results[1] == (odds, 15)
