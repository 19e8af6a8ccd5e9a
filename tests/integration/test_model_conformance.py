"""Cross-model conformance: every parallel substrate agrees with its reference.

The paper's assignments all share one correctness story — the parallel
program must compute *the same answer* as the serial one. This suite
pins that story end to end at fixed seeds. Every family but the NYC
pipeline takes its models from its ``repro.<family>.ladder`` module,
and :func:`assert_ladder_agrees` holds every rung to the ladder's
``mismatches`` against the first rung, the reference (each ladder's
docstring states its contract). Beyond that:

- k-means: the ``BLOCKED`` rungs give byte-identical centroids;
- align: global, local and banded schemes, and a tile sweep;
- traffic: 1, 3 and 4 workers;
- heat: every 1-D solver also meets the analytic eigenmode solution;
- NYC pipeline: the Figure 2 rates and cleaning tallies are identical
  on every Spark executor backend (the broadcast NTA index survives the
  process backend's fork and pickle path).
"""

import numpy as np
import pytest

from repro.align import ScoringScheme, generate_pair
from repro.align import ladder as align_ladder
from repro.core.executor import BACKENDS
from repro.heat import ladder as heat_ladder
from repro.heat.analytic import discrete_sine_solution, sine_initial_condition
from repro.hpo import ladder as hpo_ladder
from repro.kmeans import TerminationCriteria
from repro.kmeans import ladder as kmeans_ladder
from repro.kmeans.initialization import init_random_points
from repro.knn import ladder as knn_ladder
from repro.pipeline import arrests_per_100k, generate_arrests, generate_ntas
from repro.spark import SparkContext
from repro.traffic import ladder as traffic_ladder

SEEDS = (0, 7, 123)
KMEANS_SIZES = ((48, 2), (90, 3))
CRITERIA = TerminationCriteria(max_iterations=12)
#: Two sequence-length classes: short (fits one tile/thread block) and
#: long (many anti-diagonals per rank/thread, uneven partitions).
ALIGN_LENGTHS = (40, 96)


def make_points(seed: int, shape: tuple[int, int]) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=shape)


def assert_ladder_agrees(ladder, problem, *, workers=3, **model_kwargs):
    """Every rung of a family's ladder meets its contract against the
    first rung, the reference; returns each rung's result."""
    rungs = ladder.rungs(problem, workers=workers, **model_kwargs)
    results = {name: run() for name, run in rungs.items()}
    reference = next(iter(results.values()))
    for name, result in results.items():
        assert not ladder.mismatches(result, reference), name
    return results


class TestKMeansConformance:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("shape", KMEANS_SIZES)
    def test_all_models_agree_centroid_for_centroid(self, seed, shape):
        points = make_points(seed, shape)
        k = 3
        init = init_random_points(points, k, seed=seed)
        results = assert_ladder_agrees(
            kmeans_ladder, (points, k), criteria=CRITERIA, initial_centroids=init
        )
        blocked = {results[name].centroids.tobytes() for name in kmeans_ladder.BLOCKED}
        assert len(blocked) == 1, kmeans_ladder.BLOCKED

    @pytest.mark.parametrize("seed", SEEDS)
    def test_executor_backends_bit_identical(self, seed):
        points = make_points(seed, (60, 2))
        init = init_random_points(points, 3, seed=seed)
        rungs = kmeans_ladder.rungs(
            (points, 3), workers=4, criteria=CRITERIA, initial_centroids=init
        )
        results = [rungs[f"executor-{backend}"]() for backend in BACKENDS]
        for other in results[1:]:
            np.testing.assert_array_equal(other.centroids, results[0].centroids)
            np.testing.assert_array_equal(other.assignments, results[0].assignments)


class TestKnnConformance:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_all_models_predict_alike(self, seed):
        # 2-D, so the quadtree runs too; at these seeds every query's
        # k-th and (k+1)-th nearest distances are over 1e-3 apart.
        assert_ladder_agrees(knn_ladder, knn_ladder.problem(seed, 120, 30, 4, 5))


class TestNycConformance:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_spark_backends_bit_identical(self, seed):
        ntas = generate_ntas(3, 4, seed=seed)
        datasets = [
            generate_arrests(900, ntas, year=2020, seed=seed),
            generate_arrests(600, ntas, year=2021, seed=seed),
        ]
        results = {}
        for backend in BACKENDS:
            with SparkContext(3, backend=backend) as sc:
                results[backend] = arrests_per_100k(sc, datasets, ntas, year_filter=2021)
        reference = results.pop("serial")
        assert reference[1]["dropped"] > 0
        for backend, result in results.items():
            assert result == reference, backend


class TestAlignConformance:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("length", ALIGN_LENGTHS)
    def test_all_models_agree_bitwise(self, seed, length):
        assert_ladder_agrees(align_ladder, generate_pair(seed, length), tile=16)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "mode,band", [("local", None), ("global", 12), ("local", 10)]
    )
    def test_modes_and_bands_agree_bitwise(self, seed, mode, band):
        a, b = generate_pair(seed, 60)
        if band is not None and mode == "global":
            band = max(band, abs(len(a) - len(b)))
        assert_ladder_agrees(
            align_ladder, (a, b), tile=16, scheme=ScoringScheme(mode=mode), band=band
        )

    @pytest.mark.parametrize("tile", [1, 7, 200])
    @pytest.mark.parametrize("mode,band", [("global", None), ("local", 4)])
    def test_tile_sweep_agrees_bitwise(self, tile, mode, band):
        # tile=1 is one cell per tile (the OpenMP team barriers per cell
        # anti-diagonal, MPI sends one cell per column); tile > n is a
        # single tile (one thread does all the work, MPI sends one strip).
        a, b = generate_pair(9, 30)
        if mode == "global" and band is not None:
            band = max(band, abs(len(a) - len(b)))
        assert_ladder_agrees(
            align_ladder, (a, b), tile=tile, scheme=ScoringScheme(mode=mode), band=band
        )


class TestTrafficConformance:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("road_length,num_cars", [(120, 30), (250, 80)])
    def test_serial_and_parallel_bit_identical(self, seed, road_length, num_cars):
        problem = traffic_ladder.problem(seed, 40, road_length=road_length, num_cars=num_cars)
        for workers in (1, 3, 4):
            assert_ladder_agrees(traffic_ladder, problem, workers=workers)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_trajectories_bit_identical(self, seed):
        problem = traffic_ladder.problem(seed, 15, road_length=100, num_cars=25)
        results = assert_ladder_agrees(traffic_ladder, problem)
        # The recording rungs were compared over all 16 states.
        assert {results[name][0].shape for name in ("serial-grid", "parallel")} == {(16, 100)}


class TestHeatConformance:
    @pytest.mark.parametrize("n,num_steps", [(48, 30), (96, 60)])
    @pytest.mark.parametrize("num_locales", [2, 3])
    def test_solvers_match_analytic_solution(self, n, num_steps, num_locales):
        alpha = 0.25
        exact = discrete_sine_solution(n, alpha, num_steps)
        problem = (sine_initial_condition(n), alpha, num_steps)
        for name, run in heat_ladder.rungs(problem, workers=num_locales).items():
            np.testing.assert_allclose(run()[0], exact, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("n,num_steps", [(48, 30), (96, 60)])
    def test_solvers_match_serial_bitwise(self, n, num_steps):
        assert_ladder_agrees(heat_ladder, (sine_initial_condition(n), 0.2, num_steps))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_2d_solvers_match_serial_bitwise(self, seed):
        # 4 ranks make a 2 x 2 process grid: halos along both axes.
        assert_ladder_agrees(heat_ladder, heat_ladder.problem(seed, (10, 13), 15, 0.2), workers=4)


class TestHpoConformance:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_all_farms_rank_alike(self, seed):
        # 3 configurations on 2 workers: the uneven split of paper §7.
        assert_ladder_agrees(hpo_ladder, hpo_ladder.problem(seed, 80, 30), workers=2)
