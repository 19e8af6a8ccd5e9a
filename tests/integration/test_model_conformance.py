"""Cross-model conformance: every parallel substrate agrees with its reference.

The paper's assignments all share one correctness story — the parallel
program must compute *the same answer* as the serial one. This suite
pins that story end to end at fixed seeds:

- k-means: every rung of :func:`repro.kmeans.ladder.rungs` (OpenMP
  critical/atomic/reduction, MPI, the executor variant on every
  backend, device) meets :func:`repro.kmeans.ladder.mismatches`
  against sequential: exact assignments, iterations and change
  history, centroids within 1e-9;
- traffic: serial and parallel simulations are bit-identical (the
  shared-LCG contract of paper §5);
- heat: the forall and coforall solvers match both the serial stencil
  (bitwise) and the analytic eigenmode solution (within tolerance);
- NYC pipeline: the Figure 2 rates and cleaning tallies are identical
  on every Spark executor backend (the broadcast NTA index survives the
  process backend's fork and pickle path);
- align: every rung of :func:`repro.align.ladder.rungs` (python
  kernel, every guarded OpenMP rung, MPI block rows, every executor
  backend) matches the numpy oracle field for field, matrices and
  traceback paths included, under global, local and banded schemes
  (integer scoring makes exact equality the contract, not a tolerance);
- kNN: every rung of :func:`repro.knn.ladder.rungs` (heap brute force,
  kd-tree, quadtree, device grid, OpenMP, MPI, MapReduce with and
  without the local combine) predicts exactly what the vectorized
  brute force predicts.
"""

import numpy as np
import pytest

from repro.align import ScoringScheme, generate_pair
from repro.align import ladder as align_ladder
from repro.chapel import set_num_locales
from repro.core.executor import BACKENDS
from repro.heat.analytic import discrete_sine_solution, sine_initial_condition
from repro.heat.coforall_solver import solve_coforall
from repro.heat.forall_solver import solve_forall
from repro.heat.serial import solve_serial
from repro.kmeans import TerminationCriteria, kmeans_parallel
from repro.kmeans import ladder as kmeans_ladder
from repro.kmeans.initialization import init_random_points
from repro.knn import ladder as knn_ladder
from repro.pipeline import arrests_per_100k, generate_arrests, generate_ntas
from repro.spark import SparkContext
from repro.traffic import TrafficParams, simulate_parallel, simulate_serial

SEEDS = (0, 7, 123)
KMEANS_SIZES = ((48, 2), (90, 3))
CRITERIA = TerminationCriteria(max_iterations=12)
#: Two sequence-length classes: short (fits one tile/thread block) and
#: long (many anti-diagonals per rank/thread, uneven partitions).
ALIGN_LENGTHS = (40, 96)


def make_points(seed: int, shape: tuple[int, int]) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=shape)


def assert_ladder_agrees(ladder, problem, **model_kwargs):
    """Every rung of a family's ladder meets its contract against sequential."""
    rungs = ladder.rungs(problem, workers=3, **model_kwargs)
    reference = rungs.pop("sequential")()
    for name, run in rungs.items():
        assert not ladder.mismatches(run(), reference), name


class TestKMeansConformance:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("shape", KMEANS_SIZES)
    def test_all_models_agree_centroid_for_centroid(self, seed, shape):
        points = make_points(seed, shape)
        k = 3
        init = init_random_points(points, k, seed=seed)
        assert_ladder_agrees(
            kmeans_ladder, (points, k), criteria=CRITERIA, initial_centroids=init
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_executor_backends_bit_identical(self, seed):
        points = make_points(seed, (60, 2))
        init = init_random_points(points, 3, seed=seed)
        results = [
            kmeans_parallel(
                points, 3, num_workers=4, backend=backend,
                criteria=CRITERIA, initial_centroids=init,
            )
            for backend in BACKENDS
        ]
        for other in results[1:]:
            np.testing.assert_array_equal(other.centroids, results[0].centroids)
            np.testing.assert_array_equal(other.assignments, results[0].assignments)


class TestKnnConformance:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_all_models_predict_alike(self, seed):
        # 2-D, so the quadtree runs too; at these seeds every query's
        # k-th and (k+1)-th nearest distances are over 1e-3 apart.
        rungs = knn_ladder.rungs(knn_ladder.problem(seed, 120, 30, 4, 5), workers=3)
        reference = rungs.pop("brute-vectorized")()
        for name, run in rungs.items():
            assert not knn_ladder.mismatches(run(), reference), name


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
        scheme = ScoringScheme(mode=mode)
        rungs = align_ladder.rungs((a, b), workers=3, tile=tile, scheme=scheme, band=band)
        reference = rungs.pop("sequential")()
        for name, run in rungs.items():
            if name.startswith(("openmp-", "mpi")):
                assert not align_ladder.mismatches(run(), reference), name


class TestTrafficConformance:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("road_length,num_cars", [(120, 30), (250, 80)])
    def test_serial_and_parallel_bit_identical(self, seed, road_length, num_cars):
        params = TrafficParams(road_length=road_length, num_cars=num_cars, seed=seed)
        serial, _ = simulate_serial(params, 40)
        for num_threads in (1, 3, 4):
            parallel, _ = simulate_parallel(params, 40, num_threads)
            np.testing.assert_array_equal(parallel.positions, serial.positions)
            np.testing.assert_array_equal(parallel.velocities, serial.velocities)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_trajectories_bit_identical(self, seed):
        params = TrafficParams(road_length=100, num_cars=25, seed=seed)
        _, serial_traj = simulate_serial(params, 15, record=True)
        _, parallel_traj = simulate_parallel(params, 15, 3, record=True)
        assert len(serial_traj) == len(parallel_traj)
        for s, p in zip(serial_traj, parallel_traj):
            np.testing.assert_array_equal(p.positions, s.positions)


class TestHeatConformance:
    @pytest.fixture(autouse=True)
    def reset_locales(self):
        set_num_locales(1)
        yield
        set_num_locales(1)

    @pytest.mark.parametrize("n,num_steps", [(48, 30), (96, 60)])
    @pytest.mark.parametrize("num_locales", [2, 3])
    def test_solvers_match_analytic_solution(self, n, num_steps, num_locales):
        alpha = 0.25
        u0 = sine_initial_condition(n)
        exact = discrete_sine_solution(n, alpha, num_steps)
        locs = set_num_locales(num_locales)
        forall, _ = solve_forall(u0, alpha, num_steps, locs)
        coforall, _ = solve_coforall(u0, alpha, num_steps, locs)
        np.testing.assert_allclose(forall, exact, atol=1e-12)
        np.testing.assert_allclose(coforall, exact, atol=1e-12)

    @pytest.mark.parametrize("n,num_steps", [(48, 30), (96, 60)])
    def test_solvers_match_serial_bitwise(self, n, num_steps):
        alpha = 0.2
        u0 = sine_initial_condition(n)
        serial, _ = solve_serial(u0, alpha, num_steps)
        locs = set_num_locales(3)
        forall, _ = solve_forall(u0, alpha, num_steps, locs)
        coforall, _ = solve_coforall(u0, alpha, num_steps, locs)
        np.testing.assert_array_equal(forall, serial)
        np.testing.assert_array_equal(coforall, serial)
