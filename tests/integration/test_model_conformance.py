"""Cross-model conformance: every parallel substrate agrees with its reference.

The paper's assignments all share one correctness story — the parallel
program must compute *the same answer* as the serial one. This suite
pins that story end to end at fixed seeds:

- k-means: sequential == openmp (every correct rung) == mpi == the
  executor-backed variant on every backend, centroid-for-centroid;
- traffic: serial and parallel simulations are bit-identical (the
  shared-LCG contract of paper §5);
- heat: the forall and coforall solvers match both the serial stencil
  (bitwise) and the analytic eigenmode solution (within tolerance);
- align: the wavefront family — sequential (both kernels), every
  guarded OpenMP rung, MPI block rows, and every executor backend
  produce bit-identical score matrices *and* traceback paths (integer
  scoring makes exact equality the contract, not a tolerance).
"""

import numpy as np
import pytest

from repro.align import (
    ScoringScheme,
    align_executor,
    align_openmp,
    align_sequential,
    generate_pair,
    run_align_mpi,
)
from repro.align.openmp_align import VARIANTS as ALIGN_VARIANTS
from repro.chapel import set_num_locales
from repro.core.executor import BACKENDS
from repro.heat.analytic import discrete_sine_solution, sine_initial_condition
from repro.heat.coforall_solver import solve_coforall
from repro.heat.forall_solver import solve_forall
from repro.heat.serial import solve_serial
from repro.kmeans import (
    TerminationCriteria,
    kmeans_openmp,
    kmeans_parallel,
    kmeans_sequential,
    run_kmeans_mpi,
)
from repro.kmeans.initialization import init_random_points
from repro.kmeans.openmp_kmeans import VARIANTS
from repro.traffic import TrafficParams, simulate_parallel, simulate_serial

SEEDS = (0, 7, 123)
KMEANS_SIZES = ((48, 2), (90, 3))
CRITERIA = TerminationCriteria(max_iterations=12)
#: Two sequence-length classes: short (fits one tile/thread block) and
#: long (many anti-diagonals per rank/thread, uneven partitions).
ALIGN_LENGTHS = (40, 96)


def make_points(seed: int, shape: tuple[int, int]) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=shape)


class TestKMeansConformance:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("shape", KMEANS_SIZES)
    def test_all_models_agree_centroid_for_centroid(self, seed, shape):
        points = make_points(seed, shape)
        k = 3
        init = init_random_points(points, k, seed=seed)
        reference = kmeans_sequential(
            points, k, criteria=CRITERIA, initial_centroids=init
        )

        candidates = {
            f"openmp-{variant}": kmeans_openmp(
                points, k, num_threads=3, variant=variant,
                criteria=CRITERIA, initial_centroids=init,
            )
            for variant in VARIANTS
        }
        candidates["mpi"] = run_kmeans_mpi(
            3, points, k, criteria=CRITERIA, initial_centroids=init
        )
        for backend in BACKENDS:
            candidates[f"parallel-{backend}"] = kmeans_parallel(
                points, k, num_workers=3, backend=backend,
                criteria=CRITERIA, initial_centroids=init,
            )

        for name, result in candidates.items():
            np.testing.assert_array_equal(
                result.assignments, reference.assignments, err_msg=name
            )
            np.testing.assert_allclose(
                result.centroids, reference.centroids, atol=1e-9, err_msg=name
            )
            assert result.iterations == reference.iterations, name
            assert result.changes_history == reference.changes_history, name

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


class TestAlignConformance:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("length", ALIGN_LENGTHS)
    def test_all_models_agree_bitwise(self, seed, length):
        a, b = generate_pair(seed, length)
        reference = align_sequential(a, b)

        candidates = {"sequential-python": align_sequential(a, b, kernel="python")}
        for variant in ALIGN_VARIANTS:
            candidates[f"openmp-{variant}"] = align_openmp(
                a, b, num_threads=3, variant=variant
            )
        candidates["mpi"] = run_align_mpi(3, a, b)
        for backend in BACKENDS:
            candidates[f"executor-{backend}"] = align_executor(
                a, b, backend=backend, num_workers=3, tile=16
            )

        for name, result in candidates.items():
            np.testing.assert_array_equal(result.matrix, reference.matrix, err_msg=name)
            assert result.path == reference.path, name
            assert result.score == reference.score, name
            assert result.aligned_a == reference.aligned_a, name
            assert result.aligned_b == reference.aligned_b, name
            assert result.best_score == reference.best_score, name
            assert result.best_cell == reference.best_cell, name
            assert result.match_events == reference.match_events, name

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "mode,band", [("local", None), ("global", 12), ("local", 10)]
    )
    def test_modes_and_bands_agree_bitwise(self, seed, mode, band):
        a, b = generate_pair(seed, 60)
        scheme = ScoringScheme(mode=mode)
        if band is not None and mode == "global":
            band = max(band, abs(len(a) - len(b)))
        reference = align_sequential(a, b, scheme=scheme, band=band)
        candidates = {
            "sequential-python": align_sequential(
                a, b, scheme=scheme, band=band, kernel="python"
            ),
            "mpi": run_align_mpi(3, a, b, scheme=scheme, band=band),
        }
        for variant in ALIGN_VARIANTS:
            candidates[f"openmp-{variant}"] = align_openmp(
                a, b, num_threads=3, variant=variant, scheme=scheme, band=band
            )
        # The process backend writes each tile back into a shared segment.
        for backend in ("thread", "process"):
            candidates[f"executor-{backend}"] = align_executor(
                a, b, backend=backend, num_workers=3, tile=16, scheme=scheme, band=band
            )
        for name, result in candidates.items():
            np.testing.assert_array_equal(result.matrix, reference.matrix, err_msg=name)
            assert result.path == reference.path, name
            assert result.score == reference.score, name
            assert result.best_score == reference.best_score, name
            assert result.best_cell == reference.best_cell, name
            assert result.match_events == reference.match_events, name


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
