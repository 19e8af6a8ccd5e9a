"""K-means clustering in four programming models — Peachy assignment §3.

One problem, solved the way the Valladolid assignment series teaches it:
start from an intentionally understandable sequential program, then
parallelize it under OpenMP, MPI and CUDA/OpenCL, confronting the same
two race conditions (the per-point cluster-change counter and the
per-cluster coordinate sums) in each model. As in the paper, a model
parallelizes only who assigns which points and how the per-cluster sums
merge; the driver around that exists once.

- :mod:`repro.kmeans.sequential` — the starter code: static data
  structures, two-phase loop, three termination thresholds — and the
  pieces every model calls: input validation and starting centroids
  (``start_centroids``), the prepared point blocks (``point_block``:
  points, squared norms and contiguous coordinate columns in one
  buffer, built once per run), the distance kernel (``assign_points``),
  the per-cluster partials (``cluster_sums``) and the one Lloyd loop
  (``lloyd``) around a model's merged step;
- :mod:`repro.kmeans.openmp_kmeans` — the four-stage strategy: races
  guarded by ``critical``, upgraded to ``atomic``, then restructured as
  ``reduction`` (each stage is a selectable variant so the ladder is
  benchmarkable);
- :mod:`repro.kmeans.mpi_kmeans` — distributed points, broadcast
  centroids, one distributed reduction per iteration;
- :mod:`repro.kmeans.device_kmeans` — CUDA-style: grid/block
  decomposition with per-block partial reductions, vectorized per block;
- :mod:`repro.kmeans.parallel_kmeans` — the executor-backend variant:
  phase 1 farmed over serial/thread/process workers
  (:mod:`repro.core.executor`), bit-identical across backends;
- :mod:`repro.kmeans.ladder` — every correct model above as one
  labelled list of runners (``rungs``) plus the same-answer contract
  they meet against sequential (``mismatches``), which conformance
  tests, benches and trials iterate;
- :mod:`repro.kmeans.initialization` / :mod:`repro.kmeans.termination`
  — deterministic centroid seeding and the stopping rules.
"""

from repro.kmeans.initialization import init_random_points, init_kmeans_plus_plus
from repro.kmeans.termination import TerminationCriteria
from repro.kmeans.sequential import (
    KMeansResult,
    PointBlock,
    assign_points,
    cluster_sums,
    kmeans_sequential,
    point_block,
    update_centroids,
)
from repro.kmeans.openmp_kmeans import kmeans_openmp
from repro.kmeans.mpi_kmeans import kmeans_mpi, run_kmeans_mpi
from repro.kmeans.device_kmeans import kmeans_device
from repro.kmeans.parallel_kmeans import kmeans_parallel
from repro.kmeans.evaluation import elbow_curve, silhouette_score, suggest_k

__all__ = [
    "KMeansResult",
    "TerminationCriteria",
    "kmeans_sequential",
    "PointBlock",
    "point_block",
    "assign_points",
    "cluster_sums",
    "update_centroids",
    "kmeans_openmp",
    "kmeans_parallel",
    "kmeans_mpi",
    "run_kmeans_mpi",
    "kmeans_device",
    "init_random_points",
    "init_kmeans_plus_plus",
    "elbow_curve",
    "silhouette_score",
    "suggest_k",
]
