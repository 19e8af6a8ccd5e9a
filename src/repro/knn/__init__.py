"""k-Nearest-Neighbor classification — Peachy assignment §2.

The assignment: classify ``q`` query points against a database of ``n``
pre-classified ``d``-dimensional points, first sequentially, then with
MapReduce-MPI for speedup. The paper's adaptations are implemented:

- :mod:`repro.knn.heap` — bounded max-heap top-k selection, giving the
  Θ(q·n·(d + log k)) sequential algorithm (vs Θ(n log n) by sorting);
- :mod:`repro.knn.brute` — the sequential classifier, as loop/heap
  starter code and as the vectorized numpy baseline, whose query
  blocks are also the CUDA-style grid;
- :mod:`repro.knn.mapreduce_knn` — MapReduce-MPI: map tasks emit
  (query, (distance, class)) pairs, reduction extracts nearest classes,
  with the paper's local-reduction optimization as a toggle;
- :mod:`repro.knn.parallel_variants` — OpenMP and plain MPI;
- :mod:`repro.knn.kdtree` / :mod:`repro.knn.quadtree` — the
  Data-Structures variant: trees that prune boxes by a distance lower
  bound, through one branch-and-bound search;
- :mod:`repro.knn.ladder` — every model above as one ladder with one
  same-predictions contract;
- :mod:`repro.knn.data` — synthetic stand-ins for the datahub.io
  classification datasets (banknote-style, leaf-style, Gaussian blobs);
- :mod:`repro.knn.wordcount` — the Word Counting warm-up problem.
"""

from repro.knn.application import classification_report, confusion_matrix, format_report
from repro.knn.brute import KNNClassifier, knn_predict_heap, knn_predict_vectorized, majority_vote
from repro.knn.data import make_banknote_like, make_blobs, make_leaf_like, train_test_split
from repro.knn.heap import BoundedMaxHeap, top_k_by_sort, top_k_smallest
from repro.knn.kdtree import KDTree
from repro.knn.mapreduce_knn import knn_mapreduce, run_knn_mapreduce
from repro.knn.parallel_variants import knn_mpi, knn_openmp, run_knn_mpi
from repro.knn.quadtree import QuadTree
from repro.knn.wordcount import run_wordcount, wordcount, wordcount_spark

__all__ = [
    "BoundedMaxHeap",
    "top_k_smallest",
    "top_k_by_sort",
    "KNNClassifier",
    "knn_predict_heap",
    "knn_predict_vectorized",
    "majority_vote",
    "knn_mapreduce",
    "run_knn_mapreduce",
    "knn_openmp",
    "knn_mpi",
    "run_knn_mpi",
    "KDTree",
    "QuadTree",
    "make_blobs",
    "make_banknote_like",
    "make_leaf_like",
    "train_test_split",
    "wordcount",
    "wordcount_spark",
    "run_wordcount",
    "confusion_matrix",
    "classification_report",
    "format_report",
]
