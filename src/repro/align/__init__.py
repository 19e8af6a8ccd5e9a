"""`repro.align`: the wavefront DNA sequence alignment assignment family.

The seventh assignment scenario — banded Needleman–Wunsch ("global")
and Smith–Waterman ("local") scoring over seeded synthetic DNA — built
to exercise the one parallel dependency structure the original six
don't: the **anti-diagonal wavefront**. Four models, one integer
answer:

- :func:`align_sequential` — the oracle (numpy + pure-Python kernels);
- :func:`align_openmp` — threads share each tile diagonal's tiles
  behind one barrier per tile diagonal, with the
  racy→critical→atomic→reduction statistics ladder;
- :func:`align_mpi` — block-row ranks sweeping column blocks and
  passing one halo strip per block downstream, checkpoint-restartable
  under fault plans;
- :func:`align_executor` — tiled wavefront over the executor pool with
  published shared-memory segments.

The three parallel models share one tile plan (:func:`tile_diagonals`),
one tile sweep and one default tile side (:data:`DEFAULT_TILE`).

Inputs come from :func:`generate_pair` (block-split ``repro.rng``
streams); everything downstream is a pure function of the seed, which
is why cross-model bit-identity is testable at all (docs/align.md).
:mod:`repro.align.ladder` declares the models once: ``rungs`` gives
every correct one as a labelled runner, ``mismatches`` the fields on
which a result breaks bit-identity with the oracle; conformance tests,
benches and trials iterate it.
"""

from repro.align.data import (
    STREAM_SPACING,
    generate_pair,
    generate_sequence,
    mutate_sequence,
)
from repro.align.executor_align import DEFAULT_TILE, align_executor, tile_diagonals
from repro.align.mpi_align import AlignCheckpoint, align_mpi, run_align_mpi
from repro.align.openmp_align import ALL_VARIANTS, VARIANTS, align_openmp
from repro.align.scoring import (
    ALPHABET,
    MODES,
    OUT_OF_BAND,
    AlignResult,
    ScoringScheme,
    band_rows,
    cell_score,
    encode_sequence,
    in_band,
    init_matrix,
    summarize_matrix,
    sweep_rows,
    traceback_path,
)
from repro.align.sequential import KERNELS, align_sequential, score_matrix

__all__ = [
    "ALPHABET",
    "MODES",
    "OUT_OF_BAND",
    "STREAM_SPACING",
    "KERNELS",
    "VARIANTS",
    "ALL_VARIANTS",
    "ScoringScheme",
    "AlignResult",
    "AlignCheckpoint",
    "encode_sequence",
    "in_band",
    "band_rows",
    "cell_score",
    "sweep_rows",
    "init_matrix",
    "summarize_matrix",
    "traceback_path",
    "generate_sequence",
    "mutate_sequence",
    "generate_pair",
    "score_matrix",
    "align_sequential",
    "align_openmp",
    "align_mpi",
    "run_align_mpi",
    "align_executor",
    "DEFAULT_TILE",
    "tile_diagonals",
]
