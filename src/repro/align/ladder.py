"""The align model ladder, declared once.

:func:`rungs` gives every *correct* wavefront model as a labelled
zero-argument runner; :func:`mismatches` is the same-answer contract
they meet against the ``sequential`` numpy oracle. Integer scoring
makes it exact: every :class:`~repro.align.scoring.AlignResult` field
must be bit-identical. Conformance tests, the golden digests, benches
and trial builders iterate this one ladder instead of listing models by
hand.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Callable, Iterator

import numpy as np

from repro.align.data import generate_pair
from repro.align.executor_align import align_executor
from repro.align.mpi_align import run_align_mpi
from repro.align.openmp_align import VARIANTS, align_openmp
from repro.align.scoring import AlignResult, ScoringScheme
from repro.align.sequential import align_sequential
from repro.core.executor import BACKENDS

__all__ = ["rungs", "mismatches", "cases", "SERIAL"]

#: Rungs that take no worker count and no tile.
SERIAL = ("sequential", "sequential-python")
#: (seed, length) of the golden pairs, ``generate_pair(..., indel_rate=0.3)``:
#: indel-rich pairs of unequal lengths, whose tracebacks meet diagonal/up
#: ties. Each runs in both modes, unbanded and banded, on tiles of 1, 5
#: and the whole matrix.
PAIRS = ((3, 13), (8, 11))


def cases() -> Iterator[tuple[str, tuple[str, str], dict[str, Any]]]:
    """The golden problems, each with its digest-key tag and rung keywords."""
    for seed, length in PAIRS:
        a, b = generate_pair(seed, length, indel_rate=0.3)
        for mode in ("global", "local"):
            scheme = ScoringScheme(mode=mode)
            for band in (None, abs(len(a) - len(b)) + 2):
                tag = f"seed={seed}/{len(a)}x{len(b)}/{mode}/band={band}"
                for tile in (1, 5, max(len(a), len(b)) + 1):
                    yield tag, (a, b), {"scheme": scheme, "band": band, "tile": tile}


def rungs(
    problem: tuple[str | np.ndarray, str | np.ndarray],
    *,
    workers: int,
    tile: int,
    **model_kwargs,
) -> dict[str, Callable[[], AlignResult]]:
    """Every correct model, labelled, as a runner over the pair ``(a, b)``.

    ``workers`` is the thread, rank and pool-worker count, ``tile`` the
    tile side of every parallel model (the OpenMP and executor tiles,
    the MPI column blocks); ``model_kwargs`` (``scheme``, ``band``) go
    to every model.
    """
    a, b = problem
    ladder = {
        "sequential": lambda: align_sequential(a, b, **model_kwargs),
        "sequential-python": lambda: align_sequential(a, b, kernel="python", **model_kwargs),
    }
    for variant in VARIANTS:
        ladder[f"openmp-{variant}"] = lambda v=variant: align_openmp(
            a, b, num_threads=workers, variant=v, tile=tile, **model_kwargs
        )
    ladder["mpi"] = lambda: run_align_mpi(workers, a, b, tile=tile, **model_kwargs)
    for backend in BACKENDS:
        ladder[f"executor-{backend}"] = lambda bk=backend: align_executor(
            a, b, num_workers=workers, backend=bk, tile=tile, **model_kwargs
        )
    return ladder


def mismatches(result: AlignResult, reference: AlignResult) -> list[str]:
    """Names of the fields on which ``result`` differs from ``reference``."""
    return [
        f.name
        for f in fields(AlignResult)
        if not (
            np.array_equal(result.matrix, reference.matrix)
            if f.name == "matrix"
            else getattr(result, f.name) == getattr(reference, f.name)
        )
    ]
