"""The align model ladder, declared once.

:func:`rungs` gives every *correct* wavefront model as a labelled
zero-argument runner; :func:`mismatches` is the same-answer contract
they meet against the ``sequential`` numpy oracle. Integer scoring
makes it exact: every :class:`~repro.align.scoring.AlignResult` field
must be bit-identical. Conformance tests, benches and trial builders
iterate this one ladder instead of listing models by hand.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Callable

import numpy as np

from repro.align.executor_align import align_executor
from repro.align.mpi_align import run_align_mpi
from repro.align.openmp_align import VARIANTS, align_openmp
from repro.align.scoring import AlignResult
from repro.align.sequential import align_sequential
from repro.core.executor import BACKENDS

__all__ = ["rungs", "mismatches"]


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
