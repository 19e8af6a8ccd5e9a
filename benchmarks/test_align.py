"""The align family head to head: every model, one integer answer.

``BENCH_align.json`` is a schema-v1 model shoot-out over the wavefront
(sequential numpy/python kernels, the OpenMP reduction rung, the MPI
block-row sweep, and the tiled executor wavefront on all three
backends), each run first checked **bit-identical** to the sequential
oracle and the shared result fingerprinted with
:func:`repro.trace.history.result_digest` — a fast wrong wavefront is
worthless. The idle-instrumentation gate on the sequential kernel is
``align_overhead`` in ``gates.py``.

Timing uses interleaved min-of-repeats: each round times all models back
to back so transient machine noise lands on every cell alike, and the
minimum is the least-noise estimator for a deterministic integer
workload.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.align import align_executor, align_openmp, align_sequential, generate_pair
from repro.align.mpi_align import run_align_mpi
from repro.core.executor import BACKENDS
from repro.trace.history import result_digest
from repro.util.timing import time_call

SEED = 5
LENGTH = 120
WORKERS = 4
RANKS = 4
TILE = 24
REPEATS = 3


@pytest.fixture(scope="module")
def pair():
    return generate_pair(SEED, LENGTH)


@pytest.fixture(scope="module")
def oracle(pair):
    a, b = pair
    return align_sequential(a, b)


def _fingerprint(result):
    return (result.matrix, tuple(result.path))


def _model_runners(a, b):
    """label -> zero-arg runner, every one answering the same instance."""
    runners = {
        "sequential/numpy": lambda: align_sequential(a, b, kernel="numpy"),
        "sequential/python": lambda: align_sequential(a, b, kernel="python"),
        "openmp/reduction": lambda: align_openmp(
            a, b, num_threads=WORKERS, variant="reduction"
        ),
        f"mpi/{RANKS}ranks": lambda: run_align_mpi(RANKS, a, b),
    }
    for backend in BACKENDS:
        runners[f"executor/{backend}"] = lambda bk=backend: align_executor(
            a, b, num_workers=WORKERS, backend=bk, tile=TILE
        )
    return runners


def test_model_shootout_bit_identical_and_recorded(
    pair, oracle, benchmark, report_writer, bench_json_writer
):
    a, b = pair
    runners = _model_runners(a, b)

    benchmark(runners["sequential/numpy"])

    seconds = {label: float("inf") for label in runners}
    for _ in range(REPEATS):
        for label, runner in runners.items():
            sec, result = time_call(runner, repeats=1)
            seconds[label] = min(seconds[label], sec)
            # Identity before speed: every model, bitwise.
            np.testing.assert_array_equal(result.matrix, oracle.matrix)
            assert result.path == oracle.path
            assert result.score == oracle.score
            assert result.match_events == oracle.match_events

    digest = result_digest(_fingerprint(oracle))

    lines = [
        f"Wavefront alignment model shoot-out (n=m={LENGTH}, seed={SEED})",
        f"workers/threads/ranks={WORKERS} tile={TILE} "
        f"(min of {REPEATS} interleaved runs; all bit-identical, digest {digest[:12]})",
    ]
    lines += [f"  {label:>18}: {seconds[label]:.4f}s" for label in sorted(seconds)]
    report_writer("align_models", "\n".join(lines) + "\n")

    bench_json_writer(
        "align",
        seconds,
        workload="align_models",
        config={
            "seed": SEED, "length": LENGTH, "workers": WORKERS,
            "ranks": RANKS, "tile": TILE, "repeats": REPEATS,
            "mode": "global",
        },
        bit_identical=True,  # every model matched the oracle bitwise above
        digest=digest,
        score=oracle.score,
        match_events=oracle.match_events,
    )

    assert all(sec > 0 for sec in seconds.values())
