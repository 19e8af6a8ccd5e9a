"""The align family head to head: every model, one integer answer.

``BENCH_align.json`` is a schema-v1 model shoot-out over every rung of
:func:`repro.align.ladder.rungs` (sequential numpy/python kernels, the
critical/atomic/reduction OpenMP rungs, the MPI block-row sweep, and
the tiled executor wavefront on all three backends), its timing labels
the rung names. Each run is first checked **bit-identical** to the
sequential oracle, field for field, and the shared result fingerprinted
with :func:`repro.trace.history.result_digest` — a fast wrong wavefront
is worthless. The idle-instrumentation gate on the sequential kernel is
``align_overhead`` in ``gates.py``.

Timing uses interleaved min-of-repeats: each round times all models back
to back so transient machine noise lands on every cell alike, and the
minimum is the least-noise estimator for a deterministic integer
workload.
"""

from __future__ import annotations

from repro.align import generate_pair
from repro.align import ladder as align_ladder
from repro.trace.history import result_digest
from repro.util.timing import time_call

SEED = 5
LENGTH = 120
WORKERS = 4
TILE = 24
REPEATS = 3


def test_model_shootout_bit_identical_and_recorded(
    benchmark, report_writer, bench_json_writer
):
    runners = align_ladder.rungs(generate_pair(SEED, LENGTH), workers=WORKERS, tile=TILE)
    oracle = benchmark(runners["sequential"])

    seconds = {label: float("inf") for label in runners}
    for _ in range(REPEATS):
        for label, runner in runners.items():
            sec, result = time_call(runner, repeats=1)
            seconds[label] = min(seconds[label], sec)
            # Identity before speed: every model, every field, bitwise.
            assert not align_ladder.mismatches(result, oracle), label

    digest = result_digest((oracle.matrix, oracle.path))

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
            # rungs() gives threads, ranks and pool workers one count.
            "ranks": WORKERS, "tile": TILE, "repeats": REPEATS,
            "mode": "global",
        },
        bit_identical=True,  # every model matched the oracle bitwise above
        digest=digest,
        score=oracle.score,
        match_events=oracle.match_events,
    )

    assert all(sec > 0 for sec in seconds.values())
