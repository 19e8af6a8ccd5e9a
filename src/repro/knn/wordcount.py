"""Word Counting — the MapReduce warm-up shipped with the kNN assignment.

"These [materials] include a classic problem, Word Counting, to
familiarize the students with programming using MapReduce MPI"
(paper §2). The implementation is the canonical two-phase pipeline:
map emits (word, 1), collate groups by word, reduce sums.
"""

from __future__ import annotations

import re

from repro.mapreduce import KeyValue, MapReduce
from repro.mpi import Communicator, run_spmd

__all__ = [
    "tokenize",
    "wordcount",
    "wordcount_files",
    "wordcount_spark",
    "run_wordcount",
    "run_wordcount_files",
]

_WORD_RE = re.compile(r"[A-Za-z0-9']+")


def tokenize(line: str) -> list[str]:
    """Lowercased word tokens of one text line.

    An ASCII line is lowercased before the match: ``str.lower`` maps only
    ``A-Z`` there, so the tokens are the same and one call replaces one
    per word. Other lines lowercase each token after the match, because
    lowercasing first can change the tokens: ``'\u0130'.lower()`` (capital
    I with dot) adds a combining dot, and the Kelvin sign ``'\u212a'``
    becomes ``'k'``, which joins the word next to it.
    """
    if line.isascii():
        return _WORD_RE.findall(line.lower())
    return [w.lower() for w in _WORD_RE.findall(line)]


def wordcount(
    comm: Communicator,
    lines: list[str],
    *,
    local_combine: bool = False,
    backend: str = "serial",
    num_workers: int = 4,
) -> dict[str, int]:
    """SPMD word count over ``lines`` (identical on all ranks).

    Every rank returns the complete counts. ``local_combine`` applies
    the per-rank pre-sum before the shuffle — the same optimization the
    kNN step teaches, introduced here on the warm-up problem.
    ``backend`` picks the executor each rank fans its local map/reduce
    loops over (serial/thread/process; results bit-identical).
    """
    mr = MapReduce(comm, backend=backend, num_workers=num_workers)

    def emit_words(line: str, kv: KeyValue) -> None:
        for word in tokenize(line):
            kv.add(word, 1)

    mr.map_items(lines, emit_words)
    if local_combine:
        mr.local_combine(lambda word, ones, kv: kv.add(word, sum(ones)))
    mr.collate()
    mr.reduce(lambda word, counts, kv: kv.add(word, sum(counts)))
    return dict(mr.gather_all())


def wordcount_files(
    comm: Communicator,
    paths: list,
    *,
    local_combine: bool = True,
    backend: str = "serial",
    num_workers: int = 4,
) -> dict[str, int]:
    """SPMD word count over *files*: each rank reads and maps its share.

    The parallel-IO form of the warm-up — the file list is shared but
    each file's bytes are read by exactly one rank.
    """
    mr = MapReduce(comm, backend=backend, num_workers=num_workers)

    def emit_words(_path: str, text: str, kv: KeyValue) -> None:
        for line in text.splitlines():
            for word in tokenize(line):
                kv.add(word, 1)

    mr.map_files(paths, emit_words)
    if local_combine:
        mr.local_combine(lambda word, ones, kv: kv.add(word, sum(ones)))
    mr.collate()
    mr.reduce(lambda word, counts, kv: kv.add(word, sum(counts)))
    return dict(mr.gather_all())


def wordcount_spark(
    lines: list[str],
    *,
    num_workers: int = 4,
    num_partitions: int | None = None,
    local_combine: bool = True,
    memory_budget: int | None = None,
    spill_compress: bool = False,
    verify_reads: bool = False,
    fault_plan=None,
) -> dict[str, int]:
    """The warm-up on the Spark engine: flatMap → (word, 1) → sum by key.

    The exemplar workload for the engine's robustness knobs:
    ``memory_budget`` (bytes) bounds resident shuffle memory and spills
    the excess to disk (optionally zlib-compressed via
    ``spill_compress``), ``verify_reads`` checksums every shuffle
    fetch, and ``fault_plan`` runs the count under deterministic fault
    injection — all bit-identical to the plain in-memory run.
    ``local_combine`` toggles map-side combining (the same shuffle-
    shrinking optimization the MPI variant teaches).
    """
    from repro.spark import SparkContext

    with SparkContext(
        num_workers,
        name="wordcount-spark",
        fault_plan=fault_plan,
        memory_budget=memory_budget,
        spill_compress=spill_compress,
        verify_reads=verify_reads,
    ) as sc:
        pairs = sc.parallelize(lines, num_partitions).flat_map(tokenize).map(lambda w: (w, 1))
        if local_combine:
            counts = pairs.reduce_by_key(lambda a, b: a + b)
        else:
            counts = pairs.group_by_key().map_values(sum)
        return dict(counts.collect())


def run_wordcount(num_ranks: int, lines: list[str], **kwargs) -> dict[str, int]:
    """Launcher: word-count ``lines`` on ``num_ranks`` SPMD ranks."""
    return run_spmd(num_ranks, wordcount, lines, **kwargs)[0]


def run_wordcount_files(num_ranks: int, paths: list, **kwargs) -> dict[str, int]:
    """Launcher: word-count files on ``num_ranks`` SPMD ranks (parallel IO)."""
    return run_spmd(num_ranks, wordcount_files, paths, **kwargs)[0]
