"""The map-side combine gives exactly what per-record routing gives.

``ShuffledRDD._map_one`` combines keys of exact type ``str``, ``int`` and
``bytes`` in one dict and routes each distinct key once; from the first
key of any other type it splits that dict into buckets and routes record
by record. :func:`reference_map_one` below is the per-record map side it
must equal: every record is routed, then combined into its bucket's dict.
Keys come from a pool of values that compare equal across types but
route differently, and the first key outside the fast types is put at
the start, in the middle or at the end of the partition.
"""

from __future__ import annotations

from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.executor import BACKENDS
from repro.spark import SparkContext


class Folded(str):
    """A ``str`` subclass whose equality ignores case."""

    def __eq__(self, other):
        return isinstance(other, str) and self.lower() == other.lower()

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self.lower())


# Each fast key has equals of other types in OTHER, and most pairs of
# equals route apart for some bucket count in 1..8 (``1`` and ``True``
# only for 5).
FAST = (1, 0, "word", 2**64, b"x")
OTHER = (True, False, 1.0, -0.0, Folded("Word"), (1,), None)
POOL = FAST + OTHER


def reference_map_one(rdd, part):
    """The map side routed record by record: each pair goes to its
    bucket first, then combines into that bucket's dict."""
    nparts = rdd.num_partitions
    route = rdd._partitioner.partition
    if rdd._map_side_combine:
        combined = [{} for _ in range(nparts)]
        for key, value in part:
            dest_map = combined[route(key)]
            if key in dest_map:
                dest_map[key] = rdd._merge_value(dest_map[key], value)
            else:
                dest_map[key] = rdd._create(value)
        return [list(dest_map.items()) for dest_map in combined]
    buckets = [[] for _ in range(nparts)]
    for key, value in part:
        buckets[route(key)].append((key, value))
    return buckets


def typed(buckets):
    """Buckets with each key's exact type spelled out: ``1``, ``True`` and
    ``1.0`` compare equal, and so do ``Folded("Word")`` and ``"word"``."""
    return [[(type(k).__name__, repr(k), v) for k, v in bucket] for bucket in buckets]


def recording_rdd(sc, num_partitions, log):
    """A combine whose ``create``/``merge_value`` log every call and whose
    accumulator is a list mutated in place."""

    def create(value):
        log.append(("create", value))
        return [value]

    def merge_value(acc, value):
        log.append(("merge", value))
        acc.append(value)
        return acc

    return sc.parallelize([], 1).combine_by_key(create, merge_value, add, num_partitions)


@st.composite
def partitions(draw):
    """Pairs whose first key outside ``FAST`` sits at the start, in the
    middle or at the end -- or that have no such key at all."""
    fast = st.tuples(st.sampled_from(FAST), st.integers(0, 99))
    where = draw(st.sampled_from(("start", "middle", "end", "none")))
    prefix = [] if where == "start" else draw(st.lists(fast, min_size=1, max_size=30))
    if where == "none":
        return prefix
    pivot = (draw(st.sampled_from(OTHER)), draw(st.integers(0, 99)))
    suffix = [] if where == "end" else draw(
        st.lists(st.tuples(st.sampled_from(POOL), st.integers(0, 99)), min_size=1, max_size=30)
    )
    return prefix + [pivot] + suffix


@given(partitions(), st.integers(1, 8))
@example([(0, 1), (False, 2)], 3)
@example([(1, 1), (True, 2), ("word", 3), (Folded("Word"), 4)], 5)
@settings(max_examples=300, deadline=None)
def test_combine_matches_per_record_reference(part, num_partitions):
    got_log, want_log = [], []
    with SparkContext(1, backend="serial") as sc:
        got = recording_rdd(sc, num_partitions, got_log)._map_one(0, part)
        want = reference_map_one(recording_rdd(sc, num_partitions, want_log), part)
    assert typed(got) == typed(want)
    # One create or merge per record, in record order.
    assert got_log == want_log
    assert len(got_log) == len(part)


@given(partitions(), st.integers(1, 8))
@settings(max_examples=100, deadline=None)
def test_no_combine_matches_per_record_reference(part, num_partitions):
    with SparkContext(1, backend="serial") as sc:
        grouped = sc.parallelize([], 1).group_by_key(num_partitions)
        assert not grouped._map_side_combine
        assert typed(grouped._map_one(0, part)) == typed(reference_map_one(grouped, part))


PINNED = {
    "fast only": [("a", 1), (1, 2), (b"a", 3), ("a", 4), (1, 5)],
    "other first": [(True, 1), (1, 2), (1.0, 3), ("w", 4), (True, 5)],
    "other middle": [(1, 1), ("Word", 2), (True, 3), (1, 4), (Folded("Word"), 5), ("word", 6)],
    "other last": [(0, 1), ("x", 2), (0, 3), (-0.0, 4)],
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", sorted(PINNED))
def test_combine_job_matches_reference_on_every_backend(backend, case):
    # On the process backend the map tasks run in forked workers.
    pairs = PINNED[case] * 3

    def combined(sc):
        return sc.parallelize(pairs, 2).combine_by_key(
            lambda v: [v], lambda acc, v: (acc.append(v), acc)[1], add, 3
        )

    with SparkContext(2, backend="serial") as sc:
        rdd = combined(sc)
        blocks = [reference_map_one(rdd, rdd._parent.partition(i)) for i in range(2)]
    # The reduce side merges map outputs in map-task order.
    want = []
    for split in range(3):
        merged = {}
        for block in blocks:
            for key, acc in block[split]:
                merged[key] = merged[key] + acc if key in merged else acc
        want.append(list(merged.items()))
    with SparkContext(2, backend=backend) as sc:
        got = combined(sc).glom().collect()
    assert typed(got) == typed(want)
