"""Routing each distinct shuffle key once places every record exactly
where per-record routing does.

Both engines route each distinct key once per map task. Spark's
``ShuffledRDD._map_one`` does it by combining keys in one dict before
routing them, or through :func:`repro.mapreduce.hashing.task_router`;
``MapReduce.aggregate`` does it through ``task_router``. The Spark
reference below is an explicit per-record map side,
:func:`per_record_map_one`, patched in for ``_map_one``. The MapReduce
reference swaps the memo for the bare route, so every record goes
through ``partition_for`` again. Keys are drawn from a pool of values
that compare equal across types but encode (and so hash) differently,
which is where a memo keyed on ``==`` alone would misroute.
"""

from __future__ import annotations

from operator import add
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.spark as spark
from repro.knn.wordcount import wordcount_spark
from repro.mapreduce import MapReduce
from repro.mapreduce.hashing import task_router
from repro.mpi import run_spmd
from repro.spark import SparkContext


class Folded(str):
    """A ``str`` subclass whose equality ignores case."""

    def __eq__(self, other):
        return isinstance(other, str) and self.lower() == other.lower()

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self.lower())


POOL = (
    1, True, 1.0, 0, False, 0.0, -0.0, 2**64,
    (1,), (True,), (1.0,), (0.0,), (-0.0,),
    Folded("Word"), "word", "Word", "x", b"x", None,
)

PAIRS = st.lists(st.tuples(st.sampled_from(POOL), st.integers(0, 9)), max_size=40)


def _per_record(route):
    return route


def per_record_map_one(self, _i, part):
    """``ShuffledRDD._map_one`` routing every record: each pair goes to its
    bucket first, then combines into that bucket's dict."""
    nparts = self.num_partitions
    route = self._partitioner.partition
    if self._map_side_combine:
        combined = [{} for _ in range(nparts)]
        for key, value in part:
            dest_map = combined[route(key)]
            if key in dest_map:
                dest_map[key] = self._merge_value(dest_map[key], value)
            else:
                dest_map[key] = self._create(value)
        return [list(dest_map.items()) for dest_map in combined]
    buckets = [[] for _ in range(nparts)]
    for key, value in part:
        buckets[route(key)].append((key, value))
    return buckets


def _unmemoized(module: str):
    """Patch ``task_router`` in ``module`` so every record is routed afresh."""
    return patch(f"{module}.task_router", _per_record)


def test_router_memoizes_only_exact_str_int_bytes():
    calls = []

    def route(key):
        calls.append(key)
        return 0

    dest = task_router(route)
    for key in ("a", "a", 7, 7, b"y", b"y", True, True, 1.0, 1.0, Folded("a"), Folded("a"), (1,), (1,)):
        dest(key)
    assert calls == ["a", 7, b"y", True, True, 1.0, 1.0, Folded("a"), Folded("a"), (1,), (1,)]


def _shuffles(sc, pairs, map_parts, reduce_parts):
    rdd = sc.parallelize(pairs, map_parts)
    other = sc.parallelize(list(reversed(pairs)), map_parts)
    return {
        "reduce_by_key": rdd.reduce_by_key(add, reduce_parts),
        "group_by_key": rdd.group_by_key(reduce_parts),
        "join": rdd.join(other, reduce_parts),
    }


def _spark_layout(pairs, map_parts, reduce_parts):
    with SparkContext(2) as sc:
        shuffled = _shuffles(sc, pairs, map_parts, reduce_parts)
        buckets = {
            name: [
                rdd._map_one(i, rdd._parent.partition(i))
                for i in range(rdd._parent.num_partitions)
            ]
            for name, rdd in shuffled.items()
            if name != "join"
        }
        results = {name: rdd.glom().collect() for name, rdd in shuffled.items()}
    # repr tells 1 / True / 1.0 and 0.0 / -0.0 apart; == does not.
    return repr(buckets), repr(results)


@given(PAIRS, st.integers(1, 3), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_spark_routing_matches_per_record_reference(pairs, map_parts, reduce_parts):
    routed_once = _spark_layout(pairs, map_parts, reduce_parts)
    with patch("repro.spark.rdd.ShuffledRDD._map_one", per_record_map_one):
        reference = _spark_layout(pairs, map_parts, reduce_parts)
    assert routed_once == reference


def _collate_layout(size, pairs):
    def program(comm):
        mr = MapReduce(comm)
        mr.map_items(pairs, lambda pair, kv: kv.add(*pair))
        mr.collate()
        return repr(list(mr.kmv.items()))

    return run_spmd(size, program, timeout=10.0)


@given(PAIRS, st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_mapreduce_collate_matches_per_record_reference(pairs, size):
    memoized = _collate_layout(size, pairs)
    with _unmemoized("repro.mapreduce.engine"):
        reference = _collate_layout(size, pairs)
    assert memoized == reference


WORDS = "the quick brown fox jumps over lazy dogs while zebras vex daft wizards".split()
LINES = [
    " ".join(WORDS[(i * 7 + j) % len(WORDS)] for j in range(10)) + f" tail{i % 503}"
    for i in range(2000)
]


@pytest.mark.parametrize(
    "local_combine, num_partitions, shuffle_records",
    [(True, None, 1032), (True, 8, 2104), (False, None, 22000), (False, 8, 22000)],
)
def test_wordcount_shuffle_volume_unchanged(local_combine, num_partitions, shuffle_records):
    """Record counts measured with per-record routing: the memo moves no record."""
    contexts = []

    class Recording(SparkContext):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            contexts.append(self)

    with patch.object(spark, "SparkContext", Recording):
        counts = wordcount_spark(
            LINES, num_workers=2, num_partitions=num_partitions, local_combine=local_combine
        )
    assert len(counts) == 516
    (sc,) = contexts
    assert (sc.metrics.shuffle_records, sc.metrics.shuffles) == (shuffle_records, 1)
