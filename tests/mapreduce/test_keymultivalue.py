"""``KeyMultiValue.from_pairs`` groups exactly as one ``add`` per pair.

:func:`reference_groups` is that per-pair loop. Keys repeat and include
values that compare equal across types (``1 == True == 1.0``,
``0.0 == -0.0``), so a group must keep the key object seen first and
gather its equal keys' values in arrival order.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.executor import BACKENDS
from repro.mapreduce import KeyMultiValue, MapReduce
from repro.mpi import run_spmd

POOL = (1, True, 1.0, 0, False, 0.0, -0.0, "w", b"w", (1,), (True,), None)
PAIRS = st.lists(st.tuples(st.sampled_from(POOL), st.integers(0, 9)), max_size=60)


def reference_groups(pairs):
    """One ``setdefault(key, []).append(value)`` per pair."""
    groups = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    return groups


def typed(items):
    return [(type(k).__name__, repr(k), values) for k, values in items]


@given(PAIRS)
@settings(max_examples=200, deadline=None)
def test_from_pairs_matches_per_pair_reference(pairs):
    kmv = KeyMultiValue.from_pairs(iter(pairs))
    want = reference_groups(pairs)
    assert typed(kmv.items()) == typed(want.items())
    assert len(kmv) == len(want)


def test_first_seen_key_object_owns_the_group():
    kmv = KeyMultiValue.from_pairs([(1, "a"), (True, "b"), (1.0, "c"), (-0.0, "d"), (0, "e")])
    assert typed(kmv.items()) == [("int", "1", ["a", "b", "c"]), ("float", "-0.0", ["d", "e"])]


def _collate(comm, *, backend, pairs):
    mr = MapReduce(comm, backend=backend, num_workers=3)
    mr.map_items(pairs, lambda pair, kv: kv.add(*pair))
    mr.collate()
    return typed(mr.kmv.items()), typed(reference_groups(mr.kv).items())


@pytest.mark.parametrize("size", [1, 3])
def test_collate_groups_match_reference_on_every_backend(size):
    pairs = [(POOL[(i * 5) % len(POOL)], i) for i in range(48)]
    runs = {b: run_spmd(size, _collate, backend=b, pairs=pairs) for b in BACKENDS}
    for backend, per_rank in runs.items():
        for grouped, reference in per_rank:
            assert grouped == reference, backend
    assert runs["serial"] == runs["thread"] == runs["process"]
