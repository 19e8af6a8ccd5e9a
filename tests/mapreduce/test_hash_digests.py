"""Pin the exact output of the deterministic shuffle hash.

``stable_hash`` decides which rank (MapReduce) or reduce partition
(Spark) owns every key, so any change to its encoding or digest moves
records between ranks and changes message sizes, pair orders and every
tie-broken result. This test hashes a seeded key corpus — every type
branch of the canonical encoding, plus the edge values where Python
equality and encoding identity diverge — and compares sha256 digests of
``stable_hash`` and of ``partition_for(key, n)`` for n = 1..7 against
values recorded from the original implementation.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest

from repro.mapreduce.hashing import partition_for, stable_hash

SEED = 20231112

EDGE_KEYS = (
    0, 1, -1, 7, -12345, 2**63 - 1, 2**63, 2**64, 2**64 + 1, -(2**64), 3**90,
    True, False,
    0.0, -0.0, 1.0, 1.5, float("nan"), float("inf"), float("-inf"), 1e-310,
    "", "a", "word", "naïve", "日本語", "emoji 😀", "\x00", "tab\tnew\nline",
    b"", b"\x00", b"\xff\xfe", b"word",
    None,
    (), (1,), (True,), (1.0,), ("a", 1), (1, "a"), ((1, 2), (3, (4, None))),
    ("x", b"y", 2.5, None, False, (-0.0,)),
    Fraction(3, 7),  # no canonical branch: pickle fallback
)

_ALPHABET = "abcxyz019 _-éßΩж中😀"


def _random_key(rng: random.Random, depth: int = 0):
    kind = rng.randrange(7 if depth < 2 else 6)
    if kind == 0:
        return rng.randint(-(2**70), 2**70)
    if kind == 1:
        return rng.randint(-50, 50)
    if kind == 2:
        return "".join(rng.choice(_ALPHABET) for _ in range(rng.randrange(12)))
    if kind == 3:
        return rng.randbytes(rng.randrange(10))
    if kind == 4:
        return rng.uniform(-1e6, 1e6)
    if kind == 5:
        return rng.choice((None, True, False))
    return tuple(_random_key(rng, depth + 1) for _ in range(rng.randrange(4)))


def _corpus() -> list:
    rng = random.Random(SEED)
    return list(EDGE_KEYS) + [_random_key(rng) for _ in range(2000)]


def _digest(values) -> str:
    h = hashlib.sha256()
    for value in values:
        h.update(repr(value).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_corpus_covers_every_encoding_branch():
    types = {type(k) for k in _corpus()}
    assert {int, bool, float, str, bytes, type(None), tuple, Fraction} <= types


def test_stable_hash_is_byte_identical():
    assert _digest(stable_hash(k) for k in _corpus()) == (
        "a18c9601cc5c1610e8deded9bbda95e69abbfbc30b840bdb618f14bd620cc084"
    )


def test_partition_for_is_byte_identical():
    corpus = _corpus()
    rows = [(n, [partition_for(k, n) for k in corpus]) for n in range(1, 8)]
    assert _digest(rows) == (
        "321d7b529de66d1aca62254da61d6000bb93d80ea728d0f8014eed874b49b011"
    )


@pytest.mark.parametrize("key", ["\ud800", ("ok", "\udfff")])
def test_lone_surrogate_is_rejected(key):
    with pytest.raises(UnicodeEncodeError):
        stable_hash(key)
