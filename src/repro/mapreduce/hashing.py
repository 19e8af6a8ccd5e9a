"""Deterministic key hashing for the shuffle phase.

Python's builtin ``hash`` is salted per process (``PYTHONHASHSEED``),
which would make key→rank placement — and hence message sizes, pair
orders, and any tie-broken result — vary run to run. MapReduce is "a
case of load balancing through hashing" (paper §2), so the hash must be
both well-spread and stable. We canonically encode the key and digest it
with BLAKE2b.

The digest is the dominant per-record cost of a shuffle's map side, yet
a map task sees far fewer distinct keys than records (a word count
repeats a few hundred words tens of thousands of times).
:func:`task_router` therefore routes each distinct key once per map task
and looks every repeat up in a memo that dies with the task.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import Any, Callable

__all__ = ["stable_hash", "partition_for", "task_router"]

#: Key types whose ``==`` implies an identical canonical encoding, so a
#: memo hit returns exactly what routing the key afresh would. Exact
#: types only: ``1 == True == 1.0`` and ``0.0 == -0.0`` encode
#: differently, as can an equal ``str`` subclass or mixed-type tuple.
_MEMO_TYPES = frozenset((str, int, bytes))


def _encode(key: Any, out: list[bytes]) -> None:
    """Append a canonical, type-tagged encoding of ``key`` to ``out``."""
    if isinstance(key, bool):  # must precede int check
        out.append(b"b1" if key else b"b0")
    elif isinstance(key, int):
        out.append(b"i" + str(key).encode())
    elif isinstance(key, float):
        out.append(b"f" + key.hex().encode())
    elif isinstance(key, str):
        out.append(b"s" + key.encode("utf-8"))
    elif isinstance(key, bytes):
        out.append(b"y" + key)
    elif key is None:
        out.append(b"n")
    elif isinstance(key, tuple):
        out.append(b"t(" + str(len(key)).encode())
        for item in key:
            _encode(item, out)
        out.append(b")")
    else:
        # Last resort: pickle with a fixed protocol. Deterministic for
        # the simple frozen types used as MapReduce keys in practice.
        out.append(b"p" + pickle.dumps(key, protocol=4))


def stable_hash(key: Any) -> int:
    """A 64-bit hash of ``key`` that is identical across processes and runs."""
    # Fast path for the commonest shuffle keys: a one-part join is the
    # part itself, so these are exactly the bytes ``_encode`` produces.
    kind = type(key)
    if kind is str:
        data = b"s" + key.encode("utf-8")
    elif kind is int:
        data = b"i" + str(key).encode()
    else:
        parts: list[bytes] = []
        _encode(key, parts)
        data = b"\x00".join(parts)
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


def partition_for(key: Any, num_ranks: int) -> int:
    """The rank that owns ``key`` under the default hash partitioning."""
    if num_ranks < 1:
        raise ValueError(f"num_ranks must be >= 1, got {num_ranks}")
    return stable_hash(key) % num_ranks


def task_router(route: Callable[[Any], int]) -> Callable[[Any], int]:
    """``route`` memoized for one map task's records.

    Build one per map task and drop it with the task: the memo then holds
    at most that partition's distinct keys. Only keys of exact type
    ``str``, ``int`` or ``bytes`` are memoized; every other key is routed
    afresh on each record, so placement is identical to calling ``route``
    per record. ``route`` must be a pure function of the key.
    """
    memo: dict[Any, int] = {}

    def dest(key: Any) -> int:
        if type(key) in _MEMO_TYPES:
            try:
                return memo[key]
            except KeyError:
                memo[key] = owner = route(key)
                return owner
        return route(key)

    return dest
