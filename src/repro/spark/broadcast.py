"""Broadcast variables: read-only data shared with every task.

In real Spark a broadcast ships one copy of a lookup table to each
executor instead of once per task. In the thread-pool simulator all
tasks share memory anyway, so the class's job is to enforce the
*contract*: the value is read-only (a pickled snapshot is handed out),
and access after ``unpersist`` fails loudly — the two mistakes the
pipeline assignment's students actually make.

The fault layer adds the third real-world concern: a corrupted shipped
payload. Each broadcast records a crc32 of its pickle at creation and
keeps the driver's *master copy*; the driver verifies a corrupted
payload against the checksum before the next job's tasks run (the
first access does, if no job runs first), once — corruption is
injected at ship time, so one verification covers the broadcast's
lifetime, and the per-access hot path stays a plain attribute read. On a mismatch the
payload is refetched from the master copy, the ``on_refetch`` hook
notifies the context's metrics/report, and the task sees the correct
value — bit-identical results, recovery observable.
"""

from __future__ import annotations

import pickle
import threading
import zlib
from typing import Any, Callable, Generic, TypeVar

T = TypeVar("T")

__all__ = ["Broadcast"]


class Broadcast(Generic[T]):
    """A snapshot of a driver-side value, readable by any task."""

    def __init__(self, value: T, *, on_refetch: Callable[[], None] | None = None) -> None:
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        self._payload: bytes | None = payload
        self._master: bytes | None = payload  # driver-side copy, never corrupted
        self._checksum = zlib.crc32(payload)
        self._cached: T | None = pickle.loads(payload)
        self._verified = False
        self._on_refetch = on_refetch
        self._lock = threading.Lock()

    @property
    def value(self) -> T:
        """The broadcast value (a snapshot of what the driver passed in)."""
        if self._payload is None:
            raise RuntimeError("broadcast variable was unpersisted")
        if not self._verified:
            self._verify()
        return self._cached  # type: ignore[return-value]

    def _verify(self) -> None:
        with self._lock:
            if self._verified or self._payload is None:
                return
            if zlib.crc32(self._payload) != self._checksum:
                # Shipped copy is corrupt: refetch from the driver's master.
                self._payload = self._master
                self._cached = pickle.loads(self._master)  # type: ignore[arg-type]
                if self._on_refetch is not None:
                    self._on_refetch()
            self._verified = True

    def _corrupt(self) -> None:
        """Flip bits in the shipped payload (fault injection hook).

        The checksum and master copy are untouched, so the next task
        access detects the damage and refetches.
        """
        with self._lock:
            if self._payload is None:
                return
            self._payload = bytes([self._payload[0] ^ 0xFF]) + self._payload[1:]
            # Unpickle the damaged ship to model tasks reading it raw;
            # if the mangled pickle won't even load, keep the stale
            # cache — verification will replace it either way.
            try:
                self._cached = pickle.loads(self._payload)
            except Exception:
                pass
            self._verified = False

    def unpersist(self) -> None:
        """Release the value; later reads raise."""
        self._payload = None
        self._master = None
        self._cached = None
