"""Zero-copy numpy sharing over ``multiprocessing.shared_memory``.

The process backend's classic overhead trap is shipping whole datasets
through pickle: a k-means assignment step that forks per job and
serializes its point blocks loses to serial outright (the seed state of
``BENCH_executor_backends.json``). This module is the fix's data plane:
a dataset is *published* once into a named shared-memory segment, and
tasks receive only an :class:`ArrayDescriptor` — ``(segment_name,
dtype, shape)`` plus whatever index range the caller assigns — so the
bytes cross the process boundary zero times.

Three roles, three surfaces:

- **Driver (owner)** — :func:`publish_array` copies an array into a
  fresh segment and returns a :class:`SharedSegment` whose lifecycle is
  explicit: ``unlink()`` is idempotent, every live segment is tracked
  in a process-wide registry, and an ``atexit`` hook unlinks leftovers
  so a crashed driver cannot leak ``/dev/shm`` entries.
- **Worker (borrower)** — :func:`attach_array` maps a descriptor to a
  numpy view, cached per process so a persistent pool worker attaches
  once per segment, not once per task. Attached views are read-only
  unless the caller asks for a writable window (disjoint-range result
  segments). Workers share the driver's resource tracker
  (:func:`share_resource_tracker`), whose registry is a *set* of names:
  an attach re-registers a name the owner already registered (a no-op),
  and only the owner's ``unlink`` unregisters it. A worker exit
  therefore never unlinks a segment the driver still owns, and the
  tracker never sees an unregister for a name it no longer holds.
- **Tests (auditors)** — :func:`active_segments` lists what this
  process currently owns, which is how the lifecycle property tests
  assert leak-freedom after normal stop, worker crash, cancellation,
  and KeyboardInterrupt.

Forked children inherit the owner registry by copy; they must call
:func:`forget_inherited_state` first thing (the pool worker main does)
so a child exit can never unlink segments it merely inherited.
"""

from __future__ import annotations

import atexit
import itertools
import os
import threading
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any

import numpy as np

__all__ = [
    "SEGMENT_PREFIX",
    "ArrayDescriptor",
    "SharedSegment",
    "publish_array",
    "attach_array",
    "active_segments",
    "forget_inherited_state",
    "release_attachments",
    "share_resource_tracker",
]

#: Every segment this module creates is named ``repro-shm-<pid>-<seq>``,
#: so leak audits (tests, ops) can scan /dev/shm for exactly our entries.
SEGMENT_PREFIX = "repro-shm"

_SEQ = itertools.count(1)
_LOCK = threading.Lock()
#: Segments created (and not yet unlinked) by *this* process.
_OWNED: dict[str, "SharedSegment"] = {}
#: Worker-side attachment cache: segment name -> SharedMemory handle.
_ATTACHED: dict[str, shared_memory.SharedMemory] = {}


@dataclass(frozen=True)
class ArrayDescriptor:
    """The task-visible face of a published array: name, dtype, shape.

    This is all that crosses the process boundary — a few dozen bytes
    regardless of how large the dataset is. Pure data, trivially
    picklable, hashable (usable as a cache key).
    """

    segment: str
    dtype: str
    shape: tuple[int, ...]

    @property
    def nbytes(self) -> int:
        """Payload size the segment must hold."""
        count = 1
        for dim in self.shape:
            count *= int(dim)
        return int(np.dtype(self.dtype).itemsize) * count


class SharedSegment:
    """One owned shared-memory segment holding one numpy array.

    Created by :func:`publish_array`; the owner reads/writes through
    :meth:`array` (a live view — workers see driver writes and vice
    versa) and must :meth:`unlink` it exactly once, though the call is
    idempotent and the registry's ``atexit`` sweep backstops forgotten
    ones.
    """

    def __init__(self, descriptor: ArrayDescriptor, shm: shared_memory.SharedMemory) -> None:
        self.descriptor = descriptor
        self._shm: shared_memory.SharedMemory | None = shm
        self._view: np.ndarray | None = np.ndarray(
            descriptor.shape, dtype=descriptor.dtype, buffer=shm.buf
        )

    @property
    def name(self) -> str:
        return self.descriptor.segment

    def array(self) -> np.ndarray:
        """The owner's live view into the segment."""
        if self._view is None:
            raise RuntimeError(f"segment {self.name} has been unlinked")
        return self._view

    def unlink(self) -> None:
        """Release and remove the segment (idempotent)."""
        with _LOCK:
            _OWNED.pop(self.name, None)
        shm, self._shm = self._shm, None
        self._view = None
        if shm is None:
            return
        try:
            shm.close()
        except Exception:
            pass
        try:
            shm.unlink()
        except FileNotFoundError:
            pass

    def __repr__(self) -> str:
        state = "unlinked" if self._shm is None else "live"
        return f"SharedSegment({self.descriptor!r}, {state})"


def publish_array(array: Any) -> SharedSegment:
    """Copy ``array`` into a fresh named segment owned by this process.

    The copy happens exactly once, here; afterwards any number of
    workers attach zero-copy. Non-contiguous inputs are made contiguous
    first (the descriptor describes C order).
    """
    src = np.ascontiguousarray(array)
    name = f"{SEGMENT_PREFIX}-{os.getpid()}-{next(_SEQ)}"
    # Zero-size arrays still need a 1-byte file backing the mapping.
    shm = shared_memory.SharedMemory(create=True, name=name, size=max(1, src.nbytes))
    descriptor = ArrayDescriptor(name, str(src.dtype), tuple(src.shape))
    segment = SharedSegment(descriptor, shm)
    if src.nbytes:
        segment.array()[...] = src
    with _LOCK:
        _OWNED[name] = segment
    return segment


def attach_array(descriptor: ArrayDescriptor, *, writable: bool = False) -> np.ndarray:
    """A worker-side view of a published segment (cached per process).

    Read-only by default — published datasets are immutable inputs, and
    an accidental in-place write in one worker would silently diverge
    the replicas. ``writable=True`` is for result segments whose tasks
    write *disjoint* index ranges (the caller's contract).
    """
    with _LOCK:
        shm = _ATTACHED.get(descriptor.segment)
        if shm is None:
            shm = shared_memory.SharedMemory(name=descriptor.segment)
            _ATTACHED[descriptor.segment] = shm
    view = np.ndarray(descriptor.shape, dtype=descriptor.dtype, buffer=shm.buf)
    view.flags.writeable = writable
    return view


def share_resource_tracker() -> None:
    """Start this process's resource tracker before it starts workers.

    ``SharedMemory`` registers every attachment with the resource
    tracker. Spawn and forkserver children always use their parent's
    tracker, but a forked child only inherits one that is already
    running; otherwise its first attach starts a private tracker, which
    unlinks every segment the child attached when the child exits —
    while the driver still owns them. Call this before starting any
    worker process.
    """
    if os.name == "posix":
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()


def release_attachments() -> None:
    """Close this process's cached attachments (views become invalid)."""
    with _LOCK:
        attached = list(_ATTACHED.values())
        _ATTACHED.clear()
    for shm in attached:
        try:
            shm.close()
        except Exception:
            pass


def forget_inherited_state() -> None:
    """Drop ownership/attachment records inherited through ``fork``.

    A forked pool worker shares the segment *mappings* with the driver
    (that is the point), but it must not inherit the bookkeeping: its
    exit path would otherwise unlink segments the driver still owns.
    """
    with _LOCK:
        _OWNED.clear()
        _ATTACHED.clear()


def active_segments() -> list[str]:
    """Names of segments this process currently owns (leak audit hook)."""
    with _LOCK:
        return sorted(_OWNED)


@atexit.register
def _unlink_leftovers() -> None:  # pragma: no cover - exit-path safety net
    """Last-resort sweep: a driver must never leak /dev/shm entries."""
    with _LOCK:
        leftovers = list(_OWNED.values())
    for segment in leftovers:
        segment.unlink()
