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
  so a crashed driver cannot leak ``/dev/shm`` entries. The owner's
  views hold a buffer export on the mapping, like workers' views: an
  ``unlink()`` while one of them is alive defers the close and the
  unlink until the last view is gone, so no view outlives its mapping.
- **Worker (borrower)** — :func:`attach_array` maps a descriptor to a
  numpy view, cached per process so a persistent pool worker attaches
  once per segment, not once per task; :func:`release_attachments`
  closes the attachments of segments the driver has since unpublished
  (the pool sends their names with the worker's next job). Attached
  views are read-only unless the caller asks for a writable window
  (disjoint-range result segments). Workers share the driver's
  resource tracker (:func:`share_resource_tracker`), whose registry is
  a *set* of names: an attach re-registers a name the owner already
  registered (a no-op), and only the owner's ``unlink`` unregisters
  it. A worker exit
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
import math
import os
import threading
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Iterable

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
#: Reentrant: a view freed by garbage collection while this thread holds
#: the lock runs :func:`_release`, which takes it again.
_LOCK = threading.RLock()
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

    Every view :meth:`array` returns, and every view of those, keeps one
    flat array alive, and that array holds the buffer export on the
    mapping. The segment is closed and unlinked when that array dies:
    at :meth:`unlink` if the owner holds no view, otherwise when its
    last view is dropped. It stays in :func:`active_segments` until
    then.
    """

    def __init__(self, descriptor: ArrayDescriptor, shm: shared_memory.SharedMemory) -> None:
        self.descriptor = descriptor
        self._shm: shared_memory.SharedMemory | None = shm
        flat = np.frombuffer(shm.buf, dtype=descriptor.dtype, count=math.prod(descriptor.shape))
        self._view: np.ndarray | None = flat.reshape(descriptor.shape)
        # flat.base is the memoryview numpy took the export through.
        release = weakref.finalize(flat, _release, shm, flat.base, os.getpid())
        release.atexit = False  # at exit, _unlink_leftovers only unlinks names

    @property
    def name(self) -> str:
        return self.descriptor.segment

    def array(self) -> np.ndarray:
        """The owner's live view into the segment."""
        if self._view is None:
            raise RuntimeError(f"segment {self.name} has been unlinked")
        return self._view

    def unlink(self) -> None:
        """Release and remove the segment once no view of it is left (idempotent)."""
        self._view = None  # the last view's death closes and unlinks

    def __repr__(self) -> str:
        state = "unlinked" if self._shm is None or self._view is None else "live"
        return f"SharedSegment({self.descriptor!r}, {state})"


def _release(shm: shared_memory.SharedMemory, export: memoryview, owner: int) -> None:
    """Close and unlink a segment once its last owner-side view is gone.

    Runs while the flat array holding ``export`` is being freed, before
    it drops ``export``; nothing reads the mapping any more, so the
    export is released here and the mapping can close. A forked child
    that inherited the segment only lets go of its copy.
    """
    export.release()
    if os.getpid() != owner:
        return
    with _LOCK:
        _OWNED.pop(shm.name, None)
    try:
        shm.close()
    except Exception:
        pass
    try:
        shm.unlink()
    except FileNotFoundError:
        pass


def publish_array(array: Any) -> SharedSegment:
    """Copy ``array`` into a fresh named segment owned by this process.

    The copy happens exactly once, here; afterwards any number of
    workers attach zero-copy. Non-contiguous inputs are made contiguous
    first (the descriptor describes C order); 0-d arrays keep shape
    ``()``.
    """
    src = np.asarray(array)
    if not src.flags.c_contiguous:
        src = np.ascontiguousarray(src)
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
    write *disjoint* index ranges (the caller's contract). The view
    holds a buffer export on the mapping, so while it (or a view of it)
    is alive :func:`release_attachments` cannot unmap the segment.
    """
    with _LOCK:
        shm = _ATTACHED.get(descriptor.segment)
        if shm is None:
            shm = shared_memory.SharedMemory(name=descriptor.segment)
            _ATTACHED[descriptor.segment] = shm
    count = math.prod(descriptor.shape)
    view = np.frombuffer(shm.buf, dtype=descriptor.dtype, count=count)
    view = view.reshape(descriptor.shape)
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


def release_attachments(names: Iterable[str] | None = None) -> set[str]:
    """Close this process's cached attachments: ``names``, or all of them.

    Views of a closed attachment become invalid. A close that raises
    ``BufferError`` (a view of the segment is still alive) keeps that
    attachment cached; their names are returned for a later retry.
    """
    busy: set[str] = set()
    with _LOCK:
        for name in list(_ATTACHED) if names is None else names:
            shm = _ATTACHED.get(name)
            if shm is None:
                continue
            try:
                shm.close()
            except BufferError:
                busy.add(name)
                continue
            except Exception:
                pass
            del _ATTACHED[name]
    return busy


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
    """Last-resort sweep: a driver must never leak /dev/shm entries.

    A segment that a live view still maps loses only its name here; the
    mapping goes with the process.
    """
    with _LOCK:
        leftovers = list(_OWNED.values())
    for segment in leftovers:
        segment.unlink()
        shm, segment._shm = segment._shm, None
        if shm is not None and segment.name in _OWNED:
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
