"""Pluggable executor backends: serial, thread, and process parallelism.

Every engine in the reproduction fans embarrassingly-parallel work over
local workers — Spark tasks over partitions, MapReduce map/reduce tasks
within a rank, the k-means assignment step over point chunks, HPO
trials over the grid. This module gives them one shared substrate with
three interchangeable backends:

- :class:`SerialExecutor` — a plain loop on the calling thread.
  Zero concurrency, zero overhead; the determinism baseline.
- :class:`ThreadExecutor` — a team of parked helper threads per map;
  a map issued on a thread that is already a worker runs inline. Real
  concurrency for GIL-releasing kernels (numpy, IO); serialized for
  pure-Python loops.
- :class:`ProcessExecutor` — real CPU parallelism on a **persistent
  pool** of ``multiprocessing`` workers: processes spawn once per
  executor lifetime, each talks to the driver over its own private
  duplex pipe, numpy datasets travel zero-copy as shared-memory
  descriptors (:meth:`Executor.publish`), and small jobs fuse into one
  chunk per worker so dispatch never costs more than one message per
  worker.

The three backends are **result-identical by construction**: tasks are
pure functions of ``(index, item)``, results are merged in index order,
and per-task seeds come from :func:`derive_task_seed` — a pure function
of ``(base_seed, index)`` — so no backend can leak scheduling order
into the output. ``tests/core/test_executor_determinism.py`` sweeps
seeds over all three backends for k-means, MapReduce wordcount, and
accumulator-carrying Spark jobs to hold that line.

Process-backend ground rules (docs/executors.md has the full story):

- A job whose ``(fn, items)`` payload pickles (module-level functions,
  ``functools.partial``, plain-data items, :class:`DataRef` descriptors)
  runs on the persistent pool — the fast path. The fork path is the
  only one for payloads that do *not* pickle (closures over driver
  state: RDD lineage, broadcast tables, MapReduce task bodies): under
  the ``fork`` start method fresh workers fork for the map and inherit
  ``(fn, items)`` through process memory; under ``spawn`` such a payload
  raises a clear error (``cloudpickle`` widens what qualifies when
  importable).
- Large picklable payloads also take the fork path — inheriting a
  100 MB items list is free, shipping it per worker is not. Publish
  big numpy inputs with :meth:`Executor.publish` instead and pass index
  ranges; the descriptors keep pooled payloads tiny.
- Both paths share one dispatch core: each worker owns a private
  duplex pipe, one loop collects results from every pipe, and one
  helper tears workers down.
- Task *results* (and task exceptions) always travel back by pickle,
  under either path — keep them plain data, or write them into a
  ``writable=True`` published segment over disjoint index ranges.
  Payloads, results and errors are pickled with
  ``pickle.HIGHEST_PROTOCOL``, as the MPI transport does: the default
  protocol 4 drops the byte order of a 0-d non-native numpy array
  (``>i4`` comes back as native ``int32``), so results would differ in
  dtype from the serial and thread backends.
- A worker that dies before it has fully written a chunk's results
  (segfault, ``os._exit``, OOM kill — even halfway through the write)
  loses that chunk and every later one; the driver sees the death as
  EOF on the worker's own pipe, so no other worker is disturbed. The map
  raises :class:`WorkerCrashError` carrying the completed results and
  the missing task indices, so schedulers (e.g. the Spark context) can
  re-execute the lost tasks and record the crash in their fault
  reports. The pool retires the dead worker and respawns the slot on
  the next map.
- ``close()``/``stop()`` terminates the pool and unlinks every segment
  this executor published; KeyboardInterrupt mid-map kills the pool
  promptly (no orphans) and an ``atexit`` sweep in :mod:`repro.core.shm`
  backstops segment cleanup on any exit path.
"""

from __future__ import annotations

import functools
import itertools
import multiprocessing
import os
import pickle
import threading
import time
import traceback
import weakref
from abc import ABC, abstractmethod
from multiprocessing.connection import wait
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Sequence

from repro.sanitizer.runtime import get_sanitizer
from repro.trace.tracer import get_tracer
from repro.util.partition import block_partition
from repro.util.team import in_worker, run_team
from repro.util.validation import require_positive_int

__all__ = [
    "BACKENDS",
    "DataRef",
    "Executor",
    "InlineArrayRef",
    "SerialExecutor",
    "SharedArrayRef",
    "ThreadExecutor",
    "ProcessExecutor",
    "get_executor",
    "derive_task_seed",
    "TaskFailedError",
    "WorkerCrashError",
]

#: The recognized backend names, in determinism-baseline-first order.
BACKENDS = ("serial", "thread", "process")

_MASK64 = (1 << 64) - 1

#: Pooled payloads above this size prefer fork-inheritance (zero-copy)
#: over being shipped once per worker through the worker pipes.
_POOL_PAYLOAD_LIMIT = 4 << 20


def derive_task_seed(base_seed: int, index: int) -> int:
    """A per-task seed that is a pure function of ``(base_seed, index)``.

    SplitMix64 finalizer over the combined words: well-mixed (adjacent
    indices give unrelated seeds), backend- and scheduling-independent,
    and identical on every platform — the shared-seed plumbing that
    keeps stochastic tasks bit-identical across ``serial``/``thread``/
    ``process`` backends.
    """
    x = ((base_seed & _MASK64) * 0x9E3779B97F4A7C15 + (index & _MASK64) + 1) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def _seeded_call(
    fn: Callable[[int, Any, int], Any], base_seed: int, index: int, item: Any
) -> Any:
    """The :meth:`Executor.map_seeded` shim — module-level (not a
    closure) so a seeded job pickles whenever its ``fn`` does and stays
    eligible for the persistent pool."""
    return fn(index, item, derive_task_seed(base_seed, index))


class TaskFailedError(RuntimeError):
    """A task raised in a worker and its exception could not be re-raised.

    Raised by :class:`ProcessExecutor` when the original exception does
    not survive the trip back through pickle; carries the failing task
    ``index`` and the worker-side ``traceback_text``. (When the original
    exception *does* unpickle, it is re-raised as-is, matching the
    serial and thread backends.)
    """

    def __init__(self, index: int, message: str, traceback_text: str = "") -> None:
        super().__init__(
            f"task {index} failed in worker: {message}"
            + (f"\n--- worker traceback ---\n{traceback_text}" if traceback_text else "")
        )
        self.index = index
        self.traceback_text = traceback_text


class WorkerCrashError(RuntimeError):
    """A worker process died without delivering all its task results.

    ``completed`` maps task index -> result for everything that made it
    back (from all workers); ``missing`` is the sorted tuple of indices
    whose results were lost. Schedulers catch this to re-execute the
    missing tasks and feed their fault-report paths.
    """

    def __init__(
        self,
        worker: int,
        exitcode: int | None,
        completed: dict[int, Any],
        missing: tuple[int, ...],
    ) -> None:
        super().__init__(
            f"worker {worker} crashed (exitcode={exitcode}) with "
            f"{len(missing)} task result(s) undelivered: {list(missing)[:8]}"
            + ("..." if len(missing) > 8 else "")
        )
        self.worker = worker
        self.exitcode = exitcode
        self.completed = completed
        self.missing = missing


# ----------------------------------------------------------------------
# zero-copy data references
# ----------------------------------------------------------------------

class DataRef:
    """A backend-uniform handle to a published read-mostly numpy array.

    Obtained from :meth:`Executor.publish`; tasks call :meth:`array` to
    get the data wherever they run. On the serial/thread backends the
    ref *is* the original array (nothing to share); on the process
    backend it pickles as a shared-memory descriptor and workers attach
    zero-copy. Refs published with ``writable=True`` are result
    windows: tasks may write **disjoint** index ranges and the driver
    sees the writes after ``map`` returns.
    """

    def array(self) -> Any:
        raise NotImplementedError


class InlineArrayRef(DataRef):
    """The serial/thread (and owner-process) ref: the array itself."""

    __slots__ = ("_array",)

    def __init__(self, array: Any) -> None:
        self._array = array

    def array(self) -> Any:
        return self._array


class SharedArrayRef(DataRef):
    """The process-backend ref: ``(segment, dtype, shape)`` on the wire.

    In the owning process it resolves to the owner's live view; after
    pickling into a worker it attaches the named segment (cached per
    worker process) — read-only unless published ``writable=True``.
    """

    def __init__(self, segment: Any, *, writable: bool = False) -> None:
        self._descriptor = segment.descriptor
        self._writable = writable
        self._segment = segment  # owner-side only; not pickled

    @property
    def descriptor(self) -> Any:
        return self._descriptor

    @property
    def segment_name(self) -> str:
        return self._descriptor.segment

    def array(self) -> Any:
        if self._segment is not None:
            return self._segment.array()
        from repro.core.shm import attach_array

        return attach_array(self._descriptor, writable=self._writable)

    def __getstate__(self) -> dict[str, Any]:
        return {"descriptor": self._descriptor, "writable": self._writable}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self._descriptor = state["descriptor"]
        self._writable = state["writable"]
        self._segment = None

    def __repr__(self) -> str:
        return f"SharedArrayRef({self._descriptor!r}, writable={self._writable})"


class Executor(ABC):
    """Ordered map over independent tasks: ``fn(index, item)`` per item.

    Contract shared by all backends (what the determinism tests pin):

    - results are returned **in item order**, never completion order;
    - ``fn`` must be a pure function of its arguments (plus read-only
      shared state) — backends may run it anywhere, in any order;
    - a task exception propagates to the caller (lowest failing index
      wins when several fail);
    - :meth:`map_seeded` hands task ``i`` the seed
      ``derive_task_seed(base_seed, i)`` regardless of backend.

    Executors are context managers; only :class:`ProcessExecutor`-style
    backends with real resources do anything on close.
    """

    name: str = "abstract"

    def __init__(self, num_workers: int = 4) -> None:
        self.num_workers = require_positive_int("num_workers", num_workers)

    @abstractmethod
    def map(self, fn: Callable[[int, Any], Any], items: Sequence[Any]) -> list[Any]:
        """Run ``fn(i, items[i])`` for every i; results in index order."""

    def map_seeded(
        self, fn: Callable[[int, Any, int], Any], items: Sequence[Any], base_seed: int
    ) -> list[Any]:
        """:meth:`map` with a derived per-task seed as a third argument."""
        return self.map(functools.partial(_seeded_call, fn, base_seed), items)

    def publish(self, array: Any, *, writable: bool = False) -> DataRef:
        """Make ``array`` reachable by tasks zero-copy; returns a ref.

        Uniform semantics across backends: the published buffer is a
        *snapshot* independent of the caller's array (don't mutate an
        array while it is published read-only). The default
        (serial/thread) implementation wraps read-only publications
        as-is — tasks on the caller's threads already share the address
        space — and copies ``writable=True`` ones, matching the
        process backend's copy-into-segment (so publishing one source
        array into two writable buffers yields two buffers everywhere).
        Release with :meth:`unpublish` (or :meth:`close`, which
        releases everything still published).
        """
        return InlineArrayRef(array.copy() if writable else array)

    def unpublish(self, ref: DataRef) -> None:
        """Release one published ref (no-op for inline refs; idempotent)."""

    def close(self) -> None:
        """Release backend resources (idempotent)."""

    def stop(self) -> None:
        """Alias of :meth:`close` — engine-style lifecycle symmetry."""
        self.close()

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(num_workers={self.num_workers})"


class SerialExecutor(Executor):
    """The baseline: a plain loop on the calling thread."""

    name = "serial"

    def __init__(self, num_workers: int = 1) -> None:
        super().__init__(num_workers)

    def map(self, fn: Callable[[int, Any], Any], items: Sequence[Any]) -> list[Any]:
        with get_tracer().span(
            "executor.map", category="executor", scope="executor.serial",
            backend=self.name, tasks=len(items),
        ):
            return [fn(i, item) for i, item in enumerate(items)]


class ThreadExecutor(Executor):
    """Thread parallelism: each map runs on a team of parked helper threads.

    A map takes ``min(num_workers, len(items))`` helpers from the warm
    team pool (:func:`repro.util.team.run_team`); the team members pull
    item indices from a shared counter, as pool workers would.
    Exceptions re-raise the original exception object of the lowest
    failing index.

    One level of fan-out: a map issued on a thread that is already a
    worker (:func:`repro.util.team.in_worker` — a team member, e.g. a
    task of another thread map or an OpenMP region member, or a job
    service worker) runs its tasks in index order on that thread, as
    :class:`SerialExecutor` does. Nested maps (a task that itself maps —
    e.g. a Spark shuffle materializing inside a job) therefore start no
    thread and cannot deadlock. Under an active sanitizer every map
    keeps its registered team, since the race detector needs members.
    """

    name = "thread"

    def map(self, fn: Callable[[int, Any], Any], items: Sequence[Any]) -> list[Any]:
        if not items:
            return []
        with get_tracer().span(
            "executor.map", category="executor", scope="executor.thread",
            backend=self.name, tasks=len(items), workers=self.num_workers,
        ):
            sanitizer = get_sanitizer()
            if sanitizer is not None:
                return self._map_sanitized(fn, items, sanitizer)
            if len(items) == 1 or in_worker():
                return [fn(i, item) for i, item in enumerate(items)]
            n = len(items)
            results: list[Any] = [None] * n
            errors: list[BaseException | None] = [None] * n
            next_index = itertools.count().__next__

            def member(_worker: int) -> None:
                while (i := next_index()) < n:
                    try:
                        results[i] = fn(i, items[i])
                    except BaseException as exc:  # noqa: BLE001 - re-raised below
                        errors[i] = exc

            run_team(min(self.num_workers, n), member)
            for exc in errors:
                if exc is not None:
                    raise exc
            return results

    def _map_sanitized(
        self, fn: Callable[[int, Any], Any], items: Sequence[Any], sanitizer: Any
    ) -> list[Any]:
        """The instrumented map: registered team members, block-partitioned.

        Under an active sanitizer each team member is registered with
        the race detector (and the cooperative scheduler) for the whole
        map and walks a contiguous block of the item range in index
        order — the same task->result mapping as the counter path, with
        the fork/join happens-before edges made explicit.
        """
        n = len(items)
        num_workers = min(self.num_workers, n)
        blocks = block_partition(n, num_workers)
        results: list[Any] = [None] * n
        team = sanitizer.team_begin(num_workers, kind="exec")

        def member(worker: int) -> None:
            for i in blocks[worker]:
                results[i] = fn(i, items[i])

        run = run_team(num_workers, functools.partial(sanitizer.run_member, team, member))
        sanitizer.team_end(team)
        run.raise_first()
        return results


# ----------------------------------------------------------------------
# process backend
# ----------------------------------------------------------------------

#: Held from creating a worker's pipe until the driver has closed its
#: copy of the worker's end, so no worker started concurrently (Spark
#: runs jobs from many threads) inherits that copy through ``fork``. A
#: leaked copy would keep the pipe open after the worker dies, and the
#: driver would wait for the rest of a message cut short by the death.
_START_LOCK = threading.Lock()

#: The longest the collect loop blocks at once. Nothing is polled on
#: this beat; it only returns control to the interpreter, which runs a
#: pending KeyboardInterrupt only between bytecodes (a signal caught by
#: another thread, or ``_thread.interrupt_main``, does not wake the
#: blocked ``wait``).
_WAKE_S = 0.1


def _encode_error(exc: BaseException) -> tuple[bytes | None, str, str]:
    """(pickled exception or None, message, traceback) for the trip home."""
    try:
        payload = pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        payload = None
    return payload, f"{type(exc).__name__}: {exc}", traceback.format_exc()


def _send(conn: Any, message: Any) -> None:
    """Pickle ``message`` whole, then write it as one framed message.

    ``Connection.send`` would pickle with the default protocol; the
    driver reads the frame with ``recv_bytes`` (:func:`_collect`).
    """
    conn.send_bytes(ForkingPickler.dumps(message, pickle.HIGHEST_PROTOCOL))


def _run_chunk(
    fn: Callable[[int, Any], Any], items: Sequence[Any], lo: int, hi: int
) -> list[tuple[int, bool, Any]]:
    out: list[tuple[int, bool, Any]] = []
    for i in range(lo, hi):
        try:
            out.append((i, True, fn(i, items[i])))
        except BaseException as exc:  # noqa: BLE001 - shipped back to the driver
            out.append((i, False, _encode_error(exc)))
    return out


def _send_chunk(conn: Any, results: list[tuple[int, bool, Any]]) -> None:
    """Ship one chunk's results home; unpicklable results degrade to errors.

    :func:`_send` pickles the whole message before writing a byte, so a
    pickling failure leaves the pipe clean for the substitute.
    """
    try:
        _send(conn, results)
    except Exception as exc:  # unpicklable result: report, don't die
        _send(conn, [
            (i, False, (None, f"result of task {i} could not be pickled: {exc}", ""))
            for i, _ok, _val in results
        ])


def _worker_main(
    conn: Any,
    job: tuple[Callable[[int, Any], Any], Sequence[Any], list[tuple[int, int, int]]]
    | None = None,
) -> None:
    """The worker body for both dispatch paths; results go home on ``conn``.

    A fork worker gets its ``(fn, items, chunks)`` job as inherited
    ``Process`` args (never pickled under ``fork``), runs it and exits.
    A pool worker serves ``(payload, chunks, released)`` messages — the
    pickled ``(fn, items)``, tiny when inputs travel as
    :class:`SharedArrayRef` descriptors, its chunk list, and the names
    of segments unpublished since its last job — until a ``None`` stop
    message or EOF. Either way the worker sends one message per chunk,
    in chunk order. Shared-memory attachments are cached across jobs;
    a pool worker closes those of ``released`` segments before it
    unpickles the payload (retrying, at later jobs, any still in use),
    and every worker closes the rest on the way out.
    """
    from repro.core import shm as shm_mod

    shm_mod.forget_inherited_state()
    try:
        if job is not None:
            fn, items, chunks = job
            for _c, lo, hi in chunks:
                _send_chunk(conn, _run_chunk(fn, items, lo, hi))
            return
        busy: set[str] = set()
        while (message := conn.recv()) is not None:
            payload, chunks, released = message
            fn = items = None  # the last job must not pin a released segment
            busy = shm_mod.release_attachments(busy.union(released))
            try:
                fn, items = pickle.loads(payload)
            except BaseException as exc:  # noqa: BLE001 - reported per task
                encoded = _encode_error(exc)
                for _c, lo, hi in chunks:
                    _send(conn, [(i, False, encoded) for i in range(lo, hi)])
                continue
            for _c, lo, hi in chunks:
                _send_chunk(conn, _run_chunk(fn, items, lo, hi))
    except EOFError:
        pass  # the driver closed its end
    finally:
        shm_mod.release_attachments()


def _start_worker(
    ctx: Any, w: int, job: tuple[Any, Any, Any] | None = None
) -> tuple[Any, Any]:
    """Start worker ``w`` on a private duplex pipe: (process, driver's end).

    The driver closes its copy of the worker's end at once, so the
    worker's death reads as EOF on the driver's end.
    """
    from repro.core.shm import share_resource_tracker

    share_resource_tracker()
    with _START_LOCK:
        conn, worker_end = ctx.Pipe()
        proc = ctx.Process(
            target=_worker_main, args=(worker_end, job),
            name=f"executor-worker-{w}", daemon=True,
        )
        try:
            proc.start()
        finally:
            worker_end.close()
    return proc, conn


def _collect(
    procs: list[Any], conns: list[Any], assignments: list[list[tuple[int, int, int]]]
) -> tuple[dict[int, Any], dict[int, tuple[bytes | None, str, str]], list[tuple[int, int | None]]]:
    """Receive every chunk of one map from its workers' pipes.

    Worker ``w`` owes one message per chunk in ``assignments[w]``. The
    driver blocks on the pipes and the process sentinels together, so
    a result or a death wakes it at once. A worker is lost when its
    pipe ends (EOF, or a message cut short by its death) or its process
    exits with nothing left to read; its outstanding chunks go missing
    and it is reported as ``(w, exitcode)``.
    """
    results: dict[int, Any] = {}
    errors: dict[int, tuple[bytes | None, str, str]] = {}
    crashed: list[tuple[int, int | None]] = []
    owed = {w: len(chunks) for w, chunks in enumerate(assignments) if chunks}
    while owed:
        waitables = [conns[w] for w in owed] + [procs[w].sentinel for w in owed]
        ready = set(wait(waitables, timeout=_WAKE_S))
        for w in sorted(owed):
            conn, proc = conns[w], procs[w]
            if conn not in ready and proc.sentinel not in ready:
                continue
            try:
                if not conn.poll():
                    raise EOFError  # exited with nothing left in the pipe
                chunk = pickle.loads(conn.recv_bytes())  # EOFError when cut short
            except (EOFError, OSError):
                del owed[w]
                proc.join(1.0)  # it is exiting; wait for the exit code
                crashed.append((w, proc.exitcode))
                continue
            for index, ok, value in chunk:
                (results if ok else errors)[index] = value
            owed[w] -= 1
            if not owed[w]:
                del owed[w]
    return results, errors, crashed


def _reap(
    procs: list[Any], conns: list[Any], grace: float, slots: Sequence[int] | None = None
) -> None:
    """Stop the workers in ``slots`` (default: all) and empty those slots.

    Each gets a ``None`` stop message (fork workers never read it) and
    ``grace`` seconds in all to exit; stragglers are terminated, then
    killed, and the driver's pipe ends closed. The one teardown path for
    :meth:`ProcessExecutor.close`, the GC backstop, the interrupt kill,
    crash retirement and the fork map's join. Idempotent.
    """
    slots = range(len(procs)) if slots is None else slots
    for w in slots:
        if conns[w] is not None:
            try:
                conns[w].send(None)
            except OSError:
                pass  # the worker is gone
    deadline = time.monotonic() + grace
    for w in slots:
        proc = procs[w]
        if proc is not None:
            proc.join(max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(1.0)
            if proc.is_alive():  # pragma: no cover - SIGTERM-proof task
                proc.kill()
                proc.join(0.5)
        if conns[w] is not None:
            conns[w].close()
        procs[w] = conns[w] = None


def _shutdown_pool(
    lock: threading.RLock,
    workers: list[Any],
    conns: list[Any],
    segments: dict[str, Any],
) -> None:
    """Stop pool workers and unlink segments (idempotent).

    Module-level over the executor's *containers* (not the executor)
    so a ``weakref.finalize`` can run it when an un-closed executor is
    garbage-collected — the same backstop ``multiprocessing.Pool``
    uses, keeping dropped pools from idling forever.
    """
    with lock:
        _reap(workers, conns, 1.0)
        leftovers = list(segments.values())
        segments.clear()
    for segment in leftovers:
        segment.unlink()


def _dumps_payload(fn: Callable[[int, Any], Any], items: Sequence[Any]) -> bytes:
    try:
        return pickle.dumps((fn, items), protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        try:
            import cloudpickle
        except ImportError:
            raise ValueError(
                "ProcessExecutor with the 'spawn' start method needs a picklable "
                "(fn, items) payload (and cloudpickle is not installed to widen "
                "that); use start_method='fork' or module-level functions"
            ) from None
        return cloudpickle.dumps((fn, items), protocol=pickle.HIGHEST_PROTOCOL)


class ProcessExecutor(Executor):
    """Real CPU parallelism: a persistent worker pool with zero-copy data.

    Workers spawn **once per executor lifetime** (lazily, on the first
    pooled map) and are reused warm across jobs — the fork-per-map tax
    the seed benchmarks measured is paid once, not per call. Each map
    picks its dispatch path:

    - **pool** — the ``(fn, items)`` payload pickles and is at most
      4 MiB: it is sent once to each warm worker. Publish numpy inputs
      with :meth:`publish` so the payload stays descriptor-sized.
    - **fork** (``fork`` platforms only) — the only path for payloads
      that do not pickle (closures over driver state), and the cheaper
      one for oversized payloads: fresh workers fork for this map and
      inherit ``(fn, items)`` through process memory.

    Every worker, pool or fork, talks to the driver over one private
    duplex pipe, and one collect loop serves both paths.
    ``chunks_per_worker`` controls batching: the item range splits into
    at most ``num_workers * chunks_per_worker`` contiguous blocks
    (assigned round-robin), and **chunk fusion** collapses small jobs to
    one chunk per worker so a 4-task job costs 4 messages, not 16. The
    chunk->index mapping is static, so results are bit-identical to
    serial regardless of path or scheduling.

    A worker that dies — before, during or after writing a chunk's
    results — loses every chunk it had not fully delivered: the map
    raises :class:`WorkerCrashError` once the other workers finish, and
    the dead pool slot respawns on the next map. KeyboardInterrupt kills
    the workers promptly (no orphaned children). ``close()``/``stop()``
    terminates the pool and unlinks every published segment; both are
    idempotent.
    """

    name = "process"

    def __init__(
        self,
        num_workers: int = 4,
        *,
        chunks_per_worker: int = 4,
        start_method: str | None = None,
    ) -> None:
        super().__init__(num_workers)
        self.chunks_per_worker = require_positive_int("chunks_per_worker", chunks_per_worker)
        available = multiprocessing.get_all_start_methods()
        if start_method is None:
            start_method = "fork" if "fork" in available else "spawn"
        if start_method not in available:
            raise ValueError(
                f"start_method {start_method!r} not available on this platform "
                f"(have {available})"
            )
        self.start_method = start_method
        self._ctx = multiprocessing.get_context(start_method)
        self._owner_pid = os.getpid()
        self._pool_lock = threading.RLock()
        self._workers: list[Any] = [None] * self.num_workers
        self._conns: list[Any] = [None] * self.num_workers
        self._segments: dict[str, Any] = {}
        #: Per pool slot, the owned segments live at that worker's last
        #: job: the only ones it can have attached since it started.
        self._exposed: list[set[str]] = [set() for _ in range(self.num_workers)]
        self._closed = False
        # GC backstop: an executor dropped without close() still stops
        # its pool and unlinks its segments (cf. multiprocessing.Pool).
        self._finalizer = weakref.finalize(
            self, _shutdown_pool, self._pool_lock, self._workers, self._conns, self._segments,
        )

    # ------------------------------------------------------------------
    # zero-copy publication
    # ------------------------------------------------------------------
    def publish(self, array: Any, *, writable: bool = False) -> DataRef:
        """Copy ``array`` into a shared-memory segment; tasks attach free.

        The returned ref pickles as a ``(segment, dtype, shape)``
        descriptor. The segment lives until :meth:`unpublish` or
        :meth:`close`; with ``writable=True`` tasks may write disjoint
        index ranges and the driver sees the writes after ``map``.
        """
        if os.getpid() != self._owner_pid:
            # Nested use inside one of our own workers: the address
            # space is already shared (fork) or private (downgraded
            # serial map) — no segment needed either way.
            return InlineArrayRef(array)
        from repro.core.shm import publish_array

        with self._pool_lock:
            self._check_open()
            segment = publish_array(array)
            self._segments[segment.name] = segment
        return SharedArrayRef(segment, writable=writable)

    def unpublish(self, ref: DataRef) -> None:
        name = getattr(ref, "segment_name", None)
        if name is None:
            return
        with self._pool_lock:
            segment = self._segments.pop(name, None)
        if segment is not None:
            segment.unlink()

    # ------------------------------------------------------------------
    # map
    # ------------------------------------------------------------------
    def map(self, fn: Callable[[int, Any], Any], items: Sequence[Any]) -> list[Any]:
        n = len(items)
        if n == 0:
            return []
        if os.getpid() != self._owner_pid:
            # Nested map inside one of our own workers: daemonic
            # processes cannot fork children, so compute inline — the
            # same results, no scheduling.
            return [fn(i, item) for i, item in enumerate(items)]
        self._check_open()
        payload = self._encode_job(fn, items)
        mode = "pool" if payload is not None else "fork"
        with get_tracer().span(
            "executor.map", category="executor", scope="executor.process",
            backend=self.name, tasks=n, workers=self.num_workers,
            start_method=self.start_method, mode=mode,
        ):
            if payload is None:
                return self._map_fork(fn, items, n)
            return self._map_pool(payload, n)

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(f"{self!r} has been closed; create a fresh executor")

    def _encode_job(
        self, fn: Callable[[int, Any], Any], items: Sequence[Any]
    ) -> bytes | None:
        """The pooled payload, or None when the fork path should run.

        Under ``spawn`` there is no fork path, so an unpicklable
        payload raises the clear error from :func:`_dumps_payload`.
        """
        if self.start_method != "fork":
            return _dumps_payload(fn, items)
        try:
            payload = pickle.dumps((fn, items), protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return None
        if len(payload) > _POOL_PAYLOAD_LIMIT:
            return None  # inherit big payloads instead of shipping them
        return payload

    def _chunk_assignments(self, n: int) -> list[list[tuple[int, int, int]]]:
        """Static chunk plan: fused for small jobs, round-robin always.

        The mapping is a pure function of ``(n, num_workers,
        chunks_per_worker)`` — never of the dispatch path or schedule —
        which is what keeps results bit-identical to serial.
        """
        num_workers = min(self.num_workers, n)
        limit = num_workers * self.chunks_per_worker
        # Chunk fusion: a job with fewer items than the chunk budget
        # collapses to one contiguous chunk per worker (<= one dispatch
        # and one result message per worker).
        num_chunks = num_workers if n <= limit else limit
        bounds = [
            (c, r.start, r.stop) for c, r in enumerate(block_partition(n, num_chunks))
        ]
        assignments: list[list[tuple[int, int, int]]] = [[] for _ in range(self.num_workers)]
        for chunk in bounds:
            assignments[chunk[0] % num_workers].append(chunk)
        return assignments

    def _finalize(
        self,
        results: dict[int, Any],
        errors: dict[int, tuple[bytes | None, str, str]],
        crashed: list[tuple[int, int | None]],
        n: int,
    ) -> list[Any]:
        """Shared error/crash/result policy for both dispatch paths."""
        if errors:
            index = min(errors)
            exc_payload, message, tb_text = errors[index]
            if exc_payload is not None:
                try:
                    raise pickle.loads(exc_payload)
                except TaskFailedError:
                    raise
                except Exception as original:
                    if f"{type(original).__name__}: {original}" == message:
                        raise original from None
            raise TaskFailedError(index, message, tb_text)
        if crashed:
            worker_id, exitcode = crashed[0]
            missing = tuple(i for i in range(n) if i not in results)
            raise WorkerCrashError(worker_id, exitcode, results, missing)
        return [results[i] for i in range(n)]

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _map_pool(self, payload: bytes, n: int) -> list[Any]:
        from repro.core.shm import active_segments

        with self._pool_lock:
            self._check_open()
            for w, proc in enumerate(self._workers):
                # Spawn missing workers (first map, or a slot that died).
                if proc is None or not proc.is_alive():
                    _reap(self._workers, self._conns, 0.0, [w])
                    self._workers[w], self._conns[w] = _start_worker(self._ctx, w)
                    self._exposed[w] = set()
            assignments = self._chunk_assignments(n)
            live = set(active_segments())
            try:
                for w, chunks in enumerate(assignments):
                    if chunks:
                        # Segments unpublished since the worker's last job:
                        # it closes its attachments of them first.
                        released = sorted(self._exposed[w] - live)
                        self._exposed[w] = live
                        try:
                            self._conns[w].send((payload, chunks, released))
                        except OSError:
                            pass  # died since the check: _collect sees its EOF
                results, errors, crashed = _collect(self._workers, self._conns, assignments)
            except BaseException:
                # KeyboardInterrupt / cancellation mid-collect: workers
                # may be wedged in a task — kill the pool now, re-raise
                # with no orphans. The next map respawns a fresh pool.
                _reap(self._workers, self._conns, 0.0)
                raise
            _reap(self._workers, self._conns, 0.0, [w for w, _ in crashed])
        return self._finalize(results, errors, crashed, n)

    def _map_fork(
        self, fn: Callable[[int, Any], Any], items: Sequence[Any], n: int
    ) -> list[Any]:
        assignments = self._chunk_assignments(n)
        procs: list[Any] = []
        conns: list[Any] = []
        grace = 0.0  # an interrupt or failed start: terminate at once
        try:
            for w, chunks in enumerate(assignments):
                if chunks:
                    proc, conn = _start_worker(self._ctx, w, (fn, items, chunks))
                    procs.append(proc)
                    conns.append(conn)
            results, errors, crashed = _collect(procs, conns, assignments)
            grace = 5.0  # every chunk is home: let the workers exit
        finally:
            _reap(procs, conns, grace)
        return self._finalize(results, errors, crashed, n)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the pool and unlink every published segment (idempotent)."""
        with self._pool_lock:
            self._closed = True
        self._finalizer()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(num_workers={self.num_workers}, "
            f"start_method={self.start_method!r})"
        )


def get_executor(
    backend: "str | Executor", num_workers: int = 4, **kwargs: Any
) -> Executor:
    """Resolve a backend name (or pass an :class:`Executor` through).

    ``kwargs`` are forwarded to the backend constructor (e.g.
    ``chunks_per_worker``/``start_method`` for ``"process"``).
    """
    if isinstance(backend, Executor):
        return backend
    if backend == "serial":
        return SerialExecutor()
    if backend == "thread":
        return ThreadExecutor(num_workers, **kwargs)
    if backend == "process":
        return ProcessExecutor(num_workers, **kwargs)
    raise ValueError(f"backend must be one of {BACKENDS} or an Executor, got {backend!r}")
