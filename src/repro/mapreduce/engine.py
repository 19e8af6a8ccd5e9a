"""The MapReduce phase driver, MR-MPI style.

Usage mirrors the C++ library the kNN assignment is built on: every
rank of an SPMD program constructs a :class:`MapReduce` over its
communicator and the ranks move through the phases together::

    def program(comm):
        mr = MapReduce(comm)
        mr.map_tasks(num_files, read_and_emit)     # parallel map / IO
        mr.collate()                               # shuffle + group
        mr.reduce(pick_nearest)                    # per-key reduction
        return mr.gather()                         # results at root

All phase methods are collective (every rank must call them in the same
order). Pair counts returned by ``map``/``reduce`` are global sums, like
MR-MPI's return values.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from repro.core.executor import BACKENDS, Executor, get_executor
from repro.mapreduce.hashing import partition_for, task_router
from repro.mapreduce.keymultivalue import KeyMultiValue
from repro.mapreduce.keyvalue import KeyValue
from repro.mpi import SUM, Communicator
from repro.util.partition import block_bounds

__all__ = ["MapReduce"]

#: Signature of a map callback: (task_id, kv_out) -> None.
MapFn = Callable[[int, KeyValue], None]
#: Signature of an item-map callback: (item, kv_out) -> None.
ItemMapFn = Callable[[Any, KeyValue], None]
#: Signature of a reduce callback: (key, values, kv_out) -> None.
ReduceFn = Callable[[Any, list[Any], KeyValue], None]

# App-level tags for the speculative-map protocol (user tags are >= 0).
_TAG_SPECULATIVE_SYNC = 7101
_TAG_SPECULATIVE_PLAN = 7102


class MapReduce:
    """Distributed key/value dataset plus the operations that transform it."""

    def __init__(
        self,
        comm: Communicator,
        *,
        backend: str = "serial",
        num_workers: int = 4,
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
        self.comm = comm
        #: Executor backend for this rank's *local* map/reduce loops.
        #: ``"serial"`` (the default) is the classic in-line loop;
        #: ``"thread"``/``"process"`` fan the rank's tasks over
        #: :mod:`repro.core.executor` workers — pair order and therefore
        #: all results stay bit-identical (tasks emit into private
        #: KeyValues, merged in task order).
        self.backend = backend
        self._executor: Executor | None = None
        self.num_workers = num_workers
        self.kv = KeyValue()
        self.kmv: KeyMultiValue | None = None
        #: Number of pairs this rank shipped to other ranks in the last
        #: aggregate() — the communication-volume statistic the local-
        #: combine ablation measures.
        self.last_shuffle_sent = 0

    def _local_executor(self) -> "Executor":
        """This engine's cached executor — created once per engine.

        :meth:`_run_local`'s task body is a closure, so on the process
        backend every phase takes the executor's fork path (fresh
        workers per map). :meth:`close` releases the executor (GC
        backstops an engine dropped without closing).
        """
        if self._executor is None:
            self._executor = get_executor(self.backend, self.num_workers)
        return self._executor

    def close(self) -> None:
        """Release the engine's executor pool (idempotent)."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.close()

    def __enter__(self) -> "MapReduce":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _run_local(
        self,
        tasks: Iterable[Any],
        call: Callable[[Any, KeyValue], None],
        out: KeyValue,
    ) -> None:
        """Run this rank's share of map/reduce work, emitting into ``out``.

        The serial backend is the legacy in-line loop. Parallel backends
        give every task a private KeyValue and merge the emitted pairs
        in task order, so the pair stream is byte-for-byte the same as
        the serial loop's regardless of scheduling.
        """
        task_list = list(tasks)
        if self.backend == "serial" or len(task_list) <= 1:
            for task in task_list:
                call(task, out)
            return

        def body(_i: int, task: Any) -> list[tuple[Any, Any]]:
            emitted = KeyValue()
            call(task, emitted)
            return emitted.pairs()

        for pairs in self._local_executor().map(body, task_list):
            out.extend(pairs)

    # ------------------------------------------------------------------
    # map phase
    # ------------------------------------------------------------------
    def map_tasks(self, num_tasks: int, map_fn: MapFn, *, append: bool = False) -> int:
        """Call ``map_fn(task_id, kv)`` for tasks assigned cyclically to ranks.

        This is MR-MPI's ``map(nmap, func)``: ``num_tasks`` logical map
        tasks (e.g. one per input file chunk) spread across ranks. With
        ``append=False`` (the default, as in MR-MPI) existing pairs are
        discarded first. Returns the *global* number of pairs emitted.
        """
        if num_tasks < 0:
            raise ValueError(f"num_tasks must be >= 0, got {num_tasks}")
        with self.comm.tracer.span("map", category="mapreduce", tasks=num_tasks):
            if not append:
                self.kv = KeyValue()
            self.kmv = None
            self._run_local(
                range(self.comm.rank, num_tasks, self.comm.size), map_fn, self.kv
            )
            return self.comm.allreduce(len(self.kv), SUM)

    def map_tasks_speculative(self, num_tasks: int, map_fn: MapFn, *, append: bool = False) -> int:
        """Cyclic map with speculative re-execution of dead ranks' tasks.

        The fault-tolerant :meth:`map_tasks`, for worlds launched with
        ``run_spmd(..., on_failure="tolerate")``. After running its own
        tasks each rank reports to rank 0, which detects ranks that died
        during the map phase (their completion token never arrives),
        assigns every orphaned task round-robin over the survivors, and
        — once the adopted tasks have been re-executed — the engine
        *shrinks*: ``self.comm`` is replaced by the survivors-only
        communicator, so the subsequent ``collate``/``reduce``/``gather``
        phases run exactly as on a smaller world.

        Rank 0 must survive (it is the detection point, like the
        MR-MPI driver). Crashes *after* a rank's completion token are
        outside this method's protection — they surface as deadlocks in
        the next collective, which is the honest semantics: speculative
        re-execution guards the map phase, not the whole job.

        Returns the global number of pairs emitted (over survivors).
        """
        if num_tasks < 0:
            raise ValueError(f"num_tasks must be >= 0, got {num_tasks}")
        with self.comm.tracer.span("map_speculative", category="mapreduce", tasks=num_tasks):
            if not append:
                self.kv = KeyValue()
            self.kmv = None
            for task in range(self.comm.rank, num_tasks, self.comm.size):
                map_fn(task, self.kv)
        if self.comm.rank == 0:
            dead = []
            for r in range(1, self.comm.size):
                if self.comm.recv_tolerant(source=r, tag=_TAG_SPECULATIVE_SYNC) is None:
                    dead.append(r)
            live = [r for r in range(self.comm.size) if r not in dead]
            orphans = sorted(
                t for d in dead for t in range(d, num_tasks, self.comm.size)
            )
            adopted: dict[int, list[int]] = {r: [] for r in live}
            for i, task in enumerate(orphans):
                adopted[live[i % len(live)]].append(task)
            for r in live[1:]:
                self.comm.send((dead, adopted[r]), dest=r, tag=_TAG_SPECULATIVE_PLAN)
            my_extra = adopted[0]
        else:
            self.comm.send(self.comm.rank, dest=0, tag=_TAG_SPECULATIVE_SYNC)
            dead, my_extra = self.comm.recv(source=0, tag=_TAG_SPECULATIVE_PLAN)
        for task in my_extra:
            map_fn(task, self.kv)
        if dead:
            self.comm = self.comm.shrink(failed=dead)
        return self.comm.allreduce(len(self.kv), SUM)

    def map_files(
        self,
        paths: Sequence[Any],
        map_fn: Callable[[str, str, KeyValue], None],
        *,
        append: bool = False,
    ) -> int:
        """Parallel-IO map: each rank *reads* and maps its share of files.

        "It also demonstrates parallel IO since multiple MPI ranks
        perform IO in MapReduce MPI" (paper §2): the file list is global
        knowledge, but each file's bytes are read only by the one rank
        that owns it (cyclic assignment). ``map_fn(path, text, kv)``
        receives the file's content. Returns the global emitted-pair
        count.
        """
        from pathlib import Path

        with self.comm.tracer.span("map", category="mapreduce", files=len(paths)):
            if not append:
                self.kv = KeyValue()
            self.kmv = None

            def read_and_map(i: int, kv: KeyValue) -> None:
                path = Path(paths[i])
                map_fn(str(path), path.read_text(), kv)

            self._run_local(
                range(self.comm.rank, len(paths), self.comm.size), read_and_map, self.kv
            )
            return self.comm.allreduce(len(self.kv), SUM)

    def map_items(self, items: Sequence[Any], map_fn: ItemMapFn, *, append: bool = False) -> int:
        """Call ``map_fn(item, kv)`` on this rank's block of a global sequence.

        ``items`` must be identical on every rank (the usual SPMD idiom:
        all ranks hold the same input description, each processes its
        slice). Returns the global number of pairs emitted.
        """
        with self.comm.tracer.span("map", category="mapreduce", items=len(items)):
            if not append:
                self.kv = KeyValue()
            self.kmv = None
            lo, hi = block_bounds(len(items), self.comm.size, self.comm.rank)
            self._run_local(items[lo:hi], map_fn, self.kv)
            return self.comm.allreduce(len(self.kv), SUM)

    # ------------------------------------------------------------------
    # shuffle phase
    # ------------------------------------------------------------------
    def aggregate(self, partitioner: Callable[[Any], int] | None = None) -> int:
        """Redistribute pairs so each key lands on its owning rank.

        The owning rank is ``partitioner(key)`` if given, else the
        deterministic hash placement. Implemented with one ``alltoall``
        — the parallel-IO-plus-communication step the assignment uses to
        illustrate "load balancing through hashing" (paper §2). Returns
        the global number of pairs shipped between ranks.
        """
        size = self.comm.size
        tracer = self.comm.tracer
        with tracer.span("shuffle", category="mapreduce"):
            outboxes: list[list[tuple[Any, Any]]] = [[] for _ in range(size)]
            if partitioner:
                # A user partitioner need not be pure: it sees every record.
                route = lambda key: partitioner(key) % size
            else:
                # Hash each distinct key once on this rank.
                route = task_router(lambda key: partition_for(key, size))
            for key, value in self.kv:
                outboxes[route(key)].append((key, value))
            self.last_shuffle_sent = sum(
                len(box) for r, box in enumerate(outboxes) if r != self.comm.rank
            )
            if tracer.enabled:
                tracer.metrics.counter(
                    "mapreduce.shuffle_pairs", rank=self.comm.world_rank
                ).inc(self.last_shuffle_sent)
            inboxes = self.comm.alltoall(outboxes)
            merged = KeyValue()
            for box in inboxes:
                merged.extend(box)
            self.kv = merged
            self.kmv = None
            return self.comm.allreduce(self.last_shuffle_sent, SUM)

    def convert(self) -> int:
        """Group this rank's pairs by key into a KeyMultiValue (no communication).

        Returns the global number of unique keys.
        """
        with self.comm.tracer.span("group", category="mapreduce"):
            self.kmv = KeyMultiValue.from_pairs(self.kv)
            return self.comm.allreduce(len(self.kmv), SUM)

    def collate(self, partitioner: Callable[[Any], int] | None = None) -> int:
        """``aggregate`` + ``convert``: the canonical shuffle-and-group step.

        Returns the global number of unique keys (MR-MPI's convention).
        """
        self.aggregate(partitioner)
        return self.convert()

    # ------------------------------------------------------------------
    # reduce phase
    # ------------------------------------------------------------------
    def reduce(self, reduce_fn: ReduceFn) -> int:
        """Call ``reduce_fn(key, values, kv_out)`` per grouped key.

        Requires a prior ``convert``/``collate``. The emitted pairs
        replace the dataset. Returns the global number of emitted pairs.
        """
        if self.kmv is None:
            raise RuntimeError("reduce() requires collate() or convert() first")
        with self.comm.tracer.span("reduce", category="mapreduce"):
            out = KeyValue()
            self._run_local(
                self.kmv.items(),
                lambda kv_item, kv: reduce_fn(kv_item[0], list(kv_item[1]), kv),
                out,
            )
            self.kv = out
            self.kmv = None
            return self.comm.allreduce(len(out), SUM)

    def local_combine(self, reduce_fn: ReduceFn) -> int:
        """Pre-reduce *locally* before any shuffle — the paper's optimization.

        "Adding local reductions at each rank … noticeably improves the
        communication cost" (paper §2): combining same-key pairs on the
        rank that produced them shrinks what ``aggregate`` must ship.
        No communication happens here; returns the local pair count.
        """
        grouped = KeyMultiValue.from_pairs(self.kv)
        out = KeyValue()
        for key, values in grouped.items():
            reduce_fn(key, values, out)
        self.kv = out
        self.kmv = None
        return len(out)

    # ------------------------------------------------------------------
    # output phase
    # ------------------------------------------------------------------
    def gather(self, root: int = 0) -> list[tuple[Any, Any]] | None:
        """All pairs to ``root`` (concatenated in rank order); None elsewhere."""
        with self.comm.tracer.span("gather", category="mapreduce", root=root):
            chunks = self.comm.gather(self.kv.pairs(), root=root)
            if chunks is None:
                return None
            return [pair for chunk in chunks for pair in chunk]

    def gather_all(self) -> list[tuple[Any, Any]]:
        """All pairs on every rank (rank-order concatenation)."""
        chunks = self.comm.allgather(self.kv.pairs())
        return [pair for chunk in chunks for pair in chunk]

    def sort_by_key(self) -> None:
        """Sort this rank's pairs by key (keys must be mutually comparable)."""
        self.kv = KeyValue(sorted(self.kv.pairs(), key=lambda p: p[0]))
        self.kmv = None

    def sort_by_value(self) -> None:
        """Sort this rank's pairs by value (MR-MPI's sort_values)."""
        self.kv = KeyValue(sorted(self.kv.pairs(), key=lambda p: p[1]))
        self.kmv = None

    def add(self, other: "MapReduce") -> int:
        """Append another MapReduce object's local pairs (MR-MPI's add).

        Both objects must live on the same communicator. Returns the
        global pair count of the merged dataset.
        """
        if other.comm is not self.comm:
            raise ValueError("can only add MapReduce objects on the same communicator")
        self.kv.extend(other.kv.pairs())
        self.kmv = None
        return self.comm.allreduce(len(self.kv), SUM)

    def map_kv(self, map_fn: Callable[[Any, Any, KeyValue], None]) -> int:
        """Re-map existing pairs: ``map_fn(key, value, kv_out)`` per pair.

        MR-MPI's ``map(mr, func)`` form — the way pipelines chain one
        MapReduce stage's output into the next stage's map. Local only;
        returns the global emitted-pair count.
        """
        out = KeyValue()
        for key, value in self.kv:
            map_fn(key, value, out)
        self.kv = out
        self.kmv = None
        return self.comm.allreduce(len(out), SUM)

    def scrunch(self, root: int = 0) -> int:
        """Gather all pairs onto one rank and convert (MR-MPI's scrunch).

        Useful for a final small reduction that must see everything —
        e.g. a global top-k. Returns the number of unique keys on root
        (0 elsewhere).
        """
        everyone = self.comm.gather(self.kv.pairs(), root=root)
        if self.comm.rank == root:
            merged = KeyValue()
            for chunk in everyone:
                merged.extend(chunk)
            self.kv = merged
            self.kmv = KeyMultiValue.from_pairs(merged)
            count = len(self.kmv)
        else:
            self.kv = KeyValue()
            self.kmv = KeyMultiValue()
            count = 0
        return count

    @property
    def num_pairs_local(self) -> int:
        """Pairs held by this rank."""
        return len(self.kv)

    def num_pairs_global(self) -> int:
        """Total pairs across ranks (collective)."""
        return self.comm.allreduce(len(self.kv), SUM)
