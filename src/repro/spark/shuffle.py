"""Shuffle block storage for the mini-Spark engine: in-memory + spill-to-disk.

A shuffle materializes one *block* per ``(map_task, reduce_partition)``
pair: the list of key/value pairs map task ``m`` routed to reduce
partition ``r``. :class:`ShuffleBlockStore` owns that matrix. It was
extracted from ``ShuffledRDD`` so the fault layer has a seam to corrupt
blocks at and the engine a seam to verify them through.

Resident (in-memory) blocks come in two representations, chosen once at
construction:

- **plain** (the default): blocks are the raw in-memory lists, exactly
  the pre-extraction representation. Zero overhead — this is the
  fault-free hot path.
- **serialized** (``checksums=True`` or ``verify_reads=True``): each
  block is stored as its pickle plus a crc32, and every fetch verifies
  before unpickling. A mismatch raises
  :class:`CorruptShuffleBlockError`, which ``ShuffledRDD`` treats as a
  *lost partition*: the owning map task is recomputed from lineage and
  its blocks re-stored. ``checksums`` is how a ``SparkFaultPlan`` with
  scheduled block corruption arms the store; ``verify_reads`` is the
  user-facing knob that turns the same verification on *independently*
  of any plan (paranoia mode for untrusted memory).

With a ``memory_budget`` (bytes) the store becomes **out-of-core**:
``put`` tracks an estimate of resident bytes, and when the budget is
exceeded every unpinned resident row is spilled as one sorted *run* —
a temp file holding each block's pickled (optionally zlib-compressed)
payload, ordered by ``(reduce_partition, map_task)`` so a reduce task's
blocks are contiguous. Every spilled block carries a crc32 in the
in-memory index; a missing file, short read, or checksum mismatch on
fetch raises :class:`LostSpillFileError` naming every map task whose
output lived in that file, and ``ShuffledRDD`` recomputes them from
lineage (re-stored rows are *pinned* resident so recovery terminates).
The reduce side k-way merges the spilled runs with the resident rows in
map-task order (:meth:`ShuffleBlockStore.iter_blocks`), so results are
bit-identical to the unbounded in-memory run.

Corruption of resident blocks (:meth:`ShuffleBlockStore.corrupt`) flips
bits in the stored pickle without touching the recorded checksum — the
model for a memory/network fault that checksums exist to catch. Spill
*files* are damaged through the filesystem instead (deleted, truncated,
or byte-flipped) by the context's fault hook right after they are
written.
"""

from __future__ import annotations

import heapq
import os
import pickle
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

__all__ = [
    "ShuffleBlockStore",
    "CorruptShuffleBlockError",
    "LostSpillFileError",
    "SpillFileInfo",
    "damage_spill_file",
]

Pair = tuple[Any, Any]

#: Deterministic per-record size estimate (bytes) used for budget
#: accounting of *plain* resident rows. The estimate only decides *when*
#: to spill — correctness never depends on it — so a cheap count-based
#: model keeps the until-spill path free of serialization costs.
#: Serialized rows are accounted at their exact payload size.
RECORD_ESTIMATE_BYTES = 64
#: Per-bucket fixed overhead in the same estimate (list + pointers).
BUCKET_ESTIMATE_BYTES = 56


class CorruptShuffleBlockError(RuntimeError):
    """A stored shuffle block failed checksum verification on fetch."""

    def __init__(self, map_task: int, reduce_part: int) -> None:
        super().__init__(
            f"shuffle block (map_task={map_task}, reduce_part={reduce_part}) "
            "failed checksum verification"
        )
        self.map_task = map_task
        self.reduce_part = reduce_part


class LostSpillFileError(RuntimeError):
    """A spill file is missing, truncated, or failed CRC verification.

    Carries every map task whose output lived in the file: one bad byte
    poisons the whole run, so recovery recomputes all of them from
    lineage and re-stores the rows pinned in memory.
    """

    def __init__(self, slot: int, path: str, reason: str, map_tasks: tuple[int, ...]) -> None:
        super().__init__(
            f"spill file {slot} ({path}) is lost: {reason}; map output(s) "
            f"{list(map_tasks)} must be recomputed from lineage"
        )
        self.slot = slot
        self.path = path
        self.reason = reason
        self.map_tasks = map_tasks


@dataclass(frozen=True)
class SpillFileInfo:
    """One written spill run: slot (creation order), path, and contents."""

    slot: int
    path: str
    map_tasks: tuple[int, ...]
    blocks: int
    bytes: int
    compressed: bool


class _SpillFile:
    """Bookkeeping for one run file: its block index and liveness."""

    __slots__ = ("slot", "path", "index", "map_tasks", "bytes", "lost", "recovered", "checked")

    def __init__(self, slot: int, path: Path, map_tasks: tuple[int, ...]) -> None:
        self.slot = slot
        self.path = path
        #: (map_task, reduce_part) -> (offset, length, crc32).
        self.index: dict[tuple[int, int], tuple[int, int, int]] = {}
        self.map_tasks = map_tasks
        self.bytes = 0
        self.lost = False
        self.recovered = False
        #: Read back whole and found intact by :meth:`ShuffleBlockStore.damaged_spill_files`.
        self.checked = False


class ShuffleBlockStore:
    """The materialized output matrix of one shuffle.

    ``num_maps`` map tasks each contribute ``num_parts`` blocks (one per
    reduce partition). Writers call :meth:`put` once per map task;
    readers call :meth:`get` per block or :meth:`iter_blocks` per reduce
    partition. Thread-safe: concurrent reduce tasks fetch while a
    recovery path may be re-storing a recomputed map output.

    ``memory_budget`` (bytes, ``None`` = unbounded) turns on
    spill-to-disk; ``spill_dir`` is the directory spill runs are written
    to (a ``Path`` or a zero-argument callable returning one, so the
    owner can create it lazily); ``compress`` zlib-compresses spilled
    block payloads. ``on_spill`` is called with a :class:`SpillFileInfo`
    right after each run file is written (the owner's metrics/fault
    seam); ``on_merge`` is called with the run count whenever a reduce
    fetch k-way merges two or more sources.
    """

    def __init__(
        self,
        num_maps: int,
        num_parts: int,
        *,
        checksums: bool = False,
        verify_reads: bool = False,
        memory_budget: int | None = None,
        spill_dir: Path | str | Callable[[], Path] | None = None,
        spill_name: str = "shuffle",
        compress: bool = False,
        on_spill: Callable[[SpillFileInfo], None] | None = None,
        on_merge: Callable[[int], None] | None = None,
    ) -> None:
        if memory_budget is not None and memory_budget <= 0:
            raise ValueError(f"memory_budget must be a positive byte count, got {memory_budget}")
        if memory_budget is not None and spill_dir is None:
            raise ValueError("memory_budget requires a spill_dir to spill into")
        self.num_maps = num_maps
        self.num_parts = num_parts
        #: Whether resident blocks are stored serialized (pickle + crc32)
        #: and verified on every fetch. True when the fault plan schedules
        #: corruption (``checksums``) or the user asked for verification
        #: unconditionally (``verify_reads``).
        self.checksums = checksums or verify_reads
        self.verify_reads = verify_reads
        self.memory_budget = memory_budget
        self.compress = compress
        self._spill_dir = spill_dir
        self._spill_name = spill_name
        self._on_spill = on_spill
        self._on_merge = on_merge
        self._lock = threading.Lock()
        # plain mode: _blocks[m][r] is the raw pair list.
        # serialized mode: _blocks[m][r] is (payload_bytes, crc32).
        # None: the row is not resident (never stored, or spilled).
        self._blocks: list[list[Any] | None] = [None] * num_maps
        self._pinned: set[int] = set()
        self._row_estimate: list[int] = [0] * num_maps
        self._resident_estimate = 0
        self._files: dict[int, _SpillFile] = {}
        self._spilled_slot: dict[int, int] = {}  # map_task -> live file slot
        self._next_slot = 0

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def put(self, map_task: int, buckets: Sequence[list[Pair]], *, pin: bool = False) -> None:
        """Store map task ``map_task``'s full row of ``num_parts`` buckets.

        ``pin=True`` (the recovery path) keeps the row resident and
        exempt from budget accounting, so a recomputed map output can
        never be spilled back onto the fault that just destroyed it.
        """
        if len(buckets) != self.num_parts:
            raise ValueError(
                f"map task {map_task} produced {len(buckets)} buckets, "
                f"expected {self.num_parts}"
            )
        if self.checksums:
            row: list[Any] = []
            estimate = 0
            for bucket in buckets:
                payload = pickle.dumps(bucket, protocol=pickle.HIGHEST_PROTOCOL)
                estimate += len(payload)
                row.append((payload, zlib.crc32(payload)))
        else:
            row = list(buckets)
            estimate = sum(
                BUCKET_ESTIMATE_BYTES + RECORD_ESTIMATE_BYTES * len(b) for b in buckets
            )
        with self._lock:
            old_slot = self._spilled_slot.pop(map_task, None)
            if old_slot is not None and not self._files[old_slot].lost:
                # A live spilled copy is being replaced (shouldn't happen
                # in normal operation); drop its index entries.
                self._files[old_slot].index = {
                    k: v for k, v in self._files[old_slot].index.items() if k[0] != map_task
                }
            if self._blocks[map_task] is not None and not (
                map_task in self._pinned or self.memory_budget is None
            ):
                self._resident_estimate -= self._row_estimate[map_task]
            self._blocks[map_task] = row
            self._row_estimate[map_task] = estimate
            if pin:
                self._pinned.add(map_task)
                return
            if self.memory_budget is None:
                return
            self._resident_estimate += estimate
            if self._resident_estimate > self.memory_budget:
                self._spill_locked()

    def _spill_locked(self) -> None:
        """Write every unpinned resident row out as one sorted run file.

        Called with the lock held. Blocks are laid out sorted by
        ``(reduce_part, map_task)`` so each reduce partition's blocks
        are contiguous and the per-file reduce stream is a sequential
        scan. Every block payload's crc32 is recorded in the in-memory
        index — the spill tier is always checksummed.
        """
        victims = sorted(
            m
            for m in range(self.num_maps)
            if self._blocks[m] is not None and m not in self._pinned
        )
        if not victims:
            return
        spill_dir = self._spill_dir() if callable(self._spill_dir) else Path(self._spill_dir)
        slot = self._next_slot
        self._next_slot += 1
        path = spill_dir / f"{self._spill_name}-run-{slot:05d}.spill"
        record = _SpillFile(slot, path, tuple(victims))
        offset = 0
        blocks = 0
        with open(path, "wb") as fh:
            for reduce_part in range(self.num_parts):
                for map_task in victims:
                    block = self._blocks[map_task][reduce_part]  # type: ignore[index]
                    payload = block[0] if self.checksums else pickle.dumps(
                        block, protocol=pickle.HIGHEST_PROTOCOL
                    )
                    if self.compress:
                        payload = zlib.compress(payload)
                    fh.write(payload)
                    record.index[(map_task, reduce_part)] = (
                        offset,
                        len(payload),
                        zlib.crc32(payload),
                    )
                    offset += len(payload)
                    blocks += 1
        record.bytes = offset
        for map_task in victims:
            self._blocks[map_task] = None
            self._spilled_slot[map_task] = slot
        self._resident_estimate = 0
        self._files[slot] = record
        if self._on_spill is not None:
            self._on_spill(
                SpillFileInfo(
                    slot=slot,
                    path=str(path),
                    map_tasks=record.map_tasks,
                    blocks=blocks,
                    bytes=record.bytes,
                    compressed=self.compress,
                )
            )

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def get(self, map_task: int, reduce_part: int) -> list[Pair]:
        """Fetch one block, verifying checksums where they exist.

        Raises :class:`CorruptShuffleBlockError` on a resident checksum
        mismatch, :class:`LostSpillFileError` when the block's spill
        file is gone or damaged, and ``KeyError`` if the map task's
        output was never stored.
        """
        with self._lock:
            row = self._blocks[map_task]
            if row is not None:
                block = row[reduce_part]
                spill_file = None
            else:
                slot = self._spilled_slot.get(map_task)
                if slot is None:
                    raise KeyError(f"map task {map_task} has no stored shuffle output")
                spill_file = self._files[slot]
        if spill_file is not None:
            return self._read_spill_block(spill_file, map_task, reduce_part)
        if not self.checksums:
            return block
        payload, crc = block
        if zlib.crc32(payload) != crc:
            raise CorruptShuffleBlockError(map_task, reduce_part)
        return pickle.loads(payload)

    def _read_spill_block(
        self, record: _SpillFile, map_task: int, reduce_part: int, fh: Any = None
    ) -> list[Pair]:
        """Read + verify one spilled block; escalate any damage to a
        whole-file :class:`LostSpillFileError` (one bad byte poisons the
        run — every map output in it is recomputed)."""
        payload = self._spill_payload(record, map_task, reduce_part, fh)
        if self.compress:
            payload = zlib.decompress(payload)
        return pickle.loads(payload)

    def _spill_payload(
        self, record: _SpillFile, map_task: int, reduce_part: int, fh: Any = None
    ) -> bytes:
        """One spilled block's stored bytes, checked against its index entry."""
        if record.lost:
            raise LostSpillFileError(
                record.slot, str(record.path), "previously detected loss", record.map_tasks
            )
        offset, length, crc = record.index[(map_task, reduce_part)]
        try:
            if fh is None:
                with open(record.path, "rb") as own:
                    own.seek(offset)
                    payload = own.read(length)
            else:
                fh.seek(offset)
                payload = fh.read(length)
        except FileNotFoundError:
            raise self._lose_file(record, "file deleted") from None
        if len(payload) < length:
            raise self._lose_file(record, f"truncated ({offset + len(payload)} bytes)")
        if zlib.crc32(payload) != crc:
            raise self._lose_file(record, "checksum mismatch")
        return payload

    def damaged_spill_files(self) -> list[LostSpillFileError]:
        """Check each spill run that holds some map output's only copy and
        was not found intact before: every block, in the order the reduce
        tasks fetch them (partition by partition, map tasks ascending).
        Each damaged run is marked lost and returned as the error its
        first failing fetch would raise."""
        with self._lock:
            per_file: dict[int, list[int]] = {}
            for m, slot in self._spilled_slot.items():
                if self._blocks[m] is None:
                    per_file.setdefault(slot, []).append(m)
            unchecked = [
                (self._files[slot], sorted(tasks))
                for slot, tasks in sorted(per_file.items())
                if not (self._files[slot].lost or self._files[slot].checked)
            ]
        damaged: list[LostSpillFileError] = []
        for record, tasks in unchecked:
            try:
                with open(record.path, "rb") as fh:
                    for reduce_part in range(self.num_parts):
                        for m in tasks:
                            self._spill_payload(record, m, reduce_part, fh)
                record.checked = True
            except FileNotFoundError:
                damaged.append(self._lose_file(record, "file deleted"))
            except LostSpillFileError as err:
                damaged.append(err)
        return damaged

    def _lose_file(self, record: _SpillFile, reason: str) -> LostSpillFileError:
        with self._lock:
            record.lost = True
        return LostSpillFileError(record.slot, str(record.path), reason, record.map_tasks)

    def iter_blocks(self, reduce_part: int) -> Iterator[tuple[int, list[Pair]]]:
        """Yield ``(map_task, block)`` for one reduce partition, in map-task
        order, k-way merging resident rows with any spilled runs.

        The no-spill case short-circuits to the resident fast path; with
        spills, each live run contributes one sequential-scan stream and
        ``heapq.merge`` interleaves them with the resident stream by map
        task (streams are disjoint by construction: a map output is
        resident *or* lives in exactly one live run).
        """
        with self._lock:
            have_spills = bool(self._files)
        if not have_spills:
            for map_task in range(self.num_maps):
                yield map_task, self.get(map_task, reduce_part)
            return
        # One consistent snapshot: resident rows, each live run's task
        # list, and a guard against tasks stranded in a lost run (a
        # concurrent recovery marked the file lost but hasn't re-stored
        # every row yet) — raising sends this reader through the
        # recovery path, where it blocks until the rows are back.
        with self._lock:
            resident = [m for m in range(self.num_maps) if self._blocks[m] is not None]
            per_file: dict[int, list[int]] = {}
            for m, slot in self._spilled_slot.items():
                if self._blocks[m] is not None:
                    continue
                record = self._files[slot]
                if record.lost:
                    raise LostSpillFileError(
                        record.slot, str(record.path),
                        "previously detected loss", record.map_tasks,
                    )
                per_file.setdefault(slot, []).append(m)
            live = [
                (self._files[slot], sorted(tasks)) for slot, tasks in sorted(per_file.items())
            ]

        def resident_stream() -> Iterator[tuple[int, list[Pair]]]:
            for m in resident:
                yield m, self.get(m, reduce_part)

        def file_stream(record: _SpillFile, tasks: list[int]) -> Iterator[tuple[int, list[Pair]]]:
            fh = None
            try:
                try:
                    fh = open(record.path, "rb")
                except FileNotFoundError:
                    raise self._lose_file(record, "file deleted") from None
                for m in tasks:
                    yield m, self._read_spill_block(record, m, reduce_part, fh=fh)
            finally:
                if fh is not None:
                    fh.close()

        streams: list[Iterator[tuple[int, list[Pair]]]] = [
            file_stream(f, tasks) for f, tasks in live
        ]
        if resident:
            streams.append(resident_stream())
        if len(streams) > 1 and self._on_merge is not None:
            self._on_merge(len(streams))
        if len(streams) == 1:
            yield from streams[0]
            return
        yield from heapq.merge(*streams, key=lambda entry: entry[0])

    def has_output(self, map_task: int) -> bool:
        """Whether ``map_task``'s row has been stored (possibly corrupt),
        resident or spilled."""
        with self._lock:
            return self._blocks[map_task] is not None or map_task in self._spilled_slot

    # ------------------------------------------------------------------
    # spill introspection (consumed by recovery, reports, and tests)
    # ------------------------------------------------------------------
    @property
    def spill_file_count(self) -> int:
        """Total spill runs written over this store's lifetime."""
        with self._lock:
            return len(self._files)

    def spill_files(self) -> list[SpillFileInfo]:
        """Snapshot of every spill run ever written (lost ones included)."""
        with self._lock:
            return [
                SpillFileInfo(
                    slot=f.slot,
                    path=str(f.path),
                    map_tasks=f.map_tasks,
                    blocks=len(f.index),
                    bytes=f.bytes,
                    compressed=self.compress,
                )
                for f in self._files.values()
            ]

    def lost_spill_files(self) -> list[int]:
        """Slots of spill files detected lost (recovered or not)."""
        with self._lock:
            return sorted(f.slot for f in self._files.values() if f.lost)

    def file_needs_recovery(self, slot: int) -> bool:
        """Whether ``slot`` is lost and nobody has recovered it yet."""
        with self._lock:
            record = self._files.get(slot)
            return record is not None and record.lost and not record.recovered

    def mark_file_recovered(self, slot: int) -> None:
        """Record that ``slot``'s map outputs have been re-stored."""
        with self._lock:
            record = self._files.get(slot)
            if record is not None:
                record.recovered = True

    # ------------------------------------------------------------------
    # fault seams (resident-block corruption; spill files are damaged
    # through the filesystem by the owner)
    # ------------------------------------------------------------------
    def corrupt(self, map_task: int, reduce_part: int) -> bool:
        """Flip bits in one resident block's payload (serialized mode only).

        The recorded checksum is left untouched so the next
        :meth:`get` of this block fails verification. Returns whether
        anything was corrupted (``False`` if the row isn't resident or
        the store keeps plain blocks — nothing to corrupt against).
        """
        if not self.checksums:
            return False
        with self._lock:
            row = self._blocks[map_task]
            if row is None:
                return False
            payload, crc = row[reduce_part]
            mangled = bytes([payload[0] ^ 0xFF]) + payload[1:]
            row[reduce_part] = (mangled, crc)
        return True

    def corrupted_blocks(self, map_task: int) -> list[int]:
        """Reduce partitions of ``map_task`` currently failing verification
        (resident serialized blocks only)."""
        if not self.checksums:
            return []
        with self._lock:
            row = self._blocks[map_task]
            if row is None:
                return []
            blocks = list(row)
        return [r for r, (payload, crc) in enumerate(blocks) if zlib.crc32(payload) != crc]

    def __repr__(self) -> str:
        with self._lock:
            stored = sum(1 for row in self._blocks if row is not None)
            spilled = len(self._spilled_slot)
            files = len(self._files)
        mode = "checksummed" if self.checksums else "plain"
        spill = f", {spilled} spilled over {files} run(s)" if files else ""
        return (
            f"ShuffleBlockStore({stored}/{self.num_maps} map outputs resident, "
            f"{self.num_parts} partitions, {mode}{spill})"
        )


def damage_spill_file(path: str | Path, kind: str) -> bool:
    """Apply one injected disk fault to a spill file.

    ``kind`` is ``"spill_delete"`` (unlink), ``"spill_truncate"`` (cut
    to half its length), or ``"spill_corrupt"`` (flip one mid-file
    byte, leaving the recorded checksum stale). Returns whether the
    file existed to damage. Used by the context's fault hook; kept here
    so the damage model lives next to the detection model.
    """
    path = Path(path)
    try:
        size = path.stat().st_size
    except FileNotFoundError:
        return False
    if kind == "spill_delete":
        os.remove(path)
    elif kind == "spill_truncate":
        os.truncate(path, size // 2)
    elif kind == "spill_corrupt":
        with open(path, "r+b") as fh:
            fh.seek(size // 2 if size else 0)
            byte = fh.read(1)
            fh.seek(size // 2 if size else 0)
            fh.write(bytes([(byte[0] if byte else 0) ^ 0xFF]))
    else:
        raise ValueError(f"unknown spill damage kind {kind!r}")
    return True
