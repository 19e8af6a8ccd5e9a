"""Communicators: point-to-point messaging and collective operations.

The implementation mirrors mpi4py's lowercase API (pickle-based object
messaging). Every collective is built on the point-to-point layer using
reserved negative tags, so the whole stack exercises one matching
engine: ``_Mailbox.match``. A receive that finds no match waits on its
own gate lock, which the next post, an abort or a rank death opens;
nothing polls. The root-linear collectives (``barrier``, ``bcast``,
``scatter``, ``gather``, ``reduce``, ``gather_tolerant``, ``split``) are
built from two legs, ``_fan_in`` to a root and ``_fan_out`` from it,
where the root's own item makes the same pickle round trip as a message.

Ordering guarantees match MPI: messages between one (sender, receiver,
communicator) pair are non-overtaking for a given tag pattern, and all
reductions fold in rank order so floating-point results are
deterministic.
"""

from __future__ import annotations

import pickle
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.mpi.errors import DeadlockError, SpmdAbort
from repro.mpi.ops import SUM, Op

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.mpi.runtime import World

__all__ = ["ANY_SOURCE", "ANY_TAG", "Status", "Request", "Communicator"]

#: Wildcard accepted by ``recv``/``probe`` to match any sending rank.
ANY_SOURCE = -1
#: Wildcard accepted by ``recv``/``probe`` to match any tag.
ANY_TAG = -1

# Reserved (negative) tags for the collective protocols. User tags must
# be >= 0, so these can never collide with application traffic.
_TAG_BCAST = -2
_TAG_SCATTER = -3
_TAG_GATHER = -4
_TAG_ALLTOALL = -5
_TAG_SCAN = -6
_TAG_BARRIER_IN = -7
_TAG_BARRIER_OUT = -8
_TAG_SPLIT_UP = -9
_TAG_SPLIT_DOWN = -10
_TAG_REDUCE = -11
_TAG_GATHER_FT = -12

# Operation names for diagnostics (DeadlockError messages) and for the
# fault injector's per-operation log.
_TAG_NAMES = {
    _TAG_BCAST: "bcast",
    _TAG_SCATTER: "scatter",
    _TAG_GATHER: "gather",
    _TAG_ALLTOALL: "alltoall",
    _TAG_SCAN: "scan",
    _TAG_BARRIER_IN: "barrier",
    _TAG_BARRIER_OUT: "barrier",
    _TAG_SPLIT_UP: "split",
    _TAG_SPLIT_DOWN: "split",
    _TAG_REDUCE: "reduce",
    _TAG_GATHER_FT: "gather_tolerant",
}


#: What a tolerant collective receive yields for a rank that died silent.
_DEAD = object()


def _copy(obj: Any) -> Any:
    """The pickle round trip every message makes: a root's own item in a
    collective gets the same value semantics as the items it sends."""
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def _tag_label(tag: int) -> str:
    if tag == ANY_TAG:
        return "ANY_TAG"
    return _TAG_NAMES.get(tag, str(tag))


@dataclass(frozen=True)
class Status:
    """Receive metadata: the matched message's source rank and tag."""

    source: int
    tag: int


@dataclass(frozen=True)
class _Envelope:
    """A message in flight. ``src_world`` is the sender's world rank."""

    comm_id: int
    src_world: int
    tag: int
    payload: bytes


class _Mailbox:
    """Per-rank message store; a blocked receiver waits on its own gate.

    One lock guards the queue and the posted gates (the ``TeamBarrier``
    idiom of :mod:`repro.util.team`). A receiver that finds no match
    posts a held gate lock and blocks on it for the rest of its
    deadline; every :meth:`put` and :meth:`wake_all` opens every posted
    gate, and each woken receiver rescans the queue.
    """

    def __init__(self, world: "World", rank: int) -> None:
        self._world = world
        self._rank = rank
        self._lock = threading.Lock()
        self._messages: list[_Envelope] = []
        self._gates: list[threading.Lock] = []

    def _open_gates(self) -> None:
        gates, self._gates = self._gates, []
        for gate in gates:
            gate.release()

    def put(self, env: _Envelope) -> None:
        with self._lock:
            self._messages.append(env)
            depth = len(self._messages)
            self._open_gates()
        tracer = self._world.tracer
        if tracer.enabled:
            tracer.metrics.gauge("mailbox.queue_depth", rank=self._rank).set(depth)

    def wake_all(self) -> None:
        """Wake blocked receivers (on abort and on a rank's death)."""
        with self._lock:
            self._open_gates()

    def match(
        self,
        comm_id: int,
        src_world: int | None,
        tag: int,
        *,
        remove: bool,
        block: bool = True,
        dead_ok: bool = False,
        op: str = "recv",
        peer: str = "ANY_SOURCE",
    ) -> _Envelope | None:
        """The first queued message matching ``(comm_id, src_world, tag)``.

        Without ``block``, return None at once if nothing matches (and
        ignore an abort). With it, wait for a match until the world
        aborts (:class:`SpmdAbort`) or the timeout passes
        (:class:`DeadlockError`, naming ``op`` and ``peer`` so a hang is
        diagnosable from the error alone). With ``dead_ok``, also return
        None once ``src_world`` is dead with nothing in flight: a
        message the peer posted before dying still wins.
        """
        deadline = time.monotonic() + self._world.timeout if block else 0.0
        while True:
            with self._lock:
                if block and self._world.aborted:
                    raise SpmdAbort("world aborted while waiting for a message")
                for i, env in enumerate(self._messages):
                    if (
                        env.comm_id == comm_id
                        and (src_world is None or env.src_world == src_world)
                        and (tag == ANY_TAG or env.tag == tag)
                    ):
                        return self._messages.pop(i) if remove else env
                if not block or (dead_ok and self._world.is_dead(src_world)):
                    return None
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    cause = (
                        "the peer is alive but never sent"
                        if dead_ok
                        else "the peer never sent, died, or is itself blocked"
                    )
                    raise DeadlockError(
                        f"{op}(source={peer}, tag={_tag_label(tag)}) on comm {comm_id} "
                        f"timed out after {self._world.timeout:.1f}s — likely deadlock "
                        f"({cause})"
                    )
                gate = threading.Lock()
                gate.acquire()
                self._gates.append(gate)
            if not gate.acquire(timeout=remaining):
                with self._lock:
                    if gate in self._gates:
                        self._gates.remove(gate)


class Request:
    """Handle for a non-blocking operation (``isend`` / ``irecv``).

    ``isend`` requests are buffered sends: the payload was already
    serialized and enqueued, so they complete immediately. ``irecv``
    requests perform their matching when :meth:`test` or :meth:`wait`
    is called.
    """

    def __init__(self, complete_fn: Callable[[bool], tuple[bool, Any]]) -> None:
        self._complete_fn = complete_fn
        self._done = False
        self._value: Any = None

    def test(self) -> tuple[bool, Any]:
        """Non-blocking completion check: (done, value-or-None)."""
        if not self._done:
            self._done, self._value = self._complete_fn(False)
        return self._done, self._value

    def wait(self) -> Any:
        """Block until complete; return the received object (None for sends)."""
        if not self._done:
            self._done, self._value = self._complete_fn(True)
            assert self._done
        return self._value


class Communicator:
    """A group of ranks that can message each other.

    Constructed by :func:`repro.mpi.run_spmd` (the world communicator)
    or by :meth:`split` / :meth:`dup`. ``rank``/``size`` are relative to
    this communicator; message routing translates to world ranks
    internally.
    """

    def __init__(self, world: "World", comm_id: int, world_ranks: Sequence[int], rank: int) -> None:
        self._world = world
        self._id = comm_id
        self._world_ranks = list(world_ranks)
        self._rank = rank
        self._from_world = {w: r for r, w in enumerate(self._world_ranks)}

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        """This process's rank within the communicator."""
        return self._rank

    @property
    def size(self) -> int:
        """Number of ranks in the communicator."""
        return len(self._world_ranks)

    @property
    def world_rank(self) -> int:
        """This process's rank in the world communicator."""
        return self._world_ranks[self._rank]

    @property
    def tracer(self):
        """The world's :class:`~repro.trace.Tracer` (disabled by default)."""
        return self._world.tracer

    @property
    def stats(self):
        """The world's live :class:`~repro.mpi.runtime.MessageStats`.

        Counts cover the whole world (all communicators), updating as
        messages post; ``per_rank()``/``per_pair()`` give the breakdown
        by sender and by (src, dst) world-rank pair.
        """
        return self._world.stats

    def __repr__(self) -> str:
        return f"Communicator(id={self._id}, rank={self._rank}, size={self.size})"

    def _check_peer(self, name: str, peer: int) -> int:
        if not 0 <= peer < self.size:
            raise ValueError(f"{name} {peer} out of range for communicator of size {self.size}")
        return self._world_ranks[peer]

    @staticmethod
    def _check_tag(tag: int) -> None:
        if tag < 0:
            raise ValueError(f"user tags must be >= 0, got {tag}")

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    def _post(self, obj: Any, dest_world: int, tag: int) -> None:
        event = None
        faults = self._world.faults
        if faults is not None:
            # May raise InjectedCrash (the "process" dies before sending)
            # or sleep (straggler); message events come back to apply.
            event = faults.on_op(self.world_rank, _TAG_NAMES.get(tag, "send"), send=True)
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        src_world = self.world_rank
        self._world.stats.record(len(payload), src=src_world, dst=dest_world)
        tracer = self._world.tracer
        if tracer.enabled:
            tracer.instant(
                "send",
                category="mpi.p2p",
                dest=dest_world,
                tag=_tag_label(tag),
                nbytes=len(payload),
            )
            tracer.metrics.counter("mpi.messages", rank=src_world).inc()
            tracer.metrics.counter("mpi.payload_bytes", rank=src_world).inc(len(payload))
        env = _Envelope(self._id, src_world, tag, payload)
        mailbox = self._world.mailbox(dest_world)
        if event is not None:
            if event.kind == "drop":
                return  # posted by the app, lost on the wire
            if event.kind == "delay":
                timer = threading.Timer(event.seconds, mailbox.put, args=(env,))
                timer.daemon = True
                timer.start()
                return
            if event.kind == "duplicate":
                mailbox.put(env)  # once here, once below
        mailbox.put(env)

    def _fault_op(self, op: str) -> None:
        """Receive-side fault hook: crash/straggle may fire before the op."""
        faults = self._world.faults
        if faults is not None:
            faults.on_op(self.world_rank, op, send=False)

    def _source_world(self, source: int) -> int | None:
        if source == ANY_SOURCE:
            return None
        return self._check_peer("source", source)

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Send a picklable object to ``dest`` (buffered, returns immediately)."""
        self._check_tag(tag)
        self._post(obj, self._check_peer("dest", dest), tag)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        """Block until a matching message arrives; return its payload."""
        obj, _ = self.recv_with_status(source, tag)
        return obj

    @staticmethod
    def _peer_label(source: int) -> str:
        return "ANY_SOURCE" if source == ANY_SOURCE else f"rank {source}"

    def recv_with_status(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> tuple[Any, Status]:
        """Like :meth:`recv` but also return the matched :class:`Status`."""
        self._fault_op("recv")
        with self._world.tracer.span(
            "recv", category="mpi.p2p", source=self._peer_label(source), tag=_tag_label(tag)
        ):
            env = self._world.mailbox(self.world_rank).match(
                self._id,
                self._source_world(source),
                tag,
                remove=True,
                op="recv",
                peer=self._peer_label(source),
            )
        status = Status(self._from_world[env.src_world], env.tag)
        return pickle.loads(env.payload), status

    def sendrecv(
        self, sendobj: Any, dest: int, source: int = ANY_SOURCE, sendtag: int = 0, recvtag: int = ANY_TAG
    ) -> Any:
        """Combined send+receive that cannot deadlock against its partner."""
        self.send(sendobj, dest, sendtag)
        return self.recv(source, recvtag)

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Non-blocking send; the returned request is already complete."""
        self.send(obj, dest, tag)
        return Request(lambda _block: (True, None))

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Non-blocking receive; completion happens in ``test``/``wait``."""
        self._fault_op("irecv")
        src_world = self._source_world(source)
        mailbox = self._world.mailbox(self.world_rank)
        peer = self._peer_label(source)

        def complete(block: bool) -> tuple[bool, Any]:
            env = mailbox.match(
                self._id, src_world, tag, remove=True, block=block, op="irecv.wait", peer=peer
            )
            if env is None:
                return False, None
            return True, pickle.loads(env.payload)

        return Request(complete)

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Status:
        """Block until a matching message is available; do not consume it."""
        self._fault_op("probe")
        with self._world.tracer.span(
            "probe", category="mpi.p2p", source=self._peer_label(source), tag=_tag_label(tag)
        ):
            env = self._world.mailbox(self.world_rank).match(
                self._id,
                self._source_world(source),
                tag,
                remove=False,
                op="probe",
                peer=self._peer_label(source),
            )
        return Status(self._from_world[env.src_world], env.tag)

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Status | None:
        """Non-blocking probe: matching message's status, or None."""
        self._fault_op("iprobe")
        env = self._world.mailbox(self.world_rank).match(
            self._id, self._source_world(source), tag, remove=False, block=False
        )
        if env is None:
            return None
        return Status(self._from_world[env.src_world], env.tag)

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    def _recv_sys(self, source: int, tag: int, *, dead_ok: bool = False) -> Any:
        """Receive a collective's message from ``source`` (a local rank);
        with ``dead_ok``, :data:`_DEAD` once ``source`` died silent."""
        name = _TAG_NAMES[tag]
        self._fault_op(name)
        env = self._world.mailbox(self.world_rank).match(
            self._id,
            self._world_ranks[source],
            tag,
            remove=True,
            dead_ok=dead_ok,
            op=name,
            peer=f"rank {source}",
        )
        return _DEAD if env is None else pickle.loads(env.payload)

    def _fan_in(self, obj: Any, root: int, tag: int, *, dead_ok: bool = False) -> list[Any] | None:
        """Every rank sends ``obj`` to ``root``, which returns them all in
        rank order (its own as a pickled copy); the others return None."""
        if self._rank != root:
            self._post(obj, self._world_ranks[root], tag)
            return None
        own = _copy(obj)
        return [
            own if r == root else self._recv_sys(r, tag, dead_ok=dead_ok) for r in range(self.size)
        ]

    def _fan_out(self, objs: Sequence[Any] | None, root: int, tag: int) -> Any:
        """``root`` sends ``objs[r]`` to each rank ``r``; every rank returns
        its item (the root a pickled copy of its own)."""
        if self._rank != root:
            return self._recv_sys(root, tag)
        for r in range(self.size):
            if r != root:
                self._post(objs[r], self._world_ranks[r], tag)
        return _copy(objs[root])

    def barrier(self) -> None:
        """Block until every rank of the communicator has entered."""
        tracer = self._world.tracer
        with tracer.span("barrier", category="mpi.collective") as sp:
            self._fan_in(None, 0, _TAG_BARRIER_IN)
            self._fan_out([None] * self.size, 0, _TAG_BARRIER_OUT)
        if tracer.enabled:
            tracer.metrics.histogram(
                "mpi.barrier_wait_seconds", rank=self.world_rank
            ).observe(sp.duration)

    def _check_root(self, root: int) -> None:
        if not 0 <= root < self.size:
            raise ValueError(f"root {root} out of range for communicator of size {self.size}")

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast ``obj`` from ``root``; every rank returns its own copy."""
        self._check_root(root)
        with self._world.tracer.span("bcast", category="mpi.collective", root=root):
            return self._fan_out([obj] * self.size, root, _TAG_BCAST)

    def scatter(self, objs: Sequence[Any] | None, root: int = 0) -> Any:
        """Rank ``i`` returns ``objs[i]`` from the root's sequence.

        Uneven payload sizes are allowed (this doubles as Scatterv).
        """
        self._check_root(root)
        with self._world.tracer.span("scatter", category="mpi.collective", root=root):
            if self._rank == root and (objs is None or len(objs) != self.size):
                got = "None" if objs is None else str(len(objs))
                raise ValueError(f"root must pass exactly {self.size} items to scatter, got {got}")
            return self._fan_out(objs, root, _TAG_SCATTER)

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        """Root returns ``[rank0_obj, rank1_obj, …]``; other ranks return None."""
        self._check_root(root)
        with self._world.tracer.span("gather", category="mpi.collective", root=root):
            return self._fan_in(obj, root, _TAG_GATHER)

    def allgather(self, obj: Any) -> list[Any]:
        """Every rank returns the full gathered list."""
        gathered = self.gather(obj, root=0)
        return self.bcast(gathered, root=0)

    def alltoall(self, objs: Sequence[Any]) -> list[Any]:
        """Personalized exchange: rank ``i`` sends ``objs[j]`` to rank ``j``.

        Returns the list of items received, indexed by source rank.
        """
        if len(objs) != self.size:
            raise ValueError(f"alltoall needs exactly {self.size} items, got {len(objs)}")
        with self._world.tracer.span("alltoall", category="mpi.collective"):
            for r in range(self.size):
                if r != self._rank:
                    self._post(objs[r], self._world_ranks[r], _TAG_ALLTOALL)
            out: list[Any] = [None] * self.size
            out[self._rank] = _copy(objs[self._rank])
            for r in range(self.size):
                if r != self._rank:
                    out[r] = self._recv_sys(r, _TAG_ALLTOALL)
            return out

    def reduce(self, obj: Any, op: Op = SUM, root: int = 0) -> Any:
        """Fold all ranks' values with ``op`` in rank order; result at root only."""
        self._check_root(root)
        with self._world.tracer.span("reduce", category="mpi.collective", root=root):
            parts = self._fan_in(obj, root, _TAG_REDUCE)
            if parts is None:
                return None
            acc = parts[0]
            for part in parts[1:]:
                acc = op(acc, part)
            return acc

    def allreduce(self, obj: Any, op: Op = SUM) -> Any:
        """Reduce then broadcast: every rank returns the folded value."""
        return self.bcast(self.reduce(obj, op, root=0), root=0)

    def scan(self, obj: Any, op: Op = SUM) -> Any:
        """Inclusive prefix reduction: rank ``r`` gets fold of ranks ``0..r``."""
        with self._world.tracer.span("scan", category="mpi.collective"):
            own = _copy(obj)
            if self._rank == 0:
                acc = own
            else:
                prefix = self._recv_sys(self._rank - 1, _TAG_SCAN)
                acc = op(prefix, own)
            if self._rank + 1 < self.size:
                self._post(acc, self._world_ranks[self._rank + 1], _TAG_SCAN)
            return acc

    def exscan(self, obj: Any, op: Op = SUM) -> Any:
        """Exclusive prefix reduction: rank ``r`` gets fold of ranks ``0..r-1``.

        Rank 0 returns ``None`` (MPI leaves it undefined).
        """
        with self._world.tracer.span("exscan", category="mpi.collective"):
            own = _copy(obj)
            prefix = None
            if self._rank > 0:
                prefix = self._recv_sys(self._rank - 1, _TAG_SCAN)
            if self._rank + 1 < self.size:
                inclusive = own if prefix is None else op(prefix, own)
                self._post(inclusive, self._world_ranks[self._rank + 1], _TAG_SCAN)
            return prefix

    # ------------------------------------------------------------------
    # communicator management
    # ------------------------------------------------------------------
    def split(self, color: int | None, key: int = 0) -> "Communicator | None":
        """Partition the communicator by ``color``; order ranks by ``(key, rank)``.

        Ranks passing ``color=None`` (MPI_UNDEFINED) receive ``None``.
        Collective: every rank of this communicator must call it.
        """
        # Rank 0 coordinates: gathers (color, key), forms groups, assigns
        # fresh communicator ids from the world counter, and scatters each
        # rank's (comm_id, members, new_rank) descriptor back.
        entries = self._fan_in((color, key), 0, _TAG_SPLIT_UP)
        descriptors: list[tuple[int, list[int], int] | None] | None = None
        if entries is not None:
            groups: dict[int, list[tuple[int, int]]] = {}
            for r, (c, k) in enumerate(entries):
                if c is not None:
                    groups.setdefault(c, []).append((k, r))
            descriptors = [None] * self.size
            for c in sorted(groups):
                members = sorted(groups[c])
                comm_id = self._world.allocate_comm_id()
                world_ranks = [self._world_ranks[r] for _, r in members]
                for new_rank, (_, parent_rank) in enumerate(members):
                    descriptors[parent_rank] = (comm_id, world_ranks, new_rank)
        mine = self._fan_out(descriptors, 0, _TAG_SPLIT_DOWN)
        if mine is None:
            return None
        comm_id, world_ranks, new_rank = mine
        return Communicator(self._world, comm_id, world_ranks, new_rank)

    def dup(self) -> "Communicator":
        """Duplicate the communicator (same group, isolated message space)."""
        dup = self.split(color=0, key=self._rank)
        assert dup is not None
        return dup

    # ------------------------------------------------------------------
    # fault tolerance (ULFM-style; see docs/fault_tolerance.md)
    # ------------------------------------------------------------------
    def is_alive(self, rank: int) -> bool:
        """False once ``rank`` has died unrecovered (``on_failure="tolerate"``)."""
        return not self._world.is_dead(self._check_peer("rank", rank))

    def failed_ranks(self) -> list[int]:
        """Communicator ranks known dead so far, sorted (MPI_Comm_get_failed).

        Detection is immediate in the simulator (the world records each
        death), but still *asynchronous* with respect to this rank's
        program: a rank that will die later is not yet listed.
        """
        return [r for r, w in enumerate(self._world_ranks) if self._world.is_dead(w)]

    def shrink(self, failed: Sequence[int] | None = None) -> "Communicator":
        """Rebuild a smaller communicator from the survivors (ULFM shrink).

        Every *surviving* rank of this communicator must call it with the
        same ``failed`` set (default: :meth:`failed_ranks` — safe once the
        survivors have agreed on who is dead, e.g. after a tolerant
        gather). Involves no messaging: survivors derive the same member
        list and obtain a shared communicator id from the world, so
        shrink cannot itself hang on the dead.
        """
        failed_local = self.failed_ranks() if failed is None else sorted(set(failed))
        failed_world = frozenset(self._world_ranks[r] for r in failed_local)
        if self.world_rank in failed_world:
            raise ValueError("a dead rank cannot take part in shrink")
        survivors_world = [w for w in self._world_ranks if w not in failed_world]
        comm_id = self._world.shrink_comm_id(self._id, failed_world)
        self._world.tracer.instant(
            "shrink", category="mpi.collective", survivors=len(survivors_world)
        )
        return Communicator(
            self._world, comm_id, survivors_world, survivors_world.index(self.world_rank)
        )

    def recv_tolerant(self, source: int, tag: int = ANY_TAG) -> Any | None:
        """Receive from ``source`` — or return None once it is known dead.

        A message the peer managed to post before dying is still
        delivered; None means "dead with nothing in flight". ``source``
        must be a concrete rank (liveness is per-peer, so ``ANY_SOURCE``
        has no meaning here).
        """
        if source == ANY_SOURCE:
            raise ValueError("recv_tolerant needs a concrete source rank, not ANY_SOURCE")
        self._fault_op("recv_tolerant")
        with self._world.tracer.span(
            "recv_tolerant", category="mpi.p2p", source=self._peer_label(source), tag=_tag_label(tag)
        ):
            env = self._world.mailbox(self.world_rank).match(
                self._id,
                self._check_peer("source", source),
                tag,
                remove=True,
                dead_ok=True,
                op="recv_tolerant",
                peer=self._peer_label(source),
            )
        if env is None:
            return None
        return pickle.loads(env.payload)

    def gather_tolerant(self, obj: Any, root: int = 0) -> tuple[list[Any] | None, list[int]]:
        """A gather that survives dead contributors.

        Root returns ``(values, missing)``: ``values[r]`` is rank ``r``'s
        contribution or None, and ``missing`` lists the ranks that died
        without contributing. Non-root ranks return ``(None, [])``. The
        root must be alive (like the ULFM practice of treating root death
        as unrecoverable and restarting the job).
        """
        self._check_root(root)
        with self._world.tracer.span("gather_tolerant", category="mpi.collective", root=root):
            values = self._fan_in(obj, root, _TAG_GATHER_FT, dead_ok=True)
            if values is None:
                return None, []
            missing = [r for r, v in enumerate(values) if v is _DEAD]
            return [None if v is _DEAD else v for v in values], missing

    def abort(self) -> None:
        """Tear down the whole world (MPI_Abort): all ranks raise SpmdAbort."""
        self._world.abort()
        raise SpmdAbort(f"rank {self.world_rank} called abort()")
