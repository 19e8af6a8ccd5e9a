"""The SPMD world: rank threads, mailboxes, and the launcher.

:func:`run_spmd` is the moral equivalent of ``mpiexec -n <size>``: it
runs one thread per rank (parked helpers reused from run to run, see
:mod:`repro.util.team`), hands each a :class:`Communicator`, runs the
user's rank function, and collects per-rank results. If any rank raises,
the world aborts (waking ranks blocked in ``recv``/collectives) and a
:class:`RankFailedError` reports every failure.

Python threads as ranks is a faithful *semantic* model — value-copying
messages, real concurrency hazards, real blocking — and a partially
faithful *performance* model: numpy kernels release the GIL so chunked
array compute genuinely overlaps, while pure-Python loops serialize.
DESIGN.md's ablation benchmark quantifies exactly that boundary.

Fault tolerance (docs/fault_tolerance.md): pass a seeded
:class:`~repro.mpi.faults.FaultPlan` to inject deterministic crashes,
message faults, and stragglers, and pick an ``on_failure`` policy —
``"abort"`` (fail fast, the default), ``"respawn"`` (re-run the dead
rank's function with bounded exponential-backoff retries), or
``"tolerate"`` (ULFM-style: the world keeps running, survivors observe
the death via ``Communicator.failed_ranks``/``shrink``).
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.mpi.comm import Communicator, _Mailbox
from repro.mpi.errors import DeadlockError, RankFailedError, SpmdAbort
from repro.mpi.faults import FaultPlan, FaultReport, _FaultInjector
from repro.trace.tracer import Tracer, get_tracer
from repro.util.backoff import BackoffPolicy
from repro.util.team import run_team
from repro.util.validation import require_positive_int

__all__ = ["World", "run_spmd", "FAILURE_POLICIES"]

_WORLD_COMM_ID = 0

#: Recovery policies accepted by :func:`run_spmd`'s ``on_failure``.
FAILURE_POLICIES = ("abort", "respawn", "tolerate")


class MessageStats:
    """Communication counters for one SPMD run.

    Like the shuffle-pair counts in MapReduce/Spark and the remote-access
    counters in the Chapel arrays, these make the runtime's traffic
    observable: ``messages`` posts and their pickled ``payload_bytes``,
    in aggregate (:meth:`snapshot`, unchanged shape for existing
    callers) and broken down per sending rank (:meth:`per_rank`) and per
    (src, dst) pair (:meth:`per_pair`) — the communication *matrix* that
    shows who talks to whom. Thread-safe via a single lock (contention
    is irrelevant at teaching scale).
    """

    def __init__(self) -> None:
        self.messages = 0
        self.payload_bytes = 0
        self._by_pair: dict[tuple[int, int], list[int]] = {}
        self._lock = threading.Lock()

    def record(self, nbytes: int, *, src: int | None = None, dst: int | None = None) -> None:
        """Count one posted message of ``nbytes`` pickled payload.

        ``src``/``dst`` are world ranks; when both are given the message
        also lands in the per-rank and per-pair breakdowns.
        """
        with self._lock:
            self.messages += 1
            self.payload_bytes += nbytes
            if src is not None and dst is not None:
                cell = self._by_pair.setdefault((src, dst), [0, 0])
                cell[0] += 1
                cell[1] += nbytes

    def snapshot(self) -> dict[str, int]:
        """A plain-dict copy (for reports)."""
        with self._lock:
            return {"messages": self.messages, "payload_bytes": self.payload_bytes}

    def per_rank(self) -> dict[int, dict[str, int]]:
        """Messages/bytes *sent* by each world rank, sorted by rank."""
        with self._lock:
            out: dict[int, dict[str, int]] = {}
            for (src, _dst), (n, b) in sorted(self._by_pair.items()):
                cell = out.setdefault(src, {"messages": 0, "payload_bytes": 0})
                cell["messages"] += n
                cell["payload_bytes"] += b
            return out

    def per_pair(self) -> dict[tuple[int, int], dict[str, int]]:
        """Messages/bytes per (src, dst) world-rank pair, sorted."""
        with self._lock:
            return {
                pair: {"messages": n, "payload_bytes": b}
                for pair, (n, b) in sorted(self._by_pair.items())
            }


class World:
    """Shared state for one SPMD execution: mailboxes, abort flag, comm ids."""

    def __init__(
        self,
        size: int,
        timeout: float,
        faults: FaultPlan | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        require_positive_int("size", size)
        if timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        self.size = size
        self.timeout = timeout
        self.stats = MessageStats()
        self.report = FaultReport(size)
        #: The run's tracer — the process default (disabled) unless one
        #: was passed explicitly. Bound once at construction.
        self.tracer = tracer if tracer is not None else get_tracer()
        #: Fault injector consulted on every runtime operation, or None —
        #: the fault-free hot path is a single ``is None`` check.
        self.faults = (
            _FaultInjector(faults, size, self.report, tracer=self.tracer)
            if faults is not None
            else None
        )
        self._mailboxes = [_Mailbox(self, r) for r in range(size)]
        self._abort = threading.Event()
        self._comm_id_lock = threading.Lock()
        self._next_comm_id = _WORLD_COMM_ID + 1
        self._shared: dict[int, object] = {}
        self._shared_lock = threading.Lock()
        self._next_shared_key = 0
        self._dead: dict[int, BaseException] = {}
        self._dead_lock = threading.Lock()
        self._shrink_ids: dict[tuple[int, frozenset[int]], int] = {}

    @property
    def aborted(self) -> bool:
        """True once any rank has failed or called abort()."""
        return self._abort.is_set()

    def abort(self) -> None:
        """Mark the world dead and wake every blocked receiver."""
        self._abort.set()
        for box in self._mailboxes:
            box.wake_all()

    def mark_dead(self, world_rank: int, exc: BaseException) -> None:
        """Record an unrecovered rank death (``on_failure="tolerate"``).

        The world keeps running; blocked receivers are woken so tolerant
        operations can notice the death instead of waiting out the
        timeout.
        """
        with self._dead_lock:
            self._dead[world_rank] = exc
        self.report.record_death(world_rank, exc)
        self.tracer.instant(
            "rank_death",
            category="runtime.fault",
            scope=f"rank{world_rank}",
            rank=world_rank,
            error=type(exc).__name__,
        )
        for box in self._mailboxes:
            box.wake_all()

    def is_dead(self, world_rank: int) -> bool:
        """True if the rank died and was not (or could not be) respawned."""
        with self._dead_lock:
            return world_rank in self._dead

    def dead_world_ranks(self) -> frozenset[int]:
        """The currently-known dead world ranks."""
        with self._dead_lock:
            return frozenset(self._dead)

    def mailbox(self, world_rank: int) -> _Mailbox:
        """The receive queue of a world rank."""
        return self._mailboxes[world_rank]

    def register_shared(self, obj: object) -> int:
        """Store an object shared by reference across ranks; returns its key.

        Messages are pickled (value semantics), so substrate features
        that genuinely need shared state — RMA window buffers — register
        it here and ship only the key.
        """
        with self._shared_lock:
            key = self._next_shared_key
            self._next_shared_key += 1
            self._shared[key] = obj
            return key

    def shared(self, key: int) -> object:
        """Look up an object registered with :meth:`register_shared`."""
        with self._shared_lock:
            return self._shared[key]

    def allocate_comm_id(self) -> int:
        """Fresh communicator id (used by split/dup)."""
        with self._comm_id_lock:
            cid = self._next_comm_id
            self._next_comm_id += 1
            return cid

    def shrink_comm_id(self, parent_id: int, failed_world: frozenset[int]) -> int:
        """The communicator id all survivors of one shrink agree on.

        ``shrink`` involves no messaging, so agreement comes from this
        shared, lock-protected cache: the first survivor to ask allocates
        the id, the rest reuse it.
        """
        key = (parent_id, failed_world)
        with self._comm_id_lock:
            if key not in self._shrink_ids:
                self._shrink_ids[key] = self._next_comm_id
                self._next_comm_id += 1
            return self._shrink_ids[key]

    def world_communicator(self, rank: int) -> Communicator:
        """The COMM_WORLD view for one rank."""
        return Communicator(self, _WORLD_COMM_ID, list(range(self.size)), rank)


def run_spmd(
    size: int,
    fn: Callable[..., Any],
    *args: Any,
    timeout: float = 60.0,
    return_stats: bool = False,
    faults: FaultPlan | None = None,
    on_failure: str = "abort",
    max_respawns: int = 2,
    respawn_backoff: float = 0.01,
    wall_timeout: float | None = None,
    return_report: bool = False,
    tracer: Tracer | None = None,
    **kwargs: Any,
) -> Any:
    """Run ``fn(comm, *args, **kwargs)`` on ``size`` ranks; return per-rank results.

    Parameters
    ----------
    size:
        Number of ranks (threads) to launch.
    fn:
        The rank program. Its first argument is this rank's
        :class:`Communicator`; remaining arguments are shared verbatim
        (so treat them as read-only, exactly like pre-loaded input files
        in a real MPI job).
    timeout:
        Seconds any single blocking operation may wait before the runtime
        declares deadlock.
    return_stats:
        When True, the run's message-count/payload-bytes stats are
        appended to the return value.
    faults:
        Optional :class:`~repro.mpi.faults.FaultPlan` to inject
        deterministic crashes, message faults, and stragglers. None (the
        default) leaves the hot path untouched.
    on_failure:
        Recovery policy for a rank whose function raises an
        ``Exception`` (``BaseException`` escapes always abort):

        - ``"abort"``: fail fast — abort the world, raise
          :class:`RankFailedError` (the pre-fault-tolerance behaviour);
        - ``"respawn"``: re-run the rank function from the top, up to
          ``max_respawns`` times with exponential backoff
          (``respawn_backoff * 2**attempt`` seconds, the shared
          :class:`~repro.util.backoff.BackoffPolicy` schedule);
          exhausted retries
          escalate to abort. The function must be re-entrant — see
          docs/fault_tolerance.md.
        - ``"tolerate"``: ULFM-style — record the death, keep the world
          running; survivors observe it via
          ``Communicator.failed_ranks()`` / ``is_alive()`` and rebuild
          with ``shrink()``. The dead rank's result stays None. Raises
          :class:`RankFailedError` only if *every* rank died.
    wall_timeout:
        Optional bound on the whole run's wall-clock seconds. If any
        rank thread is still running at the deadline the world is
        aborted and :class:`DeadlockError` is raised naming the stuck
        ranks — instead of joining forever.
    return_report:
        When True, the :class:`~repro.mpi.faults.FaultReport` (fired
        faults, deaths, respawns) is appended to the return value.
    tracer:
        Optional :class:`~repro.trace.Tracer` observing this run. None
        (the default) uses the process tracer from
        :func:`repro.trace.get_tracer` — a disabled no-op unless
        installed with ``use_tracer``/``set_tracer``. When enabled, the
        runtime records per-rank lifecycle spans, every message post,
        receive/collective spans, and fault events, each stamped with a
        deterministic per-rank logical clock (docs/observability.md).

    Returns
    -------
    ``results`` — or ``(results, stats)``, ``(results, report)``,
    ``(results, stats, report)`` as requested by the two flags.

    Raises
    ------
    RankFailedError
        If any rank raised (policy permitting); carries the per-rank
        exceptions.
    DeadlockError
        If ``wall_timeout`` expired with rank threads still running.
    """
    if on_failure not in FAILURE_POLICIES:
        raise ValueError(f"on_failure must be one of {FAILURE_POLICIES}, got {on_failure!r}")
    if wall_timeout is not None and wall_timeout <= 0:
        raise ValueError(f"wall_timeout must be > 0, got {wall_timeout}")
    world = World(size, timeout, faults=faults, tracer=tracer)
    run_tracer = world.tracer
    respawn_policy = BackoffPolicy(respawn_backoff)
    results: list[Any] = [None] * size
    failures: dict[int, BaseException] = {}
    failure_lock = threading.Lock()

    def rank_main(rank: int) -> None:
        attempts = 0
        with run_tracer.scope(f"rank{rank}"):
            while True:
                comm = world.world_communicator(rank)
                try:
                    with run_tracer.span("rank", category="runtime", rank=rank, attempt=attempts):
                        results[rank] = fn(comm, *args, **kwargs)
                    return
                except SpmdAbort:
                    # Another rank failed first; this rank just unwinds quietly.
                    return
                except Exception as exc:
                    if on_failure == "respawn" and attempts < max_respawns and not world.aborted:
                        world.report.record_respawn(rank)
                        run_tracer.instant(
                            "rank_respawn", category="runtime.fault", rank=rank, attempt=attempts
                        )
                        respawn_policy.sleep(attempts)
                        attempts += 1
                        continue
                    if on_failure == "tolerate":
                        world.mark_dead(rank, exc)
                        return
                    run_tracer.instant(
                        "rank_failed", category="runtime.fault", rank=rank,
                        error=type(exc).__name__,
                    )
                    with failure_lock:
                        failures[rank] = exc
                    world.abort()
                    return
                except BaseException as exc:  # noqa: BLE001 - report any rank failure
                    with failure_lock:
                        failures[rank] = exc
                    world.abort()
                    return

    with run_tracer.span("run_spmd", category="runtime", size=size):
        run = run_team(size, rank_main, timeout=wall_timeout)
    stuck = run.running
    if stuck:
        # Wake anything blocked in the runtime; give the unwind a moment.
        world.abort()
        still = run.wait(1.0)
        raise DeadlockError(
            f"run_spmd exceeded wall_timeout={wall_timeout}s: "
            f"rank(s) {stuck} never returned"
            + (f"; rank(s) {still} ignored the abort (stuck outside the runtime)" if still else "")
        )

    if on_failure == "tolerate":
        # Tolerated deaths live in the report; raise only for hard aborts
        # (BaseException escapes) or a world with no survivors left.
        all_dead = dict(world.report.failures)
        if failures or len(all_dead) >= size:
            failures = {**all_dead, **failures}
            first_rank = min(failures)
            raise RankFailedError(failures) from failures[first_rank]
    elif failures:
        first_rank = min(failures)
        raise RankFailedError(failures) from failures[first_rank]
    out: tuple[Any, ...] = (results,)
    if return_stats:
        out += (world.stats.snapshot(),)
    if return_report:
        out += (world.report,)
    return out[0] if len(out) == 1 else out
