"""Deterministic fault injection for the SPMD runtime.

Real clusters lose ranks, drop messages, and straggle — but never twice
the same way, which is exactly why failure handling is so hard to teach
on real hardware. The thread-per-rank simulator can do better: a
:class:`FaultPlan` is *seeded* and *bit-reproducible*, built on the same
:mod:`repro.rng.lcg` fast-forward machinery as the §5 traffic PRNG, so
"rank 2 dies at its 13th operation" happens identically on every run
with the same seed.

The plan addresses faults by ``(rank, op_index)`` where the operation
index counts the rank's primitive runtime operations in program order:
every message it posts and every receive/probe it performs. For a
deterministic rank program that sequence is itself deterministic, so
injection is exact.

Fault kinds:

- ``crash``    — the rank raises :class:`~repro.mpi.errors.InjectedCrash`
  *before* executing the operation (the process "dies" at that point);
- ``drop``     — the posted message is silently discarded;
- ``duplicate``— the posted message is delivered twice;
- ``delay``    — the posted message is delivered ``seconds`` later;
- ``straggle`` — the rank sleeps ``seconds`` before the operation
  (an artificial slow node).

Message kinds scheduled at an operation index that turns out to be a
receive are no-ops (nothing was posted to disturb).

The default is no injector at all: ``run_spmd(...)`` without a plan
takes the exact fault-free hot path (one attribute load + ``None``
check per operation; the ``fault_overhead`` gate in
``benchmarks/gates.py`` holds the line at <5%).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Sequence

from repro.faults import FaultPlanBase, FaultReportBase, Region, check_event, sample
from repro.mpi.errors import InjectedCrash
from repro.rng.lcg import KNUTH_LCG, LcgParams

__all__ = ["FaultEvent", "FaultPlan", "FaultReport", "InjectionRecord", "FAULT_KINDS"]

#: The recognized fault kinds, in the order the sampler's probability
#: intervals are laid out.
FAULT_KINDS = ("crash", "drop", "duplicate", "delay", "straggle")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: ``kind`` hits ``rank`` at its ``op_index``-th op.

    ``seconds`` only matters for ``delay`` and ``straggle``.
    """

    kind: str
    rank: int
    op_index: int
    seconds: float = 0.0

    def __post_init__(self) -> None:
        check_event(self, FAULT_KINDS, ("rank", "op_index"))


@dataclass(frozen=True)
class InjectionRecord:
    """One fault that actually fired: where, what, and on which operation."""

    rank: int
    op_index: int
    kind: str
    op: str
    seconds: float = 0.0


class FaultPlan(FaultPlanBase):
    """An immutable schedule of faults for one SPMD world.

    Build one explicitly from :class:`FaultEvent` instances, or sample
    one reproducibly with :meth:`sample`. At most one event may target a
    given ``(rank, op_index)`` slot.
    """

    _order = attrgetter("rank", "op_index")
    _row = attrgetter("kind", "rank", "op_index")

    @classmethod
    def crash(cls, rank: int, op_index: int) -> "FaultPlan":
        """The simplest plan: kill one rank at one operation."""
        return cls([FaultEvent("crash", rank, op_index)])

    @classmethod
    def sample(
        cls,
        seed: int,
        size: int,
        horizon: int,
        *,
        crash_prob: float = 0.0,
        drop_prob: float = 0.0,
        duplicate_prob: float = 0.0,
        delay_prob: float = 0.0,
        straggle_prob: float = 0.0,
        seconds: float = 0.002,
        max_crashes: int = 1,
        protected_ranks: Sequence[int] = (0,),
        params: LcgParams = KNUTH_LCG,
    ) -> "FaultPlan":
        """Draw a reproducible plan with :func:`repro.faults.sample`:
        rank ``r`` owns the ``horizon`` draws from ``r * horizon`` on, one
        per operation, split between :data:`FAULT_KINDS` in order.

        ``max_crashes`` caps total crashes (survivors must outnumber the
        dead for recovery to mean anything) and ``protected_ranks``
        shields ranks whose death the workloads treat as unrecoverable —
        by default rank 0, the root every gather converges on.
        """
        probs = (crash_prob, drop_prob, duplicate_prob, delay_prob, straggle_prob)
        hits = sample(
            seed, params, [Region("fault", dict(zip(FAULT_KINDS, probs)), size, horizon)],
            positive={"size": size, "horizon": horizon},
            nonnegative={"max_crashes": max_crashes},
            seconds={"seconds": seconds},
        )
        events: list[FaultEvent] = []
        crashed: set[int] = set()
        protected = frozenset(protected_ranks)
        for kind, rank, op_index in hits:
            if rank in crashed:
                continue  # ops after a crash are unreachable
            if kind == "crash":
                if rank in protected or len(crashed) >= max_crashes:
                    continue
                crashed.add(rank)
            timed = kind in ("delay", "straggle")
            events.append(FaultEvent(kind, rank, op_index, seconds if timed else 0.0))
        return cls(events, seed=seed)

    def for_rank(self, rank: int) -> dict[int, FaultEvent]:
        """This rank's events, keyed by operation index."""
        return {e.op_index: e for e in self.events if e.rank == rank}


@dataclass
class FaultReport(FaultReportBase):
    """What the fault layer observed during one SPMD run.

    Returned by ``run_spmd(..., return_report=True)``: which faults
    fired (:attr:`injected`), which ranks ended the run dead
    (:attr:`failures`), and how many times each rank was respawned.
    All mutators and readers are thread-safe; readers should run after
    the world has been joined.
    """

    size: int
    injected: list[InjectionRecord] = field(default_factory=list)
    failures: dict[int, BaseException] = field(default_factory=dict)
    respawns: dict[int, int] = field(default_factory=dict)

    _order = attrgetter("rank", "op_index")
    _row = attrgetter("kind", "rank", "op_index", "op")
    category = "runtime.fault"

    def record_death(self, rank: int, exc: BaseException) -> None:
        """Log a rank's final, unrecovered failure."""
        with self._lock:
            self.failures[rank] = exc

    def record_respawn(self, rank: int) -> None:
        """Log one respawn attempt for a rank."""
        with self._lock:
            self.respawns[rank] = self.respawns.get(rank, 0) + 1

    @property
    def dead_ranks(self) -> list[int]:
        """World ranks that never recovered, sorted."""
        with self._lock:
            return sorted(self.failures)

    @property
    def survivors(self) -> list[int]:
        """World ranks alive at the end of the run, sorted."""
        with self._lock:
            return [r for r in range(self.size) if r not in self.failures]

    def _header(self) -> str:
        return f"{super()._header()} on a {self.size}-rank world"

    def _describe(self, rec: InjectionRecord) -> str:
        return f"rank {rec.rank} op {rec.op_index} [{rec.op}]: {rec.kind}"

    def _details(self) -> list[str]:
        lines = []
        for rank, exc in sorted(self.failures.items()):
            n = self.respawns.get(rank, 0)
            retried = f" after {n} respawn(s)" if n else ""
            lines.append(f"  rank {rank} died{retried}: {type(exc).__name__}: {exc}")
        if not self.failures:
            lines.append("  all ranks survived")
        return lines


class _FaultInjector:
    """Runtime side of a plan: counts each rank's operations and fires events.

    One per :class:`~repro.mpi.runtime.World`. Per-rank counters need no
    locking: a rank's operations all run on its own thread (respawns
    reuse the slot sequentially), and the counter survives respawns so
    every event fires at most once per run.
    """

    def __init__(self, plan: FaultPlan, size: int, report: FaultReport, tracer=None) -> None:
        self.report = report
        self._tracer = tracer
        self._by_rank = [plan.for_rank(r) for r in range(size)]
        self._op_counts = [0] * size

    def on_op(self, rank: int, op: str, *, send: bool) -> FaultEvent | None:
        """Advance ``rank``'s op counter; fire any event scheduled there.

        Crashes raise, stragglers sleep here; message events are returned
        to the caller (``Communicator._post``) to apply — and swallowed
        when the operation is not a send.
        """
        op_index = self._op_counts[rank]
        self._op_counts[rank] = op_index + 1
        event = self._by_rank[rank].get(op_index)
        if event is None:
            return None
        kind = event.kind
        if not send and kind not in ("crash", "straggle"):
            return None  # message fault scheduled on a receive: nothing to disturb
        seconds = 0.0 if kind == "crash" else event.seconds
        # Fault firings become trace instants on the victim's lane, so a
        # timeline shows exactly where the injected failure bit.
        self.report.fire(
            InjectionRecord(rank, op_index, kind, op, seconds),
            tracer=self._tracer, rank=rank, op=op, op_index=op_index,
        )
        if kind == "crash":
            raise InjectedCrash(rank, op_index)
        if kind == "straggle":
            time.sleep(event.seconds)
            return None
        return event
