"""The fault-injection core shared by the MPI, Spark and serve fault plans.

Every plan follows the §5 teaching idiom: one seeded LCG sequence, split
by O(log n) fast-forward into blocks so that each coordinate slot owns
one draw, which makes a plan bit-reproducible per seed in any evaluation
order. The domain modules keep their kinds, coordinates, stream layouts,
lookups, exceptions and report counters; the rest lives here.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any, Callable, ClassVar, Iterable, Mapping, NamedTuple, Sequence

from repro.rng.lcg import LcgParams, LinearCongruential
from repro.util.validation import require_nonnegative_int, require_positive_int

__all__ = ["FaultPlanBase", "FaultReportBase", "Region", "check_event", "sample"]


def _check_seconds(name: str, value: float) -> None:
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value}")


def check_event(event: Any, kinds: Sequence[str], coordinates: Sequence[str]) -> None:
    """Validate one event against a domain's kind table.

    Checks for a known ``kind``, non-negative integer ``coordinates`` (in
    the order given), positive ``attempts`` where the event has them, and
    non-negative ``seconds``.
    """
    if event.kind not in kinds:
        raise ValueError(f"unknown fault kind {event.kind!r}; expected one of {tuple(kinds)}")
    for name in coordinates:
        require_nonnegative_int(name, getattr(event, name))
    if hasattr(event, "attempts"):
        require_positive_int("attempts", event.attempts)
    _check_seconds("seconds", event.seconds)


class FaultPlanBase:
    """An immutable schedule of fault events, at most one per slot.

    A domain plan sets how events sort (``_order``), the tuple
    ``trace()`` gives per event (``_row``) and, where it is not the sort
    key, the slot an event occupies (``_slot``); ``_slots`` indexes the
    events for its lookups.
    """

    _order: ClassVar[Callable[[Any], tuple]]
    _row: ClassVar[Callable[[Any], tuple]]

    def __init__(self, events: Iterable[Any] = (), *, seed: int | None = None) -> None:
        self.events: tuple[Any, ...] = tuple(sorted(events, key=self._order))
        self.seed = seed
        self._slots: dict[tuple[str, Any], Any] = {}
        for event in self.events:
            family, names, key = self._slot(event)
            if (family, key) in self._slots:
                raise ValueError(
                    f"multiple {family} events at {names}={key}: at most one fault event per slot"
                )
            self._slots[family, key] = event

    def _slot(self, event: Any) -> tuple[str, str, Any]:
        """``(family, coordinate names, key)``; one event per (family, key)."""
        return "fault", "slot", self._order(event)

    def trace(self) -> tuple[tuple, ...]:
        """Normalized per-event tuples — the reproducibility witness."""
        return tuple(self._row(e) for e in self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        seed = f", seed={self.seed}" if self.seed is not None else ""
        return f"{type(self).__name__}({len(self.events)} events{seed})"


class Region(NamedTuple):
    """One block-split draw family of a sampler.

    Row ``r`` makes ``cols`` draws from the block starting ``offset + r *
    stride`` steps into the sequence (``stride`` defaults to ``cols``).
    ``kinds`` maps kinds to probabilities, which in that order split
    [0, 1) into intervals; ``label`` names them in errors.
    """

    label: str
    kinds: Mapping[str, float]
    rows: int
    cols: int
    offset: int = 0
    stride: int | None = None


def sample(
    seed: int,
    params: LcgParams,
    regions: Sequence[Region],
    *,
    positive: Mapping[str, int],
    nonnegative: Mapping[str, int],
    seconds: Mapping[str, float],
) -> list[tuple[str, int, int]]:
    """Validate a sampler's arguments, then draw every region.

    Checks that ``positive`` ints are >= 1, ``nonnegative`` ints >= 0,
    ``seconds`` >= 0, each region's probabilities >= 0 with sum <= 1 and
    its rows within their blocks — before any draw, so a bad argument
    fails for every seed. Returns ``(kind, row, col)`` per slot whose
    draw lands in a kind's interval, in draw order (region, row, col).
    """
    for values, check in ((positive, require_positive_int),
                          (nonnegative, require_nonnegative_int), (seconds, _check_seconds)):
        for name, value in values.items():
            check(name, value)
    for region in regions:
        probs = tuple(region.kinds.values())
        if not (all(p >= 0 for p in probs) and sum(probs) <= 1.0):
            if len(probs) == 1:
                raise ValueError(f"{region.label} must be in [0, 1], got {probs[0]}")
            raise ValueError(
                f"{region.label} probabilities must be >= 0 and sum to <= 1, got {probs}"
            )
        if region.stride is not None and region.cols > region.stride:
            raise ValueError(
                f"{region.label}: {region.cols} draws per row overflow the "
                f"{region.stride}-draw block of each row"
            )
    base = LinearCongruential(params, seed)
    hits: list[tuple[str, int, int]] = []
    for region in regions:
        intervals = tuple(zip(region.kinds, accumulate(region.kinds.values())))
        stride = region.cols if region.stride is None else region.stride
        for row in range(region.rows):
            stream = base.jumped(region.offset + row * stride)
            for col in range(region.cols):
                u = stream.next_uniform()
                for kind, hi in intervals:
                    if u < hi:
                        hits.append((kind, row, col))
                        break
    return hits


@dataclass
class FaultReportBase:
    """Thread-safe record of the faults fired during one run.

    A domain report declares its ``injected`` list, how records sort
    (``_order``), the tuple ``trace()`` gives per record (``_row``), the
    ``counter`` and ``category`` :meth:`fire` uses, and its summary lines.
    """

    _order: ClassVar[Callable[[Any], tuple]]
    _row: ClassVar[Callable[[Any], tuple]]
    counter: ClassVar[str | None] = None
    category: ClassVar[str]

    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def record_injection(self, record: Any) -> None:
        """Log one fired fault."""
        with self._lock:
            self.injected.append(record)

    def fire(self, record: Any, metrics: Any = None, tracer: Any = None, *,
             scope: str | None = None, **args: Any) -> None:
        """Account one firing at an injection site: record it, bump
        :attr:`counter` on ``metrics`` and emit a ``fault.<kind>``
        instant with ``args`` on ``tracer`` (each when given)."""
        self.record_injection(record)
        if metrics is not None:
            metrics.bump(self.counter)
        if tracer is not None and tracer.enabled:
            tracer.instant(f"fault.{record.kind}", category=self.category, scope=scope, **args)

    def trace(self) -> tuple[tuple, ...]:
        """Normalized fired-fault tuples — equal across runs of one seed."""
        with self._lock:
            return tuple(self._row(r) for r in sorted(self.injected, key=self._order))

    def summary(self) -> str:
        """One human-readable paragraph (for logs and teaching output)."""
        with self._lock:
            lines = [self._header()]
            for rec in sorted(self.injected, key=self._order):
                extra = f" ({rec.seconds:.3f}s)" if rec.seconds else ""
                lines.append(f"  - {self._describe(rec)}{extra}")
            lines += self._details()
        return "\n".join(lines)

    def _header(self) -> str:
        return f"{type(self).__name__}: {len(self.injected)} fault(s) fired"

    def _describe(self, record: Any) -> str:
        """One fired fault's summary line, before its seconds."""
        raise NotImplementedError

    def _details(self) -> list[str]:
        """The domain's summary lines after the fired faults."""
        return []
