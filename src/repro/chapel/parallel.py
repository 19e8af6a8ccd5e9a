"""forall / coforall / foreach — Chapel's three loop flavours.

The distinction is the whole point of the assignment:

- ``forall`` *divides* the iteration space among a bounded task pool
  (and, for a distributed domain, runs each locale's chunk *on* that
  locale) — tasks are created and destroyed per loop;
- ``coforall`` spawns exactly *one task per iteration* and joins them —
  the tool for long-lived explicit task teams;
- ``foreach`` asserts order-independence but creates *no* tasks — a
  vectorization hint, executed serially here.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from repro.chapel.domains import BlockDomain, Domain
from repro.chapel.locales import on
from repro.util.partition import block_bounds
from repro.util.team import run_team

__all__ = ["forall", "coforall", "foreach"]


def _run_tasks(bodies: Sequence[Callable[[], Any]]) -> list[Any]:
    """Run each body as one task of a warm team; propagate the first error."""
    results: list[Any] = [None] * len(bodies)

    def task(i: int) -> None:
        results[i] = bodies[i]()

    run_team(len(bodies), task).raise_first()
    return results


def forall(
    space: Domain | range | int,
    body: Callable[[int], None],
    *,
    num_tasks: int | None = None,
) -> None:
    """Data-parallel loop over an index space.

    Over a :class:`BlockDomain`, one task runs per target locale, on
    that locale, iterating its local chunk — Chapel's distributed
    ``forall``. Over a plain range/int, the space splits into
    ``num_tasks`` (default 4) contiguous blocks.

    Tasks are created for *every call*, which is precisely the overhead
    part 2 of the assignment eliminates; the heat benchmarks measure it.
    (As in Chapel's runtime, a task is not an OS thread: the tasks run
    on parked helper threads, :func:`repro.util.team.run_team`.)
    """
    if isinstance(space, BlockDomain):
        def locale_task(locale_index: int) -> Callable[[], None]:
            def run() -> None:
                sub = space.local_subdomain(locale_index)
                with on(space.target_locales[locale_index]):
                    for i in sub.indices():
                        body(i)
            return run

        _run_tasks([locale_task(li) for li in range(space.num_locales)])
        return

    if isinstance(space, Domain):
        indices: range = space.indices()
    elif isinstance(space, int):
        indices = range(space)
    else:
        indices = space
    n = len(indices)
    tasks = num_tasks or 4

    def chunk_task(t: int) -> Callable[[], None]:
        def run() -> None:
            lo, hi = block_bounds(n, tasks, t)
            for k in range(lo, hi):
                body(indices[k])
        return run

    _run_tasks([chunk_task(t) for t in range(min(tasks, max(n, 1)))])


def coforall(items: Iterable[Any], body: Callable[[Any], Any]) -> list[Any]:
    """One task per item; returns per-item results after joining all.

    ``coforall loc in Locales do on loc`` is spelled::

        coforall(locales(), lambda loc: ... with on(loc): ...)

    (the body receives the item; enter ``on(...)`` inside it).
    """
    items = list(items)
    return _run_tasks([(lambda x=x: body(x)) for x in items])


def foreach(items: Iterable[Any], body: Callable[[Any], None]) -> None:
    """Order-independent loop, no task creation (a vectorization hint).

    The simulator runs it serially; its role is documenting intent and
    keeping solver code structurally identical to the Chapel original.
    """
    for x in items:
        body(x)
