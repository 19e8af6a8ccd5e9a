"""A reusable task barrier (Chapel's ``Barrier`` from the Collectives module).

Part 2 of the heat assignment replaces the implicit per-step join of a
``forall`` with one long-lived task team that synchronizes at explicit
barriers between time steps. :class:`~repro.util.team.TeamBarrier`
(the OpenMP team barrier, on plain locks) already cycles automatically;
this wrapper adds the Chapel-flavoured API and turns a broken barrier
into a clear error.
"""

from __future__ import annotations

import threading

from repro.util.team import TeamBarrier
from repro.util.validation import require_positive_int

__all__ = ["TaskBarrier"]


class TaskBarrier:
    """Cyclic barrier for a fixed-size task team.

    Built on :class:`~repro.util.team.TeamBarrier`: one guard lock plus
    one gate lock per waiting task, opened by the last arrival.
    """

    def __init__(self, num_tasks: int) -> None:
        require_positive_int("num_tasks", num_tasks)
        self.num_tasks = num_tasks
        self._barrier = TeamBarrier(num_tasks)

    def wait(self) -> None:
        """Block until all ``num_tasks`` tasks have arrived; then all proceed."""
        try:
            self._barrier.wait()
        except threading.BrokenBarrierError as exc:
            raise RuntimeError(
                "barrier broken: a teammate task failed and aborted it"
            ) from exc

    barrier = wait  # Chapel spells it b.barrier()

    def abort(self) -> None:
        """Break the barrier, releasing (and failing) any waiters."""
        self._barrier.abort()
