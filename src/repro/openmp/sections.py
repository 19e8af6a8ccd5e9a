"""The ``sections`` and ``ordered`` constructs.

Two remaining OpenMP worksharing idioms the courses touch on:

- :func:`parallel_sections` — N independent code blocks distributed
  over a team (``omp sections``); each section runs exactly once, on
  some thread;
- :class:`OrderedRegion` — inside a parallel loop, force a sub-block to
  execute in *iteration order* (``omp ordered``): threads compute in
  parallel but commit sequentially — the pattern for ordered output
  from a parallel loop.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Sequence

from repro.openmp.region import parallel_region
from repro.util.validation import require_nonnegative_int, require_positive_int

__all__ = ["parallel_sections", "OrderedRegion"]


def parallel_sections(
    sections: Sequence[Callable[[], Any]], num_threads: int | None = None
) -> list[Any]:
    """Run each section exactly once, spread over a thread team.

    Returns results in section order. ``num_threads`` defaults to the
    number of sections (the common OpenMP configuration).
    """
    if not sections:
        raise ValueError("need at least one section")
    threads = num_threads or len(sections)
    require_positive_int("num_threads", threads)
    results: list[Any] = [None] * len(sections)

    def body(ctx) -> None:
        # Dynamic distribution: threads grab the next unclaimed section.
        for s in ctx.for_range(len(sections), schedule="dynamic"):
            results[s] = sections[s]()

    parallel_region(threads, body)
    return results


class OrderedRegion:
    """Sequencer for ``ordered`` blocks inside a parallel loop.

    Iterations may be *computed* in any order by any thread, but calls
    to :meth:`commit` execute strictly in iteration order::

        region = OrderedRegion(total=n)
        def body(ctx):
            for i in ctx.for_range(n, schedule="dynamic"):
                value = expensive(i)              # parallel part
                region.commit(i, lambda: out.append(value))  # ordered part

    ``commit`` blocks until every lower iteration has committed.
    """

    def __init__(self, total: int) -> None:
        require_nonnegative_int("total", total)
        self.total = total
        self._next = 0
        self._cond = threading.Condition()

    def commit(self, iteration: int, action: Callable[[], Any], *, timeout: float = 60.0) -> Any:
        """Run ``action`` once iterations ``0..iteration`` have committed.

        Raises ``TimeoutError`` if a lower iteration never commits within
        ``timeout`` seconds — the ordered-region analogue of a barrier
        deadlock (e.g. an iteration skipped its commit)."""
        import time

        if not 0 <= iteration < self.total:
            raise ValueError(f"iteration {iteration} out of range [0, {self.total})")
        deadline = time.monotonic() + timeout
        with self._cond:
            while self._next < iteration:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"iteration {iteration} waited {timeout}s for iteration "
                        f"{self._next} to commit — a commit was skipped"
                    )
                self._cond.wait(timeout=remaining)
            if self._next > iteration:
                raise RuntimeError(f"iteration {iteration} committed twice")
            try:
                return action()
            finally:
                self._next += 1
                self._cond.notify_all()

    @property
    def committed(self) -> int:
        """Number of iterations committed so far."""
        with self._cond:
            return self._next
