"""Thread-private persistent storage — the ``threadprivate`` pragma.

The traffic assignment lists ``threadprivate`` among the OpenMP
directives students need (paper §5): each thread keeps its own PRNG
clone that persists across parallel regions. :class:`ThreadPrivate`
wraps ``threading.local`` with a factory so first touch initializes the
per-thread copy, and adds the bookkeeping needed to enumerate live
copies (useful for tests and for merging at shutdown).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Generic, TypeVar

T = TypeVar("T")

__all__ = ["ThreadPrivate"]


class ThreadPrivate(Generic[T]):
    """Lazily-initialized per-thread value.

    Team threads are parked helpers reused from region to region, so a
    thread's copy persists across parallel regions of the same size —
    the ``threadprivate`` promise — and :meth:`instances` lists one copy
    per thread that ever touched it.

    >>> counter = ThreadPrivate(lambda: [0])
    >>> counter.value[0] += 1
    >>> counter.value
    [1]
    """

    def __init__(self, factory: Callable[[], T]) -> None:
        self._factory = factory
        self._store = threading.local()
        self._instances: list[T] = []
        self._guard = threading.Lock()

    @property
    def value(self) -> T:
        """This thread's copy, created on first access."""
        try:
            return self._store.value
        except AttributeError:
            created = self._factory()
            with self._guard:
                self._store.slot = len(self._instances)
                self._instances.append(created)
            self._store.value = created
            return created

    def set(self, value: T) -> None:
        """Replace this thread's copy (counts as a touch)."""
        _ = self.value  # ensure registration
        self._store.value = value
        with self._guard:
            self._instances[self._store.slot] = value

    def instances(self) -> list[T]:
        """All per-thread copies created so far (for inspection/merging)."""
        with self._guard:
            return list(self._instances)
