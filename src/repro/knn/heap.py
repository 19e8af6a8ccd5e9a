"""Bounded max-heap selection of the k smallest items.

The paper cites CLRS for the complexity argument: selecting the k
nearest of n candidates by sorting costs Θ(n log n), while a max-heap
of capacity k costs Θ(n log k) — a real win because k ≪ n. The heap
keeps the *largest* of the current k best at its root; a new candidate
either beats the root (replace, sift down) or is discarded in O(1).

Both selection strategies are exported so the ablation benchmark can
measure the gap the assignment teaches.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.util.validation import require_positive_int

__all__ = ["BoundedMaxHeap", "top_k_smallest", "top_k_by_sort"]


class BoundedMaxHeap:
    """Max-heap of fixed capacity holding the k smallest (key, payload) seen.

    Keys must be mutually comparable (distances, here). Ties at the
    boundary keep the incumbent, which makes selection deterministic
    given a deterministic candidate order.
    """

    __slots__ = ("capacity", "_items")

    def __init__(self, capacity: int) -> None:
        self.capacity = require_positive_int("capacity", capacity)
        self._items: list[tuple[float, Any]] = []

    def __len__(self) -> int:
        return len(self._items)

    @property
    def worst_key(self) -> float:
        """Largest key currently kept (inf while under capacity)."""
        return self._items[0][0] if len(self._items) == self.capacity else float("inf")

    def offer(self, key: float, payload: Any = None) -> bool:
        """Consider a candidate; returns True if it was kept."""
        items = self._items
        if len(items) < self.capacity:
            items.append((key, payload))
            self._sift_up(len(items) - 1)
            return True
        if key < items[0][0]:
            items[0] = (key, payload)
            self._sift_down(0)
            return True
        return False

    def _sift_up(self, i: int) -> None:
        items = self._items
        while i > 0:
            parent = (i - 1) // 2
            if items[i][0] > items[parent][0]:
                items[i], items[parent] = items[parent], items[i]
                i = parent
            else:
                break

    def _sift_down(self, i: int) -> None:
        items = self._items
        n = len(items)
        while True:
            left, right = 2 * i + 1, 2 * i + 2
            largest = i
            if left < n and items[left][0] > items[largest][0]:
                largest = left
            if right < n and items[right][0] > items[largest][0]:
                largest = right
            if largest == i:
                break
            items[i], items[largest] = items[largest], items[i]
            i = largest

    def sorted_items(self) -> list[tuple[float, Any]]:
        """Kept items, ascending by key (non-destructive)."""
        return sorted(self._items, key=lambda kv: kv[0])


def _pairs(keys: Sequence[float], payloads: Sequence[Any] | None) -> Iterable[tuple[float, Any]]:
    """``(key, payload)`` pairs; a missing payload is the key's index."""
    if payloads is None:
        return ((key, i) for i, key in enumerate(keys))
    if len(payloads) != len(keys):
        raise ValueError("keys and payloads must have equal length")
    return zip(keys, payloads)


def top_k_smallest(
    keys: Sequence[float], payloads: Sequence[Any] | None, k: int
) -> list[tuple[float, Any]]:
    """The k smallest (key, payload) pairs, ascending — heap-based, Θ(n log k)."""
    heap = BoundedMaxHeap(k)
    for key, payload in _pairs(keys, payloads):
        heap.offer(key, payload)
    return heap.sorted_items()


def top_k_by_sort(
    keys: Sequence[float], payloads: Sequence[Any] | None, k: int
) -> list[tuple[float, Any]]:
    """The k smallest pairs by full sort — the Θ(n log n) strawman."""
    require_positive_int("k", k)
    return sorted(_pairs(keys, payloads), key=lambda kv: kv[0])[:k]
