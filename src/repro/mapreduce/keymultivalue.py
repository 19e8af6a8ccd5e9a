"""Grouped storage — MR-MPI's ``KeyMultiValue`` object.

Produced by ``convert``/``collate``: each unique key maps to the list of
all values that arrived with it, in arrival order. Reduce callbacks
iterate it and emit new pairs into a fresh :class:`KeyValue`.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

__all__ = ["KeyMultiValue"]


class KeyMultiValue:
    """Ordered mapping key → list of values (insertion order of first sight)."""

    __slots__ = ("_groups",)

    def __init__(self) -> None:
        self._groups: dict[Any, list[Any]] = {}

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Any, Any]]) -> "KeyMultiValue":
        """Group a pair stream by key: the same groups, in the same order,
        as one :meth:`add` per pair, written inline."""
        kmv = cls()
        groups = kmv._groups
        for key, value in pairs:
            group = groups.get(key)
            if group is None:
                groups[key] = [value]
            else:
                group.append(value)
        return kmv

    def add(self, key: Any, value: Any) -> None:
        """Append ``value`` to ``key``'s group (creating the group if new)."""
        self._groups.setdefault(key, []).append(value)

    def values_for(self, key: Any) -> list[Any]:
        """The value list of ``key`` (KeyError if absent)."""
        return self._groups[key]

    def keys(self) -> list[Any]:
        """Unique keys in first-seen order."""
        return list(self._groups)

    def items(self) -> Iterator[tuple[Any, list[Any]]]:
        """(key, values) groups in first-seen order."""
        return iter(self._groups.items())

    def __contains__(self, key: Any) -> bool:
        return key in self._groups

    def __len__(self) -> int:
        return len(self._groups)

    def __repr__(self) -> str:
        return f"KeyMultiValue({len(self._groups)} keys)"
