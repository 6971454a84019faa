"""A size-bounded least-recently-used map.

Every cache a long-running daemon keeps per request (KeyNote decisions,
principal canonicalisation, signature outcomes) sits on this one
primitive: a key space fed by remote callers is unbounded (fresh proxy
keys, fresh attribute values), so each cache keeps at most ``capacity``
entries and drops the least recently used one past it, counting every
drop in :attr:`LRUCache.evictions`.

The map takes no lock of its own.  Each owner already serialises its
cache traffic under its own lock (the compliance checker's mutation lock,
the signature cache's lock); :meth:`LRUCache.peek` is the one read that
is safe without it, since it does not reorder.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Hashable, Iterator, KeysView, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class LRUCache(Generic[K, V]):
    """At most ``capacity`` entries, least recently used out first.

    >>> cache = LRUCache(2)
    >>> cache.put("a", 1); cache.put("b", 2)
    >>> cache.get("a")
    1
    >>> cache.put("c", 3)        # "b" was used least recently
    >>> sorted(cache), cache.evictions
    (['a', 'c'], 1)
    """

    __slots__ = ("capacity", "evictions", "_entries")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity!r}")
        self.capacity = capacity
        #: entries dropped to stay within :attr:`capacity`
        self.evictions = 0
        self._entries: OrderedDict[K, V] = OrderedDict()

    def get(self, key: K) -> "V | None":
        """The value under ``key`` (None when absent), now the most
        recently used."""
        entries = self._entries
        value = entries.get(key)
        if value is not None:
            entries.move_to_end(key)
        return value

    def peek(self, key: K) -> "V | None":
        """The value under ``key`` without touching its recency."""
        return self._entries.get(key)

    def put(self, key: K, value: V) -> None:
        """Store ``value`` as the most recently used entry, evicting the
        least recently used one when the map is full."""
        entries = self._entries
        entries[key] = value
        entries.move_to_end(key)
        if len(entries) > self.capacity:
            entries.popitem(last=False)
            self.evictions += 1

    def pop(self, key: K) -> "V | None":
        """Remove and return the value under ``key`` (None when absent);
        not counted as an eviction."""
        return self._entries.pop(key, None)

    def clear(self) -> None:
        """Drop every entry (not counted as evictions)."""
        self._entries.clear()

    def __getitem__(self, key: K) -> V:
        """The value under ``key`` without touching its recency (raises
        KeyError when absent), so ``dict(cache)`` copies a cache."""
        return self._entries[key]

    def keys(self) -> "KeysView[K]":
        return self._entries.keys()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[K]:
        """Keys, least recently used first."""
        return iter(self._entries)
