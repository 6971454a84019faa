"""The size-bounded LRU map every per-request cache sits on."""

import pytest

from repro.util.lru import LRUCache


def test_keeps_at_most_capacity_and_counts_evictions():
    cache = LRUCache(3)
    for n in range(10):
        cache.put(n, str(n))
    assert len(cache) == 3
    assert list(cache) == [7, 8, 9]
    assert cache.evictions == 7


def test_get_refreshes_recency_and_peek_does_not():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.peek("a") == 1
    cache.put("c", 3)  # "a" was only peeked: it is still the oldest
    assert "a" not in cache
    assert cache.get("b") == 2
    cache.put("d", 4)  # "b" was read: "c" goes
    assert list(cache) == ["b", "d"]
    assert cache.get("missing") is None


def test_overwrite_refreshes_without_evicting():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("a", 10)
    assert list(cache) == ["b", "a"]
    assert cache.evictions == 0
    assert cache["a"] == 10


def test_pop_and_clear_are_not_evictions():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.pop("a") == 1
    assert cache.pop("a") is None
    cache.clear()
    assert len(cache) == 0
    assert cache.evictions == 0


def test_copies_as_a_mapping():
    cache = LRUCache(4)
    cache.put("x", 1)
    cache.put("y", 2)
    assert dict(cache) == {"x": 1, "y": 2}
    with pytest.raises(KeyError):
        cache["z"]


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        LRUCache(0)
