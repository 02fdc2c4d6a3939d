"""Unit tests for the bounded LRU cache primitive."""

from repro.perf import LruCache
from repro.cache import MISS


class TestBasics:
    def test_miss_on_empty(self):
        cache = LruCache(4)
        assert cache.get("k") is MISS

    def test_put_get_roundtrip(self):
        cache = LruCache(4)
        cache.put("k", 42)
        assert cache.get("k") == 42
        assert "k" in cache
        assert len(cache) == 1

    def test_none_is_a_valid_value(self):
        cache = LruCache(4)
        cache.put("k", None)
        assert cache.get("k") is None
        assert cache.get("k") is not MISS

    def test_overwrite_keeps_one_entry(self):
        cache = LruCache(4)
        cache.put("k", 1)
        cache.put("k", 2)
        assert cache.get("k") == 2
        assert len(cache) == 1

    def test_clear_drops_entries_keeps_counters(self):
        cache = LruCache(4)
        cache.put("k", 1)
        cache.get("k")
        cache.get("absent")
        cache.clear()
        assert len(cache) == 0
        assert cache.get("k") is MISS
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2


class TestEviction:
    def test_lru_order(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b becomes least recently used
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache
        assert cache.stats.evictions == 1

    def test_put_refreshes_a_stored_key(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 3)  # refresh a; b becomes least recently used
        cache.put("c", 4)
        assert list(cache) == ["a", "c"]
        assert cache.get("a") == 3

    def test_bounded_size(self):
        cache = LruCache(3)
        for i in range(10):
            cache.put(f"k{i}", i)
        assert len(cache) == 3
        assert cache.stats.evictions == 7
        assert list(cache) == ["k7", "k8", "k9"]

    def test_zero_maxsize_disables_storage(self):
        cache = LruCache(0)
        cache.put("k", 1)
        assert len(cache) == 0
        assert cache.get("k") is MISS


class TestStats:
    def test_counters(self):
        cache = LruCache(4)
        cache.get("absent")
        cache.put("k", 1)
        cache.get("k")
        cache.get("k")
        stats = cache.stats
        assert stats.hits == 2
        assert stats.misses == 1
        assert stats.hit_rate == 2 / 3

    def test_hit_rate_of_untouched_cache_is_zero(self):
        assert LruCache(4).stats.hit_rate == 0.0

    def test_as_dict_is_json_friendly(self):
        cache = LruCache(4)
        cache.get("absent")
        d = cache.stats.as_dict()
        assert d == {"hits": 0, "misses": 1, "evictions": 0, "hit_rate": 0.0}

    def test_str_mentions_all_counters(self):
        text = str(LruCache(4).stats)
        for word in ("hits", "misses", "evictions"):
            assert word in text


class CountingKey:
    """A key that counts the calls of its ``__hash__``."""

    def __init__(self):
        self.hashes = 0

    def __hash__(self):
        self.hashes += 1
        return 0


class TestHashing:
    def test_miss_then_put_hashes_the_key_twice(self):
        # One hash for the lookup and one for the store; a tuple's hash
        # is not cached, and a big content key costs milliseconds each.
        cache = LruCache(4)
        key = CountingKey()
        assert cache.get(key) is MISS
        cache.put(key, 1)
        assert key.hashes == 2
