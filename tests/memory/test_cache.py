"""Set-associative cache: geometry, LRU, state tracking."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.memory.cache import MODIFIED, SHARED, CacheConfig, SetAssociativeCache


class TestConfig:
    def test_paper_configuration(self):
        config = CacheConfig()  # 512 KB, 4-way, 64 B
        assert config.num_sets == 2048
        assert config.num_lines == 8192

    def test_bad_line_size_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(line_size=48)

    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=3 * 1024, associativity=4)  # 12 sets

    def test_odd_associativity_allowed(self):
        config = CacheConfig(size_bytes=12 * 1024, associativity=6)
        assert config.num_sets == 32

    def test_misaligned_size_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000, associativity=4)


def small_cache(ways=2, sets=2):
    return SetAssociativeCache(
        CacheConfig(size_bytes=64 * ways * sets, associativity=ways, line_size=64)
    )


class TestBasicOperations:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert cache.get_state(5) is None
        cache.insert(5, SHARED)
        assert cache.get_state(5) == SHARED

    def test_set_state(self):
        cache = small_cache()
        cache.insert(5, SHARED)
        cache.set_state(5, MODIFIED)
        assert cache.get_state(5) == MODIFIED

    def test_set_state_absent_rejected(self):
        with pytest.raises(KeyError):
            small_cache().set_state(5, MODIFIED)

    def test_invalidate_returns_state(self):
        cache = small_cache()
        cache.insert(5, MODIFIED)
        assert cache.invalidate(5) == MODIFIED
        assert cache.get_state(5) is None

    def test_invalidate_absent_returns_none(self):
        assert small_cache().invalidate(5) is None

    def test_reinsert_updates_state_without_eviction(self):
        cache = small_cache()
        cache.insert(4, SHARED)
        assert cache.insert(4, MODIFIED) is None
        assert cache.get_state(4) == MODIFIED
        assert len(cache) == 1


class TestLru:
    def test_evicts_least_recently_used(self):
        cache = small_cache(ways=2, sets=1)
        cache.insert(1, SHARED)
        cache.insert(2, SHARED)
        victim = cache.insert(3, SHARED)
        assert victim == (1, SHARED)

    def test_touch_refreshes_recency(self):
        cache = small_cache(ways=2, sets=1)
        cache.insert(1, SHARED)
        cache.insert(2, SHARED)
        cache.touch(1)
        victim = cache.insert(3, SHARED)
        assert victim == (2, SHARED)

    def test_blocks_map_to_sets_by_low_bits(self):
        cache = small_cache(ways=1, sets=2)
        cache.insert(0, SHARED)  # set 0
        cache.insert(1, SHARED)  # set 1
        assert len(cache) == 2  # no conflict
        victim = cache.insert(2, SHARED)  # set 0 again
        assert victim == (0, SHARED)

    def test_victim_state_reported(self):
        cache = small_cache(ways=1, sets=1)
        cache.insert(1, MODIFIED)
        assert cache.insert(2, SHARED) == (1, MODIFIED)


@given(st.lists(st.integers(min_value=0, max_value=63), max_size=300))
def test_capacity_never_exceeded(blocks):
    """Residency never exceeds associativity per set or total capacity."""
    cache = small_cache(ways=2, sets=4)
    for block in blocks:
        cache.insert(block, SHARED)
    assert len(cache) <= 8
    resident = cache.resident_blocks()
    assert len(resident) == len(set(resident))
    for cache_set in cache.sets:
        assert len(cache_set) <= 2


@given(st.lists(st.integers(min_value=0, max_value=31), min_size=1, max_size=200))
def test_most_recent_insert_always_resident(blocks):
    cache = small_cache(ways=2, sets=2)
    for block in blocks:
        cache.insert(block, SHARED)
    assert cache.get_state(blocks[-1]) == SHARED
