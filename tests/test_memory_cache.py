"""Unit tests for the speculative cache."""

import pytest

from repro.memory import AddressMap, SpeculativeCache


@pytest.fixture
def amap():
    return AddressMap(line_size=32, word_size=4)


def small_cache(amap, ways=2, sets=4, granularity="word"):
    size = ways * sets * amap.line_size
    return SpeculativeCache(amap, size, ways, granularity=granularity)


def test_geometry(amap):
    cache = SpeculativeCache(amap, 32 * 1024, 4)
    assert cache.n_sets == 256
    assert cache.ways == 4


def test_bad_geometry_rejected(amap):
    with pytest.raises(ValueError):
        SpeculativeCache(amap, 33, 4)
    with pytest.raises(ValueError):
        SpeculativeCache(amap, 32 * 1024, 4, granularity="byte")


def test_read_miss_returns_none(amap):
    cache = small_cache(amap)
    assert cache.read(0, 0) is None
    assert cache.stats.misses == 1


def test_fill_then_read_hits(amap):
    cache = small_cache(amap)
    cache.fill(3, [10 * w for w in range(8)])
    assert cache.read(3, 2) == 20
    assert cache.stats.hits == 1


def test_speculative_read_sets_sr_bit(amap):
    cache = small_cache(amap)
    cache.fill(3, [0] * 8)
    cache.read(3, 5)
    assert cache.lookup(3).sr_mask == 1 << 5


def test_nonspeculative_read_leaves_sr_clear(amap):
    cache = small_cache(amap)
    cache.fill(3, [0] * 8)
    cache.read(3, 5, speculative=False)
    assert cache.lookup(3).sr_mask == 0


def test_speculative_write_sets_sm_not_dirty(amap):
    cache = small_cache(amap)
    cache.fill(3, [0] * 8)
    assert cache.write(3, 1, 99)
    entry = cache.lookup(3)
    assert entry.sm_mask == 1 << 1
    assert not entry.dirty
    assert entry.data[1] == 99


def test_nonspeculative_write_sets_dirty(amap):
    cache = small_cache(amap)
    cache.fill(3, [0] * 8)
    cache.write(3, 1, 99, speculative=False)
    entry = cache.lookup(3)
    assert entry.dirty
    assert entry.sm_mask == 0


def test_write_miss_returns_false(amap):
    cache = small_cache(amap)
    assert not cache.write(3, 0, 1)


def test_line_granularity_sets_full_masks(amap):
    cache = small_cache(amap, granularity="line")
    cache.fill(3, [0] * 8)
    cache.read(3, 2)
    assert cache.lookup(3).sr_mask == amap.full_line_mask
    cache.write(3, 0, 1)
    assert cache.lookup(3).sm_mask == amap.full_line_mask


def test_lru_eviction_of_clean_line(amap):
    cache = small_cache(amap, ways=2, sets=1)
    cache.fill(0, [0] * 8)
    cache.fill(1, [0] * 8)
    cache.read(0, 0)  # make line 1 the LRU
    notice = cache.fill(2, [0] * 8)
    assert notice is not None
    assert notice.line == 1
    assert not notice.dirty
    assert not cache.contains(1)


def test_dirty_eviction_reports_data(amap):
    cache = small_cache(amap, ways=1, sets=1)
    cache.fill(0, [5] * 8)
    cache.write(0, 0, 42, speculative=False)
    notice = cache.fill(1, [0] * 8)
    assert notice.dirty
    assert notice.data[0] == 42
    assert cache.stats.dirty_evictions == 1


def test_speculative_lines_never_evicted(amap):
    cache = small_cache(amap, ways=2, sets=1)
    cache.fill(0, [0] * 8)
    cache.fill(1, [0] * 8)
    cache.read(0, 0)
    cache.write(1, 0, 1)
    # Both resident lines are speculative; the set must overflow.
    notice = cache.fill(2, [0] * 8)
    assert notice is None
    assert cache.stats.speculative_overflows == 1
    assert cache.contains(0) and cache.contains(1) and cache.contains(2)


def test_refill_keeps_locally_valid_words(amap):
    cache = small_cache(amap)
    cache.fill(0, [1] * 8)
    # All words valid locally: a refill must not clobber them (they may be
    # dirtier/newer than memory's copy).
    assert cache.fill(0, [2] * 8) is None
    assert cache.read(0, 0, speculative=False) == 1


def test_refill_fills_only_invalid_words(amap):
    cache = small_cache(amap)
    cache.fill(0, [1] * 8)
    cache.invalidate_words(0, 0b0000_0110)  # words 1 and 2 invalid
    assert cache.read(0, 1, speculative=False) is None
    cache.fill(0, [2] * 8)
    assert cache.read(0, 1, speculative=False) == 2
    assert cache.read(0, 0, speculative=False) == 1


def test_invalidate_words_drops_fully_invalid_line(amap):
    cache = small_cache(amap)
    cache.fill(0, [1] * 8)
    cache.invalidate_words(0, amap.full_line_mask)
    assert not cache.contains(0)


def test_invalidate_words_clears_speculative_flags(amap):
    cache = small_cache(amap)
    cache.fill(0, [1] * 8)
    cache.read(0, 1)
    cache.write(0, 2, 9)
    entry = cache.invalidate_words(0, 0b0000_0110)
    assert entry.sr_mask == 0
    assert entry.sm_mask == 0
    assert cache.contains(0)


def test_valid_words_payload(amap):
    cache = small_cache(amap)
    cache.fill(0, list(range(8)))
    cache.invalidate_words(0, 0b0000_0001)
    entry = cache.lookup(0)
    words = entry.valid_words()
    assert 0 not in words
    assert words[3] == 3
    assert len(words) == 7


def test_commit_promotes_sm_to_dirty_and_clears_flags(amap):
    cache = small_cache(amap)
    cache.fill(0, [0] * 8)
    cache.fill(1, [0] * 8)
    cache.write(0, 0, 7)
    cache.read(1, 3)
    committed = cache.commit_speculative()
    assert committed == [0]
    assert cache.lookup(0).dirty
    assert cache.lookup(0).sm_mask == 0
    assert cache.lookup(1).sr_mask == 0
    assert cache.lookup(0).data[0] == 7


def test_abort_drops_written_lines_keeps_read_lines(amap):
    cache = small_cache(amap)
    cache.fill(0, [0] * 8)
    cache.fill(1, [11] * 8)
    cache.write(0, 0, 7)
    cache.read(1, 3)
    dropped = cache.abort_speculative()
    assert dropped == [0]
    assert not cache.contains(0)
    entry = cache.lookup(1)
    assert entry.sr_mask == 0
    assert entry.data == [11] * 8


def test_written_and_read_line_queries(amap):
    cache = small_cache(amap)
    cache.fill(0, [0] * 8)
    cache.fill(1, [0] * 8)
    cache.write(0, 0, 1)
    cache.read(1, 0)
    assert [e.line for e in cache.written_lines()] == [0]
    assert [e.line for e in cache.read_lines()] == [1]


def test_invalidate_removes_line(amap):
    cache = small_cache(amap)
    cache.fill(0, [3] * 8)
    entry = cache.invalidate(0)
    assert entry.data == [3] * 8
    assert cache.invalidate(0) is None


def test_clear_dirty(amap):
    cache = small_cache(amap)
    cache.fill(0, [0] * 8, dirty=True)
    cache.clear_dirty(0)
    assert not cache.lookup(0).dirty


def test_hit_rate(amap):
    cache = small_cache(amap)
    cache.fill(0, [0] * 8)
    cache.read(0, 0)
    cache.read(9, 0)
    assert cache.stats.hit_rate == 0.5
    assert cache.stats.accesses == 2


def test_sets_get_a_bucket_on_first_fill_only(amap):
    cache = small_cache(amap, ways=2, sets=4)
    assert list(cache.buckets()) == []
    # Misses, probes and invalidations of unfilled sets allocate nothing.
    assert cache.read(1, 0) is None
    assert cache.write(1, 0, 5) is False
    assert cache.lookup(2) is None and not cache.contains(3)
    assert cache.invalidate(1) is None
    assert cache.invalidate_words(2, 0xFF) is None
    cache.clear_dirty(3)
    assert list(cache.buckets()) == []
    cache.fill(5, [0] * 8)
    assert [list(bucket) for bucket in cache.buckets()] == [[5]]
    assert cache.resident_lines() == 1


def test_buckets_iterate_in_set_order_and_lines_in_insertion_order(amap):
    cache = small_cache(amap, ways=4, sets=4)
    for line in (6, 1, 5, 2, 9, 3):
        cache.fill(line, [0] * 8)
    # sets 1: 1, 5, 9; 2: 6, 2; 3: 3 (set 0 never filled)
    assert [list(bucket) for bucket in cache.buckets()] == [[1, 5, 9], [6, 2], [3]]


def test_cache_records_are_slotted(amap):
    cache = small_cache(amap)
    cache.fill(0, [0] * 8)
    entry = cache.lookup(0)
    assert not hasattr(entry, "__dict__")
    with pytest.raises(AttributeError):
        entry.unknown = 1
