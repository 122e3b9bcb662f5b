"""Unit tests for the private L1/L2 hierarchy."""

import gc
import tracemalloc

import pytest

from repro import ScalableTCCSystem, SystemConfig
from repro.memory import AddressMap, PrivateHierarchy
from repro.memory.hierarchy import FLUSH_FIRST, HIT_L1, HIT_L2, MISS


@pytest.fixture
def amap():
    return AddressMap()


@pytest.fixture
def hier(amap):
    return PrivateHierarchy(amap, l1_size=4 * 32, l1_ways=2, l2_size=64 * 32, l2_ways=4)


def test_cold_load_misses(hier):
    result = hier.load(0, 0)
    assert result.outcome == MISS
    assert not result.hit


def test_fill_then_load_costs_l2_then_l1(hier):
    hier.fill(0, [5] * 8)
    # fill installs the L1 tag, so the first load is an L1 hit
    first = hier.load(0, 0)
    assert first.outcome == HIT_L1
    assert first.cycles == 1
    assert first.value == 5


def test_l1_capacity_miss_falls_to_l2(hier):
    # L1 filter: 4 lines, 2 ways, 2 sets. Lines 0,2,4 map to set 0.
    for line in (0, 2, 4):
        hier.fill(line, [line] * 8)
    result = hier.load(0, 0)  # line 0 evicted from the L1 filter by 4
    assert result.outcome == HIT_L2
    assert result.cycles == 6
    assert result.value == 0


def test_store_miss_requires_allocate(hier):
    assert hier.store(0, 0, 1).outcome == MISS


def test_store_hit_sets_sm(hier):
    hier.fill(0, [0] * 8)
    result = hier.store(0, 2, 42)
    assert result.hit
    assert hier.peek(0).sm_mask == 1 << 2
    assert hier.peek(0).data[2] == 42


def test_first_speculative_write_to_dirty_line_needs_flush(hier):
    hier.fill(0, [9] * 8, dirty=True)
    result = hier.store(0, 0, 1)
    assert result.outcome == FLUSH_FIRST
    assert result.flush_line == 0
    assert result.flush_words == {w: 9 for w in range(8)}
    # After the flush is acknowledged the store can proceed.
    hier.flushed(0)
    assert hier.store(0, 0, 1).hit
    assert not hier.peek(0).dirty
    assert hier.peek(0).sm_mask == 1


def test_second_speculative_write_needs_no_flush(hier):
    hier.fill(0, [9] * 8, dirty=True)
    hier.flushed(0)
    hier.store(0, 0, 1)
    assert hier.store(0, 1, 2).hit  # sm already set; no flush loop


def test_nonspeculative_store_never_asks_for_flush(hier):
    hier.fill(0, [9] * 8, dirty=True)
    assert hier.store(0, 0, 1, speculative=False).hit
    assert hier.peek(0).dirty


def test_fill_reports_dirty_evictions_only(amap):
    hier = PrivateHierarchy(amap, l1_size=32, l1_ways=1, l2_size=32, l2_ways=1)
    hier.fill(0, [1] * 8, dirty=True)
    notices = hier.fill(1, [2] * 8)  # same set, evicts dirty line 0
    assert len(notices) == 1
    assert notices[0].line == 0
    assert notices[0].data == [1] * 8
    notices = hier.fill(2, [3] * 8)  # evicts clean line 1: no notice
    assert notices == []


def test_invalidate_returns_state_and_clears_both_levels(hier):
    hier.fill(0, [1] * 8)
    hier.load(0, 3)
    old = hier.invalidate(0)
    assert old.sr_mask == 1 << 3
    assert hier.load(0, 3).outcome == MISS


def test_extract_for_writeback(hier):
    hier.fill(0, [4] * 8, dirty=True)
    data = hier.extract_for_writeback(0)
    assert data == {w: 4 for w in range(8)}
    assert hier.peek(0) is None
    assert hier.extract_for_writeback(0) is None


def test_commit_and_abort_delegate(hier):
    hier.fill(0, [0] * 8)
    hier.store(0, 0, 1)
    assert hier.written_lines()[0].line == 0
    assert hier.commit_speculative() == [0]
    hier.store(0, 1, 2)  # dirty now, needs flush
    assert hier.store(0, 1, 2).outcome == FLUSH_FIRST
    hier.flushed(0)
    hier.store(0, 1, 2)
    assert hier.abort_speculative() == [0]


def test_read_write_set_bytes(hier):
    hier.fill(0, [0] * 8)
    hier.fill(1, [0] * 8)
    hier.load(0, 0)
    hier.load(0, 1)
    hier.store(1, 0, 5)
    assert hier.read_set_bytes() == 8
    assert hier.write_set_bytes() == 4


def _filled_l1_sets(hier):
    return sum(bucket is not None for bucket in hier.l1._sets)


def test_tag_filter_sets_get_a_bucket_on_first_insert_and_lose_it_on_clear(hier):
    assert _filled_l1_sets(hier) == 0
    hier.load(0, 0)  # miss: invalidates the L1 tag, allocates nothing
    assert not hier.l1.contains(0)
    assert _filled_l1_sets(hier) == 0
    hier.fill(0, [0] * 8)
    hier.fill(1, [0] * 8)
    assert _filled_l1_sets(hier) == 2
    hier.l1.clear()
    assert _filled_l1_sets(hier) == 0
    assert not hier.l1.contains(0)
    hier.l1.insert(0)
    assert hier.l1.contains(0)
    assert _filled_l1_sets(hier) == 1


def test_full_system_build_allocates_under_two_megabytes():
    """The Table 2 machine at 32 CPUs models 32 x 512 KB of L2 and
    32 x 32 KB of L1; a build must not allocate per-set storage up front."""
    ScalableTCCSystem(SystemConfig(n_processors=2))  # import everything first
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        system = ScalableTCCSystem(SystemConfig(n_processors=32))
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(system.processors) == 32
    assert after - before < 2 * 2**20
