"""Tests for device memory blocks, segments and allocator statistics."""

import pytest

from repro.device.memory import AllocatorStats, Block, Segment
from repro.errors import AllocatorStateError


def test_segment_starts_with_one_covering_free_block():
    segment = Segment(address=0x1000, size=4096, pool="small")
    blocks = list(segment.blocks())
    assert len(blocks) == 1
    assert blocks[0].address == 0x1000
    assert blocks[0].size == 4096
    assert not blocks[0].allocated
    assert segment.is_fully_free()


def test_segment_byte_accounting():
    segment = Segment(address=0, size=1024, pool="small")
    block = segment.first_block
    block.allocated = True
    assert segment.allocated_bytes() == 1024
    assert segment.free_bytes() == 0
    assert segment.largest_free_block() == 0


def test_block_end_address():
    segment = Segment(address=0x100, size=256, pool="small")
    assert segment.first_block.end_address == 0x100 + 256


def test_block_ids_are_unique():
    segment = Segment(address=0, size=512, pool="small")
    other = Segment(address=1024, size=512, pool="small")
    assert segment.first_block.block_id != other.first_block.block_id


def test_check_invariants_detects_gap():
    segment = Segment(address=0, size=1024, pool="small")
    segment.first_block.size = 512  # now the block list does not cover the segment
    with pytest.raises(AllocatorStateError):
        segment.check_invariants()


def test_check_invariants_detects_broken_links():
    segment = Segment(address=0, size=1024, pool="small")
    first = segment.first_block
    tail = Block(segment=segment, address=512, size=512)
    first.size = 512
    first.next = tail
    tail.prev = None  # broken back link
    with pytest.raises(AllocatorStateError):
        segment.check_invariants()


def test_allocator_stats_track_peaks():
    stats = AllocatorStats()
    stats.on_reserve(1000)
    stats.on_alloc(600)
    stats.on_alloc(300)
    stats.on_free(600)
    assert stats.allocated_bytes == 300
    assert stats.peak_allocated_bytes == 900
    assert stats.active_blocks == 1
    assert stats.peak_active_blocks == 2
    assert stats.reserved_bytes == 1000
    stats.on_release(1000)
    assert stats.reserved_bytes == 0
    assert stats.peak_reserved_bytes == 1000


def test_allocator_stats_to_dict_contains_all_counters():
    stats = AllocatorStats()
    data = stats.to_dict()
    expected_keys = {"allocated_bytes", "reserved_bytes", "active_blocks",
                     "peak_allocated_bytes", "peak_reserved_bytes", "peak_active_blocks",
                     "total_alloc_count", "total_free_count", "total_alloc_bytes",
                     "cache_hits", "cache_misses", "segment_allocs", "segment_frees",
                     "split_count", "coalesce_count"}
    assert expected_keys == set(data)


# -- identity semantics (allocator objects, not values) --------------------------------


def _twin_segments():
    """Two equal-valued first segments: rank 0's and rank 1's, both numbered from 1."""
    return (Segment(4096, 1 << 20, "small", segment_id=1, first_block_id=1),
            Segment(4096, 1 << 20, "small", segment_id=1, first_block_id=1))


def test_equal_valued_segments_compare_by_identity():
    # Field-wise equality walked first_block -> segment -> first_block ... forever.
    left, right = _twin_segments()
    assert left != right
    assert left == left


def test_equal_valued_blocks_compare_by_identity():
    left, right = _twin_segments()
    assert left.first_block != right.first_block
    assert left.first_block in [right.first_block, left.first_block]


def test_blocks_and_segments_are_hashable():
    left, right = _twin_segments()
    assert len({left.first_block, right.first_block, left.first_block}) == 2
    assert len({left, right}) == 2


def test_block_carries_no_instance_dict():
    block = Segment(address=0, size=512, pool="small").first_block
    assert not hasattr(block, "__dict__")
    with pytest.raises(AttributeError):
        block.scratch = 1
