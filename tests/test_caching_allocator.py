"""Tests for the PyTorch-style caching allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import MemoryCategory
from repro.device.allocator import (
    CachingAllocator,
    LARGE_SEGMENT_SIZE,
    MIN_BLOCK_SIZE,
    SMALL_ALLOCATION_LIMIT,
    SMALL_SEGMENT_SIZE,
    make_allocator,
    place,
    round_block_size,
    segment_size_for,
)
from repro.device.device import Device
from repro.device.memory import RequestLog
from repro.device.spec import small_test_device
from repro.errors import InvalidFreeError, OutOfMemoryError
from repro.units import KIB, MIB


def make_caching_allocator(capacity=256 * MIB):
    return CachingAllocator(capacity)


# -- size rounding and segment sizing --------------------------------------------------


def test_round_block_size_rounds_up_to_512():
    assert round_block_size(1) == 512
    assert round_block_size(512) == 512
    assert round_block_size(513) == 1024
    assert round_block_size(0) == MIN_BLOCK_SIZE


def test_segment_size_for_small_and_large_requests():
    assert segment_size_for(1024) == SMALL_SEGMENT_SIZE
    assert segment_size_for(SMALL_ALLOCATION_LIMIT) == SMALL_SEGMENT_SIZE
    assert segment_size_for(2 * MIB) == LARGE_SEGMENT_SIZE
    huge = 64 * MIB + 3
    assert segment_size_for(huge) >= huge
    assert segment_size_for(huge) % (2 * MIB) == 0


# -- basic allocation -------------------------------------------------------------------


def test_allocate_returns_rounded_block_with_metadata():
    allocator = make_caching_allocator()
    block = allocator.allocate(1000, category=MemoryCategory.PARAMETER, tag="w")
    assert block.allocated
    assert block.size == 1024
    assert block.requested_size == 1000
    assert block.category is MemoryCategory.PARAMETER
    assert block.tag == "w"
    assert allocator.allocated_bytes == 1024


def test_small_allocations_share_one_segment():
    allocator = make_caching_allocator()
    for _ in range(10):
        allocator.allocate(10 * KIB)
    assert allocator.stats.segment_allocs == 1
    assert allocator.reserved_bytes == SMALL_SEGMENT_SIZE


def test_free_and_reuse_keeps_block_identity():
    allocator = make_caching_allocator()
    block = allocator.allocate(64 * KIB, tag="a")
    identity = block.block_id
    allocator.free(block)
    reused = allocator.allocate(64 * KIB, tag="b")
    assert reused.block_id == identity
    assert reused.tag == "b"
    assert allocator.stats.cache_hits >= 1


def test_best_fit_prefers_smallest_sufficient_block():
    allocator = make_caching_allocator()
    small = allocator.allocate(2 * MIB)       # large pool
    big = allocator.allocate(8 * MIB)
    allocator.free(small)
    allocator.free(big)
    reused = allocator.allocate(2 * MIB)
    assert reused.size <= 8 * MIB
    assert reused.block_id == small.block_id


def test_splitting_keeps_remainder_available():
    allocator = make_caching_allocator()
    block = allocator.allocate(512 * KIB)     # small pool, 2 MiB segment
    assert block.size == 512 * KIB
    second = allocator.allocate(512 * KIB)
    # Both fit in the same 2 MiB segment thanks to splitting.
    assert allocator.stats.segment_allocs == 1
    assert second.address >= block.end_address


def test_coalescing_merges_free_neighbours():
    allocator = make_caching_allocator()
    blocks = [allocator.allocate(256 * KIB) for _ in range(4)]
    for block in blocks:
        allocator.free(block)
    # After freeing everything the segment should hold one fully merged block.
    segment = allocator.segments()[0]
    assert segment.is_fully_free()
    free_blocks = [b for b in segment.blocks() if not b.allocated]
    assert len(free_blocks) == 1
    assert free_blocks[0].size == SMALL_SEGMENT_SIZE
    assert allocator.stats.coalesce_count >= 3


def test_double_free_raises():
    allocator = make_caching_allocator()
    block = allocator.allocate(1024)
    allocator.free(block)
    with pytest.raises(InvalidFreeError):
        allocator.free(block)


def test_out_of_memory_raises_with_details():
    allocator = make_caching_allocator(capacity=32 * MIB)
    allocator.allocate(20 * MIB)
    with pytest.raises(OutOfMemoryError) as excinfo:
        allocator.allocate(30 * MIB)
    assert excinfo.value.capacity == 32 * MIB


def test_oom_retries_after_releasing_cache():
    allocator = make_caching_allocator(capacity=64 * MIB)
    block = allocator.allocate(40 * MIB)
    allocator.free(block)  # cached, not released
    # A different-size allocation cannot reuse the cached block directly but the
    # allocator should release the cached segment and retry instead of failing.
    big = allocator.allocate(50 * MIB)
    assert big.size >= 50 * MIB


def test_empty_cache_releases_fully_free_segments():
    allocator = make_caching_allocator()
    block = allocator.allocate(4 * MIB)
    allocator.free(block)
    reserved_before = allocator.reserved_bytes
    released = allocator.empty_cache()
    assert released == reserved_before
    assert allocator.reserved_bytes == 0


def test_placement_reports_malloc_free_and_segment():
    requests = RequestLog()
    request = requests.malloc(1024, MemoryCategory.UNKNOWN, "x", 0)
    requests.free(request, 0)
    placement = place(requests, "caching", 256 * MIB)
    assert placement.stats.total_alloc_count == 1
    assert placement.stats.total_free_count == 1
    assert placement.segment_op.tolist() == [0]
    assert placement.segment_tags == ["segment:small"]


def test_allocation_advances_the_clock():
    """A request pays the bookkeeping overhead live; its segment reservation
    is the placement's, one overhead atom at the call that made it."""
    device = Device(small_test_device(256 * MIB))
    start = device.clock.now_ns
    device.allocate(1024)
    assert device.clock.now_ns == start + device.spec.allocator_overhead_ns
    assert device.place().segment_op.tolist() == [0]


def test_memory_snapshot_structure():
    allocator = make_caching_allocator()
    allocator.allocate(1024, tag="x")
    snapshot = allocator.memory_snapshot()
    assert len(snapshot) == 1
    assert snapshot[0]["pool"] == "small"
    assert any(entry["allocated"] for entry in snapshot[0]["blocks"])


def test_make_allocator_unknown_name():
    with pytest.raises(KeyError, match="unknown allocator"):
        make_allocator("nope", 256 * MIB)


# -- property-based: random workloads keep the allocator consistent -----------------------


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=4 * MIB), min_size=1, max_size=40),
       st.data())
def test_random_alloc_free_sequences_preserve_invariants(sizes, data):
    allocator = make_caching_allocator(capacity=512 * MIB)
    live = []
    for size in sizes:
        # Randomly interleave frees of previously allocated blocks.
        if live and data.draw(st.booleans()):
            index = data.draw(st.integers(min_value=0, max_value=len(live) - 1))
            allocator.free(live.pop(index))
        block = allocator.allocate(size)
        assert block.size >= size
        live.append(block)
        allocator.check_invariants()
        # No two live blocks overlap in the address space.
        spans = sorted((b.address, b.end_address) for b in live)
        for (_, first_end), (second_start, _) in zip(spans, spans[1:]):
            assert first_end <= second_start
    for block in live:
        allocator.free(block)
    allocator.check_invariants()
    assert allocator.allocated_bytes == 0


# -- the indexed free list (PR 4) ---------------------------------------------------


def test_indexed_free_list_fifo_tiebreak_matches_linear_scan_order():
    from repro.device.allocator import IndexedFreeList
    from repro.device.memory import Block, Segment

    segment = Segment(address=0x1000, size=8192, pool="small")
    blocks = [Block(segment=segment, address=0x1000 + i * 1024, size=1024)
              for i in range(4)]
    index = IndexedFreeList("fifo")
    for block in blocks:
        index.add(block)
    # Equal sizes: oldest insertion wins, exactly like the old first-match scan.
    assert index.take_best_fit(512) is blocks[0]
    assert index.take_best_fit(1024) is blocks[1]
    assert len(index) == 2 and blocks[2] in index


def test_indexed_free_list_address_tiebreak_and_best_fit():
    from repro.device.allocator import IndexedFreeList
    from repro.device.memory import Block, Segment

    segment = Segment(address=0x1000, size=1 << 20, pool="arena")
    small_hi = Block(segment=segment, address=0x9000, size=2048)
    small_lo = Block(segment=segment, address=0x3000, size=2048)
    large = Block(segment=segment, address=0x1000, size=8192)
    index = IndexedFreeList("address")
    for block in (small_hi, small_lo, large):
        index.add(block)
    # Best fit picks the smallest sufficient size; ties go to the lower address.
    assert index.take_best_fit(1024) is small_lo
    assert index.take_best_fit(4096) is large
    assert index.take_best_fit(4096) is None


def test_indexed_free_list_discard_is_exact():
    from repro.device.allocator import IndexedFreeList
    from repro.device.memory import Block, Segment

    segment = Segment(address=0x1000, size=8192, pool="small")
    a = Block(segment=segment, address=0x1000, size=1024)
    b = Block(segment=segment, address=0x1400, size=1024)
    index = IndexedFreeList("fifo")
    index.add(a)
    index.add(b)
    assert index.discard(a) is True
    assert index.discard(a) is False       # idempotent
    assert a not in index and b in index
    assert index.take_best_fit(1024) is b


def test_indexed_free_list_rejects_unknown_tiebreak():
    import pytest as _pytest

    from repro.device.allocator import IndexedFreeList

    with _pytest.raises(ValueError):
        IndexedFreeList("lifo")
